//! The steady-state device call allocates nothing but its result,
//! enforced with a counting global allocator in the style of
//! `tests/plan_alloc.rs`:
//!
//! * the mass log words the LNS lane kernel streams live in board
//!   j-memory from the load, so a steady-state board compute performs
//!   **zero** heap allocations on every lane path;
//! * a steady-state `force_on` allocates exactly its returned
//!   `Vec<Force>` in both arithmetic modes, however many j-particles
//!   are resident;
//! * the whole host-library call of one short group — a warmed
//!   `DeviceSession::try_force_for`, and `load_j` + `try_force_on` —
//!   allocates that one vector and nothing else: the j-load quantizes
//!   into retained columns, the session's host-side copy reuses its
//!   buffers, and a call below the spawn-repay threshold dispatches its
//!   boards on the calling thread on any CPU count;
//! * a warmed self block — the whole set, or a run of it as the one
//!   call of a window (`DeviceSession::open_window` +
//!   `try_force_in_window`) — allocates that one vector too, in both
//!   arithmetic modes.

use grape5_nbody::grape5::board::ProcessorBoard;
use grape5_nbody::grape5::pipeline::JWord;
use grape5_nbody::grape5::{
    ArithMode, DeviceSession, Force, G5Pipeline, Grape5, Grape5Config, LanePath, WindowCall,
};
use grape5_nbody::ic::plummer_sphere;
use grape5_nbody::util::fixed::RangeScaler;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

// one test function: the counter is process-wide, so the measurements
// must not run beside each other
#[test]
fn steady_state_lns_force_calls_allocate_nothing_per_interaction() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
    let snap = plummer_sphere(1500, &mut rng);
    let scaler = RangeScaler::new(-8.0, 8.0, 32);
    let raw = |k: usize| {
        let p = snap.pos[k];
        [scaler.quantize(p.x), scaler.quantize(p.y), scaler.quantize(p.z)]
    };

    // board level: zero allocations on every lane path, in either mode
    let mut paths = vec![LanePath::Scalar];
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        paths.push(LanePath::Avx2);
    }
    for mode in [ArithMode::Exact, ArithMode::Lns] {
        let cfg = Grape5Config { mode, ..Grape5Config::paper() };
        let mut pipe = G5Pipeline::new(&cfg, scaler.quantum(), 0.01);
        let words: Vec<JWord> = (0..snap.pos.len())
            .map(|k| JWord { raw: raw(k), m_lns: pipe.encode_mass(snap.mass[k]), m: snap.mass[k] })
            .collect();
        let mut board = ProcessorBoard::new(&cfg);
        board.load_j(&words);
        let xi: Vec<[i64; 3]> = (0..100).map(raw).collect();
        let mut out: Vec<Force> = Vec::new();
        for &path in &paths {
            pipe.set_lane_path(path);
            board.compute_into(&pipe, &xi, 1.0, &mut out); // warm: sizes `out`
            let n = allocs_during(|| board.compute_into(&pipe, &xi, 1.0, &mut out));
            assert_eq!(n, 0, "steady-state {mode:?} board compute allocated on {path:?}");
        }
    }

    // system level: a steady-state force_on allocates its returned
    // vector only, in either mode, whatever the resident j-count
    // (80 × 1500 interactions: below the spawn-repay threshold, so the
    // boards run on this thread on any machine)
    let steady_force_on = |mode: ArithMode, nj: usize| {
        let mut g5 = Grape5::open(Grape5Config { mode, ..Grape5Config::paper() });
        g5.set_range(-8.0, 8.0);
        g5.set_eps(0.01);
        g5.set_j_particles(&snap.pos[..nj], &snap.mass[..nj]);
        let _ = g5.force_on(&snap.pos[..80]); // warm: scratch buffers, ROMs
        (0..3).map(|_| allocs_during(|| drop(g5.force_on(&snap.pos[..80])))).max().unwrap()
    };
    for (mode, nj) in [(ArithMode::Exact, 1500), (ArithMode::Lns, 1500), (ArithMode::Lns, 750)] {
        assert_eq!(steady_force_on(mode, nj), 1, "{mode:?} force_on on {nj} j-particles");
    }

    // host-library level: the whole call of one n_g = 32 group (9
    // targets against a ~1500-term list), the way TreeGrape drives it
    // (try_force_for) and the way the staged benchmark half does
    // (load_j + try_force_on). Lists of varying length, all within the
    // warmed capacity, as a traversal produces them.
    for mode in [ArithMode::Exact, ArithMode::Lns] {
        let mut g5 = Grape5::open(Grape5Config { mode, ..Grape5Config::paper() });
        let mut session = DeviceSession::open(&mut g5, &snap.pos, 0.01);
        let xi = &snap.pos[..9];
        let warm = session.try_force_for(&snap.pos, &snap.mass, xi).unwrap();
        session.load_j(&snap.pos, &snap.mass);
        assert_eq!(session.try_force_on(xi).unwrap(), warm);
        for nj in [1500, 1203, 7, 1499] {
            let (jpos, jmass) = (&snap.pos[..nj], &snap.mass[..nj]);
            let n = allocs_during(|| drop(session.try_force_for(jpos, jmass, xi).unwrap()));
            assert_eq!(n, 1, "{mode:?} try_force_for on {nj} j-particles");
            let n = allocs_during(|| session.load_j(jpos, jmass));
            assert_eq!(n, 0, "{mode:?} load_j of {nj} j-particles");
            let n = allocs_during(|| drop(session.try_force_on(xi).unwrap()));
            assert_eq!(n, 1, "{mode:?} try_force_on against {nj} resident j-particles");
        }
    }

    // self blocks take the symmetric kernels, whose working set the
    // device keeps: warm, they too allocate their result only, in either
    // mode — a self call (one board, forces on the very set it holds, the
    // call a `g5serve` tenant makes) and a run of 128 inside a list of
    // 1,000 on two boards (a tree group's members inside its list; below
    // the spawn-repay threshold, so on this thread on any machine)
    for mode in [ArithMode::Exact, ArithMode::Lns] {
        let mut g5 = Grape5::open(Grape5Config { boards: 1, mode, ..Grape5Config::paper() });
        let (pos, mass) = (&snap.pos[..600], &snap.mass[..600]);
        let mut session = DeviceSession::open(&mut g5, &snap.pos, 0.01);
        let warm = session.try_force_for(pos, mass, pos).unwrap();
        let n = allocs_during(|| drop(session.try_force_for(pos, mass, pos).unwrap()));
        assert_eq!(n, 1, "{mode:?} self call through try_force_for");
        let n = allocs_during(|| assert_eq!(session.force_on(pos), warm));
        assert_eq!(n, 1, "{mode:?} self call through force_on");
        let mut g5 = Grape5::open(Grape5Config { mode, ..Grape5Config::paper() });
        let mut session = DeviceSession::open(&mut g5, &snap.pos, 0.01);
        let (jpos, jmass, xi) = (&snap.pos[..1000], &snap.mass[..1000], &snap.pos[300..428]);
        let call =
            WindowCall { list_len: 1000, first: 300, members: 128, members_at: 300, bodies: &[] };
        let mut run = || {
            session.open_window(std::iter::once(call));
            let f = session.try_force_in_window((jpos, jmass), xi, 0).unwrap();
            session.close_window();
            f
        };
        let warm = run();
        let _ = run();
        let n = allocs_during(|| drop(run()));
        assert_eq!(n, 1, "{mode:?} a run as the one call of a window");
        assert_eq!(session.try_force_for(jpos, jmass, xi).unwrap(), warm);
    }

    // `LanePath::Avx2` above ran the op column and the LNS lanes this
    // CPU has, a fact of the process: one that resolved it from the CPU
    // alone counts once more in a child pinned to the AVX2 column and
    // eight lanes (after the measurements — spawning allocates)
    if std::env::var_os("G5_LANE_PATH").is_none() {
        let out = std::process::Command::new(std::env::current_exe().expect("the test binary"))
            .env("G5_LANE_PATH", "avx2")
            .output()
            .expect("re-run the test binary");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success() && text.contains("1 passed"), "pinned to avx2:\n{text}");
    }
}
