//! The LNS lane kernel allocates nothing per call, enforced with a
//! counting global allocator in the style of `tests/plan_alloc.rs`: the
//! mass log words it streams live in board j-memory from `load_j`, so a
//! steady-state board compute performs **zero** heap allocations on
//! every lane path, and a steady-state `force_on` allocates no more in
//! LNS mode than in exact mode (the call's own result vector and
//! board-dispatch scaffolding), however many j-particles are resident.

use grape5_nbody::grape5::board::ProcessorBoard;
use grape5_nbody::grape5::pipeline::JWord;
use grape5_nbody::grape5::{ArithMode, Force, G5Pipeline, Grape5, Grape5Config, LanePath};
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

    // board level: zero allocations on every lane path
    let cfg = Grape5Config { mode: ArithMode::Lns, ..Grape5Config::paper() };
    let mut pipe = G5Pipeline::new(&cfg, scaler.quantum(), 0.01);
    let words: Vec<JWord> = (0..snap.pos.len())
        .map(|k| JWord { raw: raw(k), m_lns: pipe.encode_mass(snap.mass[k]), m: snap.mass[k] })
        .collect();
    let mut board = ProcessorBoard::new(&cfg);
    board.load_j(&words);
    let xi: Vec<[i64; 3]> = (0..100).map(raw).collect();
    let mut out: Vec<Force> = Vec::new();
    let mut paths = vec![LanePath::Scalar, LanePath::Portable];
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        paths.push(LanePath::Avx2);
    }
    for path in paths {
        pipe.set_lane_path(path);
        board.compute_into(&pipe, &xi, 1.0, &mut out); // warm: sizes `out`
        let n = allocs_during(|| board.compute_into(&pipe, &xi, 1.0, &mut out));
        assert_eq!(n, 0, "steady-state LNS board compute allocated on {path:?}");
    }

    // system level: LNS force_on costs what exact force_on costs, and
    // the cost does not grow with the resident j-count
    let steady_force_on = |mode: ArithMode, nj: usize| {
        let mut g5 = Grape5::open(Grape5Config { mode, ..Grape5Config::paper() });
        g5.set_range(-8.0, 8.0);
        g5.set_eps(0.01);
        g5.set_j_particles(&snap.pos[..nj], &snap.mass[..nj]);
        let _ = g5.force_on(&snap.pos[..100]); // warm: scratch buffers, ROMs
        (0..3).map(|_| allocs_during(|| drop(g5.force_on(&snap.pos[..100])))).min().unwrap()
    };
    let exact = steady_force_on(ArithMode::Exact, 1500);
    let lns = steady_force_on(ArithMode::Lns, 1500);
    let lns_half = steady_force_on(ArithMode::Lns, 750);
    assert!(lns <= exact, "LNS force_on allocates {lns} times, exact mode {exact}");
    assert_eq!(lns, lns_half, "LNS force_on allocations grow with the j-count");
}
