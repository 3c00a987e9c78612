//! **E11 — host-phase throughput: SoA traversal, scratch reuse, and
//! tree refresh vs the pre-overhaul path.**
//!
//! PR 3 made the device kernel 3.3× faster, so by Amdahl the host tree
//! phase — full rebuild every step, an allocation per walk, a fresh
//! `Vec` per list — became the wall-clock ceiling, exactly the regime
//! §3 of the paper describes where the workstation saturates before
//! GRAPE does. This harness measures what the overhaul bought, A/B in
//! the same process on the same drifting snapshot:
//!
//! * **reference** — the pre-PR host phase: `Tree::build_with` every
//!   step, allocating `find_groups`, and the kept recursive
//!   `modified_list_reference` walk with a fresh output `Vec` per
//!   group;
//! * **new** — full build every K-th step and `Tree::refresh` (moment
//!   re-accumulation on the frozen topology, drift-inflated group
//!   spheres) in between, groups found into retained buffers, and the
//!   explicit-stack `modified_list` walk over the SoA node columns
//!   with one list buffer per worker.
//!
//! Both traversals must produce the same number of terms on rebuild
//! steps (the walks are bit-identical there — enforced); refresh steps
//! may produce slightly longer lists because the inflated spheres are
//! conservative. Results go to a table, per-phase rates, and a JSON
//! report (default `artifacts/exp_host.json`, git-ignored — a
//! committed `BENCH_pr*.json` is only ever written by naming it); when
//! a baseline file exists its numbers are read first and a delta is
//! printed, so CI can diff a fresh `--quick` run against the committed
//! report.
//!
//! Three **short-list** rows ride along, measured on the real
//! interaction lists of the `n_g = 32` operating point (Plummer
//! N = 16,384, θ = 0.5 — ≈ 1,850 lists of ≈ 1,550 terms; every 8th
//! under `--quick`):
//!
//! * **emit A/B** (PR 19) — ns per resolved term of the list the plan
//!   hands the device: the walk into a `Vec<ListTerm>` followed by
//!   `ListTerm::resolve` per term through the `Node` array (how
//!   `plan::resolve_group_into` produced it before) against the fused
//!   emitter that writes `(pos, mass)` straight into the husk
//!   (`plan::stream`, inline); same lists bit for bit — enforced;
//! * **j-load A/B** — ns per j-particle of the pre-PR load (a fresh
//!   `Vec<JWord>` from scalar `RangeScaler::quantize` and
//!   `LnsConfig::encode`, then `ProcessorBoard::load_j` per board)
//!   against `Grape5::set_j_particles` (lane quantizer straight into
//!   the board columns), alternating rounds in the same run, fastest
//!   round of each;
//! * **short call** — µs per 9 × 1,556 `try_force_on` at this
//!   machine's CPU count, beside what a scoped-thread spawn + join and
//!   one `available_parallelism()` cost here: the measurements the
//!   inline-dispatch threshold in `grape5::system` is derived from; and
//!   the per-call residue PR 19 moved to the j-load — the 3·n_j-word
//!   window scan per board and the serial `Σ|m|` chain, re-enacted from
//!   public pieces — beside the whole session call as it is now.
//!
//! `--trajectory FILE --pr LABEL` appends their ratio forms to the
//! cross-PR ledger (`g5_bench::trajectory`).
//!
//! ```text
//! cargo run --release -p g5-bench --bin exp_host -- \
//!     [--quick] [--out artifacts/exp_host.json] [--baseline BENCH_pr19.json]
//!     [--trajectory BENCH_trajectory.json --pr pr19]
//! ```

use g5_bench::report::{self, Row};
use g5_bench::{fmt_count, plummer, row, rule, trajectory, Args};
use g5tree::plan::{self, PlanConfig, PlanPool};
use g5tree::traverse::{Traversal, TraverseScratch};
use g5tree::tree::{Tree, TreeConfig};
use g5util::morton_sort::{self, MortonFrame};
use g5util::vec3::Vec3;
use grape5::board::ProcessorBoard;
use grape5::pipeline::JWord;
use grape5::{bounding_window, ArithMode, DeviceSession, G5Pipeline, Grape5, Grape5Config};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 42;
const THETA: f64 = 0.6;
/// Per-step displacement scale, in units of the Plummer core radius —
/// small enough that a 4-step refresh interval stays inside the default
/// drift valve, large enough that moments genuinely change.
const DT: f64 = 1e-3;

/// Per-phase medians of one (N, n_crit, K) cell. Medians, not means:
/// the harness shares the machine with whatever else runs, and a single
/// preempted step would otherwise smear into every reported rate. The
/// per-step host times are reconstructed from the phase medians.
struct HostCell {
    n: usize,
    n_crit: usize,
    /// Refresh interval K of the new path (1 = rebuild every step).
    k: u32,
    steps: u64,
    /// Full build + group finding, median seconds. Both legs run the
    /// identical build, so their samples are pooled into one median:
    /// at K = 8 the new leg builds only once per window, and a single
    /// preempted sample would otherwise dominate its amortized term.
    build_s: f64,
    builds: u64,
    /// Median seconds per refresh (new path only).
    refresh_s: f64,
    refreshes: u64,
    groups: u64,
    /// Reference traversal, median seconds per step.
    trav_ref_s: f64,
    /// SoA-stack traversal, median seconds per step.
    trav_new_s: f64,
    terms: u64,
}

impl HostCell {
    /// Reference host phase: full build + recursive walk, every step.
    fn host_ref_s(&self) -> f64 {
        self.build_s + self.trav_ref_s
    }
    /// New host phase per step: builds amortized over the interval,
    /// refreshes in between, stack walk every step.
    fn host_new_s(&self) -> f64 {
        let update = (self.builds as f64 * self.build_s + self.refreshes as f64 * self.refresh_s)
            / self.steps as f64;
        update + self.trav_new_s
    }
    fn speedup(&self) -> f64 {
        self.host_ref_s() / self.host_new_s()
    }
    fn build_ns_per_particle(&self) -> f64 {
        self.build_s * 1e9 / self.n as f64
    }
    fn refresh_ns_per_particle(&self) -> f64 {
        self.refresh_s * 1e9 / self.n as f64
    }
    fn trav_ns_per_group(&self, per_step_s: f64) -> f64 {
        per_step_s * 1e9 / self.groups as f64
    }
}

/// Median of timing samples (n ≥ 1).
fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// The pre-overhaul traversal: recursive walk over `Node`s, fresh
/// output `Vec` per group (what `modified_lists` compiled to before
/// this PR). Returns total term count.
fn reference_lists(tree: &Tree, tr: &Traversal, groups: &[g5tree::traverse::Group]) -> u64 {
    groups
        .par_iter()
        .map(|&g| {
            let mut out = Vec::new();
            tr.modified_list_reference(tree, g, &mut out);
            out.len() as u64
        })
        .sum()
}

/// The overhauled traversal: explicit-stack walk over the SoA columns,
/// one retained list buffer per worker.
fn soa_lists(tree: &Tree, tr: &Traversal, groups: &[g5tree::traverse::Group]) -> u64 {
    groups
        .par_iter()
        .map_init(Vec::new, |buf, &g| {
            tr.modified_list(tree, g, buf);
            buf.len() as u64
        })
        .sum()
}

/// Run one (N, n_crit, K) cell: `steps` host phases over a snapshot
/// drifting along its Plummer velocities, reference and new path back
/// to back on identical positions each step.
fn measure(n: usize, n_crit: usize, k: u32, steps: u64) -> HostCell {
    let snap = plummer(n, SEED);
    let tr = Traversal::new(THETA);
    let cfg = TreeConfig::default();
    assert!(cfg.leaf_capacity <= n_crit, "cell violates the leaf_capacity <= n_crit invariant");

    let mut pos = snap.pos.clone();
    let mut build_ref = Vec::new();
    let mut build_new = Vec::new();
    let mut refresh = Vec::new();
    let mut trav_ref = Vec::new();
    let mut trav_new = Vec::new();
    let mut total_terms = 0u64;
    let mut n_groups = 0u64;

    // the new path's cached state, living across steps like TreeGrape's
    let mut cached: Option<Tree> = None;
    let mut groups_new = Vec::new();
    let mut gscratch = TraverseScratch::default();

    // untimed warmup: one full pass of each path so the timed loop sees
    // warm caches and faulted-in pages rather than cold-start costs
    {
        let tree = Tree::build_with(&pos, &snap.mass, cfg);
        let groups = tr.find_groups(&tree, n_crit);
        reference_lists(&tree, &tr, &groups);
        soa_lists(&tree, &tr, &groups);
    }

    for step in 0..steps {
        // ---- reference host phase: full build + recursive walk ----
        let t0 = Instant::now();
        let tree_ref = Tree::build_with(&pos, &snap.mass, cfg);
        let groups_ref = tr.find_groups(&tree_ref, n_crit);
        build_ref.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let terms_ref = reference_lists(&tree_ref, &tr, &groups_ref);
        trav_ref.push(t1.elapsed().as_secs_f64());

        // ---- new host phase: K-amortized build + SoA stack walk ----
        let rebuild = step % k as u64 == 0 || cached.as_ref().is_none();
        if rebuild {
            // retire the expired tree outside the timed window, like the
            // reference leg drops its tree outside its timed build
            cached = None;
        }
        let t2 = Instant::now();
        if rebuild {
            let tree = Tree::build_with(&pos, &snap.mass, cfg);
            tr.find_groups_into(&tree, n_crit, &mut gscratch, &mut groups_new);
            cached = Some(tree);
            build_new.push(t2.elapsed().as_secs_f64());
        } else {
            let tree = cached.as_mut().unwrap();
            tree.refresh(&pos, &snap.mass);
            refresh.push(t2.elapsed().as_secs_f64());
        }
        let tree_new = cached.as_ref().unwrap();
        let t3 = Instant::now();
        let terms_new = soa_lists(tree_new, &tr, &groups_new);
        trav_new.push(t3.elapsed().as_secs_f64());

        if rebuild {
            // on rebuild steps both paths walk identical trees with
            // zero drift: the stack walk must emit identical lists
            assert_eq!(
                terms_ref, terms_new,
                "SoA walk diverged from recursive reference on a fresh tree"
            );
        }
        total_terms += terms_new;
        n_groups = groups_new.len() as u64;

        // drift the snapshot along its own velocities for the next step
        for (p, v) in pos.iter_mut().zip(&snap.vel) {
            *p += *v * DT;
        }
    }
    let builds = build_new.len() as u64;
    // one pooled median for the identical build operation of both legs
    let mut build_all = build_ref;
    build_all.extend_from_slice(&build_new);
    HostCell {
        n,
        n_crit,
        k,
        steps,
        build_s: median(&build_all),
        builds,
        refresh_s: if refresh.is_empty() { 0.0 } else { median(&refresh) },
        refreshes: refresh.len() as u64,
        groups: n_groups,
        trav_ref_s: median(&trav_ref),
        trav_new_s: median(&trav_new),
        terms: total_terms,
    }
}

fn result_row(c: &HostCell) {
    println!(
        "{:>8} {:>6} {:>3} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>10.2} {:>10.2} {:>8.2}x",
        c.n,
        c.n_crit,
        c.k,
        c.build_ns_per_particle(),
        c.refresh_ns_per_particle(),
        c.trav_ns_per_group(c.trav_ref_s),
        c.trav_ns_per_group(c.trav_new_s),
        c.host_ref_s() * 1e3,
        c.host_new_s() * 1e3,
        c.speedup(),
    );
}

fn cell_row(c: &HostCell) -> Row {
    row! {
        "n": c.n, "n_crit": c.n_crit, "k": u64::from(c.k), "steps": c.steps,
        "build_ns_per_particle": c.build_ns_per_particle(),
        "refresh_ns_per_particle": c.refresh_ns_per_particle(), "groups": c.groups,
        "terms": c.terms, "trav_ref_ns_per_group": c.trav_ns_per_group(c.trav_ref_s),
        "trav_new_ns_per_group": c.trav_ns_per_group(c.trav_new_s),
        "host_ref_s_per_step": c.host_ref_s(), "host_new_s_per_step": c.host_new_s(),
        "speedup": c.speedup(),
    }
}

/// Morton-sort A/B at the headline size: the radix sort the tree
/// build and domain decomposition now run, against the comparison sort
/// (`sort_unstable_by_key` on `(code, index)`) it replaced. Same codes,
/// same process, alternating samples; both must return the identical
/// permutation (they sort the same total order).
struct SortAb {
    n: usize,
    radix_s: f64,
    comparison_s: f64,
}

impl SortAb {
    fn speedup(&self) -> f64 {
        self.comparison_s / self.radix_s
    }
}

fn measure_sort(n: usize, repeats: usize) -> SortAb {
    let snap = plummer(n, SEED);
    let frame = MortonFrame::for_points(&snap.pos);
    let codes = frame.codes(&snap.pos);
    // warm both paths (page in the ping-pong buffers)
    assert_eq!(morton_sort::sort_indices(&codes), morton_sort::sort_indices_comparison(&codes));
    let (mut radix, mut comparison) = (Vec::new(), Vec::new());
    for _ in 0..repeats {
        let t = Instant::now();
        let a = morton_sort::sort_indices(&codes);
        radix.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let b = morton_sort::sort_indices_comparison(&codes);
        comparison.push(t.elapsed().as_secs_f64());
        assert_eq!(a, b, "radix order diverged from the comparison referee");
    }
    SortAb { n, radix_s: median(&radix), comparison_s: median(&comparison) }
}

/// One resolved interaction list of the `n_g = 32` workload.
struct GroupList {
    xi: Vec<Vec3>,
    jpos: Vec<Vec3>,
    jmass: Vec<f64>,
}

/// The `n_g = 32` operating point of `BENCHMARK.json`'s
/// `plummer_ng32_exact`: the tree and every `stride`-th group.
struct Ng32 {
    tr: Traversal,
    tree: Tree,
    groups: Vec<g5tree::traverse::Group>,
}

fn ng32(n: usize, stride: usize) -> Ng32 {
    let snap = plummer(n, SEED);
    let tr = Traversal::new(0.5);
    let tree = Tree::build_with(&snap.pos, &snap.mass, TreeConfig::default());
    let groups = tr.find_groups(&tree, 32).into_iter().step_by(stride).collect();
    Ng32 { tr, tree, groups }
}

/// The resolved lists of those groups.
fn ng32_lists(Ng32 { tr, tree, groups }: &Ng32) -> Vec<GroupList> {
    let mut lists = Vec::new();
    plan::stream(tree, tr, groups, &PlanConfig::serial(), |w| {
        lists.push(GroupList { xi: w.xi.clone(), jpos: w.jpos.clone(), jmass: w.jmass.clone() });
    })
    .expect("list resolution");
    lists
}

/// The emit A/B on the `n_g = 32` lists.
struct EmitAb {
    lists: usize,
    terms: u64,
    /// Walk into `Vec<ListTerm>`, then resolve term by term.
    staged_ns_per_term: f64,
    /// The fused emitter, through the inline plan.
    fused_ns_per_term: f64,
}

impl EmitAb {
    fn speedup(&self) -> f64 {
        self.staged_ns_per_term / self.fused_ns_per_term
    }
}

fn measure_emit(Ng32 { tr, tree, groups }: &Ng32, rounds: usize) -> EmitAb {
    // the two-pass production, as the plan did it: term list, then one
    // `resolve` per term into retained buffers
    let (mut terms, mut jpos, mut jmass) = (Vec::new(), Vec::new(), Vec::new());
    let mut staged_sum = 0u64;
    let mut staged = || {
        staged_sum = 0;
        for &g in groups {
            tr.modified_list(tree, g, &mut terms);
            jpos.clear();
            jmass.clear();
            for &t in &terms {
                let (p, m) = t.resolve(tree);
                jpos.push(p);
                jmass.push(m);
            }
            staged_sum += black_box(&jpos).len() as u64 + black_box(&jmass).len() as u64;
        }
    };
    let pool = PlanPool::new();
    let mut fused_sum = 0u64;
    let mut fused = || {
        fused_sum = 0;
        plan::stream_with(tree, tr, groups, &PlanConfig::serial(), &pool, |w| {
            fused_sum += black_box(&w.jpos).len() as u64 + black_box(&w.jmass).len() as u64;
        })
        .expect("list resolution");
    };
    staged();
    fused(); // warm: buffer capacities
    let (t_staged, t_fused) = alternate(rounds, &mut staged, &mut fused);
    assert_eq!(staged_sum, fused_sum, "the two productions disagree on list lengths");
    // and term for term: the last group's lists, bit for bit
    let last = [*groups.last().expect("at least one group")];
    plan::stream_with(tree, tr, &last, &PlanConfig::serial(), &pool, |w| {
        let bits = |p: &[Vec3], m: &[f64]| -> Vec<[u64; 4]> {
            p.iter().zip(m).map(|(p, &m)| [p.x, p.y, p.z, m].map(f64::to_bits)).collect()
        };
        assert_eq!(bits(&w.jpos, &w.jmass), bits(&jpos, &jmass), "emitter != walk + resolve");
    })
    .expect("list resolution");
    let terms = fused_sum / 2;
    EmitAb {
        lists: groups.len(),
        terms,
        staged_ns_per_term: t_staged * 1e9 / terms as f64,
        fused_ns_per_term: t_fused * 1e9 / terms as f64,
    }
}

/// Fastest of `rounds` rounds of two legs, in seconds; the legs swap
/// order every round so machine drift biases neither.
fn alternate(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let (mut ta, mut tb) = (f64::INFINITY, f64::INFINITY);
    for r in 0..rounds {
        if r % 2 == 0 {
            ta = ta.min(time(&mut a));
        }
        tb = tb.min(time(&mut b));
        if r % 2 == 1 {
            ta = ta.min(time(&mut a));
        }
    }
    (ta, tb)
}

/// The j-load A/B of one arithmetic mode.
struct JLoadAb {
    mode: ArithMode,
    j_particles: u64,
    reference_ns_per_j: f64,
    lane_ns_per_j: f64,
}

impl JLoadAb {
    fn speedup(&self) -> f64 {
        self.reference_ns_per_j / self.lane_ns_per_j
    }
}

fn measure_jload(mode: ArithMode, all: &[Vec3], lists: &[GroupList], rounds: usize) -> JLoadAb {
    let cfg = Grape5Config { mode, ..Grape5Config::paper() };
    let (lo, hi) = bounding_window(all).expect("finite positions");
    let mut g5 = Grape5::open(cfg);
    g5.set_range(lo, hi);
    g5.set_eps(0.01);
    let scaler = g5util::fixed::RangeScaler::new(lo, hi, cfg.coord_bits);
    let mut boards: Vec<ProcessorBoard> =
        (0..cfg.boards).map(|_| ProcessorBoard::new(&cfg)).collect();

    // the pre-PR `set_j_particles`, from public pieces: AoS words from
    // the scalar definition (per-call `quantum()`, libm `round`, the
    // process-wide converter-cache lookup per mass), then the transpose
    let mut reference = || {
        for l in lists {
            let words: Vec<JWord> = l
                .jpos
                .iter()
                .zip(&l.jmass)
                .map(|(p, &m)| JWord {
                    raw: [scaler.quantize(p.x), scaler.quantize(p.y), scaler.quantize(p.z)],
                    m_lns: cfg.lns.encode(m),
                    m,
                })
                .collect();
            let per = words.len().div_ceil(cfg.boards).max(1);
            for b in &mut boards {
                b.load_j(&[]);
            }
            for (b, share) in boards.iter_mut().zip(words.chunks(per)) {
                b.load_j(share);
            }
            black_box(&boards);
        }
    };
    let mut lane = || {
        for l in lists {
            g5.set_j_particles(&l.jpos, &l.jmass);
            black_box(g5.nj());
        }
    };
    reference();
    lane(); // warm: column capacities
    let (t_ref, t_lane) = alternate(rounds, &mut reference, &mut lane);

    // and they loaded the same words
    for (b, (got, want)) in g5.boards().iter().zip(&boards).enumerate() {
        let (got, want) = (got.j_slices(), want.j_slices());
        assert_eq!((got.x, got.y, got.z, got.m), (want.x, want.y, want.z, want.m), "board {b}");
    }

    let j_particles: u64 = lists.iter().map(|l| l.jpos.len() as u64).sum();
    JLoadAb {
        mode,
        j_particles,
        reference_ns_per_j: t_ref * 1e9 / j_particles as f64,
        lane_ns_per_j: t_lane * 1e9 / j_particles as f64,
    }
}

/// What one short device call costs here, and the spawn economics the
/// inline-dispatch threshold rests on.
struct ShortCall {
    cpus: usize,
    ni: usize,
    nj: usize,
    /// Product `try_force_on`, fastest of the rounds.
    call_us: f64,
    /// The same interactions at the large-call kernel rate.
    kernel_us: f64,
    /// One scoped-thread spawn + join round trip.
    spawn_join_us: f64,
    /// One `std::thread::available_parallelism()`.
    available_parallelism_us: f64,
    /// What every call re-read before PR 19: the window scan of the
    /// boards' 3·n_j coordinate words plus the serial `Σ|m|` chain.
    rescan_us: f64,
    /// The whole session call now (`try_force_for`: j-load, force call,
    /// validation), which no longer contains either.
    session_call_us: f64,
}

impl ShortCall {
    /// Share of the short call that is kernel time at the large-call rate.
    fn efficiency(&self) -> f64 {
        self.kernel_us / self.call_us
    }
    /// Interactions at which halving a call over two threads pays for
    /// one spawn + join.
    fn break_even_interactions(&self) -> f64 {
        let ns_per_interaction = self.kernel_us * 1e3 / (self.ni * self.nj) as f64;
        self.spawn_join_us * 1e3 / (0.5 * ns_per_interaction)
    }
}

fn measure_short_call(all: &[Vec3], lists: &[GroupList], rounds: usize) -> ShortCall {
    let cfg = Grape5Config::paper_exact();
    let (lo, hi) = bounding_window(all).expect("finite positions");
    let mut g5 = Grape5::open(cfg);
    g5.set_range(lo, hi);
    g5.set_eps(0.01);
    // the list closest to the workload's mean call: 9 × 1,556
    let l = lists
        .iter()
        .min_by_key(|l| l.jpos.len().abs_diff(1556) + 100 * l.xi.len().abs_diff(9))
        .expect("at least one list");
    g5.set_j_particles(&l.jpos, &l.jmass);
    let fastest = |rounds: usize, reps: usize, f: &mut dyn FnMut()| {
        (0..rounds)
            .map(|_| {
                let t = Instant::now();
                (0..reps).for_each(|_| f());
                t.elapsed().as_secs_f64() / reps as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let call_s = fastest(rounds, 200, &mut || drop(black_box(g5.try_force_on(&l.xi))));
    // large-call kernel rate, one thread: the boards' batch kernels on
    // the same j-memory against 2,048 i-particles, one after the other
    let scaler = g5util::fixed::RangeScaler::new(lo, hi, cfg.coord_bits);
    let pipe = G5Pipeline::new(&cfg, scaler.quantum(), 0.01);
    let big: Vec<[i64; 3]> = all
        .iter()
        .take(2048)
        .map(|p| [scaler.quantize(p.x), scaler.quantize(p.y), scaler.quantize(p.z)])
        .collect();
    let mut out = Vec::new();
    let big_s = fastest(rounds.min(4), 1, &mut || {
        for b in g5.boards() {
            b.compute_into(&pipe, &big, 1.0, &mut out);
            black_box(&out);
        }
    });
    let ns_per_interaction = big_s * 1e9 / (big.len() * l.jpos.len()) as f64;
    let spawn_s = fastest(rounds, 200, &mut || {
        std::thread::scope(|s| {
            let h = s.spawn(|| black_box(1));
            black_box(h.join().expect("spawned thread"));
        })
    });
    let ap_s = fastest(rounds, 50, &mut || drop(black_box(std::thread::available_parallelism())));
    // the per-call rescans the j-load now settles, from public pieces
    let rescan_s = fastest(rounds, 200, &mut || {
        let lim = 1i64 << 50;
        let inside = g5.boards().iter().all(|b| {
            let j = b.j_slices();
            [j.x, j.y, j.z].iter().all(|c| c.iter().all(|&v| -lim < v && v < lim))
        });
        let msum: f64 = black_box(&l.jmass).iter().map(|m| m.abs()).sum();
        black_box((inside, msum));
    });
    let session_s = {
        let mut session = DeviceSession::open(&mut g5, all, 0.01);
        fastest(rounds, 200, &mut || {
            drop(black_box(session.try_force_for(&l.jpos, &l.jmass, &l.xi)))
        })
    };
    ShortCall {
        cpus: rayon::current_num_threads(),
        ni: l.xi.len(),
        nj: l.jpos.len(),
        call_us: call_s * 1e6,
        kernel_us: ns_per_interaction * (l.xi.len() * l.jpos.len()) as f64 * 1e-3,
        spawn_join_us: spawn_s * 1e6,
        available_parallelism_us: ap_s * 1e6,
        rescan_us: rescan_s * 1e6,
        session_call_us: session_s * 1e6,
    }
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let out_path: String = args.get("out", "artifacts/exp_host.json".to_string());
    let base_path: String = args.get("baseline", out_path.clone());
    let baseline = std::fs::read_to_string(&base_path).ok();

    // headline size, the paper-optimum group size, and the sweeps
    let (n_head, steps) = if quick { (32_768, 4u64) } else { (262_144, 8u64) };
    let ncrit_sweep: &[usize] = if quick { &[500, 2000] } else { &[250, 500, 1000, 2000, 4000] };
    let k_sweep: &[u32] = &[1, 2, 4, 8];

    println!(
        "E11: host-phase overhaul — SoA stack traversal + K-step tree refresh vs \
         rebuild-every-step recursive path{}",
        if quick { " (--quick)" } else { "" }
    );
    println!(
        "     workload: Plummer sphere, seed {SEED}, theta {THETA}, drifting at dt = {DT}/step"
    );
    println!();
    rule(100);
    println!(
        "{:>8} {:>6} {:>3} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9}",
        "N",
        "ncrit",
        "K",
        "build",
        "refresh",
        "walk-ref",
        "walk-new",
        "host-ref",
        "host-new",
        "speedup"
    );
    println!(
        "{:>8} {:>6} {:>3} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9}",
        "", "", "", "ns/part", "ns/part", "ns/grp", "ns/grp", "ms/step", "ms/step", ""
    );
    rule(100);

    let mut results = Vec::new();
    // n_crit sweep at K = 4: the paper's §3 trade-off measured on the
    // new host phase (n_g ≈ 2000 is the paper's optimum)
    for &n_crit in ncrit_sweep {
        let c = measure(n_head, n_crit, 4, steps);
        result_row(&c);
        results.push(c);
    }
    rule(100);
    // K sweep at the paper's n_crit: what refresh amortization buys
    for &k in k_sweep {
        let c = measure(n_head, 2000, k, steps);
        result_row(&c);
        results.push(c);
    }
    rule(100);
    // the combined best operating point: large groups + full amortization
    if !quick {
        let c = measure(n_head, 4000, 8, steps);
        result_row(&c);
        results.push(c);
        rule(100);
    }

    // ---- Morton sort A/B: the radix sort inside every build above ----
    let sort = measure_sort(n_head, steps as usize);
    // the sort is the only component the radix change touched, so the
    // comparison-sort build is the measured radix build plus the sort
    // delta (both sorts timed on the identical code set in this run)
    let build_radix_s = results[0].build_s;
    let build_comparison_s = build_radix_s + (sort.comparison_s - sort.radix_s);
    println!();
    println!(
        "Morton sort A/B at N = {} (inside every tree build and decomposition):",
        fmt_count(sort.n as u64)
    );
    println!(
        "  MSD radix {:.3} ms vs comparison sort {:.3} ms per sort  ({:.2}x)",
        sort.radix_s * 1e3,
        sort.comparison_s * 1e3,
        sort.speedup()
    );
    println!(
        "  full tree build: {:.2} ms radix vs {:.2} ms with the comparison sort ({:.2}x; gate: radix build faster)",
        build_radix_s * 1e3,
        build_comparison_s * 1e3,
        build_comparison_s / build_radix_s
    );

    // ---- host-library rows: j-load A/B and the short device call ----
    let ng32 = ng32(16_384, if quick { 8 } else { 1 });
    let (all_pos, lists) = (ng32.tree.pos(), ng32_lists(&ng32));
    let rounds = if quick { 4 } else { 12 };
    let jloads = [
        measure_jload(ArithMode::Exact, all_pos, &lists, rounds),
        measure_jload(ArithMode::Lns, all_pos, &lists, rounds),
    ];
    let short = measure_short_call(all_pos, &lists, rounds);
    let emit = measure_emit(&ng32, rounds);
    println!();
    println!(
        "host library on {} real n_g = 32 lists (Plummer N = 16,384, theta 0.5):",
        fmt_count(lists.len() as u64)
    );
    println!(
        "  emit          walk + resolve {:>5.2} ns/term  ->  fused emitter {:>5.2} ns/term   \
         ({:.2}x, {} terms in {} lists per round)",
        emit.staged_ns_per_term,
        emit.fused_ns_per_term,
        emit.speedup(),
        fmt_count(emit.terms),
        fmt_count(emit.lists as u64)
    );
    for j in &jloads {
        println!(
            "  j-load {:<5}  reference {:>6.2} ns/j  ->  lane path {:>5.2} ns/j   ({:.1}x, {} j-particles per round)",
            format!("{:?}", j.mode).to_lowercase(),
            j.reference_ns_per_j,
            j.lane_ns_per_j,
            j.speedup(),
            fmt_count(j.j_particles)
        );
    }
    println!(
        "  short call {} x {} on {} CPU(s): {:.1} us ({:.1} us of kernel at the large-call rate, \
         efficiency {:.2})",
        short.ni,
        fmt_count(short.nj as u64),
        short.cpus,
        short.call_us,
        short.kernel_us,
        short.efficiency()
    );
    println!(
        "  spawn + join {:.1} us, available_parallelism() {:.1} us  ->  threading a call breaks \
         even at ~{} interactions",
        short.spawn_join_us,
        short.available_parallelism_us,
        fmt_count(short.break_even_interactions() as u64)
    );
    println!(
        "  per-call residue: j-window guard + serial sum |m| rescans {:.2} us before  ->  0 \
         (settled at the j-load); whole session call (load + force + validate) now {:.1} us",
        short.rescan_us, short.session_call_us
    );

    // headline: the best amortized operating point at the headline size —
    // the pre-PR path rebuilt and re-walked from scratch every step, so
    // each cell's ref leg is the old path at that cell's own n_crit
    let headline = results
        .iter()
        .filter(|c| c.n == n_head)
        .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
        .expect("headline cell");
    println!();
    println!(
        "headline: N = {} host phase is {:.2}x the pre-PR path at n_crit = {} K = {} \
         (gate: >= 1.5x at N = 262144)",
        fmt_count(headline.n as u64),
        headline.speedup(),
        headline.n_crit,
        headline.k
    );

    let rows: Vec<Row> = results.iter().map(cell_row).collect();
    if let Some(old) = &baseline {
        let note = "wall-clock rates vary by machine; the delta is informational, not a gate";
        let (key, metrics) = (["n", "n_crit", "k"], ["host_new_s_per_step"]);
        report::print_delta(old, &key, &metrics, &rows, note);
    }

    let jload: Vec<Row> = jloads
        .iter()
        .map(|j| {
            row! {
                "mode": format!("{:?}", j.mode).to_lowercase(), "lists": lists.len(),
                "j_particles": j.j_particles, "reference_ns_per_j": j.reference_ns_per_j,
                "lane_ns_per_j": j.lane_ns_per_j, "speedup": j.speedup(),
            }
        })
        .collect();
    let emit_row = row! {
        "lists": emit.lists, "terms": emit.terms, "staged_ns_per_term": emit.staged_ns_per_term,
        "fused_ns_per_term": emit.fused_ns_per_term, "speedup": emit.speedup(),
    };
    let short_row = row! {
        "cpus": short.cpus, "ni": short.ni, "nj": short.nj, "call_us": short.call_us,
        "kernel_us": short.kernel_us, "efficiency": short.efficiency(),
        "spawn_join_us": short.spawn_join_us,
        "available_parallelism_us": short.available_parallelism_us,
        "break_even_interactions": short.break_even_interactions(),
        "rescan_us": short.rescan_us, "session_call_us": short.session_call_us,
    };
    row! {
        "experiment": "exp_host", "quick": quick, "seed": SEED, "theta": THETA, "dt": DT,
        "sort_n": sort.n, "sort_radix_s": sort.radix_s, "sort_comparison_s": sort.comparison_s,
        "sort_speedup": sort.speedup(), "build_radix_s": build_radix_s,
        "build_comparison_s": build_comparison_s,
        "build_sort_speedup": build_comparison_s / build_radix_s,
        "jload": jload, "emit": emit_row, "short_call": short_row, "results": rows,
    }
    .write(&out_path);
    println!();
    println!("wrote {} results to {out_path}", results.len());

    // cross-PR ledger: same-run ratios only (they survive a change of
    // machine), keyed by this tree's commit
    trajectory::append_from_args(
        &args,
        &[
            ("host_jload_lane_speedup", 16_384, jloads[0].speedup()),
            ("host_jload_lns_lane_speedup", 16_384, jloads[1].speedup()),
            ("host_short_call_efficiency", 16_384, short.efficiency()),
            ("host_emit_ns_per_term", 16_384, emit.fused_ns_per_term),
        ],
    );
}
