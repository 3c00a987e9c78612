//! **E15 — double-buffered j-loads + the paper's 2,159,038-particle
//! flagship run.**
//!
//! The paper's headline number is a 2,159,038-particle treecode
//! simulation run for 999 steps on GRAPE-5. This harness reproduces
//! that workload on the [`ClusterTreeGrape`] backend in three phases:
//!
//! 1. **Overlap gate** — one force evaluation at N = 262,144, K = 8,
//!    under [`ClusterTreeGrapeConfig::paper`] (j-loads priced serially)
//!    and [`ClusterTreeGrapeConfig::paper_overlapped`] (double-buffered
//!    j-memory), each priced on its own modeled device clock. The
//!    double-buffered critical path must be ≥ 1.3× shorter per step.
//!    Both issue the identical device call schedule, so forces and
//!    counters are bit-identical — only the clock pricing differs.
//! 2. **Flagship segment** — the full N = 2,159,038 set, K = 8
//!    double-buffered, integrated for `--segment` steps with a checkpoint
//!    cut mid-segment. The run is then killed and resumed from the cut
//!    into a fresh backend; the resumed endpoint must match the
//!    straight-through endpoint byte for byte.
//! 3. **999-step projection** — the measured per-step modeled critical
//!    path extended to the paper's 999 steps (the modeled clock is
//!    deterministic, so segment × 999 is exact, not an extrapolation),
//!    with aggregate interactions/s and sustained Gflops under the
//!    paper's 38-op convention.
//!
//! ```text
//! cargo run --release -p g5-bench --bin exp_flagship -- \
//!     [--quick] [--segment 3] [--full] [--resume] \
//!     [--n 2159038] [--k 8] [--steps 999] \
//!     [--checkpoint-dir artifacts/flagship_ckpt] [--out artifacts/exp_flagship.json]
//! ```
//!
//! Default mode runs the gate + segment + projection and writes the
//! JSON report (the run of record, `BENCH_pr9.json`, is written only by
//! naming it). `--full` instead runs the entire 999-step simulation
//! with rolling retained checkpoints; `--resume` restarts a `--full`
//! run from the latest checkpoint. `--quick` (CI smoke): gate at
//! N = 32,768 K = 2, segment at N = 65,536.

use g5_bench::{fmt_count, fmt_secs, plummer, row, rule, Args};
use grape5::{ClockAccounting, ClockReport};
use std::time::Instant;
use treegrape::checkpoint::{latest, Checkpointer};
use treegrape::cluster::{ClusterTreeGrape, ClusterTreeGrapeConfig};
use treegrape::{snapshot_io, ForceBackend, Simulation};

const SEED: u64 = 42;
const EPS: f64 = 0.01;
/// The paper's flagship particle count and step count.
const N_FLAGSHIP: usize = 2_159_038;
const STEPS_FLAGSHIP: u64 = 999;
const DT: f64 = 0.005;
/// Pipeline ops per interaction, the paper's Gflops convention.
const OPS: f64 = 38.0;

/// Modeled device seconds for one step: the critical path is the max
/// over shards of the per-shard accounting delta priced on `cfg`'s
/// clocks, because shards run concurrently on real hardware.
struct ShardClocks {
    prior: Vec<ClockAccounting>,
}

impl ShardClocks {
    fn new(backend: &ClusterTreeGrape, k: usize) -> ShardClocks {
        ShardClocks { prior: (0..k).map(|s| backend.shard_accounting(s)).collect() }
    }

    /// Price the step since the last call; returns (critical-path s,
    /// aggregate s, interactions).
    fn step(
        &mut self,
        backend: &ClusterTreeGrape,
        cfg: &ClusterTreeGrapeConfig,
    ) -> (f64, f64, u64) {
        let mut crit = 0.0f64;
        let mut agg = 0.0f64;
        let mut inter = 0u64;
        for (s, p) in self.prior.iter_mut().enumerate() {
            let now = backend.shard_accounting(s);
            let delta = ClockAccounting {
                pipeline_cycles: now.pipeline_cycles - p.pipeline_cycles,
                iface_words: now.iface_words - p.iface_words,
                calls: now.calls - p.calls,
                interactions: now.interactions - p.interactions,
                j_words: now.j_words - p.j_words,
            };
            *p = now;
            let report: ClockReport = delta.report(&cfg.base.grape);
            crit = crit.max(report.total_s());
            agg += report.total_s();
            inter += delta.interactions;
        }
        (crit, agg, inter)
    }
}

/// Phase 1 cell: one force evaluation under `cfg`.
struct GateCell {
    label: &'static str,
    critical_path_s: f64,
    interactions: u64,
    terms: u64,
    host_wall_s: f64,
    exchange_s: f64,
}

fn measure_gate(
    snap: &g5ic::Snapshot,
    cfg: ClusterTreeGrapeConfig,
    label: &'static str,
) -> GateCell {
    let k = cfg.shards;
    let mut backend = ClusterTreeGrape::new(cfg);
    let mut clocks = ShardClocks::new(&backend, k);
    let t0 = Instant::now();
    let fs = backend.compute(&snap.pos, &snap.mass);
    let host_wall_s = t0.elapsed().as_secs_f64();
    let (crit, _agg, _inter) = clocks.step(&backend, &cfg);
    assert_eq!(backend.alive_shards(), k, "no shard may die in a clean benchmark");
    GateCell {
        label,
        critical_path_s: crit,
        interactions: fs.tally.interactions,
        terms: fs.tally.terms,
        host_wall_s,
        exchange_s: fs.timers.exchange_s,
    }
}

/// Phase 2 result: the measured segment plus the kill + resume check.
struct SegmentResult {
    n: usize,
    k: usize,
    steps: u64,
    cut: u64,
    critical_path_s: f64,
    aggregate_s: f64,
    interactions: u64,
    host_wall_s: f64,
    resume_identical: bool,
}

/// Integrate `steps` steps of the flagship set, cut a checkpoint at
/// `cut`, then kill + resume from the cut and byte-compare endpoints.
fn run_segment(
    n: usize,
    cfg: &ClusterTreeGrapeConfig,
    steps: u64,
    ckpt_dir: &std::path::Path,
) -> SegmentResult {
    let k = cfg.shards;
    let cut = steps.div_ceil(2);
    let snap0 = plummer(n, SEED);
    let _ = std::fs::remove_dir_all(ckpt_dir);
    let cut_ck = Checkpointer::new(ckpt_dir, cut.max(1)).expect("create checkpoint dir");

    // straight-through run, priced per step on the modeled clock
    let backend = ClusterTreeGrape::new(*cfg);
    let wall = Instant::now();
    let mut sim = Simulation::try_new(snap0, backend, 0.0).expect("initial forces");
    let mut clocks = ShardClocks::new(sim.backend(), k);
    // the initial force evaluation belongs to step 0, not the segment
    let (_c0, _a0, _i0) = clocks.step(sim.backend(), cfg);
    let mut crit = 0.0f64;
    let mut agg = 0.0f64;
    let mut inter = 0u64;
    for step in 1..=steps {
        sim.try_step(DT).expect("segment step");
        let (c, a, i) = clocks.step(sim.backend(), cfg);
        crit += c;
        agg += a;
        inter += i;
        if step == cut {
            let state = sim.backend().resume_state();
            cut_ck.write(&sim.state, sim.time, sim.steps, &state).expect("cut checkpoint");
        }
        eprintln!(
            "    [segment step {step}/{steps}: modeled crit-path {} this step]",
            fmt_secs(crit / step as f64)
        );
    }
    let host_wall_s = wall.elapsed().as_secs_f64();

    // kill + resume: fresh backend restored from the cut, integrated to
    // the same endpoint
    let ck = latest(ckpt_dir).expect("read checkpoint dir").expect("cut checkpoint present");
    assert_eq!(ck.step, cut, "cut checkpoint at the wrong step");
    let mut resumed = ck.resume(ClusterTreeGrape::new(*cfg)).expect("resume");
    for _ in cut + 1..=steps {
        resumed.try_step(DT).expect("resumed step");
    }

    let a = snapshot_bytes(&sim.state, sim.time, &ckpt_dir.join("endpoint_a.g5snap"));
    let b = snapshot_bytes(&resumed.state, resumed.time, &ckpt_dir.join("endpoint_b.g5snap"));
    SegmentResult {
        n,
        k,
        steps,
        cut,
        critical_path_s: crit,
        aggregate_s: agg,
        interactions: inter,
        host_wall_s,
        resume_identical: a == b,
    }
}

fn snapshot_bytes(state: &g5ic::Snapshot, time: f64, path: &std::path::Path) -> Vec<u8> {
    snapshot_io::save(path, state, time).expect("serialize snapshot");
    std::fs::read(path).expect("read snapshot bytes")
}

/// `--full` mode: the actual 999-step run with rolling retained
/// checkpoints; `--resume` restarts from the latest one.
fn run_full(
    n: usize,
    cfg: &ClusterTreeGrapeConfig,
    steps: u64,
    dir: &std::path::Path,
    resume: bool,
) {
    let k = cfg.shards;
    let ck = Checkpointer::new(dir, 5).expect("create checkpoint dir").with_retention(3);
    let mut sim = if resume {
        let c = latest(dir).expect("read checkpoint dir").expect("no checkpoint to resume from");
        println!("resuming flagship run from step {} (t = {})", c.step, c.time);
        c.resume(ClusterTreeGrape::new(*cfg)).expect("resume")
    } else {
        println!("starting flagship run: N = {n}, K = {k}, {steps} steps");
        Simulation::try_new(plummer(n, SEED), ClusterTreeGrape::new(*cfg), 0.0)
            .expect("initial forces")
    };
    let mut clocks = ShardClocks::new(sim.backend(), k);
    let _ = clocks.step(sim.backend(), cfg);
    while sim.steps < steps {
        let t0 = Instant::now();
        sim.try_step(DT).expect("flagship step");
        let (crit, _, inter) = clocks.step(sim.backend(), cfg);
        ck.maybe_write(&sim).expect("rolling checkpoint");
        println!(
            "step {:>4}/{steps}  modeled {}  ({} inter, host wall {})",
            sim.steps,
            fmt_secs(crit),
            fmt_count(inter),
            fmt_secs(t0.elapsed().as_secs_f64()),
        );
    }
    println!("flagship run complete at t = {}", sim.time);
}

fn main() {
    let args = Args::parse(&[
        "quick",
        "out",
        "checkpoint-dir",
        "n",
        "k",
        "steps",
        "segment",
        "n-gate",
        "full",
        "resume",
    ]);
    let quick = args.flag("quick");
    // artifacts/ convention (PR 9): generated state stays out of the
    // repo root
    let out_path: String = args.get("out", "artifacts/exp_flagship.json".to_string());
    let ckpt_dir: String = args.get("checkpoint-dir", "artifacts/flagship_ckpt".to_string());
    let n: usize = args.get("n", if quick { 65_536 } else { N_FLAGSHIP });
    let k: usize = args.get("k", if quick { 2 } else { 8 });
    let steps: u64 = args.get("steps", STEPS_FLAGSHIP);
    let segment: u64 = args.get("segment", if quick { 2 } else { 3 });
    let n_gate: usize = args.get("n-gate", if quick { 32_768 } else { 262_144 });

    let cfg = ClusterTreeGrapeConfig::paper_overlapped(EPS, k);
    if args.flag("full") || args.flag("resume") {
        run_full(n, &cfg, steps, std::path::Path::new(&ckpt_dir), args.flag("resume"));
        return;
    }

    println!(
        "E15: double-buffered cluster step + the paper's {}-particle flagship run{}",
        fmt_count(N_FLAGSHIP as u64),
        if quick { " (--quick)" } else { "" }
    );
    println!(
        "     workload: Plummer sphere, seed {SEED}, paper operating point \
         (theta 0.75, n_crit 2000, exact arithmetic), dt = {DT}"
    );
    println!();

    // ---- phase 1: overlap gate --------------------------------------
    println!("phase 1: overlap gate — j-load pricing on the device clock, N = {n_gate}, K = {k}");
    rule(96);
    println!(
        "{:>15} {:>11} {:>16} {:>12} {:>9} {:>9}",
        "j-loads", "crit-path", "interactions", "terms", "exchange", "host"
    );
    rule(96);
    let snap_gate = plummer(n_gate, SEED);
    let serial = measure_gate(&snap_gate, ClusterTreeGrapeConfig::paper(EPS, k), "serial j-load");
    let double_buffered = measure_gate(&snap_gate, cfg, "double-buffered");
    for c in [&serial, &double_buffered] {
        println!(
            "{:>15} {:>11} {:>16} {:>12} {:>9} {:>9}",
            c.label,
            fmt_secs(c.critical_path_s),
            fmt_count(c.interactions),
            fmt_count(c.terms),
            fmt_secs(c.exchange_s),
            fmt_secs(c.host_wall_s),
        );
    }
    rule(96);
    assert_eq!(
        (serial.interactions, serial.terms),
        (double_buffered.interactions, double_buffered.terms),
        "both configurations must issue the identical device schedule"
    );
    let gate_speedup = serial.critical_path_s / double_buffered.critical_path_s;
    println!(
        "overlap speedup on the modeled critical path: {gate_speedup:.3}x (gate: >= 1.3x) — {}",
        if gate_speedup >= 1.3 { "PASS" } else { "FAIL" }
    );
    if !quick {
        assert!(gate_speedup >= 1.3, "overlap gate failed: {gate_speedup:.3}x < 1.3x");
    }

    // ---- phase 2: flagship segment ----------------------------------
    println!();
    println!(
        "phase 2: flagship segment — N = {n}, K = {k}, {segment} steps, \
         checkpoint cut + kill/resume byte-identity"
    );
    let seg = run_segment(n, &cfg, segment, std::path::Path::new(&ckpt_dir));
    let crit_per_step = seg.critical_path_s / seg.steps as f64;
    let inter_per_step = seg.interactions as f64 / seg.steps as f64;
    println!(
        "  measured: {} modeled crit-path/step, {} interactions/step, host wall {}",
        fmt_secs(crit_per_step),
        fmt_count(inter_per_step as u64),
        fmt_secs(seg.host_wall_s),
    );
    println!(
        "  kill + resume from the step-{} cut: endpoints {}",
        seg.cut,
        if seg.resume_identical { "byte-identical — PASS" } else { "DIFFER — FAIL" }
    );
    assert!(seg.resume_identical, "resumed flagship endpoint diverged from the straight run");

    // ---- phase 3: 999-step projection -------------------------------
    // the modeled clock is deterministic and the per-step schedule is
    // stable (same tree depth, same n_crit), so per-step × 999 is the
    // modeled duration of the paper's full run
    let total_s = crit_per_step * STEPS_FLAGSHIP as f64;
    let rate = inter_per_step / crit_per_step;
    let gflops = rate * OPS / 1e9;
    println!();
    println!("phase 3: the paper's {STEPS_FLAGSHIP}-step run on the modeled device clock");
    println!("  per step:     {} critical path", fmt_secs(crit_per_step));
    println!("  full run:     {} ({STEPS_FLAGSHIP} steps)", fmt_secs(total_s));
    println!("  throughput:   {:.3e} interactions/s aggregate over K = {k}", rate);
    println!("  sustained:    {gflops:.2} Gflops ({OPS} ops/interaction)");

    // ---- JSON report ------------------------------------------------
    let gate = row! {
        "n": n_gate, "k": k, "barrier_critical_path_s": serial.critical_path_s,
        "overlapped_critical_path_s": double_buffered.critical_path_s,
        "overlap_critical_path_speedup": gate_speedup, "interactions": serial.interactions,
    };
    let segment = row! {
        "n": seg.n, "k": seg.k, "steps": seg.steps, "cut": seg.cut,
        "critical_path_s_per_step": crit_per_step,
        "aggregate_device_s_per_step": seg.aggregate_s / seg.steps as f64,
        "interactions_per_step": inter_per_step, "host_wall_s": seg.host_wall_s,
        "resume_identical": seg.resume_identical,
    };
    let projection = row! {
        "steps": STEPS_FLAGSHIP, "modeled_total_s": total_s,
        "flagship_interactions_per_s": rate, "sustained_gflops": gflops,
    };
    row! {
        "experiment": "exp_flagship", "quick": quick, "seed": SEED, "eps": EPS, "dt": DT,
        "gate": gate, "segment": segment, "projection": projection,
    }
    .write(&out_path);
    println!();
    println!("wrote {out_path}");
}
