//! **E12 — PC-GRAPE cluster sharding: step time and aggregate
//! interactions/s vs shard count K.**
//!
//! The GRAPE-6A follow-up to the paper scaled this exact treecode by
//! giving each PC in a cluster its own GRAPE card and a Morton domain
//! of the particle set. This harness measures what that buys on the
//! reproduction's [`ClusterTreeGrape`] backend: one force evaluation
//! per K ∈ {1, 2, 4, 8}, each shard's device work priced by its own
//! [`ClockAccounting`] on the paper's hardware clocks.
//!
//! The headline metric is the **step speed-up**: the modeled
//! *critical-path* device time of one force evaluation at K = 1 over
//! the same at K — time to the same answer. The critical path is the
//! max over shards of the per-shard clock report, because a real
//! cluster runs its shards concurrently and finishes with the slowest
//! one. The modeled clock is exact and deterministic (cycles and words
//! counted from the real call schedule), so one step per K suffices and
//! the number is machine-independent; host-phase wall times (decompose
//! / exchange / build / traverse) are reported alongside for the
//! record.
//!
//! **Aggregate interactions per second** (Σ interactions over all
//! shards / critical path) is reported beside it, with its ratio to
//! K = 1 under the old name `speedup_vs_k1` — but it is a rate of
//! *work done*, not of work needed: a sharded evaluation does more
//! interactions than the single tree for the same forces (`LET-x`,
//! Σ interactions(K) / Σ interactions(1); shard trees frame only their
//! own slice, so their groups are larger and worse placed), and every
//! one of those counts as throughput. `speedup_vs_k1` =
//! `step_speedup_vs_k1` × `let_inflation`, so it can rise while the
//! step gets slower.
//!
//! At K = 1 this is exactly the single-device `TreeGrape` step. The
//! step scales as long as (a) the Morton slices stay balanced and (b)
//! the LET inflation stays small.
//!
//! ```text
//! cargo run --release -p g5-bench --bin exp_cluster -- \
//!     [--quick] [--n 262144] [--ks 1,2,4,8] [--steps 1] \
//!     [--out artifacts/exp_cluster.json] [--baseline BENCH_pr15.json] \
//!     [--trajectory BENCH_trajectory.json --pr pr15]
//! ```
//!
//! The report defaults to the git-ignored `artifacts/exp_cluster.json`
//! (a committed `BENCH_pr*.json` is only ever written by naming it);
//! `--baseline` defaults to the previous report at `--out`.
//!
//! `--trajectory FILE --pr LABEL` appends the largest-K step speed-up
//! to the cross-PR ledger (`g5_bench::trajectory`) as
//! `cluster_step_speedup`.
//!
//! `--quick` (CI smoke): N = 32,768, K ∈ {1, 2}.

use g5_bench::report::{self, Row};
use g5_bench::{fmt_count, fmt_secs, plummer, row, rule, trajectory, Args};
use grape5::ClockReport;
use std::time::Instant;
use treegrape::cluster::{ClusterTreeGrape, ClusterTreeGrapeConfig};
use treegrape::ForceBackend;

const SEED: u64 = 42;
const EPS: f64 = 0.01;
/// K = 4 must finish a step at least this many times sooner than K = 1:
/// what cell-centred group spheres gave at the default N (1.79×, PR 6's
/// report in the git history; member-centred ones give 1.99×,
/// `BENCH_pr15.json`).
/// The modeled clock is deterministic, so the margin is not for noise.
const STEP_GATE_K4: f64 = 1.8;

/// One (N, K) cell: totals over `steps` force evaluations.
struct ClusterCell {
    n: usize,
    k: usize,
    steps: u64,
    /// Pairwise interactions summed over shards and steps.
    interactions: u64,
    /// Host-generated list terms (local group lists + LET imports).
    terms: u64,
    /// Modeled critical-path device seconds: Σ over steps of
    /// max-over-shards per-step clock report totals.
    critical_path_s: f64,
    /// Modeled aggregate device seconds (Σ over shards), for the
    /// efficiency column.
    aggregate_s: f64,
    /// Host wall seconds measured on the reproducing machine.
    decompose_s: f64,
    exchange_s: f64,
    build_s: f64,
    traverse_cpu_s: f64,
    host_wall_s: f64,
    /// Cluster-wide recovery summary (all slots merged) and the
    /// per-shard breakdown of any slot that saw recovery activity — a
    /// clean benchmark reports all-zeros, which is itself the check.
    recovery: grape5::RecoveryStats,
    shard_recovery: Vec<(usize, grape5::RecoveryStats)>,
}

impl ClusterCell {
    /// Aggregate modeled throughput: all shards' interactions over the
    /// critical path.
    fn rate(&self) -> f64 {
        self.interactions as f64 / self.critical_path_s
    }
    /// Modeled critical-path seconds of one force evaluation.
    fn step_s(&self) -> f64 {
        self.critical_path_s / self.steps as f64
    }
    /// Time to the same answer: `k1`'s step over this one's.
    fn step_speedup(&self, k1: &ClusterCell) -> f64 {
        k1.step_s() / self.step_s()
    }
    /// Interactions done per interaction the single tree needs.
    fn let_inflation(&self, k1: &ClusterCell) -> f64 {
        // every cell of a run takes the same number of steps
        self.interactions as f64 / k1.interactions as f64
    }
    /// How evenly the shards were loaded: mean over max of per-shard
    /// modeled time (1.0 = perfectly balanced).
    fn balance(&self) -> f64 {
        if self.critical_path_s == 0.0 {
            return 1.0;
        }
        self.aggregate_s / (self.k as f64 * self.critical_path_s)
    }
}

/// Run one (N, K) cell on a fresh backend and snapshot.
fn measure(n: usize, k: usize, steps: u64) -> ClusterCell {
    let snap = plummer(n, SEED);
    let cfg = ClusterTreeGrapeConfig::paper(EPS, k);
    let mut backend = ClusterTreeGrape::new(cfg);

    let mut cell = ClusterCell {
        n,
        k,
        steps,
        interactions: 0,
        terms: 0,
        critical_path_s: 0.0,
        aggregate_s: 0.0,
        decompose_s: 0.0,
        exchange_s: 0.0,
        build_s: 0.0,
        traverse_cpu_s: 0.0,
        host_wall_s: 0.0,
        recovery: grape5::RecoveryStats::default(),
        shard_recovery: Vec::new(),
    };
    let mut prior: Vec<grape5::ClockAccounting> =
        (0..k).map(|s| backend.shard_accounting(s)).collect();
    for _ in 0..steps {
        let t0 = Instant::now();
        let fs = backend.compute(&snap.pos, &snap.mass);
        cell.host_wall_s += t0.elapsed().as_secs_f64();

        // per-shard modeled time this step: accounting delta priced on
        // the paper's clocks; the cluster's step time is the slowest
        // shard's (shards run concurrently on real hardware)
        let mut step_max = 0.0f64;
        for (s, p) in prior.iter_mut().enumerate() {
            let now = backend.shard_accounting(s);
            let delta = grape5::ClockAccounting {
                pipeline_cycles: now.pipeline_cycles - p.pipeline_cycles,
                iface_words: now.iface_words - p.iface_words,
                calls: now.calls - p.calls,
                interactions: now.interactions - p.interactions,
                j_words: now.j_words - p.j_words,
            };
            *p = now;
            let report: ClockReport = delta.report(&cfg.base.grape);
            step_max = step_max.max(report.total_s());
            cell.aggregate_s += report.total_s();
        }
        cell.critical_path_s += step_max;
        cell.interactions += fs.tally.interactions;
        cell.terms += fs.tally.terms;
        cell.decompose_s += fs.timers.decompose_s;
        cell.exchange_s += fs.timers.exchange_s;
        cell.build_s += fs.timers.build_s + fs.timers.refresh_s;
        cell.traverse_cpu_s += fs.timers.traverse_s;
    }
    assert_eq!(backend.alive_shards(), k, "no shard may die in a clean benchmark");
    cell.recovery = backend.cluster_recovery_stats();
    cell.shard_recovery = backend.shard_recovery_stats();
    cell
}

/// One table row; the two K = 1 ratios are blank without a K = 1 cell.
fn result_row(c: &ClusterCell, k1: Option<&ClusterCell>) {
    let ratio = |f: fn(&ClusterCell, &ClusterCell) -> f64| {
        k1.map_or("-".to_string(), |k1| format!("{:.2}x", f(c, k1)))
    };
    println!(
        "{:>8} {:>3} {:>16} {:>12} {:>11.4} {:>8} {:>8} {:>11.1} {:>8.3} {:>9.1}%",
        c.n,
        c.k,
        fmt_count(c.interactions),
        fmt_count(c.terms),
        c.step_s(),
        ratio(ClusterCell::step_speedup),
        ratio(ClusterCell::let_inflation),
        c.rate() / 1e6,
        c.host_wall_s / c.steps as f64,
        100.0 * c.balance(),
    );
}

fn cell_row(c: &ClusterCell, k1: Option<&ClusterCell>) -> Row {
    let vs_k1 = |f: fn(&ClusterCell, &ClusterCell) -> f64| k1.map_or(1.0, |k1| f(c, k1));
    let per_step = |s: f64| s / c.steps as f64;
    row! {
        "n": c.n, "k": c.k, "steps": c.steps, "interactions": c.interactions, "terms": c.terms,
        "critical_path_s_per_step": c.step_s(),
        "aggregate_device_s_per_step": per_step(c.aggregate_s),
        "interactions_per_s": c.rate(), "speedup_vs_k1": vs_k1(|c, k1| c.rate() / k1.rate()),
        "step_speedup_vs_k1": vs_k1(ClusterCell::step_speedup),
        "let_inflation": vs_k1(ClusterCell::let_inflation), "balance": c.balance(),
        "decompose_s_per_step": per_step(c.decompose_s),
        "exchange_s_per_step": per_step(c.exchange_s), "build_s_per_step": per_step(c.build_s),
        "traverse_cpu_s_per_step": per_step(c.traverse_cpu_s),
        "host_wall_s_per_step": per_step(c.host_wall_s),
        "recovery": report::recovery(&c.recovery),
    }
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let out_path: String = args.get("out", "artifacts/exp_cluster.json".to_string());
    let base_path: String = args.get("baseline", out_path.clone());
    let baseline = std::fs::read_to_string(&base_path).ok();

    let n: usize = args.get("n", if quick { 32_768 } else { 262_144 });
    let steps: u64 = args.get("steps", 1);
    let ks_raw: String = args.get("ks", if quick { "1,2".into() } else { "1,2,4,8".into() });
    let ks: Vec<usize> =
        ks_raw.split(',').map(|s| s.trim().parse().expect("bad --ks entry")).collect();

    println!(
        "E12: PC-GRAPE cluster sharding — K domain-decomposed trees over K devices{}",
        if quick { " (--quick)" } else { "" }
    );
    println!(
        "     workload: Plummer sphere N = {n}, seed {SEED}, paper operating point \
         (theta 0.75, n_crit 2000, exact arithmetic), {steps} step(s) per K"
    );
    println!(
        "     metric: modeled critical-path seconds per step (max over shards — they run \
         concurrently on real hardware), as a speed-up over K = 1"
    );
    println!();

    let mut results: Vec<ClusterCell> = Vec::new();
    for &k in &ks {
        let t0 = Instant::now();
        results.push(measure(n, k, steps));
        eprintln!("    [K = {k} done in {}]", fmt_secs(t0.elapsed().as_secs_f64()));
    }
    let k1 = results.iter().find(|c| c.k == 1);

    rule(114);
    println!(
        "{:>8} {:>3} {:>16} {:>12} {:>11} {:>8} {:>8} {:>11} {:>8} {:>10}",
        "N",
        "K",
        "interactions",
        "terms",
        "crit-path",
        "step-x",
        "LET-x",
        "aggregate",
        "host",
        "balance"
    );
    println!(
        "{:>8} {:>3} {:>16} {:>12} {:>11} {:>8} {:>8} {:>11} {:>8} {:>10}",
        "", "", "", "", "s/step", "vs K=1", "vs K=1", "Minter/s", "s/step", ""
    );
    rule(114);
    for c in &results {
        result_row(c, k1);
    }
    rule(114);

    if let Some(k1) = k1 {
        println!();
        println!(
            "scaling vs K = 1 (step = time to the same answer; rate = work done, LET waste \
             included):"
        );
        for c in &results {
            println!(
                "  K = {}  step {:.4} s  speed-up {:.2}x (ideal {}x)  =  rate {:.2}x / LET \
                 inflation {:.2}x",
                c.k,
                c.step_s(),
                c.step_speedup(k1),
                c.k,
                c.rate() / k1.rate(),
                c.let_inflation(k1),
            );
        }
        if let Some(c4) = results.iter().find(|c| c.k == 4) {
            let s4 = c4.step_speedup(k1);
            println!();
            println!(
                "headline: K = 4 step {s4:.2}x faster than K = 1 at LET inflation {:.2}x \
                 (gate: >= {STEP_GATE_K4}x) — {}",
                c4.let_inflation(k1),
                if s4 >= STEP_GATE_K4 { "PASS" } else { "FAIL" }
            );
            assert!(s4 >= STEP_GATE_K4, "K=4 step gate failed: {s4:.2}x < {STEP_GATE_K4}x");
        }
    }

    println!();
    println!("recovery summary (retries / j-reloads / quarantined pipes / boards):");
    for c in &results {
        let r = &c.recovery;
        println!(
            "  K = {}  cluster: {} / {} / {} / {}{}",
            c.k,
            r.retries,
            r.j_reloads,
            r.quarantined_pipes,
            r.quarantined_boards,
            if c.shard_recovery.is_empty() { "  (all shards clean)" } else { "" },
        );
        for (slot, sr) in &c.shard_recovery {
            println!(
                "         shard {slot}: {} / {} / {} / {}",
                sr.retries, sr.j_reloads, sr.quarantined_pipes, sr.quarantined_boards
            );
        }
    }

    let rows: Vec<Row> = results.iter().map(|c| cell_row(c, k1)).collect();
    row! {
        "experiment": "exp_cluster", "quick": quick, "seed": SEED, "theta": 0.75,
        "n_crit": 2000u64, "eps": EPS, "results": rows.clone(),
    }
    .write(&out_path);
    println!();
    println!("wrote {out_path}");

    if let Some(old) = baseline {
        let (key, metrics) = (["n", "k", "steps"], ["critical_path_s_per_step", "interactions"]);
        let note = "the modeled clock is deterministic; any delta is a real behavior change";
        report::print_delta(&old, &key, &metrics, &rows, note);
    }

    // cross-PR ledger: the largest-K step speed-up — a same-run ratio
    // on the modeled clock, keyed by this tree's commit
    if args.flag("trajectory") {
        let k1 = k1.expect("--trajectory needs a K = 1 cell to take the ratio against");
        let top = results.iter().max_by_key(|c| c.k).expect("at least one K");
        trajectory::append_from_args(
            &args,
            &[("cluster_step_speedup", n as u64, top.step_speedup(k1))],
        );
    }
}
