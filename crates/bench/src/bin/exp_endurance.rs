//! **E13 — chaos endurance: the self-healing cluster under a seeded
//! fault storm.**
//!
//! Drives a long [`ClusterTreeGrape`] run through every fault class of
//! the GRAPE fault model at once, plus operator-grade disasters the
//! per-call recovery stack cannot absorb, and verifies the shard
//! lifecycle supervisor keeps the simulation alive, accurate, and
//! reproducible:
//!
//! * **background noise** — transient readback and j-memory corruption
//!   on *every* shard, with per-shard fault streams derived by
//!   `splitmix` from one chaos seed;
//! * **j-memory burst** — a window mid-run where the corruption rate
//!   jumps 5x on all shards;
//! * **stuck pipe** — one shard's pipeline fails early, is convicted by
//!   self-test and quarantined;
//! * **board dropout** — one shard loses a board mid-run, halving its
//!   capacity; the weighted re-decomposition shifts particles away
//!   from it, and a later "repair" (persistent faults cleared, probe
//!   passes) restores the board and shifts them back;
//! * **whole-shard kills** — two shards are killed outright at
//!   scheduled steps; the supervisor probes them on its deadline
//!   clock and re-admits each once its hardware passes self-test.
//!
//! Three runs gate the result:
//!
//! * **A (endurance)** — full chaos schedule with rolling retained
//!   checkpoints, scrubbed at the end; completion, max energy drift,
//!   re-admission count and MTTR (kill → re-admission, in evals) are
//!   read off the recovery ledger.
//! * **B (determinism)** — exact rerun of A; the recovery ledgers and
//!   final states must be identical, bit for bit.
//! * **C (resume)** — a fresh process restores the mid-chaos
//!   checkpoint written at the cut step (fault-injector words and
//!   lifecycle payload included) and finishes the run; its final
//!   snapshot must serialize to the same bytes as A's.
//!
//! ```text
//! cargo run --release -p g5-bench --bin exp_endurance -- \
//!     [--quick] [--n 65536] [--k 4] [--steps 200] [--dt 0.005] \
//!     [--out artifacts/exp_endurance.json] \
//!     [--ledger-out artifacts/exp_endurance_ledger.txt] \
//!     [--ckpt-dir artifacts/endurance_ckpt] [--skip-rerun] [--skip-resume]
//! ```
//!
//! The storm of record (`BENCH_pr7.json`, `BENCH_pr7_ledger.txt`) is
//! written only by naming both files.
//!
//! `--quick` (CI smoke): N = 8,192, K = 3, 40 steps — the same storm,
//! compressed.

use g5_bench::report;
use g5_bench::{fmt_secs, plummer, row, rule, write_report, Args};
use grape5::fault::{BoardDropout, FaultConfig, StuckPipe};
use grape5::{splitmix, RetryPolicy};
use treegrape::checkpoint::{latest, scrub, Checkpointer};
use treegrape::cluster::{ClusterTreeGrape, ClusterTreeGrapeConfig};
use treegrape::{ForceBackend, Simulation};

const CHAOS_SEED: u64 = 7001;
const EPS: f64 = 0.01;
/// Committed energy-drift envelope for the full storm: board loss
/// re-groups the j-set in fixed point, so the faulty run may differ
/// from a clean one at rounding level, but never beyond this.
const DRIFT_ENVELOPE: f64 = 0.05;

/// The full deterministic chaos schedule, in step numbers (an action
/// listed at step `s` is applied immediately before integrating step
/// `s`). Derived from the run length so `--quick` compresses the same
/// storm instead of dropping acts from it.
struct Chaos {
    transient_rate: f64,
    jmem_rate: f64,
    /// Stuck pipe armed on shard 1 from the start.
    stuck: StuckPipe,
    /// Board dropout armed on shard 2, firing ~25% into the run.
    dropout: BoardDropout,
    /// Operator kill of shard 1 (already degraded by the stuck pipe).
    kill1: u64,
    /// Technician clears shard 1's persistent fault; the next probe
    /// re-admits it.
    heal1: u64,
    /// Operator kill of the last shard.
    kill2: u64,
    /// j-memory burst window: corruption rate x5 on all shards.
    burst_on: u64,
    burst_off: u64,
    /// Technician repairs shard 2's dead board; the next probe
    /// restores it and the weighted cuts shift back.
    heal2: u64,
    /// Step whose checkpoint run C resumes from.
    cut: u64,
}

impl Chaos {
    fn plan(n: usize, k: usize, n_crit: usize, steps: u64) -> Chaos {
        // Conservative estimate of device calls per shard per eval
        // (the real count is higher once LET imports split groups), so
        // the dropout trigger fires *earlier* than the nominal 25%
        // mark, never after the cut.
        let calls_per_eval = ((n / n_crit / k) as u64).max(1);
        Chaos {
            transient_rate: 0.02,
            jmem_rate: 0.02,
            stuck: StuckPipe { after_call: 3, board: 0, pipe: 5 },
            dropout: BoardDropout { after_call: calls_per_eval * steps / 4, board: 1 },
            kill1: (steps * 15 / 100).max(2),
            heal1: (steps * 25 / 100).max(3),
            kill2: steps * 55 / 100,
            burst_on: steps * 45 / 100,
            burst_off: steps * 50 / 100,
            heal2: steps * 85 / 100,
            cut: steps * 70 / 100,
        }
    }

    /// Arm every shard's injector for one storm phase. `tag` makes
    /// each re-arm draw a fresh, independent stream family; per-shard
    /// streams are split off it inside `set_fault_injectors`.
    fn arm(&self, cl: &mut ClusterTreeGrape, jmem_rate: f64, tag: u64, stuck_armed: bool) {
        let base = FaultConfig {
            transient_rate: self.transient_rate,
            jmem_corrupt_rate: jmem_rate,
            ..FaultConfig::none(splitmix(CHAOS_SEED, tag))
        };
        cl.set_fault_injectors(base);
        if stuck_armed {
            let mut f1 = base.for_shard(1);
            f1.stuck_pipe = Some(self.stuck);
            cl.set_fault_injector(1, f1);
        }
        let mut f2 = base.for_shard(2);
        f2.board_dropout = Some(self.dropout);
        cl.set_fault_injector(2, f2);
    }

    /// Apply the operator/technician actions scheduled for `step`.
    /// `with_kills: false` replays only the hardware-state actions (a
    /// resumed run takes shard health from the lifecycle payload, not
    /// from re-killing).
    fn apply(&self, cl: &mut ClusterTreeGrape, step: u64, k: usize, with_kills: bool) {
        if with_kills && step == self.kill1 {
            cl.kill_shard(1);
        }
        if step == self.heal1 {
            cl.clear_persistent_faults(1);
        }
        if with_kills && step == self.kill2 {
            cl.kill_shard(k - 1);
        }
        if step == self.burst_on {
            self.arm(cl, self.jmem_rate * 5.0, 1, false);
        }
        if step == self.burst_off {
            self.arm(cl, self.jmem_rate, 2, false);
        }
        if step == self.heal2 {
            cl.clear_persistent_faults(2);
        }
    }
}

struct RunResult {
    completed: u64,
    wall_s: f64,
    drift_max: f64,
    ledger: Vec<String>,
    evals: u64,
    final_state: g5ic::Snapshot,
    final_time: f64,
    recovery: grape5::RecoveryStats,
    shard_recovery: Vec<(usize, grape5::RecoveryStats)>,
}

fn endurance_cfg(k: usize, n_crit: usize, probe_interval: u64) -> ClusterTreeGrapeConfig {
    let mut cfg = ClusterTreeGrapeConfig::paper(EPS, k);
    cfg.base.n_crit = n_crit;
    cfg.base.retry = RetryPolicy { max_retries: 20, ..RetryPolicy::no_wait() };
    cfg.lifecycle.probe_interval = probe_interval;
    cfg.lifecycle.straggler_factor = Some(3.0);
    cfg
}

/// One endurance pass. Runs A and B start from `snap0`; run C
/// (`resume_from`) restores the cut checkpoint in that directory into a
/// fresh backend — injectors re-armed from the same schedule,
/// technician actions up to the cut replayed, fault-injector words and
/// lifecycle payload restored — and integrates to the end. When `ckpt`
/// is set, rolling retained checkpoints go to `ckpt.0` every `ckpt.1`
/// steps keeping `ckpt.2`, and the mid-chaos cut checkpoint goes to
/// `cut_dir`.
#[allow(clippy::too_many_arguments)]
fn run_storm(
    label: &str,
    snap0: &g5ic::Snapshot,
    cfg: ClusterTreeGrapeConfig,
    chaos: &Chaos,
    steps: u64,
    dt: f64,
    ckpt: Option<(&std::path::Path, u64, usize)>,
    cut_dir: Option<&std::path::Path>,
    resume_from: Option<&std::path::Path>,
) -> RunResult {
    let wall = std::time::Instant::now();
    let k = cfg.shards;
    let mut backend = ClusterTreeGrape::new(cfg);
    chaos.arm(&mut backend, chaos.jmem_rate, 0, true);
    let mut sim = match resume_from {
        Some(dir) => {
            let ck = latest(dir).expect("read cut dir").expect("cut checkpoint present");
            assert_eq!(ck.step, chaos.cut, "cut checkpoint at the wrong step");
            for step in 1..=ck.step {
                chaos.apply(&mut backend, step, k, false);
            }
            ck.resume(backend).expect("resume")
        }
        None => Simulation::try_new(snap0.clone(), backend, 0.0).expect("initial forces"),
    };

    let rolling = ckpt.map(|(dir, every, keep)| {
        Checkpointer::new(dir, every).expect("create checkpoint dir").with_retention(keep)
    });
    let cut_ck =
        cut_dir.map(|dir| Checkpointer::new(dir, chaos.cut.max(1)).expect("create cut dir"));

    let e0 = sim.total_energy();
    let mut drift_max = 0.0f64;
    for step in sim.steps + 1..=steps {
        chaos.apply(sim.backend_mut(), step, k, true);
        sim.try_step(dt).expect("storm step");
        drift_max = drift_max.max(((sim.total_energy() - e0) / e0).abs());
        if let Some(c) = &rolling {
            c.maybe_write(&sim).expect("rolling checkpoint");
        }
        if step == chaos.cut {
            if let Some(c) = &cut_ck {
                let state = sim.backend().resume_state();
                c.write(&sim.state, sim.time, sim.steps, &state).expect("cut checkpoint");
            }
        }
    }

    let r = RunResult {
        completed: sim.steps,
        wall_s: wall.elapsed().as_secs_f64(),
        drift_max,
        ledger: sim.backend().ledger().events().to_vec(),
        evals: sim.backend().evals(),
        final_state: sim.state.clone(),
        final_time: sim.time,
        recovery: sim.backend().cluster_recovery_stats(),
        shard_recovery: sim.backend().shard_recovery_stats(),
    };
    eprintln!(
        "    [run {label}: {} steps, {} evals, {} ledger events, {}]",
        r.completed,
        r.evals,
        r.ledger.len(),
        fmt_secs(r.wall_s)
    );
    r
}

/// Kill → re-admission spans per shard, in evals, read off the ledger.
fn mttr_spans(ledger: &[String]) -> Vec<(usize, u64, u64)> {
    fn eval_of(e: &str) -> Option<u64> {
        e.strip_prefix("eval ")?.split(':').next()?.parse().ok()
    }
    fn shard_of(e: &str, marker: &str) -> Option<usize> {
        let at = e.find(marker)? + marker.len();
        e[at..].split_whitespace().next()?.parse().ok()
    }
    let mut open: Vec<(usize, u64)> = Vec::new();
    let mut spans = Vec::new();
    for e in ledger {
        let Some(eval) = eval_of(e) else { continue };
        if e.contains("killed") {
            if let Some(k) = shard_of(e, "shard ") {
                open.push((k, eval));
            }
        } else if e.contains("re-admitted") {
            if let Some(k) = shard_of(e, "shard ") {
                if let Some(i) = open.iter().position(|&(ok, _)| ok == k) {
                    let (_, down) = open.remove(i);
                    spans.push((k, down, eval));
                }
            }
        }
    }
    spans
}

fn snapshot_bytes(state: &g5ic::Snapshot, time: f64, path: &std::path::Path) -> Vec<u8> {
    treegrape::snapshot_io::save(path, state, time).expect("serialize snapshot");
    std::fs::read(path).expect("read snapshot bytes")
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let n: usize = args.get("n", if quick { 8_192 } else { 65_536 });
    let k: usize = args.get("k", if quick { 3 } else { 4 });
    let steps: u64 = args.get("steps", if quick { 40 } else { 200 });
    let dt: f64 = args.get("dt", 0.005);
    let n_crit: usize = args.get("n-crit", 128);
    let probe_interval: u64 = args.get("probe-interval", if quick { 4 } else { 8 });
    let every: u64 = args.get("checkpoint-every", if quick { 5 } else { 20 });
    let keep: usize = args.get("keep", if quick { 3 } else { 4 });
    let out_path: String = args.get("out", "artifacts/exp_endurance.json".to_string());
    let ledger_path: String =
        args.get("ledger-out", "artifacts/exp_endurance_ledger.txt".to_string());
    let ckpt_root: String = args.get("ckpt-dir", "artifacts/endurance_ckpt".to_string());
    let skip_rerun = args.flag("skip-rerun");
    let skip_resume = args.flag("skip-resume");

    assert!(k >= 3, "the chaos schedule addresses shards 1, 2 and K-1: need K >= 3");
    let chaos = Chaos::plan(n, k, n_crit, steps);
    let cfg = endurance_cfg(k, n_crit, probe_interval);

    println!(
        "E13: chaos endurance — self-healing cluster under a seeded fault storm{}",
        if quick { " (--quick)" } else { "" }
    );
    println!(
        "     workload: Plummer N = {n}, K = {k}, {steps} steps, dt = {dt}, n_crit = {n_crit}, \
         chaos seed {CHAOS_SEED}"
    );
    println!(
        "     schedule: stuck pipe on shard 1 (call {}), dropout on shard 2 (call {}), \
         kills at steps {} and {} (shards 1, {}), heals at {} and {}, j-mem burst {}..{}, \
         cut at {}",
        chaos.stuck.after_call,
        chaos.dropout.after_call,
        chaos.kill1,
        chaos.kill2,
        k - 1,
        chaos.heal1,
        chaos.heal2,
        chaos.burst_on,
        chaos.burst_off,
        chaos.cut,
    );
    println!(
        "     supervisor: probe every {probe_interval} evals, straggler deadline 3.0 x median, \
         retries <= 20"
    );
    println!();

    let snap0 = plummer(n, 42);
    let root = std::path::Path::new(&ckpt_root);
    std::fs::remove_dir_all(root).ok();
    let rolling_dir = root.join("rolling");
    let cut_dir = root.join("cut");

    let a = run_storm(
        "A",
        &snap0,
        cfg,
        &chaos,
        steps,
        dt,
        Some((&rolling_dir, every, keep)),
        Some(&cut_dir),
        None,
    );
    let scrub_report = scrub(&rolling_dir, keep).expect("scrub retained checkpoints");

    let b = (!skip_rerun).then(|| run_storm("B", &snap0, cfg, &chaos, steps, dt, None, None, None));
    let c = (!skip_resume)
        .then(|| run_storm("C", &snap0, cfg, &chaos, steps, dt, None, None, Some(&cut_dir)));

    // ------------------------------------------------------------------
    // report
    let spans = mttr_spans(&a.ledger);
    let readmissions = a.ledger.iter().filter(|e| e.contains("re-admitted")).count();
    let kills = a.ledger.iter().filter(|e| e.contains("killed")).count();
    let restores = a.ledger.iter().filter(|e| e.contains("regained")).count();
    let stragglers = a.ledger.iter().filter(|e| e.contains("straggled")).count();
    let redecompositions = a.ledger.iter().filter(|e| e.contains("decomposed over")).count();
    let mttr_mean = if spans.is_empty() {
        0.0
    } else {
        spans.iter().map(|&(_, d, u)| (u - d) as f64).sum::<f64>() / spans.len() as f64
    };
    let mttr_max = spans.iter().map(|&(_, d, u)| u - d).max().unwrap_or(0);

    println!();
    println!("recovery ledger of run A ({} events):", a.ledger.len());
    rule(72);
    for e in &a.ledger {
        println!("  {e}");
    }
    rule(72);
    println!();
    println!(
        "completion: {}/{steps} steps, {} evals, max |dE/E0| = {:.3e} (envelope {DRIFT_ENVELOPE})",
        a.completed, a.evals, a.drift_max
    );
    println!(
        "lifecycle: {kills} kills, {readmissions} re-admissions, {restores} hardware restores, \
         {stragglers} straggler re-executions, {redecompositions} decompositions"
    );
    for &(shard, down, up) in &spans {
        println!(
            "  shard {shard}: down at eval {down}, re-admitted at eval {up} (MTTR {} evals)",
            up - down
        );
    }
    println!("MTTR: mean {mttr_mean:.1} evals, max {mttr_max} evals");
    println!(
        "recovery: cluster {} retries, {} j-reloads, {} quarantined pipes, {} quarantined boards",
        a.recovery.retries,
        a.recovery.j_reloads,
        a.recovery.quarantined_pipes,
        a.recovery.quarantined_boards
    );
    for (slot, sr) in &a.shard_recovery {
        println!(
            "  shard {slot}: {} retries, {} j-reloads, {} q-pipes, {} q-boards",
            sr.retries, sr.j_reloads, sr.quarantined_pipes, sr.quarantined_boards
        );
    }
    println!(
        "checkpoints: scrubbed {} retained manifests, {} valid, {} corrupt",
        scrub_report.checked,
        scrub_report.valid,
        scrub_report.corrupt.len()
    );

    // ------------------------------------------------------------------
    // verdicts
    let tmp = std::env::temp_dir().join(format!("g5_endurance_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).ok();
    let bytes_a = snapshot_bytes(&a.final_state, a.final_time, &tmp.join("a.snap"));

    let mut ok = true;
    let mut verdict = |label: &str, pass: bool, detail: String| {
        if !pass {
            ok = false;
        }
        println!("verdict {label:>13}: {} ({detail})", if pass { "PASS" } else { "FAIL" });
    };

    println!();
    verdict("completion", a.completed == steps, format!("{}/{steps} steps", a.completed));
    verdict(
        "energy",
        a.drift_max.is_finite() && a.drift_max < DRIFT_ENVELOPE,
        format!("max |dE/E0| {:.3e} < {DRIFT_ENVELOPE}", a.drift_max),
    );
    verdict(
        "self-healing",
        readmissions >= 2 && kills >= 2,
        format!("{kills} kills, {readmissions} re-admissions"),
    );
    verdict(
        "fault-classes",
        a.recovery.retries > 0
            && a.recovery.j_reloads > 0
            && a.recovery.quarantined_pipes >= 1
            && a.recovery.quarantined_boards >= 1,
        format!(
            "retries {}, j-reloads {}, q-pipes {}, q-boards {}",
            a.recovery.retries,
            a.recovery.j_reloads,
            a.recovery.quarantined_pipes,
            a.recovery.quarantined_boards
        ),
    );
    verdict(
        "scrub",
        scrub_report.corrupt.is_empty() && scrub_report.valid >= 1,
        format!("{} manifests valid", scrub_report.valid),
    );

    let mut determinism_pass = None;
    if let Some(b) = &b {
        let pass = b.ledger == a.ledger
            && b.final_state.pos == a.final_state.pos
            && b.final_state.vel == a.final_state.vel;
        determinism_pass = Some(pass);
        verdict(
            "determinism",
            pass,
            format!(
                "rerun ledger {} ({} events), final state {}",
                if b.ledger == a.ledger { "identical" } else { "DIFFERS" },
                b.ledger.len(),
                if b.final_state.pos == a.final_state.pos { "bit-identical" } else { "DIFFERS" }
            ),
        );
    }
    let mut resume_pass = None;
    if let Some(c) = &c {
        let bytes_c = snapshot_bytes(&c.final_state, c.final_time, &tmp.join("c.snap"));
        let pass = c.completed == steps && bytes_c == bytes_a;
        resume_pass = Some(pass);
        verdict(
            "resume",
            pass,
            format!(
                "resumed from step {}, final snapshot {} ({} bytes)",
                chaos.cut,
                if bytes_c == bytes_a { "byte-identical" } else { "DIFFERS" },
                bytes_a.len()
            ),
        );
    }
    std::fs::remove_dir_all(&tmp).ok();

    // ------------------------------------------------------------------
    // artifacts
    write_report(&ledger_path, &(a.ledger.join("\n") + "\n"));
    let shard_recovery = a
        .shard_recovery
        .iter()
        .fold(row! {}, |row, (slot, sr)| row.put(&slot.to_string(), report::recovery(sr)));
    row! {
        "experiment": "exp_endurance", "quick": quick, "chaos_seed": CHAOS_SEED,
        "n": n, "k": k, "steps": steps, "dt": dt, "eps": EPS, "n_crit": n_crit,
        "probe_interval": probe_interval, "straggler_factor": 3.0, "checkpoint_every": every,
        "retention_keep": keep, "cut_step": chaos.cut, "completed_steps": a.completed,
        "evals": a.evals, "wall_s": a.wall_s, "max_energy_drift": a.drift_max,
        "drift_envelope": DRIFT_ENVELOPE, "kills": kills, "readmissions": readmissions,
        "hardware_restores": restores, "straggler_reexecutions": stragglers,
        "redecompositions": redecompositions, "mttr_evals_mean": mttr_mean,
        "mttr_evals_max": mttr_max, "recovery": report::recovery(&a.recovery),
        "shard_recovery": shard_recovery,
        "scrub": row! {
            "checked": scrub_report.checked, "valid": scrub_report.valid,
            "corrupt": scrub_report.corrupt.len(),
        },
        "determinism_rerun_identical": determinism_pass, "resume_byte_identical": resume_pass,
        "ledger": a.ledger.clone(),
    }
    .write(&out_path);
    println!();
    println!("wrote {out_path} and {ledger_path}");

    if !ok {
        std::process::exit(1);
    }
}
