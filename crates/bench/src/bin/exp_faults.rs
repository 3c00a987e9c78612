//! **E9 — fault injection, recovery and checkpoint/restart.**
//!
//! Runs a mid-size Plummer sphere with the paper's system under each
//! fault class of the GRAPE fault model (`grape5::fault`) and records
//! what recovery costs and what it preserves:
//!
//! * **transient / j-memory / stuck-pipe** faults are healed by the
//!   validate–retry–reload path, so the trajectory must be
//!   **bit-identical** to the fault-free run;
//! * **board dropout** degrades the machine (the dead board is
//!   quarantined and the j-set redistributed), so the run completes
//!   with a small energy error instead of crashing;
//! * an energy watchdog checkpoints and aborts rather than integrating
//!   garbage if drift ever exceeds tolerance.
//!
//! ```text
//! cargo run --release -p g5-bench --bin exp_faults -- \
//!     [--n 8000] [--steps 40] [--dt 0.005] [--eps 0.01] \
//!     [--transient 0.05] [--jmem 0.05] \
//!     [--plan-workers W] [--channel-depth D] \
//!     [--checkpoint-every 10] [--checkpoint-dir dir] [--resume]
//! ```
//!
//! With `--checkpoint-every` set, every case writes periodic
//! checkpoints (fault-injector RNG state included) into a per-case
//! subdirectory; `--resume` continues each case from its newest valid
//! checkpoint, reproducing the uninterrupted run bit-for-bit.

use g5_bench::{fmt_secs, plan_from_args, plummer, rule, Args};
use grape5::fault::{BoardDropout, FaultConfig, StuckPipe};
use grape5::RetryPolicy;
use treegrape::checkpoint::{latest, Checkpointer};
use treegrape::diagnostics::EnergyWatchdog;
use treegrape::{ForceBackend, Simulation, TreeGrape, TreeGrapeConfig};

struct CaseResult {
    label: &'static str,
    completed: u64,
    wall_s: f64,
    stats: grape5::RecoveryStats,
    energy_drift: f64,
    final_state: Option<g5ic::Snapshot>,
    resumed_from: Option<u64>,
    /// Seconds the device consumer spent starved on an empty plan
    /// channel, summed over the run.
    blocked_s: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_case(
    label: &'static str,
    fault: Option<FaultConfig>,
    snap0: &g5ic::Snapshot,
    cfg: TreeGrapeConfig,
    steps: u64,
    dt: f64,
    ckpt: Option<(&std::path::Path, u64)>,
    resume: bool,
) -> CaseResult {
    let wall = std::time::Instant::now();
    let mut backend = TreeGrape::new(cfg);
    if let Some(f) = fault {
        backend.grape_mut().set_fault_injector(f);
    }

    let case_ckpt = ckpt.map(|(dir, every)| {
        Checkpointer::new(&dir.join(label), every).expect("create checkpoint dir")
    });

    // resume from the newest valid checkpoint of this case, restoring
    // the fault-injector RNG so the replayed fault schedule matches
    let newest = case_ckpt.as_ref().filter(|_| resume).and_then(|c| latest(c.dir()).ok()?);
    let resumed_from = newest.as_ref().map(|ck| ck.step);
    let mut sim = match newest {
        Some(ck) => ck.resume(backend).expect("resume simulation"),
        None => Simulation::try_new(snap0.clone(), backend, 0.0).expect("initial forces"),
    };

    // watchdog against the run's own initial energy; generous tolerance
    // — tripping it means the recovery stack let garbage through
    let mut watchdog = EnergyWatchdog::new(0.05);
    watchdog.check(sim.total_energy()).expect("initial energy finite");

    let mut failure: Option<String> = None;
    while sim.steps < steps {
        if let Err(e) = sim.try_step(dt) {
            failure = Some(e.to_string());
            break;
        }
        if let Err(e) = watchdog.check(sim.total_energy()) {
            // checkpoint-and-abort: save the last state for the
            // post-mortem rather than integrating garbage
            if let Some(c) = &case_ckpt {
                c.write(&sim.state, sim.time, sim.steps, &sim.backend().resume_state()).ok();
            }
            failure = Some(e.to_string());
            break;
        }
        if let Some(c) = &case_ckpt {
            c.maybe_write(&sim).expect("write checkpoint");
        }
    }
    if let Some(msg) = failure {
        println!("  [{label}] aborted at step {}: {msg}", sim.steps);
    }

    let e0 = watchdog.baseline().unwrap();
    let drift = ((sim.total_energy() - e0) / e0).abs();
    CaseResult {
        label,
        completed: sim.steps,
        wall_s: wall.elapsed().as_secs_f64(),
        stats: sim.backend().recovery_stats().unwrap_or_default(),
        energy_drift: drift,
        final_state: Some(sim.state.clone()),
        resumed_from,
        blocked_s: sim.phase_timers().consumer_blocked_s,
    }
}

fn main() {
    let args = Args::parse(&[
        "n",
        "steps",
        "dt",
        "eps",
        "transient",
        "jmem",
        "checkpoint-every",
        "checkpoint-dir",
        "resume",
        "plan-workers",
        "channel-depth",
    ]);
    let n: usize = args.get("n", 8_000);
    let steps: u64 = args.get("steps", 40);
    let dt: f64 = args.get("dt", 0.005);
    let eps: f64 = args.get("eps", 0.01);
    let transient_rate: f64 = args.get("transient", 0.05);
    let jmem_rate: f64 = args.get("jmem", 0.05);
    let ckpt_every: u64 = args.get("checkpoint-every", 0);
    let ckpt_dir: String = args.get("checkpoint-dir", "faults_ckpt".to_string());
    let resume = args.flag("resume");
    let plan = plan_from_args(&args);

    println!("E9: fault injection and recovery (N = {n}, {steps} steps, dt = {dt}, eps = {eps})");
    let snap0 = plummer(n, 2);
    let cfg = TreeGrapeConfig {
        n_crit: 500,
        retry: RetryPolicy::default(),
        plan,
        ..TreeGrapeConfig::paper(eps)
    };
    let ckpt = (ckpt_every > 0).then(|| (std::path::Path::new(&ckpt_dir), ckpt_every));
    if let Some((dir, every)) = ckpt {
        println!("checkpointing every {every} steps into {dir:?} (resume: {resume})");
    }

    let cases: Vec<(&'static str, Option<FaultConfig>)> = vec![
        ("clean", None),
        ("transient", Some(FaultConfig::transient(101, transient_rate))),
        ("jmem", Some(FaultConfig::jmem(102, jmem_rate))),
        (
            "stuck-pipe",
            Some(FaultConfig::stuck(103, StuckPipe { after_call: 5, board: 1, pipe: 9 })),
        ),
        (
            "dropout",
            Some(FaultConfig::dropout(104, BoardDropout { after_call: steps / 2, board: 0 })),
        ),
    ];

    let results: Vec<CaseResult> = cases
        .iter()
        .map(|&(label, fault)| run_case(label, fault, &snap0, cfg, steps, dt, ckpt, resume))
        .collect();
    let clean = &results[0];

    println!();
    println!(
        "{:>12} {:>6} {:>10} {:>8} {:>8} {:>7} {:>8} {:>11} {:>9} {:>10} {:>9}",
        "fault",
        "steps",
        "wall",
        "retries",
        "reloads",
        "q-pipe",
        "q-board",
        "|dE/E0|",
        "blocked",
        "overhead",
        "vs clean"
    );
    rule(108);
    for r in &results {
        let overhead = r.wall_s / clean.wall_s - 1.0;
        let identical = match (&r.final_state, &clean.final_state) {
            (Some(a), Some(b)) => {
                if a.pos == b.pos && a.vel == b.vel {
                    "bit-ident"
                } else {
                    "differs"
                }
            }
            _ => "n/a",
        };
        println!(
            "{:>12} {:>6} {:>10} {:>8} {:>8} {:>7} {:>8} {:>11.2e} {:>9} {:>9.1}% {:>9}",
            r.label,
            r.completed,
            fmt_secs(r.wall_s),
            r.stats.retries,
            r.stats.j_reloads,
            r.stats.quarantined_pipes,
            r.stats.quarantined_boards,
            r.energy_drift,
            fmt_secs(r.blocked_s),
            overhead * 100.0,
            identical,
        );
        if let Some(step) = r.resumed_from {
            println!("{:>12}   (resumed from checkpoint at step {step})", "");
        }
    }

    println!();
    println!("transient/jmem/stuck-pipe recovery must be bit-identical to the clean run;");
    println!("dropout degrades to fewer boards (fixed-point re-grouping), so it matches to");
    println!("rounding and is judged by |dE/E0| against the clean run's drift instead.");

    // machine-checkable verdicts for the CI smoke run
    let mut ok = true;
    for r in &results[1..4] {
        let ident = r.final_state.as_ref().map(|s| {
            s.pos == clean.final_state.as_ref().unwrap().pos
                && s.vel == clean.final_state.as_ref().unwrap().vel
        }) == Some(true);
        let pass = r.completed == steps && ident && r.stats.retries > 0;
        if !pass {
            ok = false;
        }
        println!(
            "verdict {:>12}: {} (completed {}, recovered {} faults, bit-identical {})",
            r.label,
            if pass { "PASS" } else { "FAIL" },
            r.completed,
            r.stats.retries,
            ident
        );
    }
    let dropout = &results[4];
    let pass = dropout.completed == steps
        && dropout.stats.quarantined_boards >= 1
        && dropout.energy_drift < 0.05;
    if !pass {
        ok = false;
    }
    println!(
        "verdict {:>12}: {} (completed {}, quarantined {} boards, |dE/E0| {:.2e})",
        dropout.label,
        if pass { "PASS" } else { "FAIL" },
        dropout.completed,
        dropout.stats.quarantined_boards,
        dropout.energy_drift
    );
    if !ok {
        std::process::exit(1);
    }
}
