//! **E16 — multi-tenant job-service load generation: `g5serve` under a
//! storm of concurrent tenants.**
//!
//! The paper's $7.0/Mflops is a *facility* price: real GRAPE
//! installations multiplexed many users' runs onto the boards. This
//! harness drives the [`g5serve`] job server the way a shared facility
//! is driven — a burst of concurrent small jobs (mixed Plummer and
//! Hernquist realizations, tree and cluster backends, exact and LNS
//! arithmetic, a seeded fault storm armed on a subset) — and measures
//! what multi-tenancy costs:
//!
//! * **latency** — p50/p95/p99 turnaround (submit → terminal) across
//!   the fleet;
//! * **throughput** — aggregate pairwise interactions/s across all
//!   workers vs. a single-job baseline: the same fleet run to
//!   completion one job at a time on a one-worker server (matched
//!   total work, no multiplexing). The gate requires the multiplexed
//!   aggregate to stay >= 0.8x the sequential baseline (relaxed to
//!   0.5x under `--quick`, whose tiny jobs make the ratio noisy),
//!   i.e. scheduling, checkpointing and resume recomputation may not
//!   eat the pool;
//! * **fairness** — Jain's index over per-job turnaround relative to a
//!   simulated ideal discrete round-robin schedule (same specs,
//!   workers, quantum, measured per-step costs, makespan-normalized);
//!   a perfectly fair schedule scores 1.0, a starved job drags the
//!   index down;
//! * **durability** — the server is `kill()`ed mid-storm (twice in
//!   full mode) and reopened over the same directory; every job must
//!   still complete, and a spot-checked subset must produce final
//!   snapshots *byte-identical* to uninterrupted reference runs;
//! * **taxonomy** — deliberately doomed submissions (an impossible
//!   j-memory demand, immediate cancellations) must surface as their
//!   typed [`JobError`] kinds in the status API;
//! * **worker scaling** — the same fleet, no kills, on one worker and on
//!   as many workers as the machine has cores: aggregate
//!   interactions/s, the ratio between them, and the tasks the run
//!   created per force evaluation (a census of the PID namespace's
//!   last-pid counter). Workers that share the process take equal
//!   shares of it (`g5util::cores`), so a worker per core should
//!   create none; a lone worker may take a plan producer for the idle
//!   cores.
//!
//! ```text
//! cargo run --release -p g5-bench --bin exp_serve -- \
//!     [--quick] [--jobs 120] [--workers 6] [--quantum 8] \
//!     [--dir serve_state] [--out artifacts/exp_serve.json]
//! ```
//!
//! The report defaults to the git-ignored `artifacts/exp_serve.json`;
//! the committed `BENCH_pr20.json` is only written by naming it.
//!
//! `--quick` (CI smoke): 24 jobs, 3 workers, one kill — the same storm,
//! compressed.

use g5_bench::report::{self, Row};
use g5_bench::{fmt_count, fmt_secs, row, rule, Args};
use g5serve::{job_dir_name, JobError, JobId, JobSpec, JobState, Server, ServerConfig};
use g5util::cores;
use grape5::{ArithMode, FaultConfig, RecoveryStats};
use std::path::Path;
use std::time::{Duration, Instant};
use treegrape::{snapshot_io, BackendSpec, Simulation};

/// Fault-storm seed family (per-job streams are `STORM_SEED + j`).
const STORM_SEED: u64 = 1600;

/// The tenant mix: job `j` of `jobs`. Sizes, lengths, IC families,
/// arithmetic modes and backends interleave deterministically so every
/// run of the harness submits the identical fleet.
fn tenant(j: u64, quick: bool) -> JobSpec {
    let (n_base, n_step, steps_base) = if quick { (64, 8, 6) } else { (96, 16, 12) };
    let n = n_base + n_step * (j % 13) as usize;
    let steps = steps_base + 3 * (j % 9);
    let mut spec = if j.is_multiple_of(2) {
        JobSpec::plummer(n, 7_000 + j, steps)
    } else {
        JobSpec::hernquist(n, 8_000 + j, steps)
    };
    spec.checkpoint_every = 4;
    if j % 5 == 2 {
        // LNS tenants: the paper's native arithmetic
        spec.backend.mode = ArithMode::Lns;
    }
    if j.is_multiple_of(4) {
        // seeded fault storm: transient readback + j-memory corruption,
        // healed by the validate/retry stack under the job's feet
        let storm = FaultConfig {
            transient_rate: 0.05,
            jmem_corrupt_rate: 0.02,
            ..FaultConfig::none(STORM_SEED + j)
        };
        spec.backend = spec.backend.with_fault(storm);
    }
    if j % 16 == 15 {
        // a few tenants bring the 2-shard cluster backend
        spec.backend = BackendSpec::cluster(spec.backend.eps, 2);
    }
    spec
}

/// Uninterrupted reference run of one spec: no server, one process,
/// one unbroken integration — the byte-identity oracle.
fn reference_final_bytes(spec: &JobSpec, scratch: &Path) -> Vec<u8> {
    let mut sim =
        Simulation::try_new(spec.make_ic(), spec.backend.build(), 0.0).expect("reference init");
    sim.try_run(spec.dt, spec.steps).expect("reference run");
    snapshot_io::save(scratch, &sim.state, sim.time).expect("reference save");
    std::fs::read(scratch).expect("reference read")
}

/// Record terminal times and durable progress for the storm fleet.
/// Returns (terminal count, total steps done).
fn poll_fleet(server: &Server, ids: &[JobId], done_at: &mut [Option<Instant>]) -> (usize, u64) {
    let (mut terminal, mut steps) = (0usize, 0u64);
    for (i, &id) in ids.iter().enumerate() {
        let st = server.status(id).expect("storm job known to server");
        steps += st.steps_done;
        if st.state.is_terminal() {
            terminal += 1;
            if done_at[i].is_none() {
                done_at[i] = Some(Instant::now());
            }
        }
    }
    (terminal, steps)
}

/// `q`-th percentile (0 < q <= 1) of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Jain's fairness index: (sum x)^2 / (n * sum x^2); 1.0 = perfectly
/// even allocation, 1/n = one job got everything.
fn jain(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if s2 <= 0.0 {
        1.0
    } else {
        s * s / (n * s2)
    }
}

/// Finish times of an ideal discrete round-robin schedule: FIFO queue,
/// `workers` equal workers, each slice integrates up to `quantum`
/// steps of job `j` at its measured per-step cost `w[j]`. This is the
/// schedule the server's strict-FIFO re-queue discipline should
/// approximate; measured turnarounds are compared against it.
fn rr_ideal(steps: &[u64], w: &[f64], workers: usize, quantum: u64) -> Vec<f64> {
    let mut worker_free = vec![0.0f64; workers];
    let mut ready = vec![0.0f64; steps.len()];
    let mut remaining = steps.to_vec();
    let mut finish = vec![0.0f64; steps.len()];
    let mut queue: std::collections::VecDeque<usize> = (0..steps.len()).collect();
    while let Some(j) = queue.pop_front() {
        let wi = (0..workers)
            .min_by(|&a, &b| worker_free[a].total_cmp(&worker_free[b]))
            .expect("at least one worker");
        let run = remaining[j].min(quantum);
        let t_end = worker_free[wi].max(ready[j]) + w[j] * run as f64;
        worker_free[wi] = t_end;
        remaining[j] -= run;
        if remaining[j] == 0 {
            finish[j] = t_end;
        } else {
            ready[j] = t_end;
            queue.push_back(j);
        }
    }
    finish
}

/// Tasks (processes and threads) ever created in this PID namespace:
/// the last-pid field of `/proc/loadavg`. Its growth over a run counts
/// the threads the run created — exactly on a quiet machine, from above
/// otherwise. `None` without procfs.
fn tasks_created_so_far() -> Option<u64> {
    std::fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().nth(4)?.parse().ok()
}

/// One row of the worker-scaling table.
struct ScalingRow {
    workers: usize,
    wall_s: f64,
    /// Force evaluations: one per step plus one per slice start.
    evaluations: u64,
    /// Tasks created while the fleet ran, the workers themselves not
    /// counted (`None`: no procfs, or the pid counter wrapped).
    tasks_created: Option<u64>,
    /// Of those, the cluster-backed tenants' shard threads (one per
    /// shard per evaluation, by design).
    shard_threads: u64,
}

impl ScalingRow {
    /// Tasks created beyond the workers and the shard threads: what a
    /// caller spawned for a core it thought it had.
    fn helper_tasks(&self) -> Option<u64> {
        self.tasks_created.map(|t| t.saturating_sub(self.shard_threads))
    }

    fn helper_tasks_per_evaluation(&self) -> Option<f64> {
        self.helper_tasks().map(|h| h as f64 / self.evaluations as f64)
    }
}

/// Run the whole fleet to completion on a fresh server (no kills) under
/// the task census.
fn scaling_run(cfg: ServerConfig, specs: &[JobSpec]) -> ScalingRow {
    let workers = cfg.workers;
    let server = Server::open(cfg).expect("open scaling server");
    let tasks_before = tasks_created_so_far();
    let t = Instant::now();
    let ids: Vec<JobId> = specs.iter().map(|s| server.submit(*s).expect("submit")).collect();
    server.wait_all();
    let wall_s = t.elapsed().as_secs_f64();
    let tasks_created = tasks_before
        .zip(tasks_created_so_far())
        .and_then(|(before, after)| after.checked_sub(before));
    let (mut evaluations, mut shard_threads) = (0u64, 0u64);
    for (&id, spec) in ids.iter().zip(specs) {
        let st = server.status(id).expect("scaling job known to server");
        assert_eq!(st.state, JobState::Completed, "scaling job {id} failed");
        let evals = st.steps_done + st.resumes;
        evaluations += evals;
        if spec.backend.devices() > 1 {
            shard_threads += evals * spec.backend.devices() as u64;
        }
    }
    server.shutdown();
    ScalingRow { workers, wall_s, evaluations, tasks_created, shard_threads }
}

fn main() {
    let args = Args::parse(&["quick", "jobs", "workers", "quantum", "out", "dir", "kills"]);
    let quick = args.flag("quick");
    let jobs: u64 = args.get("jobs", if quick { 24 } else { 120 });
    // workers default scales with the machine: multi-tenancy needs at
    // least two, more than the core count only adds context switching
    let cores = cores::total();
    let workers: usize = args.get("workers", cores.clamp(2, if quick { 3 } else { 6 }));
    let quantum: u64 = args.get("quantum", if quick { 6 } else { 12 });
    let out_path: String = args.get("out", "artifacts/exp_serve.json".to_string());
    let dir: String = args.get(
        "dir",
        std::env::temp_dir()
            .join(format!("g5serve_bench_{}", std::process::id()))
            .to_string_lossy()
            .into_owned(),
    );
    let kills_planned: usize = args.get("kills", if quick { 1 } else { 2 });

    let dir = std::path::PathBuf::from(dir);
    std::fs::remove_dir_all(&dir).ok();
    let cfg = ServerConfig {
        workers,
        quantum,
        jmem_budget: 1 << 16,
        resident_budget: 1 << 16,
        ..ServerConfig::new(&dir)
    };

    let specs: Vec<JobSpec> = (0..jobs).map(|j| tenant(j, quick)).collect();
    let total_steps: u64 = specs.iter().map(|s| s.steps).sum();
    let faulted = specs.iter().filter(|s| s.backend.fault.is_some()).count();
    let clusters = specs.iter().filter(|s| s.backend.devices() > 1).count();
    let lns = specs.iter().filter(|s| s.backend.mode == ArithMode::Lns).count();

    println!("E16: multi-tenant job service under load{}", if quick { " (--quick)" } else { "" });
    println!(
        "     fleet: {jobs} jobs ({faulted} fault-stormed, {clusters} cluster-backed, \
         {lns} LNS), {total_steps} total steps"
    );
    println!(
        "     server: {workers} workers, quantum {quantum} steps, {kills_planned} mid-storm \
         kill/restart cycles, dir {}",
        dir.display()
    );
    println!();

    // ------------------------------------------------------------------
    // single-job baseline: the *same fleet*, run to completion one job
    // at a time on a one-worker, no-preemption server — matched total
    // work without any multiplexing, the throughput yardstick
    let base_dir = dir.join("baseline");
    let solo = Server::open(ServerConfig {
        workers: 1,
        quantum: u64::MAX,
        ..ServerConfig::new(&base_dir)
    })
    .expect("open baseline server");
    let t_base = Instant::now();
    let mut base_inter = 0u64;
    let mut base_w = Vec::with_capacity(specs.len());
    for (j, spec) in specs.iter().enumerate() {
        let id = solo.submit(*spec).expect("submit baseline job");
        assert_eq!(solo.wait(id), JobState::Completed, "baseline job {j} failed");
        let st = solo.status(id).expect("baseline status");
        base_inter += st.interactions;
        base_w.push(st.interactions as f64 / spec.steps as f64);
    }
    let base_wall = t_base.elapsed().as_secs_f64();
    solo.shutdown();
    let baseline_rate = base_inter as f64 / base_wall.max(1e-9);
    println!(
        "baseline: {jobs} tenants solo, back to back -> {} interactions in {} = \
         {:.3e} inter/s",
        fmt_count(base_inter),
        fmt_secs(base_wall),
        baseline_rate
    );

    // ------------------------------------------------------------------
    // the storm: submit the whole fleet as one burst, plus doomed
    // tenants exercising the failure taxonomy
    let mut server = Server::open(cfg.clone()).expect("open server");
    let t0 = Instant::now();
    let ids: Vec<JobId> = specs.iter().map(|s| server.submit(*s).expect("submit")).collect();
    let events = server.subscribe(ids[0]).expect("subscribe to job 0");

    // an impossible j-memory demand: rejected at admission, never runs
    let rejected = server.submit(JobSpec::plummer(70_000, 1, 4)).expect("submit over-budget job");
    // immediate cancellations: one likely still queued, one long runner
    let cancel_a = server.submit(JobSpec::plummer(64, 2, 10_000)).expect("submit cancel-a");
    let cancel_b = server.submit(JobSpec::plummer(64, 3, 10_000)).expect("submit cancel-b");
    server.cancel(cancel_a);

    let mut done_at: Vec<Option<Instant>> = vec![None; ids.len()];
    let mut kills_done = 0usize;
    let mut downtime = Duration::ZERO;
    loop {
        let (terminal, steps) = poll_fleet(&server, &ids, &mut done_at);
        if terminal == ids.len() {
            break;
        }
        // kill the server once the fleet has durable progress: at ~25%
        // and (full mode) ~55% of total steps
        let next_kill_at = total_steps * (25 + 30 * kills_done as u64) / 100;
        if kills_done < kills_planned && steps >= next_kill_at {
            poll_fleet(&server, &ids, &mut done_at);
            let t = Instant::now();
            println!(
                "  kill {} at {}: {terminal} jobs terminal, {steps}/{total_steps} steps durable",
                kills_done + 1,
                fmt_secs(t0.elapsed().as_secs_f64())
            );
            server.kill();
            server = Server::open(cfg.clone()).expect("reopen server after kill");
            downtime += t.elapsed();
            kills_done += 1;
            if kills_done == kills_planned {
                // the long cancel-b tenant may have been resurrected as
                // non-terminal by replay; put it back out of the way
                server.cancel(cancel_b);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // make sure the doomed tenants are terminal too before reading
    // taxonomy off the status API
    server.cancel(cancel_b);
    for id in [rejected, cancel_a, cancel_b] {
        server.wait(id);
    }
    let wall = t0.elapsed().as_secs_f64();

    // ------------------------------------------------------------------
    // fleet accounting
    let storm: Vec<_> = ids.iter().map(|&id| server.status(id).expect("status")).collect();
    let lost: Vec<JobId> = ids
        .iter()
        .zip(&storm)
        .zip(&specs)
        .filter(|((_, st), spec)| st.state != JobState::Completed || st.steps_done != spec.steps)
        .map(|((&id, _), _)| id)
        .collect();
    // aggregate throughput is *useful* work over storm wall time: the
    // fleet's work is the baseline's by construction (same specs), so
    // resume recomputation is charged as overhead, not credited as
    // throughput — and in-memory counters zeroed by the kills don't
    // understate it
    let aggregate_rate = base_inter as f64 / wall;
    let interactions: u64 = storm.iter().map(|s| s.interactions).sum();
    let busy_total: f64 = storm.iter().map(|s| s.busy_s).sum();
    let utilization = busy_total / (workers.min(cores) as f64 * wall);
    let preemptions: u64 = storm.iter().map(|s| s.preemptions).sum();
    let resumes: u64 = storm.iter().map(|s| s.resumes).sum();
    let max_drift = storm.iter().map(|s| s.drift.abs()).fold(0.0f64, f64::max);
    let mut recovery = RecoveryStats::default();
    for s in &storm {
        recovery = recovery.merged(s.recovery);
    }

    let latency_raw: Vec<f64> = done_at
        .iter()
        .map(|t| t.expect("every storm job recorded terminal").duration_since(t0).as_secs_f64())
        .collect();
    // fairness against the discrete round-robin ideal: simulate the
    // schedule the server's strict-FIFO re-queue should produce (same
    // specs, workers, quantum, baseline-measured per-step costs),
    // normalize both ideal and measured turnarounds by their makespans,
    // and take Jain over ideal/measured — 1.0 means every job ran
    // exactly on its fair schedule, a starved job drags the index down
    let makespan = latency_raw.iter().copied().fold(0.0f64, f64::max);
    let steps_of: Vec<u64> = specs.iter().map(|s| s.steps).collect();
    let ideal = rr_ideal(&steps_of, &base_w, workers, quantum);
    let ideal_makespan = ideal.iter().copied().fold(0.0f64, f64::max);
    let rr_ratio: Vec<f64> = ideal
        .iter()
        .zip(&latency_raw)
        .map(|(i, l)| (i / ideal_makespan) / (l / makespan).max(1e-9))
        .collect();
    let fairness = jain(&rr_ratio);
    let mut latencies = latency_raw.clone();
    latencies.sort_by(f64::total_cmp);
    let (p50, p95, p99) =
        (percentile(&latencies, 0.50), percentile(&latencies, 0.95), percentile(&latencies, 0.99));

    // taxonomy over every submission, storm and doomed alike
    let mut completed = 0u64;
    let mut taxonomy = [
        ("admission-rejected", 0u64),
        ("backend-fatal", 0),
        ("checkpoint-corrupt", 0),
        ("cancelled", 0),
    ];
    for st in server.statuses() {
        match &st.state {
            JobState::Completed => completed += 1,
            JobState::Failed(e) => {
                let k = e.kind();
                let slot = taxonomy.iter_mut().find(|(name, _)| *name == k).expect("known kind");
                slot.1 += 1;
            }
            other => panic!("non-terminal job after storm: {other:?}"),
        }
    }
    let rejected_ok = matches!(
        server.status(rejected).expect("rejected status").state,
        JobState::Failed(JobError::AdmissionRejected { .. })
    );
    let cancel_ok = [cancel_a, cancel_b].iter().all(|&id| {
        matches!(
            server.status(id).expect("cancel status").state,
            JobState::Failed(JobError::Cancelled)
        )
    });

    // ------------------------------------------------------------------
    // byte-identity spot check: mixed subset (faulted, LNS, cluster,
    // plain) vs. uninterrupted reference runs
    let mut subset: Vec<u64> = vec![0, 1, jobs / 4, jobs / 2, 3 * jobs / 4, jobs - 1];
    if let Some(c) = (0..jobs).find(|j| j % 16 == 15) {
        subset.push(c);
    }
    subset.sort_unstable();
    subset.dedup();
    let mut identical = 0usize;
    for &j in &subset {
        let id = ids[j as usize];
        let served = std::fs::read(dir.join(job_dir_name(id)).join("final.g5snap"))
            .expect("final snapshot persisted");
        let reference =
            reference_final_bytes(&specs[j as usize], &dir.join(format!("ref_{id}.g5snap")));
        if served == reference {
            identical += 1;
        } else {
            println!("  BYTE MISMATCH: job {id} diverged from its uninterrupted reference");
        }
    }

    let ev_count = events.try_iter().count();
    server.shutdown();

    // ------------------------------------------------------------------
    // worker scaling: the same fleet, no kills, on one worker and on a
    // worker per core
    let mut scaling_workers = vec![1, cores];
    scaling_workers.dedup();
    let scaling: Vec<ScalingRow> = scaling_workers
        .iter()
        .map(|&w| {
            let dir = dir.join(format!("scaling_w{w}"));
            scaling_run(ServerConfig { workers: w, dir, ..cfg.clone() }, &specs)
        })
        .collect();
    let scaling_rate = |r: &ScalingRow| base_inter as f64 / r.wall_s;
    let worker_scaling = scaling_rate(scaling.last().expect("a row")) / scaling_rate(&scaling[0]);

    // ------------------------------------------------------------------
    // report
    println!();
    rule(74);
    println!(
        "storm: {jobs} jobs in {} wall ({} across {kills_done} kill/restart cycles), \
         {} useful interactions ({} measured on workers since the last kill)",
        fmt_secs(wall),
        fmt_secs(downtime.as_secs_f64()),
        fmt_count(base_inter),
        fmt_count(interactions)
    );
    // quick mode is a structural smoke test on whatever CI core it
    // lands on: jobs are tiny enough that scheduler noise swamps the
    // throughput ratio, so the gate relaxes to a floor that still
    // catches a collapsed pool
    let thr_gate = if quick { 0.5 } else { 0.8 };
    println!(
        "throughput: aggregate {:.3e} inter/s vs solo baseline {:.3e} inter/s \
         ({:.2}x, gate >= {thr_gate}x)",
        aggregate_rate,
        baseline_rate,
        aggregate_rate / baseline_rate
    );
    println!(
        "latency: p50 {} / p95 {} / p99 {} turnaround; fairness (Jain vs round-robin ideal) {:.3}",
        fmt_secs(p50),
        fmt_secs(p95),
        fmt_secs(p99),
        fairness
    );
    println!(
        "scheduling: {preemptions} preemptions, {resumes} resumes, worker utilization {:.1}% \
         ({} busy over {workers} workers), max |dE/E0| {max_drift:.3e}",
        100.0 * utilization,
        fmt_secs(busy_total),
    );
    println!(
        "recovery: {} retries, {} j-reloads, {} validation failures across the fleet",
        recovery.retries, recovery.j_reloads, recovery.validation_failures
    );
    println!(
        "taxonomy: {completed} completed; {}",
        taxonomy.iter().map(|(k, c)| format!("{k} {c}")).collect::<Vec<_>>().join(", ")
    );
    println!("events: {ev_count} progress events streamed on job {}'s channel", ids[0]);
    println!(
        "worker scaling (same fleet, no kills, {cores} core(s); tasks = threads created beyond \
         the workers, cluster tenants' shard threads apart):"
    );
    for r in &scaling {
        println!(
            "  {} worker(s): {} wall, {:.3e} inter/s ({:.2}x one worker), {} evaluations, \
             tasks created {} + {} shard threads = {} per evaluation",
            r.workers,
            fmt_secs(r.wall_s),
            scaling_rate(r),
            scaling_rate(r) / scaling_rate(&scaling[0]),
            fmt_count(r.evaluations),
            r.helper_tasks().map_or("n/a".into(), fmt_count),
            fmt_count(r.shard_threads),
            r.helper_tasks_per_evaluation().map_or("n/a".into(), |h| format!("{h:.3}")),
        );
    }
    println!(
        "durability: {}/{} spot-checked jobs byte-identical to uninterrupted references",
        identical,
        subset.len()
    );

    // ------------------------------------------------------------------
    // verdicts
    let mut ok = true;
    let mut verdict = |label: &str, pass: bool, detail: String| {
        if !pass {
            ok = false;
        }
        println!("verdict {label:>14}: {} ({detail})", if pass { "PASS" } else { "FAIL" });
    };
    println!();
    verdict("zero-lost", lost.is_empty(), format!("{} jobs lost/short: {lost:?}", lost.len()));
    verdict(
        "byte-identity",
        identical == subset.len(),
        format!("{identical}/{} references matched", subset.len()),
    );
    verdict("kills", kills_done == kills_planned, format!("{kills_done}/{kills_planned} cycles"));
    verdict(
        "throughput",
        aggregate_rate >= thr_gate * baseline_rate,
        format!("{:.2}x baseline (gate {thr_gate}x)", aggregate_rate / baseline_rate),
    );
    verdict("fairness", fairness >= 0.5, format!("Jain {fairness:.3}"));
    verdict(
        "taxonomy",
        rejected_ok && cancel_ok,
        format!("admission-rejected {rejected_ok}, cancelled {cancel_ok}"),
    );
    verdict(
        "fault-storm",
        recovery.retries > 0 && recovery.j_reloads > 0,
        format!("{} retries, {} j-reloads healed", recovery.retries, recovery.j_reloads),
    );

    // ------------------------------------------------------------------
    // artifact
    let taxonomy_row =
        taxonomy.iter().fold(row! { "completed": completed }, |row, (k, c)| row.put(k, *c));
    let scaling_rows: Vec<Row> = scaling
        .iter()
        .map(|r| {
            row! {
                "scaling_workers": r.workers, "scaling_wall_s": r.wall_s,
                "scaling_interactions_per_s": scaling_rate(r),
                "vs_one_worker": scaling_rate(r) / scaling_rate(&scaling[0]),
                "evaluations": r.evaluations, "shard_threads": r.shard_threads,
                "tasks_created": r.helper_tasks(),
                "tasks_created_per_evaluation": r.helper_tasks_per_evaluation(),
            }
        })
        .collect();
    let gates = row! {
        "throughput_gate": thr_gate, "throughput_ok": aggregate_rate >= thr_gate * baseline_rate,
        "zero_lost": lost.is_empty(), "byte_identical": identical == subset.len(),
    };
    row! {
        "experiment": "exp_serve", "quick": quick, "jobs": jobs, "workers": workers,
        "quantum": quantum, "total_steps": total_steps, "faulted_jobs": faulted,
        "cluster_jobs": clusters, "lns_jobs": lns, "kills": kills_done, "wall_s": wall,
        "restart_downtime_s": downtime.as_secs_f64(), "interactions_measured": interactions,
        "aggregate_interactions_per_s": aggregate_rate, "baseline_interactions": base_inter,
        "baseline_interactions_per_s": baseline_rate,
        "throughput_vs_baseline": aggregate_rate / baseline_rate, "p50_latency_s": p50,
        "p95_latency_s": p95, "p99_latency_s": p99, "jain_fairness": fairness,
        "preemptions": preemptions, "resumes": resumes, "max_energy_drift": max_drift,
        "recovery": report::recovery(&recovery), "taxonomy": taxonomy_row,
        "byte_identity": row! { "checked": subset.len(), "identical": identical },
        "lost_jobs": lost.len(), "cores": cores, "worker_scaling": worker_scaling,
        "worker_scaling_rows": scaling_rows, "gates": gates,
    }
    .write(&out_path);
    println!();
    println!("wrote {out_path}");

    std::fs::remove_dir_all(&dir).ok();
    if !ok {
        std::process::exit(1);
    }
}
