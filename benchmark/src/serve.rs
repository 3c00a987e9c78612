//! Runner of `serve_mix`: `g5serve` under a closed-loop tenant mix.
//!
//! One generator thread keeps [`SERVE_OUTSTANDING`] jobs outstanding —
//! a **closed loop**: the next job is submitted only when one finishes,
//! so a slower server receives less load. Submission stops after
//! `--seconds`; the loop then drains. Every job has a watcher thread
//! parked on the server's own condition variable (`Server::wait`); in
//! a traced run the watcher instead reads the job's event subscription
//! and timestamps each event on arrival, which is how queue wait, slice
//! and checkpoint-write times are seen from outside.
//!
//! Counts that must repeat exactly are summed over the first
//! [`PREFIX_JOBS`] jobs of the stream, which every run submits.

use crate::check;
use crate::metrics::{Outcome, Values};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{job_spec, Workload, SERVE_OUTSTANDING, SERVE_QUANTUM, SERVE_WORKERS};
use g5serve::{
    job_dir_name, ledger, JobEvent, JobId, JobSpec, JobState, JobStatus, Server, ServerConfig,
};
use grape5::{ClockReport, Grape5Config};
use std::path::Path;
use std::sync::mpsc::channel;
use std::time::Instant;
use treegrape::checkpoint::latest_for_job;
use treegrape::{snapshot_io, ForceBackend, PhaseTimers, Simulation};

/// Jobs every run submits, however slow the machine; exact-repeat
/// counts are summed over them.
pub const PREFIX_JOBS: u64 = 12;
/// Set-ups per untraced run; `setup_s` is the fastest.
const SETUP_REPS: usize = 11;
/// The set-up smoke job: particles and steps.
const SMOKE_N: usize = 1024;
const SMOKE_STEPS: u64 = 8;
/// Specs generated by one set-up (more than any run submits is not
/// needed: the generator makes later ones on demand).
const SETUP_SPECS: u64 = 64;
/// The job whose final snapshot is audited against an uninterrupted
/// run, and whose backend supplies the modeled clock and force error:
/// the largest of the first round (Plummer, N = 1664, exact, no faults).
const WITNESS: u64 = 6;

fn server_config(dir: &Path) -> ServerConfig {
    ServerConfig { workers: SERVE_WORKERS, quantum: SERVE_QUANTUM, ..ServerConfig::new(dir) }
}

/// One finished job as its watcher saw it.
struct Finished {
    j: u64,
    id: JobId,
    spec: JobSpec,
    submitted: Instant,
    done: Instant,
    state: JobState,
    /// Arrival-stamped events (traced runs only).
    events: Vec<(Instant, JobEvent)>,
}

/// Drive the closed loop to completion; jobs come back in finish order.
fn closed_loop(
    server: &Server,
    seed: u64,
    seconds: f64,
    traced: bool,
    peaks: &mut (f64, f64),
) -> std::io::Result<Vec<Finished>> {
    let (tx, rx) = channel::<Finished>();
    let mut finished = Vec::new();
    std::thread::scope(|scope| -> std::io::Result<()> {
        let start = Instant::now();
        let (mut next, mut outstanding) = (0u64, 0usize);
        loop {
            while outstanding < SERVE_OUTSTANDING
                && (start.elapsed().as_secs_f64() < seconds || next < PREFIX_JOBS)
            {
                let (j, spec) = (next, job_spec(seed, next));
                let submitted = Instant::now();
                let id = server.submit(spec)?;
                let events = if traced { server.subscribe(id) } else { None };
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    if let Some(events) = events {
                        for ev in events.iter() {
                            let terminal =
                                matches!(ev, JobEvent::Completed { .. } | JobEvent::Failed(_));
                            seen.push((Instant::now(), ev));
                            if terminal {
                                break;
                            }
                        }
                    }
                    let state = server.wait(id);
                    let done = Instant::now();
                    // the generator outlives every watcher; a send can only
                    // fail if it already returned an error
                    let _ = tx.send(Finished { j, id, spec, submitted, done, state, events: seen });
                });
                next += 1;
                outstanding += 1;
                let u = server.pool_usage();
                peaks.0 = peaks.0.max(u.jmem_used as f64 / u.jmem_total as f64);
                peaks.1 = peaks.1.max(u.resident_used as f64 / u.resident_total as f64);
            }
            if outstanding == 0 {
                return Ok(());
            }
            finished.push(rx.recv().expect("a watcher is outstanding"));
            outstanding -= 1;
        }
    })?;
    Ok(finished)
}

/// The intervals the event-side per-layer metrics are made of.
#[derive(Default)]
struct EventTimes {
    queue_waits: Vec<f64>,
    slices: Vec<f64>,
    ckpt_writes: Vec<f64>,
    checkpoints: u64,
}

/// Rebuild one job's spans from its arrival-stamped events, collecting
/// the intervals into `times`.
fn spans_of(job: &Finished, tracer: &mut Tracer, times: &mut EventTimes) {
    tracer.set_lane((job.j % SERVE_OUTSTANDING as u64) as u32 + 1);
    let root = tracer.record_under(None, "server.job", job.submitted, job.done);
    let secs = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64();
    let mut first_start = None;
    let mut slice_start = None;
    let mut last_step = None;
    for (at, ev) in &job.events {
        match ev {
            JobEvent::Started { .. } => {
                first_start.get_or_insert(*at);
                slice_start = Some(*at);
            }
            JobEvent::Step { .. } => last_step = Some(*at),
            JobEvent::Checkpointed { .. } => {
                times.checkpoints += 1;
                if let Some(s) = last_step {
                    tracer.record_under(Some(root), "checkpoint.write", s, *at);
                    times.ckpt_writes.push(secs(s, *at));
                }
            }
            JobEvent::Preempted { .. } | JobEvent::Completed { .. } | JobEvent::Failed(_) => {
                // a slice whose Started raced the subscription began at submit
                let s = slice_start.take().unwrap_or(job.submitted);
                tracer.record_under(Some(root), "server.slice", s, *at);
                times.slices.push(secs(s, *at));
            }
            _ => {}
        }
    }
    // a Started emitted before the subscription existed was not seen:
    // the job waited at most the microseconds between submit and subscribe
    let started = first_start.unwrap_or(job.submitted);
    tracer.record_under(Some(root), "server.queue_wait", job.submitted, started);
    times.queue_waits.push(secs(job.submitted, started));
}

/// What the witness job — run uninterrupted, outside the server — says
/// about the service: the audit reference, and the source of the
/// modeled clock, phase timers and accuracy figures of this workload.
struct Witness {
    modeled: ClockReport,
    hw: Grape5Config,
    evals: u64,
    timers: PhaseTimers,
    force_rms_err: f64,
    energy_drift: f64,
}

/// Run the witness spec to completion with `Simulation::try_run` and
/// compare the server's `final.g5snap` of the same job byte for byte.
fn audit_witness(
    spec: &JobSpec,
    served_final: &Path,
    problems: &mut Vec<String>,
) -> Option<Witness> {
    let run = || -> Result<_, treegrape::ForceError> {
        let mut sim = Simulation::try_new(spec.make_ic(), spec.backend.build(), 0.0)?;
        let e0 = sim.total_energy();
        sim.try_run(spec.dt, spec.steps)?;
        Ok((sim, e0))
    };
    let (sim, e0) = match run() {
        Ok(r) => r,
        Err(e) => {
            problems.push(format!("witness reference run failed: {e}"));
            return None;
        }
    };
    match snapshot_io::load(served_final) {
        Ok((snap, time)) => {
            if time.to_bits() != sim.time.to_bits() || !check::same_snapshot(&snap, &sim.state) {
                problems.push(
                    "witness job's final snapshot differs from an uninterrupted try_run".into(),
                );
            }
        }
        Err(e) => problems.push(format!("witness final snapshot unreadable: {e}")),
    }
    let hw = Grape5Config {
        boards: spec.backend.boards,
        mode: spec.backend.mode,
        ..Grape5Config::paper()
    };
    let acct = sim.backend().grape_accounting().expect("a tree backend drives a device");
    let targets: Vec<usize> = (0..sim.state.len()).collect();
    let witness = Witness {
        modeled: acct.report(&hw),
        hw,
        evals: spec.steps + 1,
        timers: sim.phase_timers().per_step(spec.steps + 1),
        force_rms_err: check::force_rms_err(
            &sim.state.pos,
            &sim.state.mass,
            spec.backend.eps,
            &targets,
            sim.acc(),
        ),
        energy_drift: check::energy_drift(e0, sim.total_energy()),
    };
    // a direct sum through the exact-mode device: only coordinate
    // quantisation separates it from f64
    if !(witness.force_rms_err > 0.0 && witness.force_rms_err <= 1e-5) {
        problems
            .push(format!("witness force_rms_err {:.3e} outside (0, 1e-5]", witness.force_rms_err));
    }
    if witness.energy_drift > 1e-2 {
        problems.push(format!("witness energy drift {:.3e} above 1e-2", witness.energy_drift));
    }
    Some(witness)
}

/// Fastest seconds of one set-up over `reps` repetitions (and the first
/// one alone): `Server::open` over a fresh directory, spec generation,
/// and one smoke job pushed through to `Completed` — a service is set up
/// when it has served. Opening alone takes 60 µs of syscalls whose cost
/// swings 3x between processes; the smoke job makes the figure one of
/// compute and checkpoint I/O, which repeat.
fn time_set_ups(seed: u64, reps: usize, scratch: &Path, out: &mut Outcome) -> Option<(f64, f64)> {
    let mut walls = Vec::with_capacity(reps);
    for rep in 0..reps {
        let dir = scratch.join(format!("setup{rep}"));
        let t = Instant::now();
        let served = Server::open(server_config(&dir)).and_then(|server| {
            let specs: Vec<JobSpec> = (0..SETUP_SPECS).map(|j| job_spec(seed, j)).collect();
            std::hint::black_box(&specs);
            let id = server.submit(JobSpec::plummer(SMOKE_N, seed, SMOKE_STEPS))?;
            Ok((server.wait(id), server))
        });
        walls.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        match served {
            Ok((JobState::Completed, server)) => server.shutdown(),
            Ok((state, server)) => {
                server.shutdown();
                out.failed += 1;
                out.problems.push(format!("set-up smoke job ended {state:?}"));
                return None;
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("set-up: {e}"));
                return None;
            }
        }
    }
    Some((stats::fastest(&walls), walls[0]))
}

/// Per-layer numbers the server reports about its own jobs; counts are
/// over the prefix jobs.
fn server_side(statuses: &[JobStatus], prefix_ids: &[JobId], makespan: f64, values: &mut Values) {
    let (mut preempt, mut resumes, mut inter, mut recovery) =
        (0, 0, 0, grape5::RecoveryStats::default());
    for s in statuses.iter().filter(|s| prefix_ids.contains(&s.id)) {
        preempt += s.preemptions;
        resumes += s.resumes;
        inter += s.interactions;
        recovery = recovery.merged(s.recovery);
    }
    let busy: f64 = statuses.iter().map(|s| s.busy_s).sum();
    values.set("server.preemptions", preempt as f64);
    values.set("server.resumes", resumes as f64);
    values.set("server.interactions", inter as f64);
    values.set("session.retries", recovery.retries as f64);
    values.set("session.j_reloads", recovery.j_reloads as f64);
    values.set("session.validation_failures", recovery.validation_failures as f64);
    values.set("server.busy_s", busy);
    values.set("server.worker_utilization", busy / (SERVE_WORKERS as f64 * makespan));
}

/// Per-layer numbers seen from outside: spans rebuilt from the arrival
/// times of every job's events.
fn event_side(jobs: &[Finished], values: &mut Values) -> Tracer {
    let mut tracer = Tracer::new();
    tracer.set_step(1);
    let mut times = EventTimes::default();
    let mut ordered: Vec<&Finished> = jobs.iter().collect();
    ordered.sort_by_key(|j| j.j);
    let mut prefix_checkpoints = 0;
    for job in ordered {
        let before = times.checkpoints;
        spans_of(job, &mut tracer, &mut times);
        if job.j < PREFIX_JOBS {
            prefix_checkpoints += times.checkpoints - before;
        }
    }
    values.set("server.checkpoints", prefix_checkpoints as f64);
    values.set("server.queue_wait_p50_s", stats::median(&times.queue_waits));
    values.set("server.slice_p50_s", stats::median(&times.slices));
    if !times.ckpt_writes.is_empty() {
        values.set("checkpoint.write_s", stats::median(&times.ckpt_writes));
    }
    values.set("trace.spans", tracer.spans().len() as f64);
    tracer
}

/// Read back what the run wrote: replay the ledger, reopen the server
/// over the finished directory, find and load the prefix jobs' newest
/// checkpoints.
fn read_back(
    dir: &Path,
    jobs: usize,
    prefix_ids: &[JobId],
    witness_id: JobId,
    values: &mut Values,
    problems: &mut Vec<String>,
) {
    let ledger_path = dir.join("jobs.ledger");
    values.set("ledger.bytes", std::fs::metadata(&ledger_path).map_or(0, |m| m.len()) as f64);
    let t = Instant::now();
    let replayed = ledger::replay(&ledger_path);
    values.set("ledger.replay_s", t.elapsed().as_secs_f64());
    match replayed {
        Ok(r) if r.len() == jobs && r.iter().all(|j| j.state == JobState::Completed) => {}
        Ok(r) => problems.push(format!("ledger replays {} jobs, ran {jobs}", r.len())),
        Err(e) => problems.push(format!("ledger replay failed: {e}")),
    }
    let t = Instant::now();
    match Server::open(server_config(dir)) {
        Ok(reopened) => {
            values.set("server.reopen_s", t.elapsed().as_secs_f64());
            reopened.shutdown();
        }
        Err(e) => problems.push(format!("reopen over the finished directory failed: {e}")),
    }
    let (mut latest_s, mut load_s, mut bytes) = (Vec::new(), Vec::new(), 0);
    for &id in prefix_ids {
        let name = job_dir_name(id);
        let t = Instant::now();
        let latest = latest_for_job(&dir.join(&name), &name);
        latest_s.push(t.elapsed().as_secs_f64());
        match latest {
            Ok(Some(ckpt)) => {
                let t = Instant::now();
                let loaded = ckpt.load_snapshot();
                load_s.push(t.elapsed().as_secs_f64());
                if let Err(e) = loaded {
                    problems.push(format!("job {id} checkpoint unreadable: {e}"));
                }
                if id == witness_id {
                    bytes = std::fs::metadata(&ckpt.snapshot).map_or(0, |m| m.len());
                }
            }
            other => problems.push(format!("job {id} has no valid checkpoint: {other:?}")),
        }
    }
    values.set("checkpoint.latest_s", stats::median(&latest_s));
    if !load_s.is_empty() {
        values.set("checkpoint.load_s", stats::median(&load_s));
    }
    values.set("checkpoint.bytes", bytes as f64);
    if let Some(w) = values.get("checkpoint.write_s") {
        values.set("checkpoint.write_mb_per_s", bytes as f64 / (1024.0 * 1024.0) / w);
    }
}

/// Run `serve_mix`. Untraced: end-to-end metrics. Traced: per-layer
/// metrics and the Chrome trace at `trace_path`.
pub fn run(seed: u64, seconds: f64, traced: bool, scratch: &Path, trace_path: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut values = Values::default();
    let reps = if traced { 1 } else { SETUP_REPS };
    let Some((setup_s, first_s)) = time_set_ups(seed, reps, scratch, &mut out) else { return out };

    let dir = scratch.join("run");
    let mut peaks = (0.0, 0.0);
    let served = Server::open(server_config(&dir)).and_then(|server| {
        let jobs = closed_loop(&server, seed, seconds, traced, &mut peaks)?;
        let statuses = server.statuses();
        server.shutdown();
        Ok((jobs, statuses))
    });
    let (jobs, statuses) = match served {
        Ok(r) => r,
        Err(e) => {
            out.failed += 1;
            out.problems.push(format!("serving failed: {e}"));
            return out;
        }
    };
    out.attempted += jobs.len() as u64;
    for job in jobs.iter().filter(|j| j.state != JobState::Completed) {
        out.failed += 1;
        out.problems.push(format!("job {} ended {:?}", job.j, job.state));
    }

    let first = jobs.iter().map(|j| j.submitted).min().expect("PREFIX_JOBS >= 1");
    let last = jobs.iter().map(|j| j.done).max().expect("PREFIX_JOBS >= 1");
    let makespan = last.duration_since(first).as_secs_f64();
    let latencies: Vec<f64> =
        jobs.iter().map(|j| j.done.duration_since(j.submitted).as_secs_f64()).collect();
    let witness_id = jobs.iter().find(|j| j.j == WITNESS).map(|j| j.id).expect("witness submitted");
    let witness = audit_witness(
        &job_spec(seed, WITNESS),
        &dir.join(job_dir_name(witness_id)).join("final.g5snap"),
        &mut out.problems,
    );

    if !traced {
        let work: f64 = jobs
            .iter()
            .filter(|j| j.state == JobState::Completed)
            .map(|j| j.spec.n as f64 * j.spec.steps as f64)
            .sum();
        values.set("setup_s", setup_s);
        values.set("particle_steps_per_s", work / makespan);
        values.set("latency_s", stats::median(&latencies));
        out.notes.push(format!(
            "{} jobs in {makespan:.2} s, closed loop of {SERVE_OUTSTANDING}; job latency: {}",
            jobs.len(),
            stats::describe(&latencies)
        ));
        if let Some(w) = &witness {
            values.set("modeled_step_s", w.modeled.total_s() / w.evals as f64);
            out.notes.push(format!(
                "witness job {WITNESS}: force_rms_err {:.3e}, energy drift {:.3e}",
                w.force_rms_err, w.energy_drift
            ));
        }
        out.values = values;
        return out;
    }

    values.set("setup.first_s", first_s);
    values.set("server.jobs", jobs.len() as f64);
    values.set("pool.jmem_peak_frac", peaks.0);
    values.set("pool.resident_peak_frac", peaks.1);
    values.set("latency.p50_s", stats::median(&latencies));
    values.set("latency.p80_s", stats::upper_quantile(&latencies, 0.8).unwrap_or(0.0));
    values.set("latency.samples", latencies.len() as f64);
    if let Some(w) = &witness {
        let evals = w.evals as f64;
        values.set("clock.pipeline_s", w.modeled.pipeline_s / evals);
        values.set("clock.transfer_s", w.modeled.transfer_s / evals);
        values.set("clock.latency_s", w.modeled.latency_s / evals);
        values.set("clock.hidden_s", w.modeled.hidden_s / evals);
        values.set("clock.efficiency", w.modeled.efficiency(&w.hw));
        values.set("clock.modeled_gflops38", w.modeled.gflops());
        values.set("phase.build_s", w.timers.build_s);
        values.set("phase.traverse_s", w.timers.traverse_s);
        values.set("phase.device_s", w.timers.device_s);
        values.set("phase.consumer_blocked_s", w.timers.consumer_blocked_s);
        values.set("phase.force_wall_s", w.timers.force_wall_s);
        values.set("phase.host_misc_s", w.timers.host_misc_s());
        values.set("accuracy.force_rms_err", w.force_rms_err);
        values.set("accuracy.energy_drift", w.energy_drift);
    }
    let prefix_ids: Vec<JobId> = jobs.iter().filter(|j| j.j < PREFIX_JOBS).map(|j| j.id).collect();
    server_side(&statuses, &prefix_ids, makespan, &mut values);
    let tracer = event_side(&jobs, &mut values);
    read_back(&dir, jobs.len(), &prefix_ids, witness_id, &mut values, &mut out.problems);
    crate::write_trace(trace_path, &[(&tracer, Workload::ServeMix.name())], &mut out.problems);
    out.notes.push(format!(
        "{} jobs in {makespan:.2} s; counts are over the first {PREFIX_JOBS} jobs",
        jobs.len()
    ));
    out.values = values;
    out
}
