//! The job server: admission → fair scheduling → durable execution.
//!
//! ## Architecture
//!
//! No async runtime: a fixed pool of `std::thread` workers drains a
//! round-robin run queue under one mutex + condvar, the same
//! bounded-coordination style as the `g5tree::plan` streaming pipeline.
//! A job's life:
//!
//! ```text
//! submit ─▶ Queued ─▶ (admission: pool lease) ─▶ Ready ─▶ Running ──▶ Completed
//!             │                                    ▲         │  ▲        or
//!             └─ never fits ─▶ Failed(Admission)   └Preempted┘  └──▶ Failed(…)
//! ```
//!
//! **Admission** is strict FIFO against a [`DevicePool`]: a job leases
//! its aggregate j-memory and resident-particle demand before it may
//! run and holds the lease until terminal — head-of-line blocking is
//! deliberate, so a large job cannot be starved by a stream of small
//! ones slipping past it.
//!
//! **Preemption** happens only at step boundaries: a worker runs one
//! quantum, writes a crash-atomic job-scoped manifest, re-queues the
//! job at the tail, and drops the backend. Rescheduling rebuilds the
//! backend from the spec and resumes from the manifest — the identical
//! code path a server restart takes, so preemption, graceful shutdown
//! and a kill −9 all land on one proven bit-identical resume story.
//!
//! **Durability**: every submission and state transition is appended
//! to the [`crate::ledger`]; [`Server::open`] on a non-empty directory
//! replays it and re-queues every non-terminal job. Nothing in memory
//! is load-bearing for correctness.

use crate::job::{job_dir_name, JobError, JobEvent, JobId, JobSpec, JobState, JobStatus};
use crate::ledger::{self, Ledger};
use g5util::cores;
use grape5::{DevicePool, PoolError, PoolLease, PoolUsage, RecoveryStats};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use treegrape::backends::ForceError;
use treegrape::checkpoint::{latest_for_job, Checkpointer, ResumeError};
use treegrape::{snapshot_io, ForceBackend, Simulation};

/// Server operating parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Server root: the job ledger plus one subdirectory per job.
    pub dir: PathBuf,
    /// Backend worker threads.
    pub workers: usize,
    /// Scheduling quantum in steps: a job runs at most this many steps
    /// per slice before it is checkpointed and re-queued.
    pub quantum: u64,
    /// Aggregate j-memory budget (slots) admission leases against.
    pub jmem_budget: usize,
    /// Aggregate resident-particle budget admission leases against.
    pub resident_budget: usize,
}

impl ServerConfig {
    /// Sensible defaults for a pool of small jobs: 4 workers, a
    /// 16-step quantum, one paper board's worth of j-memory and a
    /// million resident particles.
    pub fn new(dir: &Path) -> ServerConfig {
        ServerConfig {
            dir: dir.to_path_buf(),
            workers: 4,
            quantum: 16,
            jmem_budget: 1 << 20,
            resident_budget: 1 << 20,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// Running normally.
    No,
    /// Graceful: finish in-flight quanta (checkpointing as usual), take
    /// no new work.
    Drain,
    /// Abrupt: abandon in-flight quanta at the next step boundary
    /// without writing anything — the in-process stand-in for SIGKILL.
    Kill,
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    steps_done: u64,
    energy0: Option<f64>,
    lease: Option<PoolLease>,
    subscribers: Vec<Sender<JobEvent>>,
    cancel: bool,
    interactions: u64,
    preemptions: u64,
    resumes: u64,
    drift: f64,
    recovery: RecoveryStats,
    busy_s: f64,
}

impl JobEntry {
    fn new(spec: JobSpec) -> JobEntry {
        JobEntry {
            spec,
            state: JobState::Queued,
            steps_done: 0,
            energy0: None,
            lease: None,
            subscribers: Vec::new(),
            cancel: false,
            interactions: 0,
            preemptions: 0,
            resumes: 0,
            drift: 0.0,
            recovery: RecoveryStats::default(),
            busy_s: 0.0,
        }
    }

    fn emit(&mut self, ev: JobEvent) {
        self.subscribers.retain(|s| s.send(ev.clone()).is_ok());
    }

    fn status(&self, id: JobId) -> JobStatus {
        JobStatus {
            id,
            state: self.state.clone(),
            steps_done: self.steps_done,
            steps_total: self.spec.steps,
            interactions: self.interactions,
            preemptions: self.preemptions,
            resumes: self.resumes,
            drift: self.drift,
            recovery: self.recovery,
            busy_s: self.busy_s,
        }
    }
}

struct Sched {
    jobs: BTreeMap<JobId, JobEntry>,
    /// Submitted, awaiting admission (strict FIFO).
    pending: VecDeque<JobId>,
    /// Admitted, awaiting a worker (round-robin).
    runnable: VecDeque<JobId>,
    next_id: JobId,
    ledger: Ledger,
    stop: Stop,
}

struct Shared {
    sched: Mutex<Sched>,
    cv: Condvar,
    pool: DevicePool,
    dir: PathBuf,
    quantum: u64,
}

impl Shared {
    /// Admit pending jobs head-first until the pool refuses. Must be
    /// called with `sched` locked (passed to prove it).
    fn admit_locked(&self, sched: &mut Sched) {
        while let Some(&id) = sched.pending.front() {
            let entry = sched.jobs.get_mut(&id).expect("pending job has an entry");
            let jmem = entry.spec.backend.jmem_need(entry.spec.n);
            let resident = entry.spec.n;
            match self.pool.try_lease(jmem, resident) {
                Ok(lease) => {
                    sched.pending.pop_front();
                    entry.lease = Some(lease);
                    entry.state = JobState::Ready;
                    entry.emit(JobEvent::Admitted);
                    sched.runnable.push_back(id);
                }
                Err(PoolError::NeverFits { budget, asked, total }) => {
                    sched.pending.pop_front();
                    let err =
                        JobError::AdmissionRejected { budget: budget.to_string(), asked, total };
                    entry.state = JobState::Failed(err.clone());
                    entry.emit(JobEvent::Failed(err));
                    let state = entry.state.clone();
                    let _ = sched.ledger.state(id, &state, 0);
                }
                // fits the pool but not the current free capacity:
                // FIFO head-of-line wait (no starvation of big jobs)
                Err(PoolError::Exhausted { .. }) => break,
            }
        }
    }
}

/// What one scheduling slice did, decided by the worker off-lock.
enum Outcome {
    Preempted,
    Completed,
    Cancelled,
    Fatal(ForceError),
    Corrupt(String),
    /// Kill-mode abandon: write nothing, change nothing.
    Abandoned,
}

struct SliceStats {
    steps_end: u64,
    interactions: u64,
    busy_s: f64,
    recovery: RecoveryStats,
    lifecycle: Vec<String>,
    timers: Option<treegrape::PhaseTimers>,
}

/// The multi-tenant job server. Dropping it abandons in-flight quanta
/// abruptly (kill semantics); call [`shutdown`](Server::shutdown) for
/// a graceful drain. Either way every job resumes from durable state
/// on the next [`open`](Server::open).
pub struct Server {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Open (or re-open) a server over `cfg.dir`. A pre-existing job
    /// ledger is replayed: terminal jobs keep their record, every
    /// non-terminal job is re-queued for admission and will resume
    /// from the newest valid manifest in its own directory — unless its
    /// spec no longer passes [`JobSpec::validate`] (a damaged ledger
    /// line), in which case it fails with
    /// [`JobError::CheckpointCorrupt`], on the ledger, and is never
    /// queued.
    pub fn open(cfg: ServerConfig) -> io::Result<Server> {
        assert!(cfg.workers >= 1, "server needs at least one worker");
        assert!(cfg.quantum >= 1, "quantum must be at least one step");
        std::fs::create_dir_all(&cfg.dir)?;
        let ledger_path = cfg.dir.join("jobs.ledger");

        let mut jobs = BTreeMap::new();
        let mut pending = VecDeque::new();
        let mut next_id = 0;
        let ledger = if ledger_path.exists() {
            let replayed = ledger::replay(&ledger_path)?;
            let mut ledger = Ledger::append_to(&ledger_path)?;
            for job in replayed {
                let mut entry = JobEntry::new(job.spec);
                entry.steps_done = job.steps_done;
                entry.energy0 = job.energy0;
                entry.state = match (job.state, job.spec.validate()) {
                    (state, _) if state.is_terminal() => state,
                    (_, Ok(())) => JobState::Queued,
                    // a spec `submit` would have refused can only be a
                    // damaged ledger line: fail the job here, durably,
                    // rather than let it panic a worker
                    (_, Err(m)) => {
                        let failed =
                            JobState::Failed(JobError::CheckpointCorrupt(format!("bad spec: {m}")));
                        ledger.state(job.id, &failed, job.steps_done)?;
                        failed
                    }
                };
                if !entry.state.is_terminal() {
                    pending.push_back(job.id);
                }
                next_id = next_id.max(job.id + 1);
                jobs.insert(job.id, entry);
            }
            ledger
        } else {
            Ledger::create(&ledger_path)?
        };

        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                jobs,
                pending,
                runnable: VecDeque::new(),
                next_id,
                ledger,
                stop: Stop::No,
            }),
            cv: Condvar::new(),
            pool: DevicePool::new(cfg.jmem_budget, cfg.resident_budget),
            dir: cfg.dir.clone(),
            quantum: cfg.quantum,
        });

        {
            let mut sched = shared.sched.lock().unwrap();
            let s = &mut *sched;
            shared.admit_locked(s);
        }

        let handles = (0..cfg.workers)
            .map(|w| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("g5serve-worker-{w}"))
                    .spawn(move || worker_loop(&sh, w))
                    .expect("spawn worker")
            })
            .collect();

        Ok(Server { shared, handles })
    }

    /// Submit a job. Returns its id immediately; admission happens
    /// asynchronously (an impossible demand fails the job with
    /// [`JobError::AdmissionRejected`], visible via status/wait).
    /// `Err` only for an invalid spec or a ledger write failure.
    pub fn submit(&self, spec: JobSpec) -> io::Result<JobId> {
        spec.validate()
            .map_err(|m| io::Error::new(io::ErrorKind::InvalidInput, format!("bad spec: {m}")))?;
        let mut sched = self.shared.sched.lock().unwrap();
        let id = sched.next_id;
        sched.next_id += 1;
        sched.ledger.submit(id, &spec)?;
        sched.jobs.insert(id, JobEntry::new(spec));
        sched.pending.push_back(id);
        let s = &mut *sched;
        self.shared.admit_locked(s);
        self.shared.cv.notify_all();
        Ok(id)
    }

    /// Subscribe to a job's progress events (`None` for an unknown
    /// id). Events already emitted are not replayed.
    pub fn subscribe(&self, id: JobId) -> Option<Receiver<JobEvent>> {
        let mut sched = self.shared.sched.lock().unwrap();
        let entry = sched.jobs.get_mut(&id)?;
        let (tx, rx) = channel();
        entry.subscribers.push(tx);
        Some(rx)
    }

    /// Point-in-time status of one job.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let sched = self.shared.sched.lock().unwrap();
        sched.jobs.get(&id).map(|e| e.status(id))
    }

    /// Status of every job the server knows, id order.
    pub fn statuses(&self) -> Vec<JobStatus> {
        let sched = self.shared.sched.lock().unwrap();
        sched.jobs.iter().map(|(id, e)| e.status(*id)).collect()
    }

    /// Current pool occupancy.
    pub fn pool_usage(&self) -> PoolUsage {
        self.shared.pool.usage()
    }

    /// Cancel a job. Queued/ready jobs fail immediately; a running job
    /// is caught at its next step boundary. Returns `false` for
    /// unknown or already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut sched = self.shared.sched.lock().unwrap();
        let Some(entry) = sched.jobs.get_mut(&id) else { return false };
        if entry.state.is_terminal() {
            return false;
        }
        entry.cancel = true;
        match entry.state {
            JobState::Queued | JobState::Ready | JobState::Preempted => {
                entry.state = JobState::Failed(JobError::Cancelled);
                entry.lease = None;
                entry.emit(JobEvent::Failed(JobError::Cancelled));
                let steps = entry.steps_done;
                let state = entry.state.clone();
                let _ = sched.ledger.state(id, &state, steps);
                sched.pending.retain(|&j| j != id);
                sched.runnable.retain(|&j| j != id);
                let s = &mut *sched;
                self.shared.admit_locked(s);
                self.shared.cv.notify_all();
            }
            // running: the worker observes the flag at the next step
            JobState::Running => {}
            JobState::Completed | JobState::Failed(_) => unreachable!(),
        }
        true
    }

    /// Block until the job reaches a terminal state; returns it.
    /// Panics on an unknown id.
    pub fn wait(&self, id: JobId) -> JobState {
        let mut sched = self.shared.sched.lock().unwrap();
        loop {
            let entry = sched.jobs.get(&id).expect("wait on unknown job");
            if entry.state.is_terminal() {
                return entry.state.clone();
            }
            sched = self.shared.cv.wait(sched).unwrap();
        }
    }

    /// Block until every submitted job is terminal; returns how many
    /// jobs completed successfully.
    pub fn wait_all(&self) -> usize {
        let mut sched = self.shared.sched.lock().unwrap();
        loop {
            if sched.jobs.values().all(|e| e.state.is_terminal()) {
                return sched.jobs.values().filter(|e| e.state == JobState::Completed).count();
            }
            sched = self.shared.cv.wait(sched).unwrap();
        }
    }

    /// Graceful shutdown: in-flight quanta finish and checkpoint, no
    /// new work starts, workers join. Non-terminal jobs stay durable
    /// in the ledger and resume on the next [`open`](Server::open).
    pub fn shutdown(mut self) {
        self.stop(Stop::Drain);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Abrupt kill: workers abandon their quantum at the next step
    /// boundary *without* checkpointing or touching the ledger — the
    /// in-process equivalent of SIGKILL for durability tests. The
    /// surviving truth is whatever was already on disk.
    pub fn kill(mut self) {
        self.stop(Stop::Kill);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    fn stop(&self, how: Stop) {
        let mut sched = self.shared.sched.lock().unwrap();
        sched.stop = how;
        self.shared.cv.notify_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.stop(Stop::Kill);
            for h in self.handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, worker: usize) {
    // This worker's claim on a core (`g5util::cores`): taken with the
    // first slice it runs, kept across back-to-back slices — so the
    // other workers never see a gap and size an evaluation for this
    // core too — and given back only when the queue runs dry.
    let mut caller: Option<cores::Caller> = None;
    loop {
        // take the next runnable job, or sleep
        let (id, spec, energy0) = {
            let mut sched = shared.sched.lock().unwrap();
            loop {
                if sched.stop != Stop::No {
                    return;
                }
                if let Some(id) = sched.runnable.pop_front() {
                    let entry = sched.jobs.get_mut(&id).expect("runnable job has an entry");
                    // a cancel that raced the pop: fail it here
                    if entry.cancel {
                        entry.state = JobState::Failed(JobError::Cancelled);
                        entry.lease = None;
                        entry.emit(JobEvent::Failed(JobError::Cancelled));
                        let steps = entry.steps_done;
                        let state = entry.state.clone();
                        let _ = sched.ledger.state(id, &state, steps);
                        let s = &mut *sched;
                        shared.admit_locked(s);
                        shared.cv.notify_all();
                        continue;
                    }
                    // registered before the job reads as running
                    caller.get_or_insert_with(cores::enter);
                    entry.state = JobState::Running;
                    entry.emit(JobEvent::Started { worker, step: entry.steps_done });
                    let spec = entry.spec;
                    let e0 = entry.energy0;
                    let steps = entry.steps_done;
                    let _ = sched.ledger.state(id, &JobState::Running, steps);
                    break (id, spec, e0);
                }
                let s = &mut *sched;
                shared.admit_locked(s);
                if sched.runnable.is_empty() {
                    caller = None;
                    sched = shared.cv.wait(sched).unwrap();
                }
            }
        };

        let (outcome, stats) = run_slice(shared, id, &spec, energy0);

        // apply the outcome
        let mut sched = shared.sched.lock().unwrap();
        let entry = sched.jobs.get_mut(&id).expect("sliced job has an entry");
        if let Some(st) = &stats {
            entry.interactions += st.interactions;
            entry.busy_s += st.busy_s;
            entry.resumes += 1;
            entry.recovery = entry.recovery.merged(st.recovery);
            if st.recovery.any() {
                entry.emit(JobEvent::Recovery(st.recovery));
            }
            for line in &st.lifecycle {
                entry.emit(JobEvent::Lifecycle(line.clone()));
            }
            if let Some(t) = st.timers {
                entry.emit(JobEvent::Timers(t));
            }
        }
        let steps_end = stats.as_ref().map(|s| s.steps_end).unwrap_or(entry.steps_done);
        match outcome {
            Outcome::Abandoned => return, // kill: write nothing, exit
            Outcome::Preempted => {
                entry.steps_done = steps_end;
                entry.state = JobState::Preempted;
                entry.preemptions += 1;
                entry.emit(JobEvent::Preempted { step: steps_end });
                let _ = sched.ledger.state(id, &JobState::Preempted, steps_end);
                sched.runnable.push_back(id);
            }
            Outcome::Completed => {
                entry.steps_done = steps_end;
                entry.state = JobState::Completed;
                entry.lease = None;
                entry.emit(JobEvent::Completed { steps: steps_end });
                let _ = sched.ledger.state(id, &JobState::Completed, steps_end);
            }
            Outcome::Cancelled => {
                entry.steps_done = steps_end;
                entry.state = JobState::Failed(JobError::Cancelled);
                entry.lease = None;
                entry.emit(JobEvent::Failed(JobError::Cancelled));
                let state = entry.state.clone();
                let _ = sched.ledger.state(id, &state, steps_end);
            }
            Outcome::Fatal(e) => {
                let err = JobError::BackendFatal(e);
                entry.state = JobState::Failed(err.clone());
                entry.lease = None;
                entry.emit(JobEvent::Failed(err));
                let state = entry.state.clone();
                let _ = sched.ledger.state(id, &state, steps_end);
            }
            Outcome::Corrupt(m) => {
                let err = JobError::CheckpointCorrupt(m);
                entry.state = JobState::Failed(err.clone());
                entry.lease = None;
                entry.emit(JobEvent::Failed(err));
                let state = entry.state.clone();
                let _ = sched.ledger.state(id, &state, steps_end);
            }
        }
        let s = &mut *sched;
        shared.admit_locked(s);
        shared.cv.notify_all();
    }
}

/// Run one scheduling slice of a job: build or resume, integrate up to
/// one quantum with periodic checkpoints, decide the outcome. Runs
/// entirely off-lock; flags are polled per step.
fn run_slice(
    shared: &Arc<Shared>,
    id: JobId,
    spec: &JobSpec,
    energy0: Option<f64>,
) -> (Outcome, Option<SliceStats>) {
    let name = job_dir_name(id);
    let jobdir = shared.dir.join(&name);
    let t0 = Instant::now();

    // resume from the newest valid manifest stamped with OUR job id, or
    // start fresh from the seed — both replay the identical trajectory
    let mut sim = match latest_for_job(&jobdir, &name) {
        Err(e) => return (Outcome::Corrupt(format!("checkpoint dir unreadable: {e}")), None),
        Ok(Some(ckpt)) => match ckpt.resume(spec.backend.build()) {
            Ok(sim) => sim,
            Err(ResumeError::Corrupt(e)) => return (Outcome::Corrupt(e.to_string()), None),
            Err(ResumeError::Force(e)) => return (Outcome::Fatal(e), None),
        },
        Ok(None) => match Simulation::try_new(spec.make_ic(), spec.backend.build(), 0.0) {
            Ok(sim) => sim,
            Err(e) => return (Outcome::Fatal(e), None),
        },
    };

    // the drift reference: measured once at step 0 and persisted, so a
    // restarted server reports the same drift series bit-for-bit
    let e0 = match energy0 {
        Some(e) => e,
        None => {
            let e = sim.total_energy();
            let mut sched = shared.sched.lock().unwrap();
            if let Some(entry) = sched.jobs.get_mut(&id) {
                entry.energy0 = Some(e);
            }
            let _ = sched.ledger.energy0(id, e);
            e
        }
    };

    let stats = |sim: &Simulation<treegrape::AnyBackend>, busy: f64| SliceStats {
        steps_end: sim.steps,
        interactions: sim.tally().interactions,
        busy_s: busy,
        recovery: sim.backend().recovery_stats().unwrap_or_default(),
        lifecycle: sim.backend().lifecycle_events().to_vec(),
        timers: Some(sim.phase_timers()),
    };

    let mut ran = 0u64;
    let mut killed = false;
    let mut cancelled = false;
    loop {
        // a checkpoint ahead of its spec (a damaged `steps=` in the
        // ledger's job line) has no steps left to count: a typed failure
        let Some(left_total) = spec.steps.checked_sub(sim.steps) else {
            let (at, n) = (sim.steps, spec.steps);
            let m = format!("checkpoint at step {at} is past the {n} steps of the spec");
            return (Outcome::Corrupt(m), None);
        };
        let left_quantum = shared.quantum - ran;
        if left_total == 0 || left_quantum == 0 {
            break;
        }
        let chunk = left_total.min(left_quantum).min(spec.checkpoint_every);
        let res = sim.try_run_while(spec.dt, chunk, |s| {
            let energy = s.total_energy();
            let drift = (energy - e0) / e0.abs().max(f64::MIN_POSITIVE);
            let mut sched = shared.sched.lock().unwrap();
            killed = sched.stop == Stop::Kill;
            if let Some(entry) = sched.jobs.get_mut(&id) {
                entry.drift = drift;
                cancelled = entry.cancel;
                entry.emit(JobEvent::Step { step: s.steps, time: s.time, energy, drift });
            }
            !(killed || cancelled)
        });
        match res {
            Ok(done) => ran += done,
            Err(e) => {
                let busy = t0.elapsed().as_secs_f64();
                return (Outcome::Fatal(e), Some(stats(&sim, busy)));
            }
        }
        if killed {
            // SIGKILL semantics: nothing written, nothing said
            return (Outcome::Abandoned, None);
        }
        // crash-atomic checkpoint at every chunk boundary (covers the
        // quantum end too: the last chunk ends exactly at the quantum)
        let ck = match Checkpointer::new(&jobdir, 1) {
            Ok(ck) => ck.with_retention(spec.retain).with_job_id(&name),
            Err(e) => {
                let busy = t0.elapsed().as_secs_f64();
                return (
                    Outcome::Corrupt(format!("checkpoint dir create failed: {e}")),
                    Some(stats(&sim, busy)),
                );
            }
        };
        let steps = sim.steps;
        if let Err(e) = ck.write(&sim.state, sim.time, steps, &sim.backend().resume_state()) {
            let busy = t0.elapsed().as_secs_f64();
            return (
                Outcome::Corrupt(format!("checkpoint write failed: {e}")),
                Some(stats(&sim, busy)),
            );
        }
        {
            let mut sched = shared.sched.lock().unwrap();
            if let Some(entry) = sched.jobs.get_mut(&id) {
                entry.steps_done = steps;
                entry.emit(JobEvent::Checkpointed { step: steps });
            }
        }
        if cancelled {
            let busy = t0.elapsed().as_secs_f64();
            return (Outcome::Cancelled, Some(stats(&sim, busy)));
        }
    }

    let busy = t0.elapsed().as_secs_f64();
    if sim.steps == spec.steps {
        // terminal: persist the final state for clients (and for
        // byte-identity audits against uninterrupted reference runs)
        if let Err(e) = snapshot_io::save(&jobdir.join("final.g5snap"), &sim.state, sim.time) {
            return (
                Outcome::Corrupt(format!("final snapshot write failed: {e}")),
                Some(stats(&sim, busy)),
            );
        }
        (Outcome::Completed, Some(stats(&sim, busy)))
    } else {
        (Outcome::Preempted, Some(stats(&sim, busy)))
    }
}
