//! Job specifications, states, errors and events — the value types of
//! the service's public API.

use grape5::RecoveryStats;
use rand::SeedableRng;
use treegrape::backends::ForceError;
use treegrape::{BackendKind, BackendSpec, PhaseTimers, TreeGrapeConfig};

/// Server-assigned job identifier (monotonic, never reused within a
/// server directory).
pub type JobId = u64;

/// Canonical on-disk name of a job: its per-job checkpoint directory
/// and the `job` key stamped into every manifest it writes.
pub fn job_dir_name(id: JobId) -> String {
    format!("job-{id:06}")
}

/// Which initial-condition family a job integrates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IcClass {
    /// Plummer (1911) sphere.
    Plummer,
    /// Hernquist (1990) sphere, truncated at `r_max`.
    Hernquist {
        /// Truncation radius.
        r_max: f64,
    },
}

/// Everything the service needs to run one simulation job,
/// deterministically, on any worker, any number of times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Initial-condition family.
    pub ic: IcClass,
    /// Particle count.
    pub n: usize,
    /// IC realization seed (ChaCha8).
    pub seed: u64,
    /// Total steps to integrate.
    pub steps: u64,
    /// Shared timestep.
    pub dt: f64,
    /// Force backend to build for each scheduling slice.
    pub backend: BackendSpec,
    /// Checkpoint cadence in steps while running (a checkpoint is also
    /// always taken at preemption, so this bounds replay, not
    /// durability).
    pub checkpoint_every: u64,
    /// Checkpoint pairs retained in the per-job directory.
    pub retain: usize,
}

impl JobSpec {
    /// A small Plummer job on a single-board tree backend — the
    /// default tenant of a shared facility.
    pub fn plummer(n: usize, seed: u64, steps: u64) -> JobSpec {
        JobSpec {
            ic: IcClass::Plummer,
            n,
            seed,
            steps,
            dt: 0.01,
            backend: BackendSpec::tree(0.05),
            checkpoint_every: 8,
            retain: 3,
        }
    }

    /// As [`plummer`](Self::plummer) but a truncated Hernquist sphere.
    pub fn hernquist(n: usize, seed: u64, steps: u64) -> JobSpec {
        JobSpec { ic: IcClass::Hernquist { r_max: 10.0 }, ..JobSpec::plummer(n, seed, steps) }
    }

    /// Generate this job's initial conditions (pure function of the
    /// spec — reruns and restarted servers regenerate identical ICs).
    pub fn make_ic(&self) -> g5ic::Snapshot {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(self.seed);
        match self.ic {
            IcClass::Plummer => g5ic::plummer_sphere(self.n, &mut rng),
            IcClass::Hernquist { r_max } => g5ic::hernquist_sphere(self.n, r_max, &mut rng),
        }
    }

    /// Reject specs the service cannot run deterministically or at all.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("zero particles".into());
        }
        if self.steps == 0 {
            return Err("zero steps".into());
        }
        if self.dt <= 0.0 || self.dt.is_nan() {
            return Err("non-positive dt".into());
        }
        if self.checkpoint_every == 0 {
            return Err("zero checkpoint interval".into());
        }
        if self.retain == 0 {
            return Err("zero checkpoint retention".into());
        }
        // the backend fields: each of these would otherwise panic the
        // worker thread inside `run_slice` and leave the job `Running`.
        // `BackendSpec::build` pairs n_crit with the paper configuration's
        // tree and the grouped backends assert leaf ≤ n_crit, so the
        // floor of n_crit is that leaf capacity, not 1
        let b = &self.backend;
        let leaf = TreeGrapeConfig::paper(b.eps).tree_config.leaf_capacity;
        if b.n_crit < leaf {
            return Err(format!("n_crit {} below the tree's leaf capacity {leaf}", b.n_crit));
        }
        if b.boards == 0 {
            return Err("zero boards".into());
        }
        if b.kind == (BackendKind::Cluster { shards: 0 }) {
            return Err("zero-shard cluster".into());
        }
        // a board or shard past the particle count holds nothing (the
        // j-set is split evenly over boards, shards are truncated to N),
        // and a count that large would size an allocation the process
        // cannot survive
        if b.devices().checked_mul(b.boards).is_none_or(|d| d > self.n) {
            return Err(format!(
                "{} devices x {} boards exceed the {} particles",
                b.devices(),
                b.boards,
                self.n
            ));
        }
        for (name, v) in [("theta", b.theta), ("eps", b.eps)] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} is not a finite non-negative number"));
            }
        }
        if let Some(f) = &self.backend.fault {
            // the job ledger persists only the stochastic fault rates;
            // persistent stuck-pipe / board-dropout schedules would not
            // survive a server restart bit-identically
            if f.stuck_pipe.is_some() || f.board_dropout.is_some() {
                return Err("persistent fault schedules are not supported in job specs".into());
            }
            // `FaultState::new` asserts both rates are probabilities
            for (name, v) in [("transient", f.transient_rate), ("jmem", f.jmem_corrupt_rate)] {
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("{name} fault rate {v} is outside [0, 1]"));
                }
            }
        }
        Ok(())
    }
}

/// Why a job reached a terminal failure state — the typed taxonomy the
/// status API and load reports aggregate over.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The admission controller can never fit this job: one of its
    /// budget demands exceeds the pool's total capacity.
    AdmissionRejected {
        /// Which budget ("jmem" or "resident").
        budget: String,
        /// Slots the job demanded.
        asked: usize,
        /// The pool's total for that budget.
        total: usize,
    },
    /// The backend exhausted device recovery mid-run
    /// (retries/quarantine escalation gave up).
    BackendFatal(ForceError),
    /// The job's checkpoint directory held a manifest that could not be
    /// restored from (parse, checksum or fault-state restore failure
    /// with no valid fallback).
    CheckpointCorrupt(String),
    /// The client cancelled the job.
    Cancelled,
}

impl JobError {
    /// Stable taxonomy key, for reports and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::AdmissionRejected { .. } => "admission-rejected",
            JobError::BackendFatal(_) => "backend-fatal",
            JobError::CheckpointCorrupt(_) => "checkpoint-corrupt",
            JobError::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::AdmissionRejected { budget, asked, total } => {
                write!(f, "admission rejected: {budget} demand {asked} exceeds pool total {total}")
            }
            JobError::BackendFatal(e) => write!(f, "backend fatal: {e}"),
            JobError::CheckpointCorrupt(m) => write!(f, "checkpoint corrupt: {m}"),
            JobError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Submitted, waiting for admission (no lease yet).
    Queued,
    /// Admitted (lease held), waiting for a worker.
    Ready,
    /// On a worker right now.
    Running,
    /// Checkpointed off a worker at a step boundary; re-queued.
    Preempted,
    /// All steps integrated; final snapshot persisted.
    Completed,
    /// Terminal failure (see the [`JobError`] taxonomy).
    Failed(JobError),
}

impl JobState {
    /// Completed, failed or cancelled — nothing further will happen.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Completed | JobState::Failed(_))
    }
}

/// One progress event on a job's subscription channel.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// Admission granted; the job holds its capacity lease.
    Admitted,
    /// A worker picked the job up (fresh build or checkpoint resume).
    Started {
        /// Worker index.
        worker: usize,
        /// Step the slice starts from (0 = fresh).
        step: u64,
    },
    /// One integration step completed.
    Step {
        /// Steps completed so far.
        step: u64,
        /// Simulation time.
        time: f64,
        /// Total energy.
        energy: f64,
        /// Relative drift against the job's initial energy.
        drift: f64,
    },
    /// A crash-atomic checkpoint pair landed in the job directory.
    Checkpointed {
        /// Step the manifest captures.
        step: u64,
    },
    /// The scheduler took the job off its worker at a step boundary.
    Preempted {
        /// Step the job will resume from.
        step: u64,
    },
    /// Device recovery activity during the last slice (only emitted
    /// when any recovery action fired).
    Recovery(RecoveryStats),
    /// Measured per-phase timers of the last slice.
    Timers(PhaseTimers),
    /// A cluster lifecycle/ledger event line (kills, probes,
    /// re-decompositions), verbatim.
    Lifecycle(String),
    /// Terminal success.
    Completed {
        /// Total steps integrated.
        steps: u64,
    },
    /// Terminal failure.
    Failed(JobError),
}

/// Point-in-time public view of a job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job identifier.
    pub id: JobId,
    /// Lifecycle state.
    pub state: JobState,
    /// Steps completed (durable, as of the last checkpoint or terminal
    /// transition).
    pub steps_done: u64,
    /// Total steps requested.
    pub steps_total: u64,
    /// Pairwise interactions evaluated on behalf of this job (includes
    /// resume recomputation).
    pub interactions: u64,
    /// Scheduling slices the job was preempted at the end of.
    pub preemptions: u64,
    /// Times a worker rebuilt/resumed this job (1 = never preempted or
    /// restarted).
    pub resumes: u64,
    /// Last observed relative energy drift.
    pub drift: f64,
    /// Accumulated device-recovery actions.
    pub recovery: RecoveryStats,
    /// Wall-clock seconds spent on workers.
    pub busy_s: f64,
}
