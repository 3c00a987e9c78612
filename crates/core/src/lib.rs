#![warn(missing_docs)]
//! # treegrape — the paper's system: a treecode running on GRAPE-5
//!
//! This crate assembles the substrates ([`grape5`], [`g5tree`],
//! [`g5ic`]) into the system the paper reports: Barnes' modified tree
//! algorithm producing shared interaction lists on the host, the
//! GRAPE-5 pipelines evaluating every pairwise term in those lists, and
//! a leapfrog integrator advancing a cosmological (or any other)
//! particle load.
//!
//! * [`backends`] — interchangeable force backends: `DirectHost`
//!   (O(N²) on the host, the exact reference), `DirectGrape` (O(N²)
//!   through the simulated hardware), `TreeHost` (modified or original
//!   treecode in `f64`), and `TreeGrape` (the paper's configuration).
//! * [`cluster`] — the PC-GRAPE cluster backend: K domain-decomposed
//!   trees over K pooled devices, local-essential-tree exchange, and
//!   shard-loss recovery by re-decomposition.
//!
//!   `TreeGrape` and every cluster shard run one step body — the
//!   private `engine` module: tree refresh / hinted rebuild, the
//!   streamed group lists with remote terms appended inside the
//!   stream, the device consumer. A single host is an engine with no
//!   remote trees; a cluster node is the same engine beside its
//!   siblings' trees. How the list walk is scheduled against the
//!   device calls is the plan's choice ([`PlanConfig`], by default
//!   from the caller's share of the cores), never a backend flag.
//! * [`integrator`] — shared-timestep leapfrog (kick–drift–kick), the
//!   scheme used for the paper's 999-step run.
//! * [`diagnostics`] — energy / momentum / Lagrangian-radii bookkeeping.
//! * [`perf`] — the performance accounting of §5: a calibrated host
//!   cost model of the COMPAQ AlphaServer DS10, combined with the
//!   GRAPE clock model into per-step wall-clock, Gflops (raw and
//!   corrected-to-original-algorithm) and $/Mflops.
//! * [`accuracy`] — force-error measurement utilities for §2/§3.
//! * [`clustering`] — two-point correlation function and radial
//!   profiles, quantifying the Figure 4 structure.
//! * [`halos`] — friends-of-friends halo finder (Davis et al. 1985)
//!   turning the z = 0 snapshot into a halo catalog.
//! * [`render`] — the Figure 4 slab projection (PGM / ASCII).
//! * [`snapshot_io`] — compact binary snapshot save/load (checksummed
//!   `G5SNAP2` records).
//! * [`checkpoint`] — periodic checkpoint/restart: manifests carrying
//!   step index, bit-exact integrator time and the backend's resume
//!   state, resumable bit-identically.
//! * [`spec`] — declarative backend construction ([`BackendSpec`] →
//!   [`AnyBackend`]): the value-typed handle a multi-tenant job
//!   service builds, checkpoints and restores workers from.

pub mod accuracy;
pub mod backends;
pub mod checkpoint;
pub mod cluster;
pub mod clustering;
pub mod diagnostics;
mod engine;
pub mod halos;
pub mod integrator;
pub mod perf;
pub mod render;
pub mod snapshot_io;
pub mod spec;

pub use backends::{
    DirectGrape, DirectHost, ForceBackend, ForceError, ForceSet, RefreshPolicy, TreeGrape,
    TreeGrapeConfig, TreeHost,
};
pub use checkpoint::{
    Checkpoint, Checkpointer, ClusterLifecycle, ResumeError, ResumeState, ScrubReport,
};
pub use cluster::{
    ClusterTreeGrape, ClusterTreeGrapeConfig, LifecyclePolicy, RecoveryLedger, ShardHealth,
};
pub use diagnostics::{Diagnostics, EnergyWatchdog};
pub use g5tree::plan::PlanConfig;
pub use integrator::Simulation;
pub use perf::{HostModel, PaperProjection, PhaseTimers, StepBreakdown};
pub use spec::{AnyBackend, BackendKind, BackendSpec};
