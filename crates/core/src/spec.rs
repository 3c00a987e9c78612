//! Declarative backend construction — the bridge between a job
//! service's `JobSpec` and the concrete force backends.
//!
//! A multi-tenant server cannot hold `TreeGrape` vs. `ClusterTreeGrape`
//! generics in its job table; it holds a [`BackendSpec`] (a plain
//! value describing *which* backend at *what* operating point) and
//! builds an [`AnyBackend`] from it each time the job is scheduled
//! onto a worker. `AnyBackend` dispatches [`ForceBackend`] — the
//! resume state a checkpoint carries and its restore included — to the
//! inner backend.

use crate::backends::{ForceBackend, ForceError, ForceSet, TreeGrape, TreeGrapeConfig};
use crate::checkpoint::{Checkpointer, ResumeState};
use crate::cluster::{ClusterTreeGrape, ClusterTreeGrapeConfig};
use g5util::vec3::Vec3;
use grape5::{ArithMode, ClockAccounting, FaultConfig, Grape5Config, RecoveryStats, RetryPolicy};
use std::io;
use std::path::PathBuf;

/// Which backend family a spec builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Single-device modified treecode ([`TreeGrape`]).
    Tree,
    /// K domain-decomposed trees over K pooled devices
    /// ([`ClusterTreeGrape`]).
    Cluster {
        /// Number of shards (= devices).
        shards: usize,
    },
}

/// A value-typed description of a force backend: everything needed to
/// (re)build it deterministically on any worker thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendSpec {
    /// Backend family.
    pub kind: BackendKind,
    /// Pipeline arithmetic mode.
    pub mode: ArithMode,
    /// Softening length ε.
    pub eps: f64,
    /// Opening angle θ.
    pub theta: f64,
    /// Group size n_crit.
    pub n_crit: usize,
    /// Processor boards per device.
    pub boards: usize,
    /// Fault injection armed at build time (`None` = healthy device).
    /// Cluster backends derive per-shard seeds from this base config.
    pub fault: Option<FaultConfig>,
}

impl BackendSpec {
    /// A single-device treecode at the paper's operating point (θ 0.75,
    /// n_crit 2000) in fast `Exact` arithmetic on one board — the
    /// bread-and-butter tenant of a shared facility.
    pub fn tree(eps: f64) -> BackendSpec {
        BackendSpec {
            kind: BackendKind::Tree,
            mode: ArithMode::Exact,
            eps,
            theta: 0.75,
            n_crit: 2000,
            boards: 1,
            fault: None,
        }
    }

    /// A `shards`-way cluster of single-board devices, otherwise as
    /// [`tree`](Self::tree).
    pub fn cluster(eps: f64, shards: usize) -> BackendSpec {
        assert!(shards >= 1, "cluster needs at least one shard");
        BackendSpec { kind: BackendKind::Cluster { shards }, ..BackendSpec::tree(eps) }
    }

    /// Arm a fault injector (a builder convenience).
    pub fn with_fault(mut self, fault: FaultConfig) -> BackendSpec {
        self.fault = Some(fault);
        self
    }

    /// Devices this spec opens.
    pub fn devices(&self) -> usize {
        match self.kind {
            BackendKind::Tree => 1,
            BackendKind::Cluster { shards } => shards,
        }
    }

    /// j-memory slots an admission controller should charge for a run
    /// over `n` particles: every device may hold up to the full mass
    /// distribution resident (a shard's local-essential tree imports
    /// remote mass), capped by the physical per-board capacity. A demand
    /// past `usize` saturates, so an admission controller refuses it.
    pub fn jmem_need(&self, n: usize) -> usize {
        let capacity = self.boards.saturating_mul(Grape5Config::paper().jmem_capacity);
        self.devices().saturating_mul(n.min(capacity))
    }

    fn tree_grape_config(&self) -> TreeGrapeConfig {
        let mut cfg = TreeGrapeConfig::paper(self.eps);
        cfg.theta = self.theta;
        cfg.n_crit = self.n_crit;
        cfg.grape = Grape5Config { boards: self.boards, mode: self.mode, ..Grape5Config::paper() };
        // fault-storm tenants lean on escalation; simulated time makes
        // real backoff sleeps pure waste
        cfg.retry = RetryPolicy { max_retries: 20, ..RetryPolicy::no_wait() };
        cfg
    }

    /// Build the backend this spec describes, arming the fault injector
    /// when one is configured. A resumed cluster is built the same way:
    /// the checkpoint's lifecycle names the shards that died.
    pub fn build(&self) -> AnyBackend {
        match self.kind {
            BackendKind::Tree => {
                let mut b = TreeGrape::new(self.tree_grape_config());
                if let Some(f) = self.fault {
                    b.grape_mut().set_fault_injector(f);
                }
                AnyBackend::Tree(Box::new(b))
            }
            BackendKind::Cluster { shards } => {
                let cfg = ClusterTreeGrapeConfig {
                    base: self.tree_grape_config(),
                    ..ClusterTreeGrapeConfig::paper(self.eps, shards)
                };
                let mut b = ClusterTreeGrape::new(cfg);
                if let Some(f) = self.fault {
                    b.set_fault_injectors(f);
                }
                AnyBackend::Cluster(Box::new(b))
            }
        }
    }
}

/// A force backend built from a [`BackendSpec`] — the uniform handle a
/// job scheduler runs, checkpoints, and restores without caring which
/// family it holds.
pub enum AnyBackend {
    /// Single-device treecode.
    Tree(Box<TreeGrape>),
    /// Domain-decomposed cluster.
    Cluster(Box<ClusterTreeGrape>),
}

impl AnyBackend {
    /// Write a crash-atomic checkpoint of `snap` through `ck`, with the
    /// backend's [`resume_state`](ForceBackend::resume_state).
    pub fn checkpoint(
        &mut self,
        ck: &Checkpointer,
        snap: &g5ic::Snapshot,
        time: f64,
        step: u64,
    ) -> io::Result<PathBuf> {
        ck.write(snap, time, step, &self.resume_state())
    }

    /// Recovery-ledger event lines recorded since this backend was
    /// built (empty for single-device backends, which have no
    /// lifecycle supervisor).
    pub fn lifecycle_events(&self) -> &[String] {
        match self {
            AnyBackend::Tree(_) => &[],
            AnyBackend::Cluster(b) => b.ledger().events(),
        }
    }
}

impl ForceBackend for AnyBackend {
    fn try_compute(&mut self, pos: &[Vec3], mass: &[f64]) -> Result<ForceSet, ForceError> {
        match self {
            AnyBackend::Tree(b) => b.try_compute(pos, mass),
            AnyBackend::Cluster(b) => b.try_compute(pos, mass),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyBackend::Tree(b) => b.name(),
            AnyBackend::Cluster(b) => b.name(),
        }
    }

    fn grape_accounting(&self) -> Option<ClockAccounting> {
        match self {
            AnyBackend::Tree(b) => b.grape_accounting(),
            AnyBackend::Cluster(b) => b.grape_accounting(),
        }
    }

    fn recovery_stats(&self) -> Option<RecoveryStats> {
        match self {
            AnyBackend::Tree(b) => b.recovery_stats(),
            AnyBackend::Cluster(b) => b.recovery_stats(),
        }
    }

    fn resume_state(&self) -> ResumeState {
        match self {
            AnyBackend::Tree(b) => b.resume_state(),
            AnyBackend::Cluster(b) => b.resume_state(),
        }
    }

    fn restore(&mut self, state: &ResumeState) -> io::Result<()> {
        match self {
            AnyBackend::Tree(b) => b.restore(state),
            AnyBackend::Cluster(b) => b.restore(state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::Simulation;
    use g5ic::plummer_sphere;
    use rand::SeedableRng;
    use std::path::Path;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("g5spec_test_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn ic(n: usize, seed: u64) -> g5ic::Snapshot {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        plummer_sphere(n, &mut rng)
    }

    #[test]
    fn tree_and_cluster_specs_build_and_compute() {
        for spec in [BackendSpec::tree(0.02), BackendSpec::cluster(0.02, 2)] {
            let snap = ic(96, 5);
            let mut b = spec.build();
            let fs = b.try_compute(&snap.pos, &snap.mass).unwrap();
            assert_eq!(fs.acc.len(), 96);
            assert!(fs.acc.iter().all(|a| a.norm().is_finite()));
        }
    }

    #[test]
    fn jmem_need_scales_with_devices() {
        let n = 1000;
        assert_eq!(BackendSpec::tree(0.02).jmem_need(n), n);
        assert_eq!(BackendSpec::cluster(0.02, 4).jmem_need(n), 4 * n);
    }

    /// `lost_shard`: a cluster slot killed after two steps, in both runs.
    fn roundtrip_spec(spec: BackendSpec, dir: &Path, lost_shard: Option<usize>) {
        let snap = ic(128, 9);
        let steps_total = 8u64;
        let dt = 0.01;

        // run half, checkpoint through the uniform dispatch, rebuild +
        // restore, finish — must match the uninterrupted run bitwise
        let mut full = Simulation::try_new(snap.clone(), spec.build(), 0.0).unwrap();
        let mut first = Simulation::try_new(snap, spec.build(), 0.0).unwrap();
        for sim in [&mut full, &mut first] {
            sim.try_run(dt, 2).unwrap();
            if let (Some(k), AnyBackend::Cluster(b)) = (lost_shard, sim.backend_mut()) {
                b.kill_shard(k);
            }
        }
        full.try_run(dt, steps_total - 2).unwrap();
        first.try_run(dt, 2).unwrap();
        let ck = Checkpointer::new(dir, 1).unwrap().with_job_id("spec-rt");
        let (state, time, steps) = (first.state.clone(), first.time, first.steps);
        first.backend_mut().checkpoint(&ck, &state, time, steps).unwrap();

        let got = crate::checkpoint::latest_for_job(dir, "spec-rt").unwrap().unwrap();
        let mut resumed = got.resume(spec.build()).unwrap();
        resumed.try_run(dt, steps_total - got.step).unwrap();

        assert_eq!(resumed.state.pos, full.state.pos, "{spec:?} diverged");
        assert_eq!(resumed.state.vel, full.state.vel);
    }

    #[test]
    fn a_resume_state_restores_only_into_its_own_family() {
        let fault = FaultConfig { transient_rate: 0.05, ..FaultConfig::none(79) };
        let tree = BackendSpec::tree(0.02).with_fault(fault);
        let cluster = BackendSpec::cluster(0.02, 2).with_fault(fault);
        let (tree_state, cluster_state) =
            (tree.build().resume_state(), cluster.build().resume_state());
        assert!(tree_state.fault_state.is_some() && cluster_state.shards == Some(2));

        assert!(tree.build().restore(&tree_state).is_ok());
        assert!(cluster.build().restore(&cluster_state).is_ok());
        let host = crate::backends::DirectHost::new(0.02);
        assert!(host.clone().restore(&ResumeState::default()).is_ok());
        for refused in [
            tree.build().restore(&cluster_state),
            cluster.build().restore(&tree_state),
            cluster.build().restore(&ResumeState::default()),
            host.clone().restore(&tree_state),
            host.clone().restore(&cluster_state),
        ] {
            assert_eq!(refused.unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn spec_checkpoint_restore_is_bit_identical_tree() {
        let dir = tmpdir("tree_faulty");
        let fault = FaultConfig { transient_rate: 0.05, ..FaultConfig::none(77) };
        roundtrip_spec(BackendSpec::tree(0.02).with_fault(fault), &dir, None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn spec_checkpoint_restore_is_bit_identical_cluster() {
        let dir = tmpdir("cluster_faulty");
        let fault = FaultConfig { transient_rate: 0.05, ..FaultConfig::none(78) };
        roundtrip_spec(BackendSpec::cluster(0.02, 2).with_fault(fault), &dir, None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_cluster_that_lost_a_shard_resumes_on_its_surviving_slots() {
        // built over the spec's three slots, as a server rebuilds a job:
        // the lifecycle keeps slot 1 dead, slots 0 and 2 keep their
        // fault words and their cuts
        let dir = tmpdir("cluster_lost_shard");
        let fault = FaultConfig { transient_rate: 0.05, ..FaultConfig::none(80) };
        roundtrip_spec(BackendSpec::cluster(0.02, 3).with_fault(fault), &dir, Some(1));
        std::fs::remove_dir_all(dir).ok();
    }
}
