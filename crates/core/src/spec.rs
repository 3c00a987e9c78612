//! Declarative backend construction — the bridge between a job
//! service's `JobSpec` and the concrete force backends.
//!
//! A multi-tenant server cannot hold `TreeGrape` vs. `ClusterTreeGrape`
//! generics in its job table; it holds a [`BackendSpec`] (a plain
//! value describing *which* backend at *what* operating point) and
//! builds an [`AnyBackend`] from it each time the job is scheduled
//! onto a worker. `AnyBackend` dispatches [`ForceBackend`] to the
//! inner backend and gives the server the two uniform operations a
//! checkpointed fleet needs: write a crash-atomic manifest capturing
//! whatever fault/lifecycle state the backend carries
//! ([`AnyBackend::checkpoint`]), and re-arm a freshly built backend
//! from a parsed manifest ([`AnyBackend::restore`]).

use crate::backends::{ForceBackend, ForceError, ForceSet, TreeGrape, TreeGrapeConfig};
use crate::checkpoint::{Checkpoint, Checkpointer};
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
    /// when one is configured.
    pub fn build(&self) -> AnyBackend {
        self.build_with_shards(None)
    }

    /// Build with an explicit shard count override — used when resuming
    /// a cluster checkpoint whose alive-shard count differs from the
    /// spec (a shard died and its particles were re-owned mid-run).
    pub fn build_with_shards(&self, shards_override: Option<usize>) -> AnyBackend {
        match self.kind {
            BackendKind::Tree => {
                let mut b = TreeGrape::new(self.tree_grape_config());
                if let Some(f) = self.fault {
                    b.grape_mut().set_fault_injector(f);
                }
                AnyBackend::Tree(Box::new(b))
            }
            BackendKind::Cluster { shards } => {
                let shards = shards_override.unwrap_or(shards);
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
    /// Write a crash-atomic checkpoint through `ck`, capturing the
    /// backend family's full resumable state: fault-injector words for
    /// a single device; alive-shard count, per-shard fault words and
    /// lifecycle supervisor state for a cluster.
    pub fn checkpoint(
        &mut self,
        ck: &Checkpointer,
        snap: &g5ic::Snapshot,
        time: f64,
        step: u64,
    ) -> io::Result<PathBuf> {
        match self {
            AnyBackend::Tree(b) => {
                let words = b.grape_mut().fault_state_words();
                ck.write(snap, time, step, words.as_deref())
            }
            AnyBackend::Cluster(b) => {
                let lc = b.lifecycle_state();
                ck.write_cluster(snap, time, step, b.alive_shards(), &b.fault_states(), Some(&lc))
            }
        }
    }

    /// Re-arm a freshly built backend from a parsed manifest so the
    /// resumed run replays the exact fault schedule and (for clusters)
    /// lifecycle decisions the interrupted run would have seen.
    pub fn restore(&mut self, ckpt: &Checkpoint) -> io::Result<()> {
        let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
        match self {
            AnyBackend::Tree(b) => {
                if let Some(words) = &ckpt.fault_state {
                    b.grape_mut()
                        .restore_fault_state(words)
                        .map_err(|e| bad(format!("fault-state restore failed: {e}")))?;
                }
            }
            AnyBackend::Cluster(b) => {
                for (slot, words) in &ckpt.shard_fault_states {
                    b.restore_fault_state(*slot, words)
                        .map_err(|e| bad(format!("shard {slot} fault restore failed: {e}")))?;
                }
                if let Some(lc) = &ckpt.lifecycle {
                    b.restore_lifecycle(lc);
                }
            }
        }
        Ok(())
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

    /// Recovery totals across the whole backend (merged over shards for
    /// a cluster).
    pub fn total_recovery(&self) -> RecoveryStats {
        match self {
            AnyBackend::Tree(b) => b.recovery_stats().unwrap_or_default(),
            AnyBackend::Cluster(b) => b.cluster_recovery_stats(),
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

    fn roundtrip_spec(spec: BackendSpec, dir: &Path) {
        let snap = ic(128, 9);
        let steps_total = 8u64;
        let dt = 0.01;

        let mut full = Simulation::try_new(snap.clone(), spec.build(), 0.0).unwrap();
        full.try_run(dt, steps_total).unwrap();

        // run half, checkpoint through the uniform dispatch, rebuild +
        // restore, finish — must match the uninterrupted run bitwise
        let mut first = Simulation::try_new(snap, spec.build(), 0.0).unwrap();
        first.try_run(dt, 4).unwrap();
        let ck = Checkpointer::new(dir, 1).unwrap().with_job_id("spec-rt");
        let (state, time, steps) = (first.state.clone(), first.time, first.steps);
        first.backend_mut().checkpoint(&ck, &state, time, steps).unwrap();

        let got = crate::checkpoint::latest_for_job(dir, "spec-rt").unwrap().unwrap();
        let (state, time) = got.load_snapshot().unwrap();
        let mut backend = spec.build_with_shards(got.shards);
        backend.restore(&got).unwrap();
        let mut resumed = Simulation::resume(state, backend, time, got.step).unwrap();
        resumed.try_run(dt, steps_total - got.step).unwrap();

        assert_eq!(resumed.state.pos, full.state.pos, "{spec:?} diverged");
        assert_eq!(resumed.state.vel, full.state.vel);
    }

    #[test]
    fn spec_checkpoint_restore_is_bit_identical_tree() {
        let dir = tmpdir("tree_faulty");
        let fault = FaultConfig { transient_rate: 0.05, ..FaultConfig::none(77) };
        roundtrip_spec(BackendSpec::tree(0.02).with_fault(fault), &dir);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn spec_checkpoint_restore_is_bit_identical_cluster() {
        let dir = tmpdir("cluster_faulty");
        let fault = FaultConfig { transient_rate: 0.05, ..FaultConfig::none(78) };
        roundtrip_spec(BackendSpec::cluster(0.02, 2).with_fault(fault), &dir);
        std::fs::remove_dir_all(dir).ok();
    }
}
