//! Interchangeable force backends.
//!
//! Every backend maps a particle snapshot to per-particle acceleration
//! and (positive) potential, and reports how many pairwise interactions
//! it evaluated — the quantity the paper's Gflops accounting is built
//! on. The four backends reproduce the paper's comparison axes:
//!
//! | backend | algorithm | arithmetic | role |
//! |---|---|---|---|
//! | [`DirectHost`] | O(N²) | `f64` | exact reference |
//! | [`DirectGrape`] | O(N²) | GRAPE-5 | hardware-error baseline, peak-speed runs |
//! | [`TreeHost`] | tree (modified or original) | `f64` | algorithm-error reference |
//! | [`TreeGrape`] | modified tree | GRAPE-5 | **the paper's system** |

use crate::checkpoint::{invalid, ResumeState};
use crate::engine::Engine;
use crate::perf::PhaseTimers;
use g5tree::eval::{self, PointForce};
use g5tree::plan::{PlanConfig, PlanError, PlanPool};
use g5tree::traverse::Traversal;
use g5tree::tree::{Tree, TreeConfig};
use g5util::counters::InteractionTally;
use g5util::vec3::Vec3;
use grape5::{
    bounding_window, ClockAccounting, DeviceError, DeviceSession, Grape5, Grape5Config,
    RecoveryStats, RetryPolicy,
};
use serde::{Deserialize, Serialize};
use std::io;
use std::time::Instant;

/// Why a force evaluation failed: the host-side plan pipeline broke, or
/// the device exhausted its recovery options. Either way the snapshot
/// is untouched — the step can be retried or the run checkpointed.
#[derive(Debug, Clone, PartialEq)]
pub enum ForceError {
    /// A tree-traversal producer failed (panic surfaced as a value).
    Plan(PlanError),
    /// The GRAPE layer gave up after retries/quarantine.
    Device(DeviceError),
    /// A shard's whole evaluation thread panicked (caught at the thread
    /// boundary). The cluster backend classifies this shard-fatal: the
    /// shard is killed and its particles re-owned by the survivors,
    /// exactly like a dead device.
    ShardPanic(String),
}

impl std::fmt::Display for ForceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForceError::Plan(e) => write!(f, "{e}"),
            ForceError::Device(e) => write!(f, "{e}"),
            ForceError::ShardPanic(msg) => {
                write!(f, "shard evaluation thread panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for ForceError {}

impl From<PlanError> for ForceError {
    fn from(e: PlanError) -> Self {
        ForceError::Plan(e)
    }
}

impl From<DeviceError> for ForceError {
    fn from(e: DeviceError) -> Self {
        ForceError::Device(e)
    }
}

/// Per-particle output of one force computation.
#[derive(Debug, Clone, Default)]
pub struct ForceSet {
    /// Accelerations, in input order.
    pub acc: Vec<Vec3>,
    /// Positive potentials `Σ m_j/r`, in input order.
    pub pot: Vec<f64>,
    /// Pairwise-interaction statistics of this evaluation.
    pub tally: InteractionTally,
    /// Measured wall-clock split of this evaluation.
    pub timers: PhaseTimers,
}

impl ForceSet {
    pub(crate) fn zeros(n: usize) -> ForceSet {
        ForceSet {
            acc: vec![Vec3::ZERO; n],
            pot: vec![0.0; n],
            tally: InteractionTally::default(),
            timers: PhaseTimers::default(),
        }
    }

    fn from_point_forces(f: Vec<PointForce>, tally: InteractionTally) -> ForceSet {
        ForceSet {
            acc: f.iter().map(|p| p.acc).collect(),
            pot: f.iter().map(|p| p.pot).collect(),
            tally,
            timers: PhaseTimers::default(),
        }
    }
}

/// A gravitational force calculator.
pub trait ForceBackend {
    /// Compute accelerations and potentials for the snapshot,
    /// surfacing plan/device failures as values. Device-backed
    /// implementations validate and recover behind this call; an `Err`
    /// means recovery was exhausted and the snapshot is untouched.
    fn try_compute(&mut self, pos: &[Vec3], mass: &[f64]) -> Result<ForceSet, ForceError>;

    /// Compute accelerations and potentials for the snapshot,
    /// panicking on unrecoverable failure.
    fn compute(&mut self, pos: &[Vec3], mass: &[f64]) -> ForceSet {
        self.try_compute(pos, mass)
            .unwrap_or_else(|e| panic!("unrecoverable force evaluation failure: {e}"))
    }

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// GRAPE-side hardware accounting since construction/reset, if this
    /// backend drives the hardware.
    fn grape_accounting(&self) -> Option<ClockAccounting> {
        None
    }

    /// Accumulated fault-recovery actions, if this backend validates
    /// and recovers device output.
    fn recovery_stats(&self) -> Option<RecoveryStats> {
        None
    }

    /// What a checkpoint must carry, beyond the particles, for this
    /// backend to resume bit-identically. A host backend carries none.
    fn resume_state(&self) -> ResumeState {
        ResumeState::default()
    }

    /// Re-arm a freshly built backend (fault injectors armed as for the
    /// interrupted run) from a checkpoint's resume state, so the resumed
    /// run replays the fault schedule and supervisor decisions the
    /// interrupted one would have seen. State this backend family does
    /// not own is `InvalidData`; a host backend owns none.
    fn restore(&mut self, state: &ResumeState) -> io::Result<()> {
        if *state == ResumeState::default() {
            Ok(())
        } else {
            Err(invalid(format!("{} carries no resume state", self.name())))
        }
    }
}

// ----------------------------------------------------------------------
// Direct summation on the host
// ----------------------------------------------------------------------

/// Exact O(N²) summation in `f64` on the host.
#[derive(Debug, Clone)]
pub struct DirectHost {
    /// Softening length ε.
    pub eps: f64,
}

impl DirectHost {
    /// Create with softening ε.
    pub fn new(eps: f64) -> Self {
        assert!(eps >= 0.0, "negative softening");
        DirectHost { eps }
    }
}

impl ForceBackend for DirectHost {
    fn try_compute(&mut self, pos: &[Vec3], mass: &[f64]) -> Result<ForceSet, ForceError> {
        let t = Instant::now();
        let f = eval::direct_forces(pos, mass, self.eps);
        let n = pos.len() as u64;
        let tally = InteractionTally { interactions: n * n, terms: n * n, lists: n };
        let mut out = ForceSet::from_point_forces(f, tally);
        out.timers.force_wall_s = t.elapsed().as_secs_f64();
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "direct-host"
    }
}

// ----------------------------------------------------------------------
// Direct summation on GRAPE
// ----------------------------------------------------------------------

/// i-particles [`DirectGrape`] sends per device call.
const I_CHUNK: usize = 2048;

/// O(N²) summation through the simulated GRAPE-5 — every particle is a
/// j-particle for every i-particle. This is how the hardware's peak
/// throughput is demonstrated (E5) and how its ≈ 0.3 % pairwise error
/// enters a whole-system force.
pub struct DirectGrape {
    g5: Grape5,
    eps: f64,
    /// Retry/quarantine escalation for the validated path.
    pub retry: RetryPolicy,
    recovery: RecoveryStats,
}

impl DirectGrape {
    /// Open a GRAPE with the given configuration and softening.
    pub fn new(cfg: Grape5Config, eps: f64) -> Self {
        assert!(eps >= 0.0, "negative softening");
        let mut g5 = Grape5::open(cfg);
        g5.set_eps(eps);
        DirectGrape { g5, eps, retry: RetryPolicy::default(), recovery: RecoveryStats::default() }
    }

    /// Access the underlying device (e.g. for accounting resets or
    /// fault-injection arming).
    pub fn grape_mut(&mut self) -> &mut Grape5 {
        &mut self.g5
    }
}

impl ForceBackend for DirectGrape {
    fn try_compute(&mut self, pos: &[Vec3], mass: &[f64]) -> Result<ForceSet, ForceError> {
        assert_eq!(pos.len(), mass.len(), "position/mass length mismatch");
        let t_all = Instant::now();
        let mut session =
            DeviceSession::try_open(&mut self.g5, pos, self.eps)?.with_retry(self.retry);

        let n = pos.len();
        let mut out = ForceSet::zeros(n);
        // j fits memory: load once, stream i chunks; otherwise the
        // session chunks j through memory per i-chunk.
        let resident = n <= session.jmem_capacity();
        if resident {
            session.load_j(pos, mass);
        }
        let mut failure = None;
        for start in (0..n).step_by(I_CHUNK) {
            let end = (start + I_CHUNK).min(n);
            let forces = if resident {
                // the chunk is the resident set's run from `start`: its
                // own pairs are evaluated once (DESIGN.md, "pair blocks")
                session.try_force_on_run(&pos[start..end], start)
            } else {
                session.try_force_for(pos, mass, &pos[start..end])
            };
            match forces {
                Ok(forces) => {
                    for (k, f) in forces.into_iter().enumerate() {
                        out.acc[start + k] = f.acc;
                        out.pot[start + k] = f.pot;
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        self.recovery = self.recovery.merged(session.recovery_stats());
        if let Some(e) = failure {
            return Err(e.into());
        }
        out.tally = InteractionTally {
            interactions: (n as u64) * (n as u64),
            terms: (n as u64) * (n as u64),
            lists: n as u64,
        };
        out.timers.device_s = t_all.elapsed().as_secs_f64();
        out.timers.force_wall_s = out.timers.device_s;
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "direct-grape"
    }

    fn grape_accounting(&self) -> Option<ClockAccounting> {
        Some(self.g5.accounting())
    }

    fn recovery_stats(&self) -> Option<RecoveryStats> {
        Some(self.recovery)
    }
}

// ----------------------------------------------------------------------
// Treecode on the host
// ----------------------------------------------------------------------

/// Which traversal the host treecode uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TreeAlgorithm {
    /// Barnes & Hut 1986: one list per particle.
    Original,
    /// Barnes 1990 (the paper's §3): one shared list per group.
    Modified,
}

/// Treecode evaluated in `f64` on the host.
#[derive(Debug, Clone)]
pub struct TreeHost {
    /// Opening-angle accuracy parameter θ.
    pub theta: f64,
    /// Group size n_crit (modified algorithm only).
    pub n_crit: usize,
    /// Softening length ε.
    pub eps: f64,
    /// Traversal variant.
    pub algorithm: TreeAlgorithm,
    /// Octree build parameters.
    pub tree_config: TreeConfig,
}

impl TreeHost {
    /// Modified-algorithm host treecode (the paper's default host path).
    ///
    /// Panics unless `leaf_capacity <= n_crit`: a leaf larger than
    /// `n_crit` cannot be split into groups, so the group-size knob
    /// would silently stop binding (see `Traversal::find_groups`).
    pub fn modified(theta: f64, n_crit: usize, eps: f64) -> Self {
        let tree_config = TreeConfig::default();
        assert!(
            tree_config.leaf_capacity <= n_crit,
            "leaf_capacity {} > n_crit {n_crit}: groups could not honor n_crit",
            tree_config.leaf_capacity
        );
        TreeHost { theta, n_crit, eps, algorithm: TreeAlgorithm::Modified, tree_config }
    }

    /// Original-algorithm host treecode.
    pub fn original(theta: f64, eps: f64) -> Self {
        TreeHost {
            theta,
            n_crit: 1,
            eps,
            algorithm: TreeAlgorithm::Original,
            tree_config: TreeConfig::default(),
        }
    }
}

impl ForceBackend for TreeHost {
    fn try_compute(&mut self, pos: &[Vec3], mass: &[f64]) -> Result<ForceSet, ForceError> {
        let t_all = Instant::now();
        let tree = Tree::build_with(pos, mass, self.tree_config);
        let build_s = t_all.elapsed().as_secs_f64();
        let tr = Traversal::new(self.theta);
        let mut out = match self.algorithm {
            TreeAlgorithm::Original => {
                let f = eval::tree_forces_original(&tree, self.theta, self.eps);
                let tally = tr.original_tally(&tree);
                ForceSet::from_point_forces(f, tally)
            }
            TreeAlgorithm::Modified => {
                let f = eval::tree_forces_modified(&tree, self.theta, self.n_crit, self.eps);
                let tally = tr.modified_tally(&tree, self.n_crit);
                ForceSet::from_point_forces(f, tally)
            }
        };
        out.timers.build_s = build_s;
        out.timers.force_wall_s = t_all.elapsed().as_secs_f64();
        // walk + f64 evaluation are fused on the host: everything past
        // the build is "traverse"
        out.timers.traverse_s = out.timers.force_wall_s - build_s;
        Ok(out)
    }

    fn name(&self) -> &'static str {
        match self.algorithm {
            TreeAlgorithm::Original => "tree-host-original",
            TreeAlgorithm::Modified => "tree-host-modified",
        }
    }
}

// ----------------------------------------------------------------------
// The paper's system: modified treecode on GRAPE-5
// ----------------------------------------------------------------------

/// When [`TreeGrape`] rebuilds its octree versus refreshing the one it
/// already has.
///
/// A *refresh* keeps the topology, Morton order, and group partition of
/// the last full build and only re-accumulates moments from the current
/// positions (`Tree::refresh`); traversal inflates every group sphere
/// by the accumulated drift bound so MAC decisions stay conservative.
/// This is the GRAPE-host playbook of amortizing tree work across
/// steps: a refresh costs a fraction of a build, at the price of
/// slightly longer lists as drift accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefreshPolicy {
    /// Full rebuilds happen every `interval` force evaluations; the
    /// `interval - 1` evaluations in between refresh the frozen
    /// topology. `1` rebuilds every step — bit-identical to the
    /// pre-refresh backend.
    pub interval: u32,
    /// Safety valve: an early rebuild triggers when the accumulated
    /// drift bound exceeds this fraction of the root cell's half-width,
    /// whatever the interval says.
    pub max_drift_frac: f64,
}

impl Default for RefreshPolicy {
    fn default() -> Self {
        RefreshPolicy { interval: 1, max_drift_frac: 0.05 }
    }
}

impl RefreshPolicy {
    /// Rebuild every `k` evaluations (refresh in between), with the
    /// default drift valve.
    pub fn every(k: u32) -> Self {
        assert!(k >= 1, "refresh interval must be positive");
        RefreshPolicy { interval: k, ..RefreshPolicy::default() }
    }
}

/// Configuration of the [`TreeGrape`] backend.
#[derive(Debug, Clone, Copy)]
pub struct TreeGrapeConfig {
    /// Opening-angle accuracy parameter θ (paper: ≈ 0.75).
    pub theta: f64,
    /// Group size n_crit = n_g (paper's optimum: ≈ 2000).
    pub n_crit: usize,
    /// Softening length ε.
    pub eps: f64,
    /// The simulated hardware.
    pub grape: Grape5Config,
    /// Octree build parameters.
    pub tree_config: TreeConfig,
    /// Streaming-pipeline scheduling (workers and channel depth).
    pub plan: PlanConfig,
    /// Retry/quarantine escalation for the validated device path.
    pub retry: RetryPolicy,
    /// Tree reuse across force evaluations.
    pub refresh: RefreshPolicy,
}

impl TreeGrapeConfig {
    /// The paper's operating point on the paper's hardware, with `f64`
    /// pipeline arithmetic for speed (use [`Grape5Config::paper`] in
    /// `grape` for bit-faithful runs).
    pub fn paper(eps: f64) -> Self {
        TreeGrapeConfig {
            theta: 0.75,
            n_crit: 2000,
            eps,
            grape: Grape5Config::paper_exact(),
            tree_config: TreeConfig::default(),
            plan: PlanConfig::default(),
            retry: RetryPolicy::default(),
            refresh: RefreshPolicy::default(),
        }
    }
}

/// Barnes' modified treecode with force evaluation on GRAPE-5 — the
/// system the paper benchmarks.
///
/// Per step: build the octree on the host, partition into groups of
/// ≤ n_crit particles, then *stream* the per-group shared interaction
/// lists from plan workers through a bounded channel into the device
/// ([`g5tree::plan`]): while GRAPE evaluates the `members × list_len`
/// pairwise terms of one group, worker threads are already walking the
/// tree for the next ones. `cfg.plan` selects the scheduling;
/// [`PlanConfig::serial`] is the in-order single-thread reference,
/// bit-identical in exact arithmetic.
pub struct TreeGrape {
    /// Operating parameters.
    pub cfg: TreeGrapeConfig,
    g5: Grape5,
    recovery: RecoveryStats,
    /// The step body shared with every cluster shard: cached tree,
    /// groups, streaming pool.
    engine: Engine,
    /// Force evaluations served by the cached topology.
    tree_age: u32,
}

impl TreeGrape {
    /// Open the simulated hardware with the given configuration.
    ///
    /// Panics unless `tree_config.leaf_capacity <= n_crit`: a leaf
    /// larger than `n_crit` cannot be split into groups, so the
    /// group-size knob would silently stop binding.
    pub fn new(cfg: TreeGrapeConfig) -> Self {
        assert!(
            cfg.tree_config.leaf_capacity <= cfg.n_crit,
            "leaf_capacity {} > n_crit {}: groups could not honor n_crit",
            cfg.tree_config.leaf_capacity,
            cfg.n_crit
        );
        assert!(cfg.refresh.interval >= 1, "refresh interval must be positive");
        let mut g5 = Grape5::open(cfg.grape);
        g5.set_eps(cfg.eps);
        TreeGrape {
            cfg,
            g5,
            recovery: RecoveryStats::default(),
            engine: Engine::default(),
            tree_age: 0,
        }
    }

    /// Access the underlying device (accounting, range inspection,
    /// fault-injection arming).
    pub fn grape_mut(&mut self) -> &mut Grape5 {
        &mut self.g5
    }

    /// GRAPE accounting snapshot.
    pub fn accounting(&self) -> ClockAccounting {
        self.g5.accounting()
    }

    /// The streaming buffer pool (its `minted` counter is the
    /// zero-allocation invariant in observable form).
    pub fn plan_pool(&self) -> &PlanPool {
        self.engine.pool()
    }

    /// Evaluations served by the current tree topology (1 right after a
    /// full build, counting up between rebuilds).
    pub fn tree_age(&self) -> u32 {
        self.tree_age
    }

    /// Bring the cached tree up to date with the snapshot: refresh the
    /// frozen topology when the policy allows it, rebuild otherwise.
    /// Returns `(build_s, refresh_s)` — exactly one is nonzero.
    fn update_tree(&mut self, pos: &[Vec3], mass: &[f64]) -> (f64, f64) {
        let policy = self.cfg.refresh;
        let t0 = Instant::now();
        if self.tree_age < policy.interval && self.engine.refresh(pos, mass, policy.max_drift_frac)
        {
            self.tree_age += 1;
            return (0.0, t0.elapsed().as_secs_f64());
        }
        // a refresh that blew the drift valve is discarded and this
        // step pays for it on top of the fresh build
        self.engine.rebuild(pos, mass, &self.cfg);
        self.tree_age = 1;
        (t0.elapsed().as_secs_f64(), 0.0)
    }
}

impl ForceBackend for TreeGrape {
    fn try_compute(&mut self, pos: &[Vec3], mass: &[f64]) -> Result<ForceSet, ForceError> {
        assert_eq!(pos.len(), mass.len(), "position/mass length mismatch");
        if pos.is_empty() {
            return Ok(ForceSet::zeros(0)); // no particle, no tree to build
        }
        bounding_window(pos)?; // a non-finite position: typed, before the tree meets it
        let t_all = Instant::now();
        let (build_s, refresh_s) = self.update_tree(pos, mass);
        let mut out = ForceSet::zeros(pos.len());
        let eval =
            self.engine.evaluate(&mut self.g5, &[], pos, &self.cfg, &mut out.acc, &mut out.pot);
        self.recovery = self.recovery.merged(eval.recovery);
        if let Some(e) = eval.err {
            return Err(e);
        }
        out.tally = eval.tally;
        out.timers = PhaseTimers {
            build_s,
            refresh_s,
            force_wall_s: t_all.elapsed().as_secs_f64(),
            ..eval.timers
        };
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "tree-grape"
    }

    fn grape_accounting(&self) -> Option<ClockAccounting> {
        Some(self.g5.accounting())
    }

    fn recovery_stats(&self) -> Option<RecoveryStats> {
        Some(self.recovery)
    }

    /// The device's fault-injector words.
    fn resume_state(&self) -> ResumeState {
        ResumeState { fault_state: self.g5.fault_state_words(), ..ResumeState::default() }
    }

    /// The device's fault-injector words, and nothing of a cluster.
    fn restore(&mut self, state: &ResumeState) -> io::Result<()> {
        let cluster = state.shards.is_some() || state.lifecycle.is_some();
        if cluster || !state.shard_fault_states.is_empty() {
            return Err(invalid(format!("cluster resume state for {}", self.name())));
        }
        if let Some(words) = &state.fault_state {
            self.g5
                .restore_fault_state(words)
                .map_err(|e| invalid(format!("fault-state restore failed: {e}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g5ic::plummer_sphere;
    use g5tree::eval::rms_relative_error;
    use rand::SeedableRng;

    fn plummer(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let s = plummer_sphere(n, &mut rng);
        (s.pos, s.mass)
    }

    fn to_point(fs: &ForceSet) -> Vec<PointForce> {
        fs.acc.iter().zip(&fs.pot).map(|(&a, &p)| PointForce { acc: a, pot: p }).collect()
    }

    #[test]
    fn direct_host_matches_eval_direct() {
        let (pos, mass) = plummer(200, 1);
        let mut b = DirectHost::new(0.01);
        let fs = b.compute(&pos, &mass);
        assert_eq!(fs.tally.interactions, 200 * 200);
        let reference = eval::direct_forces(&pos, &mass, 0.01);
        for (a, r) in fs.acc.iter().zip(&reference) {
            assert_eq!(*a, r.acc);
        }
    }

    #[test]
    fn direct_grape_exact_mode_close_to_host() {
        let (pos, mass) = plummer(300, 2);
        let mut host = DirectHost::new(0.01);
        let mut grape = DirectGrape::new(Grape5Config::paper_exact(), 0.01);
        let fh = host.compute(&pos, &mass);
        let fg = grape.compute(&pos, &mass);
        // only position quantization separates them: tiny error
        let e = rms_relative_error(&to_point(&fg), &to_point(&fh));
        assert!(e < 1e-5, "exact-mode GRAPE rms err {e}");
        assert!(grape.grape_accounting().unwrap().interactions >= 300 * 300);
    }

    #[test]
    fn direct_grape_lns_mode_has_hardware_error() {
        let (pos, mass) = plummer(300, 3);
        let mut host = DirectHost::new(0.01);
        let mut grape = DirectGrape::new(Grape5Config::paper(), 0.01);
        let fh = host.compute(&pos, &mass);
        let fg = grape.compute(&pos, &mass);
        let e = rms_relative_error(&to_point(&fg), &to_point(&fh));
        // whole-force error is *below* the 0.3% pairwise error thanks to
        // random error cancellation over the sum, but clearly nonzero
        assert!(e > 1e-5 && e < 0.01, "LNS-mode GRAPE rms err {e}");
    }

    #[test]
    fn tree_host_modified_close_to_direct() {
        let (pos, mass) = plummer(1500, 4);
        let mut direct = DirectHost::new(0.01);
        let mut tree = TreeHost::modified(0.6, 64, 0.01);
        let fd = direct.compute(&pos, &mass);
        let ft = tree.compute(&pos, &mass);
        let e = rms_relative_error(&to_point(&ft), &to_point(&fd));
        assert!(e < 0.005, "tree-host rms err {e}");
        assert!(ft.tally.interactions < fd.tally.interactions);
    }

    #[test]
    fn tree_grape_matches_tree_host_in_exact_mode() {
        let (pos, mass) = plummer(1000, 5);
        let mut th = TreeHost::modified(0.75, 100, 0.02);
        let cfg = TreeGrapeConfig {
            theta: 0.75,
            n_crit: 100,
            eps: 0.02,
            grape: Grape5Config::paper_exact(),
            tree_config: TreeConfig::default(),
            plan: PlanConfig::default(),
            retry: RetryPolicy::default(),
            refresh: RefreshPolicy::default(),
        };
        let mut tg = TreeGrape::new(cfg);
        let fh = th.compute(&pos, &mass);
        let fg = tg.compute(&pos, &mass);
        // identical lists, identical tallies
        assert_eq!(fh.tally, fg.tally);
        let e = rms_relative_error(&to_point(&fg), &to_point(&fh));
        assert!(e < 1e-4, "tree-grape vs tree-host rms err {e}");
    }

    #[test]
    fn tree_grape_accounting_populated() {
        let (pos, mass) = plummer(500, 6);
        let mut tg = TreeGrape::new(TreeGrapeConfig { n_crit: 64, ..TreeGrapeConfig::paper(0.01) });
        let fs = tg.compute(&pos, &mass);
        let acc = tg.accounting();
        assert_eq!(acc.interactions, fs.tally.interactions);
        assert!(acc.pipeline_cycles > 0);
        assert!(acc.iface_words > 0);
        assert_eq!(acc.calls, fs.tally.lists);
    }

    #[test]
    fn streamed_pipeline_bit_identical_to_serial_plan() {
        let (pos, mass) = plummer(1200, 7);
        let base = TreeGrapeConfig { n_crit: 80, ..TreeGrapeConfig::paper(0.01) };
        let mut serial = TreeGrape::new(TreeGrapeConfig { plan: PlanConfig::serial(), ..base });
        let fs = serial.compute(&pos, &mass);
        for (workers, depth) in [(1, 1), (2, 2), (4, 8)] {
            let mut streamed = TreeGrape::new(TreeGrapeConfig {
                plan: PlanConfig::overlapped(workers, depth),
                ..base
            });
            let fo = streamed.compute(&pos, &mass);
            assert_eq!(fs.acc, fo.acc, "workers {workers} depth {depth}");
            assert_eq!(fs.pot, fo.pot, "workers {workers} depth {depth}");
            assert_eq!(fs.tally, fo.tally, "workers {workers} depth {depth}");
        }
    }

    #[test]
    fn tree_grape_fills_phase_timers() {
        let (pos, mass) = plummer(800, 8);
        let mut tg = TreeGrape::new(TreeGrapeConfig { n_crit: 64, ..TreeGrapeConfig::paper(0.01) });
        let fs = tg.compute(&pos, &mass);
        let t = fs.timers;
        assert!(t.build_s > 0.0, "build not timed");
        assert!(t.traverse_s > 0.0, "traverse not timed");
        assert!(t.device_s > 0.0, "device not timed");
        assert!(t.force_wall_s >= t.build_s, "wall smaller than build");
    }

    #[test]
    fn tree_grape_recovers_transient_faults_bit_identically() {
        let (pos, mass) = plummer(800, 11);
        let base = TreeGrapeConfig {
            n_crit: 64,
            retry: RetryPolicy::no_wait(),
            ..TreeGrapeConfig::paper(0.01)
        };
        let mut clean = TreeGrape::new(base);
        let fc = clean.compute(&pos, &mass);
        assert!(!clean.recovery_stats().unwrap().any());

        let mut faulty = TreeGrape::new(base);
        faulty.grape_mut().set_fault_injector(grape5::FaultConfig::transient(21, 0.3));
        let ff = faulty.try_compute(&pos, &mass).unwrap();
        assert!(faulty.recovery_stats().unwrap().retries > 0, "no fault ever fired");
        assert_eq!(fc.acc, ff.acc);
        assert_eq!(fc.pot, ff.pot);
        assert_eq!(fc.tally, ff.tally);
    }

    #[test]
    fn backend_names() {
        assert_eq!(DirectHost::new(0.0).name(), "direct-host");
        assert_eq!(TreeHost::original(0.5, 0.0).name(), "tree-host-original");
        assert_eq!(TreeHost::modified(0.5, 8, 0.0).name(), "tree-host-modified");
    }

    #[test]
    #[should_panic(expected = "n_crit")]
    fn leaf_capacity_above_ncrit_rejected() {
        let _ = TreeGrape::new(TreeGrapeConfig { n_crit: 4, ..TreeGrapeConfig::paper(0.01) });
    }

    #[test]
    fn refresh_interval_one_is_bit_identical_across_steps() {
        // interval 1 must reproduce the old build-every-step backend
        // exactly, even though the tree is now cached between calls
        let (pos, mass) = plummer(900, 9);
        let base = TreeGrapeConfig { n_crit: 64, ..TreeGrapeConfig::paper(0.01) };
        let mut tg = TreeGrape::new(base);
        let first = tg.compute(&pos, &mass);
        let second = tg.compute(&pos, &mass);
        assert_eq!(first.acc, second.acc);
        assert_eq!(first.pot, second.pot);
        assert_eq!(tg.tree_age(), 1, "interval 1 must rebuild every step");
        assert_eq!(second.timers.refresh_s, 0.0);
    }

    #[test]
    fn refreshed_steps_reuse_topology_and_recycle_buffers() {
        let (pos, mass) = plummer(900, 10);
        let cfg = TreeGrapeConfig {
            n_crit: 64,
            refresh: RefreshPolicy::every(4),
            ..TreeGrapeConfig::paper(0.01)
        };
        let mut tg = TreeGrape::new(cfg);
        let fresh = tg.compute(&pos, &mass);
        assert_eq!(tg.tree_age(), 1);

        // unmoved particles: the refreshed tree is bitwise the built
        // tree, so forces are bit-identical to the fresh evaluation
        let refreshed = tg.compute(&pos, &mass);
        assert_eq!(tg.tree_age(), 2, "second call must refresh, not rebuild");
        assert!(refreshed.timers.refresh_s > 0.0);
        assert_eq!(refreshed.timers.build_s, 0.0);
        assert_eq!(fresh.acc, refreshed.acc);
        assert_eq!(fresh.pot, refreshed.pot);
        assert_eq!(fresh.tally, refreshed.tally);

        // steady state: the pool stops minting husks
        let minted = tg.plan_pool().minted();
        let _ = tg.compute(&pos, &mass);
        assert_eq!(tg.plan_pool().minted(), minted, "steady state must not mint");

        // the interval rolls over into a rebuild
        let _ = tg.compute(&pos, &mass);
        assert_eq!(tg.tree_age(), 4);
        let rolled = tg.compute(&pos, &mass);
        assert_eq!(tg.tree_age(), 1, "interval exhausted: full rebuild");
        assert!(rolled.timers.build_s > 0.0);
    }

    #[test]
    fn refresh_with_moved_particles_stays_close_to_fresh_build() {
        // leapfrog-ish motion: each call sees slightly drifted positions;
        // the refreshed tree must stay within tree-code error of a fresh
        // build because spheres are inflated by the drift bound
        let (pos, mass) = plummer(1200, 12);
        let base = TreeGrapeConfig { n_crit: 64, ..TreeGrapeConfig::paper(0.01) };
        let mut fresh = TreeGrape::new(base);
        let mut reused =
            TreeGrape::new(TreeGrapeConfig { refresh: RefreshPolicy::every(4), ..base });
        let mut moved = pos.clone();
        for step in 0..4 {
            let k = 1e-3 * (step as f64 + 1.0);
            for p in &mut moved {
                *p += Vec3::new(k, -0.5 * k, 0.25 * k);
            }
            let ff = fresh.compute(&moved, &mass);
            let fr = reused.compute(&moved, &mass);
            let e = rms_relative_error(&to_point(&fr), &to_point(&ff));
            assert!(e < 2e-3, "step {step}: refresh drifted {e} from fresh build");
        }
        assert!(reused.tree_age() > 1, "refresh path never engaged");
    }
}
