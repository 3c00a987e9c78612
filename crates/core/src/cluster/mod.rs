//! The cluster backend: K domain-decomposed trees over K simulated
//! GRAPE-5 devices, one per shard slot.
//!
//! This is the PC-GRAPE cluster configuration of the GRAPE-6A follow-up
//! work, folded into one process: the snapshot is partitioned into K
//! Morton-contiguous domains ([`g5tree::domain`]), each domain builds a
//! local octree and streams its group lists into its *own* simulated
//! device — the step body [`TreeGrape`](crate::backends::TreeGrape)
//! runs, once per shard (the crate-private `engine` module). Remote
//! mass enters as a local-essential-tree exchange resolved **per
//! group**: while a group's local list streams, the group's bounding
//! sphere walks every remote shard's tree with the same MAC
//! ([`g5tree::domain::let_terms_into`]) and the accepted cell
//! monopoles / opened bodies are appended to that group's j-list. The
//! remote terms a group sees are therefore resolved at the group's own
//! scale — not a coarse whole-domain import, which for adjacent Morton
//! slices degenerates to opening essentially every remote body. They
//! are *not* the terms the monolithic tree would have put on its list:
//! every shard tree is built on its own bounding cube
//! (`Tree::build_with_hint` frames the shard's particles), so its cells
//! and groups differ from the monolithic tree's and the lists come out
//! longer (`domain.let_inflation` in the benchmark). Shards evaluate
//! concurrently in scoped threads; on real hardware each shard is a
//! PC+GRAPE pair, so the cluster's critical path is the *slowest*
//! shard, which is what the `exp_cluster` harness reports.
//!
//! ## Equivalences and error bounds
//!
//! * **K = 1 is bit-identical to `TreeGrape`**: the single-shard
//!   decomposition is the identity permutation, so the one shard's
//!   engine is given the particles, the position window and the (empty)
//!   remote-tree list `TreeGrape`'s is — the same code makes the same
//!   device calls in the same order on the same words.
//! * **K > 1 stays at treecode accuracy**: every imported term was
//!   accepted by the same MAC against the receiving *group's* drift-
//!   inflated sphere — the exact acceptance test the monolithic
//!   traversal applies to its own distant cells (see
//!   [`g5tree::domain`] for the soundness argument).
//!
//! ## Shard loss
//!
//! Per-board faults inside a shard are absorbed by the
//! [`DeviceSession`](grape5::DeviceSession) retry/quarantine machinery.
//! When a shard's device is exhausted entirely (all boards quarantined)
//! or its evaluation thread panics, the backend marks the shard dead,
//! throws away the decomposition, and re-decomposes the snapshot over
//! the survivors — forces still come out of the same `try_compute`
//! call, one shard poorer. `tree_age` restarts at 1 on every
//! re-decomposition, so a drift bound accumulated against the old shard
//! boundaries can never survive into the new ones. The shard lifecycle
//! — probes, straggler deadlines, re-admission — is on [`ShardHealth`]
//! and [`LifecyclePolicy`].

use crate::backends::{ForceBackend, ForceError, ForceSet, TreeGrapeConfig};
use crate::checkpoint::ResumeState;
use crate::engine::{Engine, Evaluation};
use crate::perf::PhaseTimers;
use g5tree::domain::Decomposition;
use g5tree::tree::Tree;
use g5util::cores;
use g5util::vec3::Vec3;
use grape5::{bounding_window, ClockAccounting, DeviceError, Grape5, Grape5Config, RecoveryStats};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

mod decomposition;
mod lifecycle;

pub use lifecycle::{LifecyclePolicy, RecoveryLedger, ShardHealth};

/// Configuration of the [`ClusterTreeGrape`] backend: the single-device
/// operating point plus the shard count.
#[derive(Debug, Clone, Copy)]
pub struct ClusterTreeGrapeConfig {
    /// Per-shard treecode + device parameters (θ, n_crit, ε, hardware,
    /// streaming plan, retry policy, refresh policy). Every shard runs
    /// an identical device.
    pub base: TreeGrapeConfig,
    /// Number of domain shards (= devices) to open.
    pub shards: usize,
    /// Shard lifecycle supervision (probing + straggler deadlines).
    pub lifecycle: LifecyclePolicy,
}

impl ClusterTreeGrapeConfig {
    /// The paper's operating point on `shards` paper-configured
    /// devices, supervisor off, j-memory loads priced serially on the
    /// modeled device clock.
    pub fn paper(eps: f64, shards: usize) -> Self {
        ClusterTreeGrapeConfig {
            base: TreeGrapeConfig::paper(eps),
            shards,
            lifecycle: LifecyclePolicy::default(),
        }
    }

    /// [`paper`](Self::paper) on devices with double-buffered j-memory
    /// ([`grape5::Grape5Config::double_buffer_j`]): the modeled clock
    /// hides each group's j-load behind the previous group's pipeline
    /// run. That pricing is the only difference — the host schedule
    /// (LET walks beside or in front of the device calls) follows
    /// `base.plan` and the caller's share of the machine under either
    /// constructor, and forces, tallies and recorded hardware counters
    /// are bit-identical between them.
    pub fn paper_overlapped(eps: f64, shards: usize) -> Self {
        let mut cfg = Self::paper(eps, shards);
        cfg.base.grape.double_buffer_j = true;
        cfg
    }
}

/// Everything one shard slot owns: its device and lifecycle state, the
/// particles gathered into its domain with the step engine over them
/// (local tree, group partition, streaming pool), its last-evaluation
/// timers and output buffers, and what the supervisor measured of it.
/// Slot indices are stable for the backend's lifetime: a dead slot
/// keeps its record, fault injector included, until a probe re-admits
/// it.
struct Shard {
    g5: Grape5,
    health: ShardHealth,
    pos: Vec<Vec3>,
    mass: Vec<f64>,
    engine: Engine,
    timers: PhaseTimers,
    /// Dense per-shard force output, recycled across evaluations so a
    /// steady-state step allocates no result buffers (at flagship scale
    /// that is K shard-sized accelerations + potentials per step).
    acc: Vec<Vec3>,
    pot: Vec<f64>,
    /// Measured throughput (interactions per modeled device second),
    /// `0.0` until the slot has served an evaluation. Feeds the
    /// capacity weights of the next re-decomposition.
    rate: f64,
    /// Modeled-clock snapshot `(interactions, total seconds)` at the end
    /// of the previous evaluation, for per-evaluation deltas.
    prev_clock: (u64, f64),
    /// Recovery totals (the cluster-wide summary merges every slot's).
    recovery: RecoveryStats,
}

impl Shard {
    fn open(cfg: Grape5Config) -> Shard {
        Shard {
            g5: Grape5::open(cfg),
            health: ShardHealth::Alive,
            pos: Vec::new(),
            mass: Vec::new(),
            engine: Engine::default(),
            timers: PhaseTimers::default(),
            acc: Vec::new(),
            pot: Vec::new(),
            rate: 0.0,
            prev_clock: (0, 0.0),
            recovery: RecoveryStats::default(),
        }
    }

    /// The device's cumulative `(interactions, modeled seconds)`.
    fn clock(&self, grape: &Grape5Config) -> (u64, f64) {
        let acct = self.g5.accounting();
        (acct.interactions, acct.report(grape).total_s())
    }
}

/// What one shard's evaluation thread hands back to the assembler; the
/// forces are in the slot's own output buffers.
struct ShardOutcome {
    slot: usize,
    eval: Evaluation,
}

impl ShardOutcome {
    /// Outcome synthesized when a shard's evaluation thread panicked:
    /// no usable forces, a typed [`ForceError::ShardPanic`] that the
    /// assembler classifies shard-fatal (kill + re-decompose), exactly
    /// like a dead device.
    fn panicked(slot: usize, payload: Box<dyn std::any::Any + Send>) -> ShardOutcome {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        ShardOutcome {
            slot,
            eval: Evaluation { err: Some(ForceError::ShardPanic(msg)), ..Evaluation::default() },
        }
    }
}

/// Barnes' modified treecode, domain-decomposed over a pool of
/// GRAPE-5 devices — one local tree and one device per shard, remote
/// mass imported at MAC accuracy, whole-shard loss recovered by
/// re-decomposition over the survivors.
pub struct ClusterTreeGrape {
    /// Operating parameters.
    pub cfg: ClusterTreeGrapeConfig,
    /// One record per shard slot, in slot order.
    shards: Vec<Shard>,
    /// Cluster-wide recovery summary, merged as the evaluations come.
    recovery: RecoveryStats,
    /// Current partition, or `None` when the next evaluation must
    /// re-decompose (fresh backend, snapshot size change, shard death).
    decomp: Option<Decomposition>,
    /// Shard slots the current decomposition's domains map to,
    /// ascending: domain `d` lives on slot `live[d]`.
    live: Vec<usize>,
    /// Evaluations served by the current decomposition's trees (1 right
    /// after a (re)build, counting up between rebuilds).
    tree_age: u32,
    /// Evaluations completed — the supervisor's probe/deadline clock.
    evals: u64,
    /// Cut weights of the decomposition currently in force (domain
    /// order) — checkpointed so a resume replays the same cuts.
    cut_weights: Vec<u64>,
    ledger: RecoveryLedger,
    /// Morton order of the *previous* decomposition's sort — the warm
    /// start for the next re-sort ([`g5util::morton_sort`]'s
    /// incremental path). Falls back to a from-scratch sort whenever
    /// the snapshot size changes; either way the resulting order is
    /// bitwise the from-scratch order, so cuts are hint-independent.
    order_hint: Option<Vec<u32>>,
    /// Cut weights a checkpoint restore pinned for the replay
    /// evaluation, consumed by the first rebuild after the restore.
    replay_weights: Option<Vec<u64>>,
    /// True during the resume-recompute evaluation: the supervisor
    /// stands down (no eval counting, probes, rate updates, straggler
    /// re-execution, or ledger writes) so the replayed evaluation makes
    /// exactly the device calls the interrupted one made.
    replaying: bool,
    /// Test hook: slots whose next evaluation thread panics on entry —
    /// the deterministic drill for the panic-containment path.
    #[cfg(test)]
    panic_next_eval: Vec<usize>,
}

impl ClusterTreeGrape {
    /// Open `cfg.shards` simulated devices.
    ///
    /// Panics on a zero shard count, or unless
    /// `tree_config.leaf_capacity <= n_crit` (a leaf larger than
    /// `n_crit` cannot be split into groups).
    pub fn new(cfg: ClusterTreeGrapeConfig) -> Self {
        assert!(cfg.shards >= 1, "cluster needs at least one shard");
        assert!(
            cfg.base.tree_config.leaf_capacity <= cfg.base.n_crit,
            "leaf_capacity {} > n_crit {}: groups could not honor n_crit",
            cfg.base.tree_config.leaf_capacity,
            cfg.base.n_crit
        );
        assert!(cfg.base.refresh.interval >= 1, "refresh interval must be positive");
        ClusterTreeGrape {
            cfg,
            shards: (0..cfg.shards).map(|_| Shard::open(cfg.base.grape)).collect(),
            recovery: RecoveryStats::default(),
            decomp: None,
            live: Vec::new(),
            tree_age: 0,
            evals: 0,
            cut_weights: Vec::new(),
            ledger: RecoveryLedger::default(),
            order_hint: None,
            replay_weights: None,
            replaying: false,
            #[cfg(test)]
            panic_next_eval: Vec::new(),
        }
    }

    /// Total shard slots (alive + dead).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shards in service.
    pub fn alive_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.health.in_service()).count()
    }

    /// Evaluations served by the current decomposition (0 before the
    /// first, reset to 1 by every rebuild — including the forced
    /// rebuild after a shard boundary change).
    pub fn tree_age(&self) -> u32 {
        self.tree_age
    }

    /// The current partition, if one is live.
    pub fn decomposition(&self) -> Option<&Decomposition> {
        self.decomp.as_ref()
    }

    /// Clock accounting of shard `k` alone — the critical-path metric
    /// (max over shards) is derived from these.
    pub fn shard_accounting(&self, k: usize) -> ClockAccounting {
        self.shards[k].g5.accounting()
    }

    /// Last evaluation's per-shard timers, as `(slot, timers)` over the
    /// shards that took part.
    pub fn shard_timers(&self) -> Vec<(usize, PhaseTimers)> {
        self.live.iter().map(|&k| (k, self.shards[k].timers)).collect()
    }

    /// One scoped thread per live shard; each owns its device and its
    /// output buffers exclusively, reads the *other* shards' trees
    /// immutably (the in-line LET exchange), and writes a shard-local
    /// dense result, so no output cell is shared across threads. A panic
    /// anywhere in the evaluation is caught at the thread boundary and
    /// synthesized into a typed shard-fatal outcome — one shard's bug
    /// costs its shard, not the whole process. Outcomes come back in
    /// domain order.
    fn evaluate_live(&mut self, pos: &[Vec3]) -> Vec<ShardOutcome> {
        #[cfg(test)]
        let panic_slots = std::mem::take(&mut self.panic_next_eval);
        #[cfg(test)]
        let panic_slots = &panic_slots;
        let cfg = &self.cfg.base;
        let (trees, jobs) = split_live(&mut self.shards, &self.live);
        // A caller per shard (`g5util::cores`), all registered before the
        // first shard is spawned — so each sizes itself beside all of its
        // siblings from its first stream — and each released once its
        // thread is joined, never while it still exists.
        let callers: Vec<cores::Caller> = jobs.iter().map(|_| cores::enter()).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|job| {
                    let remote = remote_trees(&trees, job.slot);
                    scope.spawn(move || {
                        let slot = job.slot;
                        catch_unwind(AssertUnwindSafe(|| {
                            #[cfg(test)]
                            if panic_slots.contains(&slot) {
                                panic!("injected shard panic");
                            }
                            let Job { g5, engine, acc, pot, .. } = job;
                            let eval = shard_eval(g5, engine, &remote, pos, cfg, acc, pot);
                            ShardOutcome { slot, eval }
                        }))
                        .unwrap_or_else(|payload| ShardOutcome::panicked(slot, payload))
                    })
                })
                .collect();
            handles
                .into_iter()
                .zip(callers)
                .map(|(h, caller)| {
                    let outcome =
                        h.join().expect("shard evaluation thread panicked outside its guard");
                    drop(caller);
                    outcome
                })
                .collect()
        })
    }
}

/// One live slot, split for an evaluation pass: its device and output
/// buffers, borrowed exclusively, and its engine, shared with the
/// siblings that import its tree.
struct Job<'a> {
    slot: usize,
    g5: &'a mut Grape5,
    engine: &'a Engine,
    acc: &'a mut Vec<Vec3>,
    pot: &'a mut Vec<f64>,
}

/// Split the live slots' records for an evaluation pass, in domain
/// order: each slot's [`Job`], and every live slot's tree.
fn split_live<'a>(
    shards: &'a mut [Shard],
    live: &[usize],
) -> (Vec<(usize, &'a Tree)>, Vec<Job<'a>>) {
    let mut trees = Vec::with_capacity(live.len());
    let mut jobs = Vec::with_capacity(live.len());
    for (slot, s) in shards.iter_mut().enumerate().filter(|(k, _)| live.contains(k)) {
        let Shard { g5, engine, acc, pot, .. } = s;
        let engine: &Engine = engine;
        trees.push((slot, engine.tree().expect("live shard has a tree")));
        jobs.push(Job { slot, g5, engine, acc, pot });
    }
    (trees, jobs)
}

/// The trees shard `slot` imports remote mass from: every other live
/// shard's, in slot order.
fn remote_trees<'a>(trees: &[(usize, &'a Tree)], slot: usize) -> Vec<&'a Tree> {
    trees.iter().filter(|&&(k, _)| k != slot).map(|&(_, t)| t).collect()
}

/// One shard's force evaluation on device `g5`: the shard's step
/// engine, with every other live shard's tree as the remote mass
/// (`remote`) and the full snapshot as the quantization window, into
/// the dense buffers `acc` / `pot` (any length on entry).
fn shard_eval(
    g5: &mut Grape5,
    engine: &Engine,
    remote: &[&Tree],
    window_pos: &[Vec3],
    cfg: &TreeGrapeConfig,
    acc: &mut Vec<Vec3>,
    pot: &mut Vec<f64>,
) -> Evaluation {
    // the tree holds exactly the shard's gathered particles
    let n = engine.tree().expect("live shard has a tree").len();
    acc.clear();
    acc.resize(n, Vec3::ZERO);
    pot.clear();
    pot.resize(n, 0.0);
    engine.evaluate(g5, remote, window_pos, cfg, acc, pot)
}

impl ForceBackend for ClusterTreeGrape {
    fn try_compute(&mut self, pos: &[Vec3], mass: &[f64]) -> Result<ForceSet, ForceError> {
        assert_eq!(pos.len(), mass.len(), "position/mass length mismatch");
        if pos.is_empty() {
            return Ok(ForceSet::zeros(0)); // no particle, nothing to decompose
        }
        bounding_window(pos)?; // a non-finite position: typed, before any tree meets it
        let t_all = Instant::now();
        // Shards that must stay watched through this evaluation's
        // end-of-eval promotion: freshly probed-in hardware plus any
        // shard flagged below (quarantine activity, straggler).
        let mut flagged = self.supervise();
        loop {
            if self.alive_shards() == 0 {
                return Err(DeviceError::NoBoardsLeft.into());
            }
            let (decompose_s, build_s, refresh_s) = self.ensure_decomposition(pos, mass);
            let mut outcomes = self.evaluate_live(pos);
            let secs = self.measure(&outcomes);
            if self.triage(&outcomes, &mut flagged)? {
                continue; // a shard died: start over on the survivors
            }
            if let Some(factor) = self.cfg.lifecycle.straggler_factor {
                self.straggler_deadline(factor, &mut outcomes, &secs, pos, &mut flagged);
            }

            let decomp = self.decomp.as_ref().expect("evaluated with a decomposition");
            let mut out = ForceSet::zeros(pos.len());
            for (d, o) in outcomes.iter().enumerate() {
                let s = &mut self.shards[o.slot];
                for (j, &gi) in decomp.owned(d).iter().enumerate() {
                    out.acc[gi as usize] = s.acc[j];
                    out.pot[gi as usize] = s.pot[j];
                }
                out.tally = out.tally.merged(o.eval.tally);
                // this evaluation's tree update is already on the clock
                s.timers = PhaseTimers {
                    build_s: s.timers.build_s,
                    refresh_s: s.timers.refresh_s,
                    ..o.eval.timers
                };
            }
            // phase seconds sum over shards (CPU, not critical path)
            out.timers = PhaseTimers { build_s, refresh_s, decompose_s, ..PhaseTimers::default() };
            for o in &outcomes {
                out.timers.accumulate(&o.eval.timers);
            }
            out.timers.force_wall_s = t_all.elapsed().as_secs_f64();
            self.promote(&outcomes, &flagged);
            self.replaying = false;
            return Ok(out);
        }
    }

    fn name(&self) -> &'static str {
        "cluster-tree-grape"
    }

    fn grape_accounting(&self) -> Option<ClockAccounting> {
        Some(
            self.shards.iter().fold(ClockAccounting::default(), |a, s| a.merged(s.g5.accounting())),
        )
    }

    fn recovery_stats(&self) -> Option<RecoveryStats> {
        Some(self.recovery)
    }

    fn resume_state(&self) -> ResumeState {
        self.save_state()
    }

    fn restore(&mut self, state: &ResumeState) -> io::Result<()> {
        self.load_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::lifecycle::shard_fatal;
    use super::*;
    use crate::backends::{DirectHost, TreeGrape};
    use g5ic::plummer_sphere;
    use g5tree::eval::rms_relative_error;
    use g5tree::plan::PlanConfig;
    use grape5::{BoardDropout, FaultConfig, StuckPipe};
    use rand::SeedableRng;

    fn plummer(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let s = plummer_sphere(n, &mut rng);
        (s.pos, s.mass)
    }

    fn small_cfg(shards: usize) -> ClusterTreeGrapeConfig {
        let mut base = TreeGrapeConfig::paper(0.01);
        base.n_crit = 64;
        base.grape = Grape5Config::single_board();
        base.plan = PlanConfig::serial();
        ClusterTreeGrapeConfig { base, shards, lifecycle: LifecyclePolicy::default() }
    }

    #[test]
    fn k1_matches_treegrape_bit_for_bit() {
        // one engine, no remote trees: the same device calls whether
        // the plan runs inline or on producers, and the double-buffer
        // flag changes pricing, never counters
        let (pos, mass) = plummer(700, 11);
        let mut mono = TreeGrape::new(small_cfg(1).base);
        let a = mono.compute(&pos, &mass);
        for (plan, double_buffer_j) in
            [(PlanConfig::serial(), false), (PlanConfig::overlapped(2, 2), true)]
        {
            let mut cfg = small_cfg(1);
            cfg.base.plan = plan;
            cfg.base.grape.double_buffer_j = double_buffer_j;
            let mut cluster = ClusterTreeGrape::new(cfg);
            let b = cluster.compute(&pos, &mass);
            assert_eq!(a.acc, b.acc, "{plan:?}");
            assert_eq!(a.pot, b.pot, "{plan:?}");
            assert_eq!(a.tally, b.tally, "{plan:?}");
            assert_eq!(mono.accounting(), cluster.shard_accounting(0), "{plan:?}");
        }
    }

    #[test]
    fn sharded_forces_stay_at_treecode_accuracy() {
        let (pos, mass) = plummer(1500, 12);
        let exact = DirectHost { eps: 0.01 }.compute(&pos, &mass);
        let mut mono = TreeGrape::new(small_cfg(1).base);
        let fs1 = mono.compute(&pos, &mass);
        let tol = 3.0 * rms_relative_error(&to_pf(&exact), &to_pf(&fs1)).max(1e-4);
        for k in [2, 3, 4] {
            let mut cl = ClusterTreeGrape::new(small_cfg(k));
            let fsk = cl.compute(&pos, &mass);
            let err = rms_relative_error(&to_pf(&exact), &to_pf(&fsk));
            assert!(err < tol, "K={k} rms error {err} vs tolerance {tol}");
        }
    }

    fn to_pf(fs: &ForceSet) -> Vec<g5tree::eval::PointForce> {
        fs.acc
            .iter()
            .zip(&fs.pot)
            .map(|(&a, &p)| g5tree::eval::PointForce { acc: a, pot: p })
            .collect()
    }

    #[test]
    fn shard_kill_triggers_redecomposition_over_survivors() {
        let (pos, mass) = plummer(800, 13);
        let exact = DirectHost { eps: 0.01 }.compute(&pos, &mass);
        let mut cl = ClusterTreeGrape::new(small_cfg(3));
        let before = cl.compute(&pos, &mass);
        assert_eq!(cl.alive_shards(), 3);
        let tol = 3.0 * rms_relative_error(&to_pf(&exact), &to_pf(&before)).max(1e-4);
        cl.kill_shard(1);
        let after = cl.compute(&pos, &mass);
        assert_eq!(cl.alive_shards(), 2);
        assert_eq!(cl.decomposition().unwrap().shards(), 2);
        // survivors own everything; forces stay at treecode accuracy
        // (the K=2 boundaries differ from K=3, so compare to exact)
        let err = rms_relative_error(&to_pf(&exact), &to_pf(&after));
        assert!(err < tol, "post-kill rms error {err} vs tolerance {tol}");
    }

    #[test]
    fn tree_age_resets_on_redecomposition() {
        let (pos, mass) = plummer(600, 14);
        let mut cfg = small_cfg(3);
        cfg.base.refresh =
            crate::backends::RefreshPolicy { interval: 100, max_drift_frac: f64::INFINITY };
        let mut cl = ClusterTreeGrape::new(cfg);
        for _ in 0..4 {
            cl.compute(&pos, &mass);
        }
        assert_eq!(cl.tree_age(), 4);
        cl.kill_shard(0);
        cl.compute(&pos, &mass);
        assert_eq!(cl.tree_age(), 1, "re-decomposition must reset tree age");
        cl.compute(&pos, &mass);
        assert_eq!(cl.tree_age(), 2);
    }

    #[test]
    fn supervisor_off_is_bit_identical_to_supervised_noop() {
        // with every shard healthy and deadlines generous, an armed
        // supervisor must never change a force bit or write a ledger
        // event beyond the initial decomposition
        let (pos, mass) = plummer(600, 21);
        let mut plain = ClusterTreeGrape::new(small_cfg(3));
        let mut cfg = small_cfg(3);
        cfg.lifecycle = LifecyclePolicy { probe_interval: 2, straggler_factor: Some(1e9) };
        let mut watched = ClusterTreeGrape::new(cfg);
        for _ in 0..3 {
            let a = plain.compute(&pos, &mass);
            let b = watched.compute(&pos, &mass);
            assert_eq!(a.acc, b.acc);
            assert_eq!(a.pot, b.pot);
        }
        assert_eq!(watched.evals(), 3);
        assert_eq!(
            watched.ledger().events().len(),
            1,
            "only the initial decomposition may be on the ledger: {:?}",
            watched.ledger().events()
        );
        assert!(watched.ledger().events()[0].contains("decomposed over 3 shards"));
        assert!((0..3).all(|k| watched.shard_health(k) == Some(ShardHealth::Alive)));
    }

    #[test]
    fn probe_readmits_killed_shard_and_redecomposes() {
        let (pos, mass) = plummer(800, 22);
        let mut cfg = small_cfg(3);
        cfg.lifecycle.probe_interval = 3;
        let mut cl = ClusterTreeGrape::new(cfg);
        cl.compute(&pos, &mass); // eval 1
        cl.kill_shard(1);
        cl.compute(&pos, &mass); // eval 2: survivors re-own the domain
        assert_eq!(cl.alive_shards(), 2);
        assert_eq!(cl.decomposition().unwrap().shards(), 2);
        cl.compute(&pos, &mass); // eval 3: probe fires, shard 1 healthy -> readmitted
        assert_eq!(cl.alive_shards(), 3, "probe must re-admit the healthy killed shard");
        assert_eq!(cl.decomposition().unwrap().shards(), 3);
        assert_eq!(cl.shard_health(1), Some(ShardHealth::Readmitted));
        cl.compute(&pos, &mass); // eval 4: clean service promotes it
        assert_eq!(cl.shard_health(1), Some(ShardHealth::Alive));
        let events = cl.ledger().events();
        assert!(events.iter().any(|e| e.contains("shard 1 killed by operator")), "{events:?}");
        assert!(events.iter().any(|e| e.contains("shard 1 re-admitted by probe")), "{events:?}");
        // kill -> 2-shard decomposition -> readmit -> 3-shard again
        assert!(events.iter().filter(|e| e.contains("decomposed over")).count() >= 3, "{events:?}");
    }

    fn straggler_cl(pos: &[Vec3], mass: &[f64]) -> (ClusterTreeGrape, ForceSet) {
        let mut cfg = small_cfg(3);
        cfg.lifecycle.straggler_factor = Some(1.1);
        let mut cl = ClusterTreeGrape::new(cfg);
        // timing-only handicap: 15 of shard 1's 16 pipes out of
        // service, so its modeled eval time blows the 1.1 x median
        // deadline while its arithmetic stays exact
        for p in 0..15 {
            cl.shards[1].g5.quarantine_pipe(0, p);
        }
        let fs = cl.compute(pos, mass);
        (cl, fs)
    }

    #[test]
    fn straggler_deadline_fires_deterministically_and_recovers() {
        let (pos, mass) = plummer(900, 23);
        let exact = DirectHost { eps: 0.01 }.compute(&pos, &mass);
        let (cl, fs) = straggler_cl(&pos, &mass);
        assert_eq!(cl.shard_health(1), Some(ShardHealth::Degraded));
        let events = cl.ledger().events();
        assert!(
            events.iter().any(|e| e.contains("shard 1 straggled") && e.contains("re-executed")),
            "{events:?}"
        );
        // the survivor-recomputed forces are still treecode-accurate
        let err = rms_relative_error(&to_pf(&exact), &to_pf(&fs));
        assert!(err < 1e-2, "post-straggler rms error {err}");
        // a clean follow-up eval (handicap is timing-only, so shard 1
        // keeps straggling -> stays Degraded; the deadline decision is
        // pure modeled clock, so the rerun ledger is identical)
        let (cl2, fs2) = straggler_cl(&pos, &mass);
        assert_eq!(cl.ledger(), cl2.ledger(), "deadline must be deterministic");
        assert_eq!(fs.acc, fs2.acc);
    }

    #[test]
    fn board_loss_shifts_cut_weights() {
        let (pos, mass) = plummer(800, 24);
        let mut cfg = small_cfg(3);
        cfg.base.grape = Grape5Config::paper(); // 2 boards per shard
        let mut cl = ClusterTreeGrape::new(cfg);
        cl.compute(&pos, &mass);
        let n0 = cl.decomposition().unwrap().owned(1).len();
        // shard 1 loses one of its two boards; refresh interval 1 means
        // the next eval re-decomposes with fresh capacity weights
        cl.shards[1].g5.quarantine_board(0);
        cl.compute(&pos, &mass);
        let n1 = cl.decomposition().unwrap().owned(1).len();
        assert!(n1 < n0, "half the boards must shrink shard 1's domain ({n0} -> {n1})");
        let events = cl.ledger().events();
        assert!(
            events.iter().filter(|e| e.contains("decomposed over 3 shards")).count() >= 2,
            "weight change must re-decompose: {events:?}"
        );
    }

    #[test]
    fn double_buffer_pricing_hides_j_load_on_the_modeled_clock() {
        let (pos, mass) = plummer(900, 33);
        let mut cl = ClusterTreeGrape::new(small_cfg(2));
        cl.compute(&pos, &mass);
        let acct = cl.shard_accounting(0);
        assert!(acct.j_words > 0, "group j-lists must be tracked as j-loads");
        let serial_cfg = small_cfg(2).base.grape;
        let db_cfg = grape5::Grape5Config { double_buffer_j: true, ..serial_cfg };
        let serial = acct.report(&serial_cfg);
        let db = acct.report(&db_cfg);
        assert_eq!(serial.hidden_s, 0.0);
        assert!(db.hidden_s > 0.0);
        assert!(db.total_s() < serial.total_s(), "overlap must shorten the critical path");
        assert!(
            (serial.total_s() - db.total_s() - db.hidden_s).abs() < 1e-12,
            "the entire gain must be accounted j-load overlap"
        );
    }

    #[test]
    fn shard_panic_is_shard_fatal_and_survivors_reown() {
        let (pos, mass) = plummer(800, 35);
        let exact = DirectHost { eps: 0.01 }.compute(&pos, &mass);
        let mut cl = ClusterTreeGrape::new(small_cfg(3));
        cl.panic_next_eval = vec![1];
        let fs = cl.try_compute(&pos, &mass).expect("panic must be contained, not propagated");
        assert_eq!(cl.alive_shards(), 2, "panicked shard must be killed");
        assert_eq!(cl.decomposition().unwrap().shards(), 2);
        let events = cl.ledger().events();
        assert!(
            events
                .iter()
                .any(|e| e.contains("evaluation thread panicked") && e.contains("shard 1 killed")),
            "{events:?}"
        );
        // forces still came out, at treecode accuracy, from the survivors
        let err = rms_relative_error(&to_pf(&exact), &to_pf(&fs));
        assert!(err < 1e-2, "post-panic rms error {err}");
    }

    #[test]
    fn hinted_rebuilds_are_bit_identical_across_steps() {
        // every rebuild after the first reuses the previous Morton
        // order (decomposition hint + per-shard tree hints); a drifted
        // second step must still equal what a hint-less fresh backend
        // computes on the same snapshot
        let (pos, mass) = plummer(900, 37);
        let mut warm = ClusterTreeGrape::new(small_cfg(3));
        warm.compute(&pos, &mass);
        let mut drifted = pos.clone();
        for (i, p) in drifted.iter_mut().enumerate() {
            let k = 1e-3 * ((i % 7) as f64 - 3.0);
            *p += Vec3::new(k, -0.5 * k, 0.25 * k);
        }
        let a = warm.compute(&drifted, &mass); // hinted re-sort path
        let mut cold = ClusterTreeGrape::new(small_cfg(3));
        let b = cold.compute(&drifted, &mass); // from-scratch sort path
        assert_eq!(a.acc, b.acc);
        assert_eq!(a.pot, b.pot);
        assert_eq!(a.tally, b.tally);
    }

    #[test]
    fn timers_record_cluster_phases() {
        let (pos, mass) = plummer(500, 15);
        let mut cl = ClusterTreeGrape::new(small_cfg(2));
        let fs = cl.compute(&pos, &mass);
        assert!(fs.timers.decompose_s > 0.0);
        assert!(fs.timers.build_s > 0.0);
        assert!(fs.timers.device_s > 0.0);
        assert!(fs.timers.exchange_s > 0.0, "K=2 must walk remote trees");
        let per_shard = cl.shard_timers();
        assert_eq!(per_shard.len(), 2);
        assert!(per_shard.iter().all(|(_, t)| t.device_s > 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ClusterTreeGrape::new(small_cfg(0));
    }

    #[test]
    fn kill_is_idempotent_and_range_checked() {
        let mut cl = ClusterTreeGrape::new(small_cfg(4));
        cl.kill_shard(2);
        cl.kill_shard(2);
        cl.kill_shard(99); // out of range: ignored, not a panic
        assert_eq!(cl.alive_shards(), 3);
        assert_eq!(cl.shard_health(2), Some(ShardHealth::Dead));
        assert_eq!(cl.shard_health(99), None);
        assert_eq!(cl.ledger().events(), ["eval 0: shard 2 killed by operator"]);
        // a dead shard stays dead whatever the supervisor thinks of it
        cl.set_serving(2, ShardHealth::Degraded);
        cl.set_serving(2, ShardHealth::Alive);
        assert_eq!(cl.shard_health(2), Some(ShardHealth::Dead));
        let (pos, mass) = plummer(400, 16);
        cl.compute(&pos, &mass);
        assert_eq!(cl.shard_timers().iter().map(|&(k, _)| k).collect::<Vec<_>>(), [0, 1, 3]);
    }

    #[test]
    fn health_codes_keep_their_values() {
        use ShardHealth::*;
        for (h, code) in [(Alive, 0), (Degraded, 1), (Dead, 2), (Readmitted, 4)] {
            assert_eq!(h.code(), code);
            assert_eq!(ShardHealth::from_code(code), Some(h));
        }
        assert_eq!(ShardHealth::from_code(3), None, "code 3 is retired");
        assert_eq!(ShardHealth::from_code(99), None);
    }

    #[test]
    fn probe_keeps_a_faulty_shard_dead_until_repaired() {
        let mut cl = ClusterTreeGrape::new(small_cfg(2));
        // single-board shard whose board is persistently dropped out
        // (after_call: 0 manifests immediately); the session layer has
        // quarantined the only board and the shard died
        cl.set_fault_injector(1, FaultConfig::dropout(5, BoardDropout { after_call: 0, board: 0 }));
        cl.shards[1].g5.quarantine_board(0);
        cl.kill_shard(1);
        let mut flagged = Vec::new();
        cl.probe(0, &mut flagged); // a healthy shard: nothing to probe
        cl.probe(1, &mut flagged);
        assert_eq!(cl.shard_health(1), Some(ShardHealth::Dead));
        assert_eq!(cl.shards[1].g5.active_boards(), 0, "convicted board re-quarantined");
        assert!(flagged.is_empty());

        // repair, re-probe: the shard comes back, watched
        cl.clear_persistent_faults(1);
        cl.probe(1, &mut flagged);
        assert_eq!(cl.shard_health(1), Some(ShardHealth::Readmitted));
        assert_eq!(cl.shards[1].g5.active_boards(), 1);
        assert_eq!((cl.alive_shards(), flagged), (2, vec![1]));
        assert_eq!(
            cl.ledger().events()[1..],
            ["eval 0: shard 1 probed, still dead", "eval 0: shard 1 re-admitted by probe"]
        );
    }

    #[test]
    fn probe_restores_quarantined_hardware_on_a_serving_shard() {
        let mut cfg = small_cfg(1);
        cfg.base.grape = Grape5Config::paper(); // 2 boards
        let mut cl = ClusterTreeGrape::new(cfg);
        // a stuck pipe was quarantined; the fault has since been repaired
        cl.set_fault_injector(
            0,
            FaultConfig::stuck(6, StuckPipe { after_call: 0, board: 0, pipe: 2 }),
        );
        // stuck pipes manifest once calls > after_call: advance the call
        // counter through the fault-state words (index 5 = calls)
        let g5 = &mut cl.shards[0].g5;
        let mut words = g5.fault_state_words().unwrap();
        words[5] = 1;
        g5.restore_fault_state(&words).unwrap();
        g5.quarantine_pipe(0, 2);
        let mut flagged = Vec::new();
        cl.probe(0, &mut flagged);
        assert!(flagged.is_empty(), "fault still manifests: nothing freed");
        cl.clear_persistent_faults(0);
        cl.probe(0, &mut flagged);
        assert_eq!(flagged, [0]);
        assert_eq!(cl.shard_health(0), Some(ShardHealth::Degraded), "restored shard is watched");
        assert!(cl.shards[0].g5.quarantined().1.is_empty());
        assert_eq!(cl.ledger().events(), ["eval 0: shard 0 regained 0 board(s), 1 pipe(s)"]);
    }

    #[test]
    fn fatal_classifier() {
        let device = |e: DeviceError| shard_fatal(&ForceError::Device(e));
        assert!(device(DeviceError::NoBoardsLeft).is_some());
        let last = DeviceError::NoBoardsLeft.to_string();
        assert!(device(DeviceError::RetriesExhausted { attempts: 7, last }).is_some());
        let last = "board 0 timed out".to_string();
        assert!(device(DeviceError::RetriesExhausted { attempts: 7, last }).is_none());
        assert!(device(DeviceError::BoardTimeout { board: 0 }).is_none());
        assert!(shard_fatal(&ForceError::ShardPanic("boom".into())).is_some());
    }

    #[test]
    fn resume_state_carries_every_armed_slot_dead_or_alive() {
        // a dead slot's fault process must survive a resume: its next
        // probe has to find the fault the uninterrupted run's would
        let arm = |cl: &mut ClusterTreeGrape| {
            cl.set_fault_injector(0, FaultConfig::transient(1, 0.0));
            cl.set_fault_injector(2, FaultConfig::transient(2, 0.0));
        };
        let mut cl = ClusterTreeGrape::new(small_cfg(3));
        arm(&mut cl);
        cl.kill_shard(2);
        let state = cl.resume_state();
        let slots: Vec<usize> = state.shard_fault_states.iter().map(|(k, _)| *k).collect();
        assert_eq!(slots, [0, 2], "every armed slot, the dead one included; unarmed 1 absent");

        let mut fresh = ClusterTreeGrape::new(small_cfg(3));
        arm(&mut fresh);
        fresh.restore(&state).unwrap();
        assert_eq!(fresh.shard_health(2), Some(ShardHealth::Dead));
        assert_eq!(fresh.resume_state(), state);

        // a slot past the cluster (a damaged manifest) is typed, not a panic
        let words = state.shard_fault_states[0].1.clone();
        let bad = ResumeState { shard_fault_states: vec![(3, words)], ..state };
        let err = ClusterTreeGrape::new(small_cfg(3)).restore(&bad).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard 3 fault restore failed"), "{err}");
    }

    #[test]
    fn base_seed_arms_distinct_per_shard_streams() {
        let mut cl = ClusterTreeGrape::new(small_cfg(4));
        cl.set_fault_injectors(FaultConfig::transient(42, 0.5));
        let states = cl.resume_state().shard_fault_states;
        assert_eq!(states.len(), 4, "every shard armed");
        // derived seeds put each RNG in a distinct state
        for i in 0..states.len() {
            for j in (i + 1)..states.len() {
                assert_ne!(states[i].1, states[j].1, "shards {i}/{j} share fault state");
            }
        }
    }

    #[test]
    fn a_lifecycle_payload_the_cluster_cannot_place_fails_the_resume() {
        use crate::checkpoint::{read_manifest, Checkpointer, ResumeError};
        use crate::integrator::Simulation;
        let dir = std::env::temp_dir().join(format!("g5_cluster_unplaced_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let sim = Simulation::try_new(
            plummer_sphere(300, &mut rng),
            ClusterTreeGrape::new(small_cfg(3)),
            0.0,
        )
        .unwrap();
        let state = sim.backend().resume_state();
        let path = Checkpointer::new(&dir, 1).unwrap().write(&sim.state, 0.0, 1, &state).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(read_manifest(&path).unwrap().resume(ClusterTreeGrape::new(small_cfg(3))).is_ok());
        for line in ["shard_health 7 0", "shard_health 0 9", "shard_rate 5 3ff0000000000000"] {
            std::fs::write(&path, format!("{text}{line}\n")).unwrap();
            let resumed = read_manifest(&path).unwrap().resume(ClusterTreeGrape::new(small_cfg(3)));
            match resumed {
                Err(ResumeError::Corrupt(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                Err(e) => panic!("{line}: {e}"),
                Ok(_) => panic!("{line}: resumed"),
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
