//! The cluster backend: K domain-decomposed trees over K pooled
//! GRAPE-5 devices.
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
//! Per-board faults inside a shard are absorbed by the existing
//! [`DeviceSession`] retry/quarantine machinery. When a shard's device
//! is exhausted entirely (all boards quarantined), the backend marks
//! the shard dead, throws away the decomposition, and re-decomposes
//! the snapshot over the survivors — forces still come out of the same
//! `try_compute` call, one shard poorer. `tree_age` restarts at 1 on
//! every re-decomposition, so a drift bound accumulated against the old
//! shard boundaries can never survive into the new ones.

use crate::backends::{ForceBackend, ForceError, ForceSet, TreeGrapeConfig};
use crate::checkpoint::{invalid, ClusterLifecycle, ResumeState};
use crate::engine::{Engine, Evaluation};
use crate::perf::PhaseTimers;
use g5tree::domain::Decomposition;
use g5tree::tree::Tree;
use g5util::cores;
use g5util::vec3::Vec3;
use grape5::{
    bounding_window, ClockAccounting, ClusterSession, DeviceError, FaultConfig, Grape5,
    ProbeOutcome, RecoveryStats, ShardHealth,
};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The shard lifecycle supervisor's knobs. The default turns both
/// mechanisms **off**, which keeps the backend's device-call sequence
/// bit-identical to a supervisor-less run — self-healing is opt-in.
#[derive(Debug, Clone, Copy, Default)]
pub struct LifecyclePolicy {
    /// Re-probe dead shards and quarantined hardware every this many
    /// evaluations (`0` = never probe). A passing probe re-admits the
    /// hardware and triggers a capacity-weighted re-decomposition.
    pub probe_interval: u64,
    /// Straggler deadline: a shard whose *modeled* device time for one
    /// evaluation exceeds `factor × median` is declared Degraded and
    /// its groups re-execute on the fastest survivor within the same
    /// `try_compute`. `None` = no deadline. Deadlines compare modeled
    /// clock only, never host wall-clock, so firing is deterministic.
    pub straggler_factor: Option<f64>,
}

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

/// Ordered record of every recovery-relevant event of a cluster run —
/// kills, quarantines, probes, re-admissions, stragglers,
/// re-decompositions — for post-mortem and for determinism checks (two
/// runs of the same seeded schedule must produce identical ledgers).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryLedger {
    events: Vec<String>,
}

impl RecoveryLedger {
    fn record(&mut self, eval: u64, msg: impl AsRef<str>) {
        self.events.push(format!("eval {eval}: {}", msg.as_ref()));
    }

    /// The events, oldest first, as `"eval N: <what happened>"` lines.
    pub fn events(&self) -> &[String] {
        &self.events
    }
}

/// Everything one shard owns between evaluations: its gathered
/// particles, the step engine over them (local tree, group partition,
/// streaming pool), and last-evaluation timers.
#[derive(Default)]
struct ShardState {
    pos: Vec<Vec3>,
    mass: Vec<f64>,
    engine: Engine,
    timers: PhaseTimers,
    /// Dense per-shard force output, recycled across evaluations so a
    /// steady-state step allocates no result buffers (at flagship scale
    /// that is K shard-sized accelerations + potentials per step).
    acc: Vec<Vec3>,
    pot: Vec<f64>,
}

/// What one shard's evaluation thread hands back to the assembler.
struct ShardOutcome {
    slot: usize,
    acc: Vec<Vec3>,
    pot: Vec<f64>,
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
            acc: Vec::new(),
            pot: Vec::new(),
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
    cluster: ClusterSession,
    recovery: RecoveryStats,
    /// Current partition, or `None` when the next evaluation must
    /// re-decompose (fresh backend, snapshot size change, shard death).
    decomp: Option<Decomposition>,
    /// Shard slots the current decomposition's domains map to,
    /// ascending: domain `d` lives on slot `live[d]`.
    live: Vec<usize>,
    shards_state: Vec<ShardState>,
    /// Evaluations served by the current decomposition's trees (1 right
    /// after a (re)build, counting up between rebuilds).
    tree_age: u32,
    /// Evaluations completed — the supervisor's probe/deadline clock.
    evals: u64,
    /// Measured per-slot throughput (interactions per modeled device
    /// second), `0.0` until a slot has served an evaluation. Feeds the
    /// capacity weights of the next re-decomposition.
    measured_rate: Vec<f64>,
    /// Per-slot modeled-clock snapshot `(interactions, total seconds)`
    /// at the end of the previous evaluation, for per-eval deltas.
    prev_clock: Vec<(u64, f64)>,
    /// Cut weights of the decomposition currently in force (domain
    /// order) — checkpointed so a resume replays the same cuts.
    cut_weights: Vec<u64>,
    /// Per-slot recovery totals (cluster-wide summary = their merge).
    shard_recovery: Vec<RecoveryStats>,
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
        let cluster = ClusterSession::open(cfg.base.grape, cfg.shards);
        let shards_state = (0..cfg.shards).map(|_| ShardState::default()).collect();
        ClusterTreeGrape {
            cfg,
            cluster,
            recovery: RecoveryStats::default(),
            decomp: None,
            live: Vec::new(),
            shards_state,
            tree_age: 0,
            evals: 0,
            measured_rate: vec![0.0; cfg.shards],
            prev_clock: vec![(0, 0.0); cfg.shards],
            cut_weights: Vec::new(),
            shard_recovery: vec![RecoveryStats::default(); cfg.shards],
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
        self.cluster.shards()
    }

    /// Shards still alive.
    pub fn alive_shards(&self) -> usize {
        self.cluster.alive()
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

    /// Kill shard `k` by hand (the test/fault-drill entry point — in
    /// anger, shard death is detected from device errors). Invalidates
    /// the decomposition so the next evaluation re-decomposes over the
    /// survivors.
    pub fn kill_shard(&mut self, k: usize) {
        let prior = self.cluster.kill(k);
        if prior.is_some_and(|h| h.in_service()) && !self.replaying {
            self.ledger.record(self.evals, format!("shard {k} killed by operator"));
        }
        self.decomp = None;
        self.live.clear();
    }

    /// Lifecycle state of shard `k` (`None` out of range).
    pub fn shard_health(&self, k: usize) -> Option<ShardHealth> {
        self.cluster.health(k)
    }

    /// Lifecycle state of every slot.
    pub fn shard_healths(&self) -> Vec<ShardHealth> {
        self.cluster.healths()
    }

    /// The recovery ledger so far.
    pub fn ledger(&self) -> &RecoveryLedger {
        &self.ledger
    }

    /// Evaluations completed (the supervisor's clock).
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Per-slot recovery totals, `(slot, stats)` for slots with any
    /// recovery activity.
    pub fn shard_recovery_stats(&self) -> Vec<(usize, RecoveryStats)> {
        self.shard_recovery
            .iter()
            .enumerate()
            .filter(|(_, r)| **r != RecoveryStats::default())
            .map(|(k, r)| (k, *r))
            .collect()
    }

    /// Cluster-wide recovery summary: every slot's stats merged.
    pub fn cluster_recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Repair shard `k`'s persistent faults (stuck pipe, board
    /// dropout) — the chaos harness's "technician swaps the card"
    /// event. The hardware stays quarantined until a probe re-tests it.
    pub fn clear_persistent_faults(&mut self, k: usize) {
        self.cluster.device_mut(k).clear_persistent_faults();
    }

    /// Arm shard `k`'s fault injector.
    pub fn set_fault_injector(&mut self, k: usize, fault: FaultConfig) {
        self.cluster.set_fault_injector(k, fault);
    }

    /// Arm every shard's injector from one base configuration with
    /// per-shard derived seeds ([`FaultConfig::for_shard`]).
    pub fn set_fault_injectors(&mut self, base: FaultConfig) {
        self.cluster.set_fault_injectors(base);
    }

    /// Clock accounting of shard `k` alone — the critical-path metric
    /// (max over shards) is derived from these.
    pub fn shard_accounting(&self, k: usize) -> ClockAccounting {
        self.cluster.shard_accounting(k)
    }

    /// Reset every shard's clock accounting.
    pub fn reset_accounting(&mut self) {
        self.cluster.reset_accounting();
    }

    /// Last evaluation's per-shard timers, as `(slot, timers)` over the
    /// shards that took part.
    pub fn shard_timers(&self) -> Vec<(usize, PhaseTimers)> {
        self.live.iter().map(|&k| (k, self.shards_state[k].timers)).collect()
    }

    /// Bring every live shard's tree up to date: refresh the frozen
    /// trees when the policy allows, (re)decompose and rebuild
    /// otherwise. Returns `(decompose_s, build_s, refresh_s)`.
    fn ensure_decomposition(&mut self, pos: &[Vec3], mass: &[f64]) -> (f64, f64, f64) {
        let mut alive: Vec<usize> =
            (0..self.cluster.shards()).filter(|&k| self.cluster.is_alive(k)).collect();
        // a domain cannot be empty: with fewer particles than shards the
        // last shards own nothing and sit the evaluation out
        alive.truncate(pos.len());
        let mut refresh_s = 0.0;
        let reusable =
            self.decomp.as_ref().is_some_and(|d| d.total() == pos.len() && self.live == alive)
                && self.tree_age < self.cfg.base.refresh.interval;
        if reusable {
            let decomp = self.decomp.as_ref().expect("reusable implies a decomposition");
            let limit_frac = self.cfg.base.refresh.max_drift_frac;
            let mut ok = true;
            for (d, &k) in self.live.iter().enumerate() {
                let st = &mut self.shards_state[k];
                let t0 = Instant::now();
                decomp.gather(d, pos, mass, &mut st.pos, &mut st.mass);
                // each shard's root half-width is its own length scale
                ok = st.engine.refresh(&st.pos, &st.mass, limit_frac);
                let dt = t0.elapsed().as_secs_f64();
                st.timers = PhaseTimers { refresh_s: dt, ..PhaseTimers::default() };
                refresh_s += dt;
                if !ok {
                    break;
                }
            }
            if ok {
                self.tree_age += 1;
                return (0.0, 0.0, refresh_s);
            }
            // some shard blew the drift valve: the refresh work is
            // discarded and this evaluation pays for a rebuild instead
        }

        let t0 = Instant::now();
        // A checkpoint restore pins the interrupted run's cut weights
        // for the replay evaluation; otherwise weigh by capacity.
        let weights = match self.replay_weights.take() {
            Some(w) if w.len() == alive.len() => w,
            _ => self.capacity_weights(&alive),
        };
        // Incremental Morton maintenance: between refreshes most
        // particles keep their rank, so re-sorting only the drifted
        // runs against the previous order's backbone beats a full sort.
        // The merged order is bitwise the from-scratch order ((code,
        // index) keys are unique), so the cuts are hint-independent.
        let (decomp, order) =
            Decomposition::morton_weighted_hinted(pos, &weights, self.order_hint.as_deref());
        self.order_hint = Some(order);
        let decompose_s = t0.elapsed().as_secs_f64();
        // Routine same-membership, same-weights rebuilds (tree aging)
        // are not recovery events; membership or weight changes are.
        if !self.replaying && (self.live != alive || self.cut_weights != weights) {
            self.ledger.record(
                self.evals,
                format!("decomposed over {} shards {alive:?}, weights {weights:?}", alive.len()),
            );
        }
        self.cut_weights = weights;
        let mut build_s = 0.0;
        for (d, &k) in alive.iter().enumerate() {
            let st = &mut self.shards_state[k];
            let t1 = Instant::now();
            decomp.gather(d, pos, mass, &mut st.pos, &mut st.mass);
            st.engine.rebuild(&st.pos, &st.mass, &self.cfg.base);
            let dt = t1.elapsed().as_secs_f64();
            st.timers = PhaseTimers { build_s: dt, ..PhaseTimers::default() };
            build_s += dt;
        }
        self.decomp = Some(decomp);
        self.live = alive;
        // Fresh trees, zero drift: a drift bound accumulated against
        // the *old* shard boundaries must never price the new ones.
        self.tree_age = 1;
        (decompose_s, build_s + refresh_s, 0.0)
    }

    /// Cut weight of each serving slot: alive boards × a 1–8 throughput
    /// quantile from measured interactions/s. A healthy, unmeasured
    /// cluster (full boards, no rates yet) produces *equal* weights, so
    /// its cuts are bit-identical to the unweighted decomposition.
    fn capacity_weights(&self, alive: &[usize]) -> Vec<u64> {
        let max_rate = alive.iter().map(|&k| self.measured_rate[k]).fold(0.0_f64, f64::max);
        alive
            .iter()
            .map(|&k| {
                let boards = (self.cluster.device(k).active_boards() as u64).max(1);
                let rate = self.measured_rate[k];
                // Wide power-of-two bands: healthy measurement spread
                // (small shards differ by 10–30% in per-call overhead)
                // maps into ONE bucket, so a healthy cluster keeps
                // equal weights and its cuts stay bit-identical to the
                // unweighted split; only real slowdowns (≳ 2x) move
                // the cuts.
                let quantile = if max_rate > 0.0 && rate > 0.0 {
                    let r = rate / max_rate;
                    if r >= 0.6 {
                        8
                    } else if r >= 0.3 {
                        4
                    } else if r >= 0.15 {
                        2
                    } else {
                        1
                    }
                } else {
                    8
                };
                boards * quantile
            })
            .collect()
    }
}

/// One shard's force evaluation on device `g5`: the shard's own step
/// engine, with every other live shard's tree as the remote mass
/// (`remote`) and the full snapshot as the quantization window.
///
/// `bufs` are recycled dense output buffers (any length); they come
/// back through the outcome for reuse next evaluation.
fn shard_eval(
    slot: usize,
    g5: &mut Grape5,
    st: &ShardState,
    remote: &[&Tree],
    window_pos: &[Vec3],
    cfg: &TreeGrapeConfig,
    bufs: (Vec<Vec3>, Vec<f64>),
) -> ShardOutcome {
    let (mut acc, mut pot) = bufs;
    let n = st.pos.len();
    acc.clear();
    acc.resize(n, Vec3::ZERO);
    pot.clear();
    pot.resize(n, 0.0);
    let eval = st.engine.evaluate(g5, remote, window_pos, cfg, &mut acc, &mut pot);
    ShardOutcome { slot, acc, pot, eval }
}

/// The trees shard `slot` imports remote mass from: every other live
/// shard's, in slot order.
fn remote_trees<'a>(states: &'a [ShardState], live: &[usize], slot: usize) -> Vec<&'a Tree> {
    live.iter()
        .filter(|&&k| k != slot)
        .map(|&k| states[k].engine.tree().expect("live shard has a tree"))
        .collect()
}

impl ForceBackend for ClusterTreeGrape {
    fn try_compute(&mut self, pos: &[Vec3], mass: &[f64]) -> Result<ForceSet, ForceError> {
        assert_eq!(pos.len(), mass.len(), "position/mass length mismatch");
        if pos.is_empty() {
            return Ok(ForceSet::zeros(0)); // no particle, nothing to decompose
        }
        bounding_window(pos)?; // a non-finite position: typed, before any tree meets it
        let t_all = Instant::now();
        // Supervisor tick. A replay evaluation (checkpoint resume)
        // re-creates an evaluation the interrupted run already made
        // its decisions for, so the supervisor stands down entirely.
        // Shards that must stay watched through this evaluation's
        // end-of-eval promotion: freshly probed-in hardware plus any
        // shard flagged below (quarantine activity, straggler).
        let mut flagged: Vec<usize> = Vec::new();
        if !self.replaying {
            self.evals += 1;
            let interval = self.cfg.lifecycle.probe_interval;
            if interval > 0 && self.evals.is_multiple_of(interval) {
                for oc in self.cluster.probe_all() {
                    match oc {
                        ProbeOutcome::Readmitted { slot } => {
                            self.ledger
                                .record(self.evals, format!("shard {slot} re-admitted by probe"));
                            flagged.push(slot);
                            self.decomp = None;
                            self.live.clear();
                        }
                        ProbeOutcome::StillDead { slot } => {
                            self.ledger
                                .record(self.evals, format!("shard {slot} probed, still dead"));
                        }
                        ProbeOutcome::HardwareRestored { slot, boards, pipes } => {
                            self.ledger.record(
                                self.evals,
                                format!("shard {slot} regained {boards} board(s), {pipes} pipe(s)"),
                            );
                            flagged.push(slot);
                            self.decomp = None;
                            self.live.clear();
                        }
                    }
                }
            }
        }
        loop {
            if self.cluster.alive() == 0 {
                return Err(DeviceError::NoBoardsLeft.into());
            }
            let (decompose_s, build_s, refresh_s) = self.ensure_decomposition(pos, mass);

            // One scoped thread per live shard; each owns its device
            // exclusively, reads the *other* shards' trees immutably
            // (the in-line LET exchange), and writes a shard-local
            // dense result, so no output cell is shared across threads.
            // Each thread takes its slot's recycled output buffers and
            // hands them back through the outcome. A panic anywhere in
            // the evaluation is caught at the thread boundary and
            // synthesized into a typed shard-fatal outcome — one
            // shard's bug costs its shard, not the whole process.
            #[cfg(test)]
            let panic_slots = std::mem::take(&mut self.panic_next_eval);
            #[cfg(test)]
            let panic_slots = &panic_slots;
            let mut bufs: Vec<Option<(Vec<Vec3>, Vec<f64>)>> = self
                .shards_state
                .iter_mut()
                .map(|st| Some((std::mem::take(&mut st.acc), std::mem::take(&mut st.pot))))
                .collect();
            let devices = self.cluster.alive_devices_mut();
            let states = &self.shards_state;
            let live = &self.live;
            let cfg = &self.cfg.base;
            let mut outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
                let handles: Vec<_> = devices
                    .into_iter()
                    .filter(|(slot, _)| live.contains(slot))
                    .map(|(slot, g5)| {
                        let st = &states[slot];
                        let remote = remote_trees(states, live, slot);
                        let out = bufs[slot].take().expect("each slot evaluates at most once");
                        // A caller per shard (`g5util::cores`),
                        // registered before any shard runs — so each
                        // sizes itself beside all of its siblings from
                        // its first stream — and released once its
                        // thread is joined, never while it still exists.
                        let caller = cores::enter();
                        let handle = scope.spawn(move || {
                            catch_unwind(AssertUnwindSafe(|| {
                                #[cfg(test)]
                                if panic_slots.contains(&slot) {
                                    panic!("injected shard panic");
                                }
                                shard_eval(slot, g5, st, &remote, pos, cfg, out)
                            }))
                            .unwrap_or_else(|payload| ShardOutcome::panicked(slot, payload))
                        });
                        (caller, handle)
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|(caller, h)| {
                        let outcome =
                            h.join().expect("shard evaluation thread panicked outside its guard");
                        drop(caller);
                        outcome
                    })
                    .collect()
            });

            // Per-evaluation *modeled* clock deltas — taken before any
            // straggler re-execution, so re-executed work never
            // pollutes a shard's own throughput measurement. Modeled
            // time, never host wall-clock: deadlines and capacity
            // weights must be deterministic.
            let mut step_secs: Vec<(usize, f64)> = Vec::with_capacity(outcomes.len());
            for o in &outcomes {
                let acct = self.cluster.shard_accounting(o.slot);
                let secs = acct.report(&self.cfg.base.grape).total_s();
                let inter = acct.interactions;
                let (p_inter, p_secs) = self.prev_clock[o.slot];
                // accounting may be reset externally between evals
                let d_secs = if secs >= p_secs { secs - p_secs } else { secs };
                let d_inter = if inter >= p_inter { inter - p_inter } else { inter };
                self.prev_clock[o.slot] = (inter, secs);
                step_secs.push((o.slot, d_secs));
                if !self.replaying && d_secs > 0.0 && d_inter > 0 {
                    self.measured_rate[o.slot] = d_inter as f64 / d_secs;
                }
            }

            let mut fatal: Vec<(usize, String)> = Vec::new();
            let mut first_err: Option<ForceError> = None;
            for o in &outcomes {
                let recovery = o.eval.recovery;
                self.recovery = self.recovery.merged(recovery);
                self.shard_recovery[o.slot] = self.shard_recovery[o.slot].merged(recovery);
                if recovery.quarantined_boards > 0 || recovery.quarantined_pipes > 0 {
                    self.cluster.mark_degraded(o.slot);
                    flagged.push(o.slot);
                    if !self.replaying {
                        self.ledger.record(
                            self.evals,
                            format!(
                                "shard {} quarantined {} board(s), {} pipe(s)",
                                o.slot, recovery.quarantined_boards, recovery.quarantined_pipes
                            ),
                        );
                    }
                }
                match &o.eval.err {
                    Some(ForceError::Device(de)) if ClusterSession::shard_fatal(de) => {
                        fatal.push((o.slot, "shard-fatal device error".to_string()));
                    }
                    // A panicked evaluation thread is a dead shard: its
                    // forces never materialized and its state is
                    // suspect, so the survivors re-own its particles.
                    Some(ForceError::ShardPanic(msg)) => {
                        fatal.push((o.slot, format!("evaluation thread panicked: {msg}")));
                    }
                    Some(e) if first_err.is_none() => first_err = Some(e.clone()),
                    Some(_) => {}
                    None => {}
                }
            }
            if !fatal.is_empty() {
                // Whole-shard loss: survivors re-own the dead shards'
                // particles and this evaluation starts over. Work the
                // healthy shards did this round is discarded — shard
                // death is rare enough that simplicity wins.
                for (k, why) in &fatal {
                    self.cluster.kill(*k);
                    if !self.replaying {
                        self.ledger.record(self.evals, format!("shard {k} killed ({why})"));
                    }
                }
                self.decomp = None;
                self.live.clear();
                if self.cluster.alive() == 0 {
                    return Err(DeviceError::NoBoardsLeft.into());
                }
                continue;
            }
            if let Some(e) = first_err {
                return Err(e);
            }

            // Straggler deadline: a shard whose modeled time for this
            // evaluation exceeds factor × median is Degraded and its
            // interaction groups re-execute on the fastest survivor —
            // same trees, same LET machinery, same position window.
            // Entirely off when no factor is set (the default), and
            // during replay (the interrupted run already decided).
            if let Some(factor) = self.cfg.lifecycle.straggler_factor {
                if !self.replaying && outcomes.len() >= 2 {
                    let mut times: Vec<f64> = step_secs.iter().map(|&(_, t)| t).collect();
                    times.sort_by(|a, b| a.partial_cmp(b).expect("modeled times are finite"));
                    let mid = times.len() / 2;
                    let median = if times.len().is_multiple_of(2) {
                        0.5 * (times[mid - 1] + times[mid])
                    } else {
                        times[mid]
                    };
                    let lagging: Vec<usize> =
                        (0..outcomes.len()).filter(|&i| step_secs[i].1 > factor * median).collect();
                    if !lagging.is_empty() && lagging.len() < outcomes.len() {
                        let survivor = (0..outcomes.len())
                            .filter(|i| !lagging.contains(i))
                            .min_by(|&a, &b| {
                                step_secs[a]
                                    .1
                                    .partial_cmp(&step_secs[b].1)
                                    .expect("modeled times are finite")
                                    .then(step_secs[a].0.cmp(&step_secs[b].0))
                            })
                            .map(|i| step_secs[i].0)
                            .expect("a non-straggler exists");
                        for &i in &lagging {
                            let (slot, t) = step_secs[i];
                            let st = &self.shards_state[slot];
                            let remote = remote_trees(&self.shards_state, &self.live, slot);
                            let g5 = self.cluster.device_mut(survivor);
                            let fresh = (Vec::new(), Vec::new());
                            let redo =
                                shard_eval(slot, g5, st, &remote, pos, &self.cfg.base, fresh);
                            if redo.eval.err.is_none() {
                                self.recovery = self.recovery.merged(redo.eval.recovery);
                                self.shard_recovery[survivor] =
                                    self.shard_recovery[survivor].merged(redo.eval.recovery);
                                let o = &mut outcomes[i];
                                o.acc = redo.acc;
                                o.pot = redo.pot;
                                o.eval.tally = redo.eval.tally;
                                self.cluster.mark_degraded(slot);
                                flagged.push(slot);
                                self.ledger.record(
                                    self.evals,
                                    format!(
                                        "shard {slot} straggled ({t:.3e} s > {factor} x median \
                                         {median:.3e} s); groups re-executed on shard {survivor}"
                                    ),
                                );
                            } else {
                                self.ledger.record(
                                    self.evals,
                                    format!(
                                        "shard {slot} straggled but re-execution on shard \
                                         {survivor} failed; original result kept"
                                    ),
                                );
                            }
                            // the survivor's own throughput must not be
                            // charged for the straggler's groups
                            let acct = self.cluster.shard_accounting(survivor);
                            self.prev_clock[survivor] =
                                (acct.interactions, acct.report(&self.cfg.base.grape).total_s());
                        }
                    }
                }
            }

            let decomp = self.decomp.as_ref().expect("evaluated with a decomposition");
            let mut out = ForceSet::zeros(pos.len());
            for (d, o) in outcomes.iter_mut().enumerate() {
                for (j, &gi) in decomp.owned(d).iter().enumerate() {
                    out.acc[gi as usize] = o.acc[j];
                    out.pot[gi as usize] = o.pot[j];
                }
                out.tally = out.tally.merged(o.eval.tally);
                let st = &mut self.shards_state[o.slot];
                // this evaluation's tree update is already on the clock
                st.timers = PhaseTimers {
                    build_s: st.timers.build_s,
                    refresh_s: st.timers.refresh_s,
                    ..o.eval.timers
                };
                // the dense result buffers go home for next evaluation
                st.acc = std::mem::take(&mut o.acc);
                st.pot = std::mem::take(&mut o.pot);
            }
            // phase seconds sum over shards (CPU, not critical path)
            out.timers = PhaseTimers { build_s, refresh_s, decompose_s, ..PhaseTimers::default() };
            for o in &outcomes {
                out.timers.accumulate(&o.eval.timers);
            }
            out.timers.force_wall_s = t_all.elapsed().as_secs_f64();
            // A clean evaluation promotes watched shards: Degraded and
            // freshly Readmitted shards that served without incident
            // return to Alive. Flagged shards stay Degraded.
            for o in &outcomes {
                if !flagged.contains(&o.slot) {
                    self.cluster.mark_alive(o.slot);
                }
            }
            self.replaying = false;
            return Ok(out);
        }
    }

    fn name(&self) -> &'static str {
        "cluster-tree-grape"
    }

    fn grape_accounting(&self) -> Option<ClockAccounting> {
        Some(self.cluster.accounting())
    }

    fn recovery_stats(&self) -> Option<RecoveryStats> {
        Some(self.recovery)
    }

    /// The shards alive at this instant (a resumed run re-decomposes
    /// over that count), each armed alive shard's fault words, and the
    /// supervisor: shard healths, measured rates, the weights of the
    /// decomposition in force, the eval clock and the recovery ledger.
    fn resume_state(&self) -> ResumeState {
        // Probation is transient within a probe call; persist the three
        // durable states (Readmitted checkpoints as Degraded: both are
        // "serving, watched").
        let durable = |h| match h {
            ShardHealth::Probation | ShardHealth::Readmitted => ShardHealth::Degraded,
            other => other,
        };
        let healths = self.cluster.healths().into_iter().map(durable).map(ShardHealth::code);
        let rates = self.measured_rate.iter().enumerate().filter(|(_, r)| **r > 0.0);
        ResumeState {
            fault_state: None,
            shards: Some(self.alive_shards()),
            shard_fault_states: self.cluster.fault_states(),
            lifecycle: Some(ClusterLifecycle {
                evals: self.evals,
                healths: healths.enumerate().collect(),
                rates: rates.map(|(k, r)| (k, r.to_bits())).collect(),
                cut_weights: self.cut_weights.clone(),
                ledger: self.ledger.events.clone(),
            }),
        }
    }

    /// Restore the shard fault words and the supervisor, entering replay
    /// mode: the next evaluation (the resume's force recompute)
    /// re-creates the interrupted run's decomposition from the stored
    /// cut weights and makes no supervisor decisions of its own, so the
    /// resumed trajectory and ledger are bit-identical to the
    /// uninterrupted run's. As many shards must then serve as the
    /// checkpoint recorded — the cuts depend on that count.
    fn restore(&mut self, state: &ResumeState) -> io::Result<()> {
        let Some(shards) = state.shards.filter(|_| state.fault_state.is_none()) else {
            return Err(invalid(format!("not a cluster checkpoint, for {}", self.name())));
        };
        for (slot, words) in &state.shard_fault_states {
            self.cluster
                .restore_fault_state(*slot, words)
                .map_err(|e| invalid(format!("shard {slot} fault restore failed: {e}")))?;
        }
        if let Some(lc) = &state.lifecycle {
            for &(k, code) in &lc.healths {
                if let Some(h) = ShardHealth::from_code(code) {
                    self.cluster.set_health(k, h);
                }
            }
            self.measured_rate.fill(0.0);
            for &(k, bits) in &lc.rates {
                if let Some(r) = self.measured_rate.get_mut(k) {
                    *r = f64::from_bits(bits);
                }
            }
            self.evals = lc.evals;
            self.ledger = RecoveryLedger { events: lc.ledger.clone() };
            self.replay_weights = (!lc.cut_weights.is_empty()).then(|| lc.cut_weights.clone());
            self.replaying = true;
            self.decomp = None;
            self.live.clear();
        }
        if self.alive_shards() != shards {
            let alive = self.alive_shards();
            return Err(invalid(format!("checkpoint of {shards} serving shards restored {alive}")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{DirectHost, TreeGrape};
    use g5ic::plummer_sphere;
    use g5tree::eval::rms_relative_error;
    use g5tree::plan::PlanConfig;
    use grape5::Grape5Config;
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
        assert!(watched.shard_healths().iter().all(|&h| h == grape5::ShardHealth::Alive));
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
        assert_eq!(cl.shard_health(1), Some(grape5::ShardHealth::Readmitted));
        cl.compute(&pos, &mass); // eval 4: clean service promotes it
        assert_eq!(cl.shard_health(1), Some(grape5::ShardHealth::Alive));
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
            cl.cluster.device_mut(1).quarantine_pipe(0, p);
        }
        let fs = cl.compute(pos, mass);
        (cl, fs)
    }

    #[test]
    fn straggler_deadline_fires_deterministically_and_recovers() {
        let (pos, mass) = plummer(900, 23);
        let exact = DirectHost { eps: 0.01 }.compute(&pos, &mass);
        let (cl, fs) = straggler_cl(&pos, &mass);
        assert_eq!(cl.shard_health(1), Some(grape5::ShardHealth::Degraded));
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
        cl.cluster.device_mut(1).quarantine_board(0);
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
}
