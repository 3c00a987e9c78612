//! Streaming force plan: resolved group work produced through a
//! bounded channel.
//!
//! The modified algorithm's host work is "walk the tree once per group
//! and emit the shared interaction list" (§3 of the paper). The
//! original backend implementation materialised *every* resolved list
//! at once (`par_iter().collect()`), costing O(total terms) peak memory
//! and serialising the device behind the full traversal. This module
//! instead streams [`GroupWork`] items — one group's targets plus its
//! resolved j-set — through a bounded channel, so the consumer (the
//! GRAPE driver) evaluates group *k* while worker threads are still
//! walking the tree for groups *k+1, k+2, …*. Peak memory falls to
//! O(channel depth × list length), and traversal overlaps device time
//! the way the real host code overlaps `g5_calculate_force_on_x` DMA.
//!
//! ## Determinism
//!
//! Worker scheduling makes the *arrival order* of groups at the
//! consumer nondeterministic, but the *result* is not: each group
//! carries its own target indices (disjoint across groups, covering
//! every particle exactly once), each resolved list is a pure function
//! of the tree, and tallies are sums of `u64`s. Any consumer that
//! writes per-target outputs and accumulates tallies therefore produces
//! bit-identical results in any arrival order. [`PlanConfig::serial`]
//! gives the in-order single-thread reference path used by the property
//! tests to check exactly that.
//!
//! ## Buffer recycling
//!
//! Steady-state streaming does **zero heap allocation per group**. A
//! [`PlanPool`] owns drained [`GroupWork`] husks; producers take a
//! husk, resolve into its retained buffers (the tree walk writes the
//! list resolved, so there is no other per-group buffer), and send it,
//! and after the consumer callback returns (it sees `&GroupWork`, never
//! ownership) the husk goes back to the pool. After the first step every vector has reached its
//! high-water capacity and the pool's [`minted`](PlanPool::minted)
//! counter stops moving — which `tests/plan_alloc.rs` verifies with a
//! counting allocator.

use crate::traverse::{Group, Traversal};
use crate::tree::Tree;
use g5util::cores;
use g5util::counters::InteractionTally;
use g5util::vec3::Vec3;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;
use std::time::Instant;

/// A group resolution failed: the panic payload of the producer,
/// surfaced as a value so one bad group fails one force evaluation —
/// the caller can checkpoint and abort, or retry — instead of taking
/// the whole process down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// Tree cell of the group whose resolution failed, when known.
    pub group: Option<u32>,
    /// Panic payload or failure description.
    pub message: String,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.group {
            Some(g) => write!(f, "plan producer failed on group (node {g}): {}", self.message),
            None => write!(f, "plan producer failed: {}", self.message),
        }
    }
}

impl std::error::Error for PlanError {}

/// Best-effort string form of a caught panic payload.
fn payload_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One group's fully resolved share of a force evaluation: everything
/// the device driver needs, with no further tree access.
#[derive(Debug, Clone)]
pub struct GroupWork {
    /// The group this work came from.
    pub group: Group,
    /// Original (input-order) indices of the group members, disjoint
    /// across groups.
    pub targets: Vec<usize>,
    /// Member positions, parallel to `targets`.
    pub xi: Vec<Vec3>,
    /// Resolved interaction-list positions (cell centers of mass and
    /// body positions).
    pub jpos: Vec<Vec3>,
    /// Resolved interaction-list masses, parallel to `jpos`.
    pub jmass: Vec<f64>,
    /// This group's contribution to the step tally.
    pub tally: InteractionTally,
}

impl GroupWork {
    /// An empty husk whose buffers will be grown on first use and then
    /// retained across recycles.
    fn husk() -> GroupWork {
        GroupWork {
            group: Group { node: 0 },
            targets: Vec::new(),
            xi: Vec::new(),
            jpos: Vec::new(),
            jmass: Vec::new(),
            tally: InteractionTally::default(),
        }
    }
}

/// Recycler for streaming buffers, owned by the caller and handed to
/// [`stream_with`] every step so capacities persist across force
/// evaluations.
///
/// The free list of drained [`GroupWork`] husks lives behind a mutex.
/// Contention is negligible — each producer touches the lock once per
/// group (a pop and, on the consumer side, a push), orders of magnitude
/// less often than the work it brackets. The pool never shrinks; its
/// footprint is bounded by `channel_depth + workers + 1` husks, each at
/// the longest list it ever carried.
#[derive(Debug, Default)]
pub struct PlanPool {
    husks: Mutex<Vec<GroupWork>>,
    minted: AtomicU64,
}

impl PlanPool {
    /// An empty pool. Buffers are minted on demand during the first
    /// stream and recycled thereafter.
    pub fn new() -> PlanPool {
        PlanPool::default()
    }

    /// Total `GroupWork` husks ever allocated. Flat across steady-state
    /// steps: the zero-allocation invariant in counter form.
    pub fn minted(&self) -> u64 {
        self.minted.load(Ordering::Relaxed)
    }

    fn take_husk(&self) -> GroupWork {
        if let Some(h) = self.husks.lock().unwrap().pop() {
            return h;
        }
        self.minted.fetch_add(1, Ordering::Relaxed);
        GroupWork::husk()
    }

    fn put_husk(&self, h: GroupWork) {
        self.husks.lock().unwrap().push(h);
    }
}

/// How a [`stream`] call schedules its producers.
///
/// Zero producers is a valid plan, not a degenerate one: the calling
/// thread then resolves a group, hands it to the consumer, and resolves
/// the next, through one recycled husk and no channel. That is what a
/// caller with one core to itself gets by default — a process confined
/// to one core, or one of as many cluster shards or service workers as
/// the machine has cores: a producer thread there has no core to
/// overlap on and only adds a context switch and a husk hand-off per
/// group.
#[derive(Debug, Clone, Copy)]
pub struct PlanConfig {
    /// Producer threads. `None` chooses [`cores::share`]` − 1` when the
    /// stream starts — this caller's equal share of the machine, less
    /// the core its consumer runs on: `cores − 1` for a lone evaluator,
    /// 0 on a single core or with a registered caller for every core —
    /// and never more than the stream's groups less one: the group the
    /// consumer takes first has nothing to overlap with, so a stream of
    /// one group resolves inline.
    /// `Some(w)` is taken as given whoever else is running; `Some(0)` —
    /// like a resolved 0 — is the serial in-order path with no channel
    /// at all. Lists, forces and tallies do not depend on the count.
    pub workers: Option<usize>,
    /// Bound of the work channel — the number of resolved groups that
    /// may exist ahead of the consumer, and therefore the peak-memory
    /// knob.
    pub channel_depth: usize,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig { workers: None, channel_depth: 4 }
    }
}

impl PlanConfig {
    /// The single-thread, in-group-order reference path.
    pub fn serial() -> Self {
        PlanConfig { workers: Some(0), channel_depth: 1 }
    }

    /// Overlapped mode with an explicit worker count (≥ 1).
    pub fn overlapped(workers: usize, channel_depth: usize) -> Self {
        PlanConfig { workers: Some(workers.max(1)), channel_depth }
    }

    fn resolved_workers(&self, groups: usize) -> usize {
        let default = || workers_for(cores::share()).min(groups.saturating_sub(1));
        self.workers.unwrap_or_else(default)
    }
}

/// Default producer count for a caller that may use `cores` cores: all
/// but the consumer's.
fn workers_for(cores: usize) -> usize {
    cores.saturating_sub(1)
}

/// What a [`stream`] call did, beyond the consumer's own outputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanStats {
    /// Summed tally over all streamed groups.
    pub tally: InteractionTally,
    /// CPU seconds spent resolving lists, summed over producers — the
    /// "tree traverse" phase cost regardless of overlap.
    pub produce_s: f64,
    /// Seconds the consumer spent blocked waiting for work — how
    /// traversal-starved the device was.
    pub consumer_blocked_s: f64,
    /// Fresh `GroupWork` allocations this call; 0 once the pool has
    /// warmed up.
    pub husks_minted: u64,
}

/// Resolve one group against the tree into a recycled husk: shared
/// list (the walk writes it resolved, straight into the husk), member
/// targets and positions, tally contribution. Only grows buffers past
/// their retained capacity; steady state allocates nothing.
fn resolve_group_into(tree: &Tree, tr: &Traversal, g: Group, work: &mut GroupWork) {
    work.group = g;
    work.jpos.clear();
    work.jmass.clear();
    tr.resolved_list_into(tree, g, &mut work.jpos, &mut work.jmass);
    let node = &tree.nodes()[g.node as usize];
    work.targets.clear();
    work.targets.extend(node.range().map(|k| tree.original_index(k)));
    work.xi.clear();
    work.xi.extend_from_slice(&tree.pos()[node.range()]);
    work.tally = InteractionTally {
        interactions: work.jpos.len() as u64 * work.targets.len() as u64,
        terms: work.jpos.len() as u64,
        lists: 1,
    };
}

/// Stream every group's resolved work into `consume` through a
/// throwaway [`PlanPool`] — buffers are still shared within the call,
/// but capacities are not retained across calls. Long-lived drivers
/// should own a pool and call [`stream_with`].
pub fn stream<F: FnMut(&GroupWork)>(
    tree: &Tree,
    tr: &Traversal,
    groups: &[Group],
    cfg: &PlanConfig,
    consume: F,
) -> Result<PlanStats, PlanError> {
    let pool = PlanPool::new();
    stream_with(tree, tr, groups, cfg, &pool, consume)
}

/// Stream every group's resolved work into `consume`, overlapping
/// production with consumption according to `cfg` and recycling every
/// buffer through `pool`.
///
/// The consumer runs on the calling thread and sees each [`GroupWork`]
/// by reference; when the callback returns, the husk goes back to the
/// pool for the next group. Producers (if any) run in a scope that ends
/// before `stream_with` returns, so borrows of `tree` never escape. A
/// panic while resolving a group travels through the channel as a
/// [`PlanError`] value: the stream shuts down cleanly (producers notice
/// the closed channel and stop) and the error comes back to the caller
/// instead of aborting the process.
pub fn stream_with<F: FnMut(&GroupWork)>(
    tree: &Tree,
    tr: &Traversal,
    groups: &[Group],
    cfg: &PlanConfig,
    pool: &PlanPool,
    consume: F,
) -> Result<PlanStats, PlanError> {
    stream_with_augment(tree, tr, groups, cfg, pool, &|_| {}, consume)
}

/// [`stream_with`], with a producer-side *augment hook*: after a group
/// is resolved against the local tree, `augment` runs on the producer
/// thread (or inline on the serial path) and may extend the husk's
/// `jpos`/`jmass` with additional interaction terms before the item is
/// sent. This is how the cluster backend folds local-essential-tree
/// resolution into the stream — remote terms are appended while the
/// consumer is already driving the device for earlier groups, instead
/// of behind a pre-evaluation barrier.
///
/// The hook runs inside the same catch-unwind bracket as the
/// traversal, so a panic while augmenting surfaces as a [`PlanError`]
/// exactly like a resolution panic. `work.tally` is computed *before*
/// the hook and deliberately left alone: tallies keep counting the
/// local treecode terms, bit-identical to the unaugmented path.
pub fn stream_with_augment<A, F>(
    tree: &Tree,
    tr: &Traversal,
    groups: &[Group],
    cfg: &PlanConfig,
    pool: &PlanPool,
    augment: &A,
    mut consume: F,
) -> Result<PlanStats, PlanError>
where
    A: Fn(&mut GroupWork) + Sync,
    F: FnMut(&GroupWork),
{
    let mut stats = PlanStats::default();
    let minted_before = pool.minted();
    let workers = cfg.resolved_workers(groups.len());

    if workers == 0 {
        // inline: produce and consume one group at a time, in
        // find_groups order, through a single recycled husk
        let mut work = pool.take_husk();
        let mut failure = None;
        for &g in groups {
            let t = Instant::now();
            let ok = catch_unwind(AssertUnwindSafe(|| {
                resolve_group_into(tree, tr, g, &mut work);
                augment(&mut work);
            }));
            stats.produce_s += t.elapsed().as_secs_f64();
            if let Err(p) = ok {
                failure = Some(PlanError { group: Some(g.node), message: payload_msg(&*p) });
                break;
            }
            stats.tally = stats.tally.merged(work.tally);
            consume(&work);
        }
        pool.put_husk(work);
        stats.husks_minted = pool.minted() - minted_before;
        return match failure {
            Some(e) => Err(e),
            None => Ok(stats),
        };
    }

    let (tx, rx) = sync_channel::<Result<GroupWork, PlanError>>(cfg.channel_depth.max(1));
    let next = AtomicUsize::new(0);
    let failure = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            handles.push(s.spawn(move || {
                let mut cpu_s = 0.0;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= groups.len() {
                        break;
                    }
                    let mut work = pool.take_husk();
                    let t = Instant::now();
                    let item = catch_unwind(AssertUnwindSafe(|| {
                        resolve_group_into(tree, tr, groups[i], &mut work);
                        augment(&mut work);
                        work
                    }))
                    .map_err(|p| PlanError {
                        group: Some(groups[i].node),
                        message: payload_msg(&*p),
                    });
                    cpu_s += t.elapsed().as_secs_f64();
                    let failed = item.is_err();
                    if tx.send(item).is_err() || failed {
                        break; // consumer gone, or nothing sane left to produce
                    }
                }
                cpu_s
            }));
        }
        drop(tx); // channel closes when the last producer finishes

        let mut failure: Option<PlanError> = None;
        loop {
            let t = Instant::now();
            let Ok(item) = rx.recv() else { break };
            stats.consumer_blocked_s += t.elapsed().as_secs_f64();
            match item {
                Ok(work) => {
                    stats.tally = stats.tally.merged(work.tally);
                    consume(&work);
                    pool.put_husk(work);
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        // unblock any producer parked on a full channel before joining
        drop(rx);
        for h in handles {
            match h.join() {
                Ok(cpu_s) => stats.produce_s += cpu_s,
                Err(p) => {
                    if failure.is_none() {
                        failure = Some(PlanError { group: None, message: payload_msg(&*p) });
                    }
                }
            }
        }
        failure
    });
    stats.husks_minted = pool.minted() - minted_before;
    match failure {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeConfig;
    use rand::{Rng, SeedableRng};

    fn cloud(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let pos = (0..n)
            .map(|_| {
                Vec3::new(
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                )
            })
            .collect();
        let mass = vec![1.0 / n as f64; n];
        (pos, mass)
    }

    /// Consume a full stream into per-target list lengths + tally.
    fn drain(cfg: &PlanConfig, n: usize, seed: u64) -> (Vec<u64>, InteractionTally) {
        let (pos, mass) = cloud(n, seed);
        let tree = Tree::build_with(&pos, &mass, TreeConfig::default());
        let tr = Traversal::new(0.7);
        let groups = tr.find_groups(&tree, 32);
        let mut per_target = vec![0u64; n];
        let stats = stream(&tree, &tr, &groups, cfg, |w| {
            assert_eq!(w.targets.len(), w.xi.len());
            assert_eq!(w.jpos.len(), w.jmass.len());
            assert_eq!(w.tally.terms, w.jpos.len() as u64);
            for &t in &w.targets {
                per_target[t] += w.jpos.len() as u64;
            }
        })
        .unwrap();
        (per_target, stats.tally)
    }

    #[test]
    fn default_workers_leave_one_core_to_the_consumer() {
        assert_eq!([1, 2, 8].map(workers_for), [0, 1, 7]);
        // an explicit count is taken as given, whatever the stream's
        // length, and "overlapped" still means at least one producer
        let many = 1 << 20;
        assert_eq!(PlanConfig::serial().resolved_workers(many), 0);
        let five = PlanConfig { workers: Some(5), channel_depth: 2 };
        assert_eq!([1, many].map(|g| five.resolved_workers(g)), [5, 5]);
        assert!(PlanConfig::overlapped(0, 3).resolved_workers(1) >= 1);
        // the default follows this caller's share of the machine: all
        // of it alone, an equal part beside other registered callers,
        // and no producer at all once there is a caller per core — and
        // no more producers than groups after the first
        let total = cores::total();
        let default = |groups| PlanConfig::default().resolved_workers(groups);
        assert_eq!([0, 1, 2, many].map(default), [0, 0, 1.min(total - 1), total - 1]);
        let others: Vec<cores::Caller> = (0..total).map(|_| cores::enter()).collect();
        assert_eq!(default(many), 0);
        assert_eq!(five.resolved_workers(many), 5);
        drop(others);
        assert_eq!(default(many), total - 1);
    }

    #[test]
    fn zero_workers_stream_inline_with_nothing_in_flight() {
        // the plan a one-core process gets by default: no producer
        // thread, so the consumer is never blocked and one husk serves
        // every group, whatever the channel depth says
        let (pos, mass) = cloud(700, 9);
        let tree = Tree::build_with(&pos, &mass, TreeConfig::default());
        let tr = Traversal::new(0.7);
        let groups = tr.find_groups(&tree, 32);
        let pool = PlanPool::new();
        let me = std::thread::current().id();
        for channel_depth in [1, 4] {
            let cfg = PlanConfig { workers: Some(0), channel_depth };
            let mut order = Vec::new();
            let stats = stream_with_augment(
                &tree,
                &tr,
                &groups,
                &cfg,
                &pool,
                &|_| assert_eq!(std::thread::current().id(), me, "augment hook left the caller"),
                |w| order.push(w.group),
            )
            .unwrap();
            assert_eq!(order, groups, "inline streaming is in find_groups order");
            assert_eq!(stats.consumer_blocked_s, 0.0);
            assert_eq!(pool.minted(), 1);
        }
    }

    #[test]
    fn serial_covers_every_target_once() {
        let (per_target, tally) = drain(&PlanConfig::serial(), 700, 9);
        assert!(per_target.iter().all(|&c| c > 0), "some particle left unassigned");
        assert_eq!(tally.interactions, per_target.iter().sum::<u64>());
    }

    #[test]
    fn overlapped_matches_serial_coverage() {
        for depth in [1, 2, 8] {
            let serial = drain(&PlanConfig::serial(), 700, 9);
            let overlapped = drain(&PlanConfig::overlapped(3, depth), 700, 9);
            assert_eq!(serial.0, overlapped.0, "depth {depth}");
            assert_eq!(serial.1, overlapped.1, "depth {depth}");
        }
    }

    #[test]
    fn stats_tally_matches_traversal_tally() {
        let (pos, mass) = cloud(900, 4);
        let tree = Tree::build_with(&pos, &mass, TreeConfig::default());
        let tr = Traversal::new(0.8);
        let groups = tr.find_groups(&tree, 48);
        let stats = stream(&tree, &tr, &groups, &PlanConfig::default(), |_| {}).unwrap();
        assert_eq!(stats.tally, tr.modified_tally(&tree, 48));
        assert_eq!(stats.tally.lists, groups.len() as u64);
        assert!(stats.produce_s >= 0.0);
    }

    #[test]
    fn pool_mints_once_then_recycles() {
        let (pos, mass) = cloud(800, 6);
        let tree = Tree::build_with(&pos, &mass, TreeConfig::default());
        let tr = Traversal::new(0.7);
        let groups = tr.find_groups(&tree, 32);
        let pool = PlanPool::new();
        // serial scheduling is deterministic: one husk, then pure reuse
        let warm = stream_with(&tree, &tr, &groups, &PlanConfig::serial(), &pool, |_| {}).unwrap();
        let steady =
            stream_with(&tree, &tr, &groups, &PlanConfig::serial(), &pool, |_| {}).unwrap();
        assert_eq!(warm.husks_minted, 1, "first serial pass mints exactly one husk");
        assert_eq!(steady.husks_minted, 0, "steady state must recycle");
        assert_eq!(warm.tally, steady.tally);
        // overlapped minting depends on producer/consumer interleaving,
        // but in-flight demand — and so total mints across any number of
        // passes — is bounded by workers + depth + 1
        let cfg = PlanConfig::overlapped(2, 4);
        for _ in 0..3 {
            let s = stream_with(&tree, &tr, &groups, &cfg, &pool, |_| {}).unwrap();
            assert_eq!(s.tally, warm.tally);
        }
        assert!(pool.minted() <= 1 + 2 + 4 + 1, "minted {}", pool.minted());
    }

    #[test]
    fn consumer_drop_does_not_hang() {
        // consume only the first item, then let `stream` unwind: the
        // producers must notice the closed channel and stop
        let (pos, mass) = cloud(600, 12);
        let tree = Tree::build_with(&pos, &mass, TreeConfig::default());
        let tr = Traversal::new(0.7);
        let groups = tr.find_groups(&tree, 16);
        let mut seen = 0usize;
        stream(&tree, &tr, &groups, &PlanConfig::overlapped(2, 1), |_| seen += 1).unwrap();
        assert_eq!(seen, groups.len());
    }

    #[test]
    fn augment_extends_lists_without_touching_tally() {
        let (pos, mass) = cloud(700, 9);
        let tree = Tree::build_with(&pos, &mass, TreeConfig::default());
        let tr = Traversal::new(0.7);
        let groups = tr.find_groups(&tree, 32);
        let pool = PlanPool::new();
        let extra = Vec3::new(5.0, 5.0, 5.0);
        let augment = |w: &mut GroupWork| {
            w.jpos.push(extra);
            w.jmass.push(2.5);
        };
        // per-group j-list contents must be identical across schedules:
        // (group node → appended list length and last term)
        let collect = |cfg: &PlanConfig| {
            let mut seen: Vec<(u32, usize, Vec3, f64)> = Vec::new();
            let stats = stream_with_augment(&tree, &tr, &groups, cfg, &pool, &augment, |w| {
                seen.push((
                    w.group.node,
                    w.jpos.len(),
                    *w.jpos.last().unwrap(),
                    w.tally.terms as f64,
                ));
            })
            .unwrap();
            seen.sort_by_key(|&(node, ..)| node);
            (seen, stats.tally)
        };
        let (serial, serial_tally) = collect(&PlanConfig::serial());
        let (overlapped, overlapped_tally) = collect(&PlanConfig::overlapped(3, 2));
        assert_eq!(serial, overlapped);
        assert_eq!(serial_tally, overlapped_tally);
        for &(_, len, last, terms) in &serial {
            assert_eq!(last, extra, "augmented term must arrive last");
            assert_eq!(len as f64, terms + 1.0, "tally counts only local terms");
        }
        // tallies are bit-identical to the unaugmented stream
        let plain = stream_with(&tree, &tr, &groups, &PlanConfig::serial(), &pool, |_| {}).unwrap();
        assert_eq!(plain.tally, serial_tally);
    }

    #[test]
    fn augment_panic_surfaces_as_error() {
        let (pos, mass) = cloud(300, 10);
        let tree = Tree::build_with(&pos, &mass, TreeConfig::default());
        let tr = Traversal::new(0.7);
        let groups = tr.find_groups(&tree, 16);
        let pool = PlanPool::new();
        let augment = |_: &mut GroupWork| panic!("LET resolution failed");
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let serial = stream_with_augment(
            &tree,
            &tr,
            &groups,
            &PlanConfig::serial(),
            &pool,
            &augment,
            |_| {},
        );
        let overlapped = stream_with_augment(
            &tree,
            &tr,
            &groups,
            &PlanConfig::overlapped(2, 2),
            &pool,
            &augment,
            |_| {},
        );
        std::panic::set_hook(prev_hook);
        assert!(serial.unwrap_err().message.contains("LET resolution"));
        assert!(overlapped.unwrap_err().message.contains("LET resolution"));
    }

    #[test]
    fn producer_panic_surfaces_as_error() {
        // groups found on a large tree but resolved against a small one:
        // node indices run off the end, which panics inside
        // resolve_group — the stream must return that as a PlanError
        // and shut down without hanging or aborting
        let (pos, mass) = cloud(600, 3);
        let big = Tree::build_with(&pos, &mass, TreeConfig::default());
        let tr = Traversal::new(0.7);
        let groups = tr.find_groups(&big, 8);
        let (pos2, mass2) = cloud(24, 5);
        let small = Tree::build_with(&pos2, &mass2, TreeConfig::default());
        assert!(big.nodes().len() > small.nodes().len());

        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep expected panics quiet
        let serial = stream(&small, &tr, &groups, &PlanConfig::serial(), |_| {});
        let overlapped = stream(&small, &tr, &groups, &PlanConfig::overlapped(2, 2), |_| {});
        std::panic::set_hook(prev_hook);

        let serial = serial.unwrap_err();
        assert!(serial.group.is_some());
        assert!(!serial.message.is_empty());
        assert!(serial.to_string().contains("plan producer failed"));
        overlapped.unwrap_err();
    }
}
