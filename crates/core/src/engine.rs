//! The one step body of the tree-on-GRAPE backends: bring the tree up
//! to date, stream the group lists, hand each to the device.
//!
//! [`TreeGrape`](crate::backends::TreeGrape) owns one [`Engine`] over
//! the caller's snapshot and no remote trees;
//! [`ClusterTreeGrape`](crate::cluster::ClusterTreeGrape) owns one per
//! shard over the shard's gathered particles and passes the other
//! shards' trees as `remote`. Nothing else differs between a single
//! host and a cluster node, so a K = 1 cluster makes the device calls
//! `TreeGrape` makes, on the same words, in the same order.

use crate::backends::{ForceError, TreeGrapeConfig};
use crate::perf::PhaseTimers;
use g5tree::domain::let_terms_into;
use g5tree::plan::{self, PlanPool};
use g5tree::traverse::{Group, Traversal, TraverseScratch};
use g5tree::tree::Tree;
use g5util::counters::InteractionTally;
use g5util::vec3::Vec3;
use grape5::{DeviceError, DeviceSession, Grape5, RecoveryStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A cached octree with its group partition and the retained buffers
/// that make a steady-state evaluation allocate nothing.
#[derive(Default)]
pub(crate) struct Engine {
    /// Octree of the last full build, refreshed in place in between.
    tree: Option<Tree>,
    /// Group partition of the cached topology (valid until rebuild).
    groups: Vec<Group>,
    gscratch: TraverseScratch,
    /// Recycled streaming buffers (husks + per-worker arenas).
    pool: PlanPool,
}

/// What one [`Engine::evaluate`] did besides filling the forces.
#[derive(Default)]
pub(crate) struct Evaluation {
    /// Local list terms plus imported remote ones.
    pub tally: InteractionTally,
    /// `traverse_s`, `exchange_s` (wall seconds walking remote trees),
    /// `device_s`, `consumer_blocked_s` and `force_wall_s` of this
    /// evaluation; the tree-update fields are the owner's to fill.
    pub timers: PhaseTimers,
    pub recovery: RecoveryStats,
    /// A plan failure, or else the device error that stopped the
    /// consumer. The forces are unusable when set.
    pub err: Option<ForceError>,
}

impl Engine {
    pub(crate) fn tree(&self) -> Option<&Tree> {
        self.tree.as_ref()
    }

    pub(crate) fn pool(&self) -> &PlanPool {
        &self.pool
    }

    /// Re-accumulate the cached tree's moments from the current
    /// positions, topology frozen. `false` — the caller must
    /// [`rebuild`](Self::rebuild) — when there is no tree of this size,
    /// or when the accumulated drift bound exceeds `max_drift_frac` of
    /// the root cell's half-width, the natural length scale of the
    /// frozen topology.
    pub(crate) fn refresh(&mut self, pos: &[Vec3], mass: &[f64], max_drift_frac: f64) -> bool {
        match self.tree.as_mut() {
            Some(tree) if tree.len() == pos.len() => {
                let drift = tree.refresh(pos, mass);
                drift <= max_drift_frac * tree.nodes()[0].half
            }
            _ => false,
        }
    }

    /// Build the tree and its group partition from scratch.
    ///
    /// The retiring tree's Morton order seeds the rebuild's sort
    /// (incremental re-sort of drifted runs); a snapshot-size or
    /// membership change mismatches lengths and falls back to the
    /// from-scratch sort. Either way the built tree is bitwise
    /// hint-independent.
    pub(crate) fn rebuild(&mut self, pos: &[Vec3], mass: &[f64], cfg: &TreeGrapeConfig) {
        let prev = self.tree.take();
        let tree =
            Tree::build_with_hint(pos, mass, cfg.tree_config, prev.as_ref().map(|t| t.order()));
        Traversal::new(cfg.theta).find_groups_into(
            &tree,
            cfg.n_crit,
            &mut self.gscratch,
            &mut self.groups,
        );
        self.tree = Some(tree);
    }

    /// One force evaluation over the cached tree: stream the resolved
    /// group lists from the plan straight into `g5`, writing each
    /// group's forces to its members' slots of `acc` / `pot` (indexed
    /// like the `pos` the tree was built from).
    ///
    /// Traversal of group k+1 overlaps GRAPE execution of group k when
    /// the plan has a producer, and only `channel_depth` resolved lists
    /// ever exist at once, every one a recycled husk from the pool.
    /// Arrival order is immaterial — each group writes its own disjoint
    /// targets (see [`g5tree::plan`]).
    ///
    /// Remote mass is resolved per group, on the producer side: the
    /// group's drift-inflated sphere walks every tree in `remote` with
    /// the force MAC and the accepted terms are appended to the group's
    /// own pooled j-list, so the imported terms pass the acceptance
    /// test the group's own list passed. With a producer the walk for
    /// group k+1 overlaps the device call of group k; inline (no spare
    /// core) it runs directly in front of each device call. Terms
    /// append in `remote` order, so the device sees the same words
    /// under every schedule.
    ///
    /// `window_pos` is the **full** snapshot — every shard of a cluster
    /// quantizes over the same position window, which spares shards
    /// from re-ranging as particles migrate between domains.
    pub(crate) fn evaluate(
        &self,
        g5: &mut Grape5,
        remote: &[&Tree],
        window_pos: &[Vec3],
        cfg: &TreeGrapeConfig,
        acc: &mut [Vec3],
        pot: &mut [f64],
    ) -> Evaluation {
        let t_all = Instant::now();
        let mut out = Evaluation::default();
        let tree = self.tree.as_ref().expect("evaluate follows a rebuild");
        let tr = Traversal::new(cfg.theta);
        let mut session = match DeviceSession::try_open(g5, window_pos, cfg.eps) {
            Ok(s) => s.with_retry(cfg.retry),
            Err(e) => {
                out.err = Some(e.into());
                return out;
            }
        };
        // atomics because the hook runs on plan worker threads
        let exch_ns = AtomicU64::new(0);
        let r_terms = AtomicU64::new(0);
        let r_inter = AtomicU64::new(0);
        let augment = |work: &mut plan::GroupWork| {
            if remote.is_empty() {
                return;
            }
            let te = Instant::now();
            let before = work.jpos.len();
            let sphere = tr.group_sphere(tree, work.group);
            for src in remote {
                let_terms_into(src, &tr.mac, &sphere, &mut work.jpos, &mut work.jmass);
            }
            let added = (work.jpos.len() - before) as u64;
            r_terms.fetch_add(added, Ordering::Relaxed);
            r_inter.fetch_add(added * work.xi.len() as u64, Ordering::Relaxed);
            exch_ns.fetch_add(te.elapsed().as_nanos() as u64, Ordering::Relaxed);
        };
        // An unrecoverable device error stops consuming (remaining
        // groups drain unevaluated) and surfaces after the stream
        // winds down.
        let mut device_err: Option<DeviceError> = None;
        let stats = plan::stream_with_augment(
            tree,
            &tr,
            &self.groups,
            &cfg.plan,
            &self.pool,
            &augment,
            |work| {
                if device_err.is_some() {
                    return;
                }
                let t = Instant::now();
                match session.try_force_for(&work.jpos, &work.jmass, &work.xi) {
                    Ok(forces) => {
                        for (t_idx, f) in work.targets.iter().zip(forces) {
                            acc[*t_idx] = f.acc;
                            pot[*t_idx] = f.pot;
                        }
                    }
                    Err(e) => device_err = Some(e),
                }
                out.timers.device_s += t.elapsed().as_secs_f64();
            },
        );
        out.recovery = session.recovery_stats();
        out.timers.exchange_s = exch_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        out.tally = InteractionTally {
            interactions: r_inter.load(Ordering::Relaxed),
            terms: r_terms.load(Ordering::Relaxed),
            lists: 0,
        };
        match stats {
            Ok(s) => {
                out.tally = out.tally.merged(s.tally);
                out.timers.traverse_s = s.produce_s;
                out.timers.consumer_blocked_s = s.consumer_blocked_s;
                out.err = device_err.map(ForceError::from);
            }
            Err(e) => out.err = Some(e.into()),
        }
        out.timers.force_wall_s = t_all.elapsed().as_secs_f64();
        out
    }
}
