//! Staged force evaluation: the product's step, re-enacted from outside.
//!
//! [`treegrape::TreeGrape`] and [`treegrape::ClusterTreeGrape`] overlap
//! traversal with device calls on worker and shard threads, so their
//! layers cannot be timed individually from outside. The backends here
//! make the *same public calls on the same data in sequence* — build →
//! find groups → open session → per group: resolve list, (cluster:
//! append LET terms,) load j, force on — with a [`Tracer`] span around
//! each call. Every group produces the j-list the product produces and
//! sends it through the same `DeviceSession`, so the forces are
//! bit-identical to the product's (the traced run checks that on every
//! workload); what differs is only that nothing overlaps. That
//! difference is reported as `trace.staged_over_product`.

use crate::trace::Tracer;
use g5tree::domain::{let_terms_into, Decomposition};
use g5tree::mac::Mac;
use g5tree::plan::{self, GroupWork, PlanConfig, PlanPool};
use g5tree::traverse::{Group, Traversal, TraverseScratch};
use g5tree::tree::Tree;
use g5util::counters::InteractionTally;
use g5util::vec3::Vec3;
use grape5::{ClockAccounting, DeviceError, DeviceSession, Grape5, RecoveryStats};
use std::time::Instant;
use treegrape::{
    ClusterTreeGrapeConfig, ForceBackend, ForceError, ForceSet, PhaseTimers, TreeGrapeConfig,
};

/// Counts taken at the span boundaries, summed over every evaluation
/// since construction; callers difference two copies to get the counts
/// of an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Force evaluations.
    pub evals: u64,
    /// Groups streamed.
    pub groups: u64,
    /// Local interaction-list terms resolved.
    pub terms: u64,
    /// Remote (LET) terms appended.
    pub let_terms: u64,
    /// Pairwise interactions sent to the device.
    pub interactions: u64,
    /// Device force calls.
    pub calls: u64,
    /// Tree nodes built.
    pub nodes: u64,
    /// `GroupWork` husks the plan pool had to mint.
    pub husks_minted: u64,
    /// CPU seconds `plan::stream_with` itself attributes to list
    /// production (`PlanStats::produce_s`).
    pub produce_cpu_s: f64,
}

impl Counts {
    /// Component-wise `self − earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            evals: self.evals - earlier.evals,
            groups: self.groups - earlier.groups,
            terms: self.terms - earlier.terms,
            let_terms: self.let_terms - earlier.let_terms,
            interactions: self.interactions - earlier.interactions,
            calls: self.calls - earlier.calls,
            nodes: self.nodes - earlier.nodes,
            husks_minted: self.husks_minted - earlier.husks_minted,
            produce_cpu_s: self.produce_cpu_s - earlier.produce_cpu_s,
        }
    }
}

/// What the traced run needs from a staged backend beyond
/// [`ForceBackend`].
pub trait Staged: ForceBackend {
    /// The span recorder.
    fn tracer(&mut self) -> &mut Tracer;
    /// Counts so far.
    fn counts(&self) -> Counts;
    /// Hardware accounting summed over the backend's devices.
    fn accounting(&self) -> ClockAccounting;
    /// Smallest ÷ largest shard particle count of the last evaluation
    /// (1 for a single device).
    fn count_balance(&self) -> f64;
}

fn empty_forces(n: usize) -> ForceSet {
    ForceSet {
        acc: vec![Vec3::ZERO; n],
        pot: vec![0.0; n],
        tally: InteractionTally::default(),
        timers: PhaseTimers::default(),
    }
}

/// One group through the device, with spans: `session.load_j` then
/// `session.force_on` when the list fits the j-memory (the product's
/// `try_force_for` does exactly these two), the chunking call
/// otherwise.
fn device_call(
    tracer: &mut Tracer,
    session: &mut DeviceSession<'_>,
    jpos: &[Vec3],
    jmass: &[f64],
    xi: &[Vec3],
) -> Result<Vec<grape5::Force>, DeviceError> {
    if jpos.len() <= session.jmem_capacity() {
        tracer.time("session.load_j", || session.load_j(jpos, jmass));
        tracer.time("session.force_on", || session.try_force_on(xi))
    } else {
        tracer.time("session.force_on", || session.try_force_for(jpos, jmass, xi))
    }
}

/// Stream one tree's groups serially through one device: the gap
/// between two consumer callbacks is the list resolution
/// (`traverse.list`), `augment` may extend the j-list (the cluster's
/// LET terms), then the device call. Forces land in `acc`/`pot` at the
/// group's target indices.
#[allow(clippy::too_many_arguments)]
fn stream_serial(
    tracer: &mut Tracer,
    counts: &mut Counts,
    tree: &Tree,
    tr: &Traversal,
    groups: &[Group],
    pool: &PlanPool,
    session: &mut DeviceSession<'_>,
    mut augment: impl FnMut(&mut Tracer, &GroupWork, &mut Vec<Vec3>, &mut Vec<f64>) -> bool,
    acc: &mut [Vec3],
    pot: &mut [f64],
) -> Result<InteractionTally, ForceError> {
    let stream = tracer.begin("plan.stream");
    let mut mark = Instant::now();
    let mut device_err: Option<DeviceError> = None;
    let (mut rjp, mut rjm) = (Vec::new(), Vec::new());
    let mut extra = InteractionTally::default();
    let stats = plan::stream_with(tree, tr, groups, &PlanConfig::serial(), pool, |work| {
        tracer.record("traverse.list", mark, Instant::now());
        if device_err.is_none() {
            let augmented = augment(tracer, work, &mut rjp, &mut rjm);
            let (jp, jm): (&[Vec3], &[f64]) =
                if augmented { (&rjp, &rjm) } else { (&work.jpos, &work.jmass) };
            let added = (jp.len() - work.jpos.len()) as u64;
            extra.terms += added;
            extra.interactions += added * work.xi.len() as u64;
            match device_call(tracer, session, jp, jm, &work.xi) {
                Ok(forces) => {
                    for (&t, f) in work.targets.iter().zip(forces) {
                        acc[t] = f.acc;
                        pot[t] = f.pot;
                    }
                }
                Err(e) => device_err = Some(e),
            }
            counts.calls += 1;
        }
        mark = Instant::now();
    });
    tracer.end(stream);
    let stats = stats?;
    if let Some(e) = device_err {
        return Err(e.into());
    }
    counts.groups += groups.len() as u64;
    counts.terms += stats.tally.terms;
    counts.let_terms += extra.terms;
    counts.interactions += stats.tally.interactions + extra.interactions;
    counts.husks_minted += stats.husks_minted;
    counts.produce_cpu_s += stats.produce_s;
    Ok(stats.tally.merged(extra))
}

/// [`treegrape::TreeGrape`]'s evaluation as sequential traced calls.
pub struct StagedTreeGrape {
    cfg: TreeGrapeConfig,
    g5: Grape5,
    tree: Option<Tree>,
    groups: Vec<Group>,
    gscratch: TraverseScratch,
    pool: PlanPool,
    tracer: Tracer,
    counts: Counts,
    recovery: RecoveryStats,
}

impl StagedTreeGrape {
    /// Open a device of its own with the product's configuration.
    pub fn new(cfg: TreeGrapeConfig) -> StagedTreeGrape {
        let mut g5 = Grape5::open(cfg.grape);
        g5.set_eps(cfg.eps);
        StagedTreeGrape {
            cfg,
            g5,
            tree: None,
            groups: Vec::new(),
            gscratch: TraverseScratch::default(),
            pool: PlanPool::new(),
            tracer: Tracer::new(),
            counts: Counts::default(),
            recovery: RecoveryStats::default(),
        }
    }
}

impl Staged for StagedTreeGrape {
    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    fn counts(&self) -> Counts {
        self.counts
    }

    fn accounting(&self) -> ClockAccounting {
        self.g5.accounting()
    }

    fn count_balance(&self) -> f64 {
        1.0
    }
}

impl ForceBackend for StagedTreeGrape {
    fn try_compute(&mut self, pos: &[Vec3], mass: &[f64]) -> Result<ForceSet, ForceError> {
        let StagedTreeGrape { cfg, g5, tree, groups, gscratch, pool, tracer, counts, recovery } =
            self;
        let root = tracer.begin("force_eval");
        let tr = Traversal::new(cfg.theta);
        let prev = tree.take();
        let built = tracer.time("tree.build", || {
            Tree::build_with_hint(pos, mass, cfg.tree_config, prev.as_ref().map(|t| t.order()))
        });
        tracer.time("traverse.find_groups", || {
            tr.find_groups_into(&built, cfg.n_crit, gscratch, groups)
        });
        let mut out = empty_forces(pos.len());
        let open = tracer.begin("session.open");
        let opened = DeviceSession::try_open(g5, pos, cfg.eps);
        tracer.end(open);
        let result = opened.map_err(ForceError::from).and_then(|session| {
            let mut session = session.with_retry(cfg.retry);
            let tally = stream_serial(
                tracer,
                counts,
                &built,
                &tr,
                groups,
                pool,
                &mut session,
                |_, _, _, _| false,
                &mut out.acc,
                &mut out.pot,
            );
            *recovery = recovery.merged(session.recovery_stats());
            tally
        });
        counts.evals += 1;
        counts.nodes += built.nodes().len() as u64;
        *tree = Some(built);
        tracer.end(root);
        out.tally = result?;
        out.timers.force_wall_s = tracer.spans()[root].dur_ns() as f64 * 1e-9;
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "staged-tree-grape"
    }

    fn recovery_stats(&self) -> Option<RecoveryStats> {
        Some(self.recovery)
    }
}

struct Shard {
    g5: Grape5,
    pos: Vec<Vec3>,
    mass: Vec<f64>,
    tree: Option<Tree>,
    groups: Vec<Group>,
    gscratch: TraverseScratch,
    pool: PlanPool,
    acc: Vec<Vec3>,
    pot: Vec<f64>,
}

/// [`treegrape::ClusterTreeGrape`]'s evaluation as sequential traced
/// calls: one decomposition, then shard after shard on the calling
/// thread. A healthy cluster cuts with equal weights, which is what
/// the product does as long as no shard is lost or measured slow — the
/// bit-identity check against the product would expose a departure.
pub struct StagedCluster {
    cfg: ClusterTreeGrapeConfig,
    shards: Vec<Shard>,
    order_hint: Option<Vec<u32>>,
    tracer: Tracer,
    counts: Counts,
    count_balance: f64,
}

impl Staged for StagedCluster {
    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    fn counts(&self) -> Counts {
        self.counts
    }

    fn accounting(&self) -> ClockAccounting {
        self.shards.iter().fold(ClockAccounting::default(), |a, s| a.merged(s.g5.accounting()))
    }

    fn count_balance(&self) -> f64 {
        self.count_balance
    }
}

impl StagedCluster {
    /// Open `cfg.shards` devices of its own.
    pub fn new(cfg: ClusterTreeGrapeConfig) -> StagedCluster {
        let shards = (0..cfg.shards)
            .map(|_| {
                let mut g5 = Grape5::open(cfg.base.grape);
                g5.set_eps(cfg.base.eps);
                Shard {
                    g5,
                    pos: Vec::new(),
                    mass: Vec::new(),
                    tree: None,
                    groups: Vec::new(),
                    gscratch: TraverseScratch::default(),
                    pool: PlanPool::new(),
                    acc: Vec::new(),
                    pot: Vec::new(),
                }
            })
            .collect();
        StagedCluster {
            cfg,
            shards,
            order_hint: None,
            tracer: Tracer::new(),
            counts: Counts::default(),
            count_balance: 0.0,
        }
    }
}

impl ForceBackend for StagedCluster {
    fn try_compute(&mut self, pos: &[Vec3], mass: &[f64]) -> Result<ForceSet, ForceError> {
        let StagedCluster { cfg, shards, order_hint, tracer, counts, count_balance } = self;
        let base = &cfg.base;
        let root = tracer.begin("force_eval");
        let tr = Traversal::new(base.theta);
        let mac = Mac::new(base.theta);

        let weights = vec![1u64; shards.len()];
        let (decomp, order) = tracer.time("domain.decompose", || {
            Decomposition::morton_weighted_hinted(pos, &weights, order_hint.as_deref())
        });
        *order_hint = Some(order);
        let sizes: Vec<usize> = (0..shards.len()).map(|d| decomp.owned(d).len()).collect();
        *count_balance = *sizes.iter().min().expect("at least one shard") as f64
            / *sizes.iter().max().expect("at least one shard") as f64;

        for (d, sh) in shards.iter_mut().enumerate() {
            tracer.set_lane(d as u32 + 1);
            tracer.time("domain.gather", || decomp.gather(d, pos, mass, &mut sh.pos, &mut sh.mass));
            let build = tracer.begin("cluster.shard_build");
            let prev = sh.tree.take();
            let built = tracer.time("tree.build", || {
                Tree::build_with_hint(
                    &sh.pos,
                    &sh.mass,
                    base.tree_config,
                    prev.as_ref().map(|t| t.order()),
                )
            });
            tracer.time("traverse.find_groups", || {
                tr.find_groups_into(&built, base.n_crit, &mut sh.gscratch, &mut sh.groups)
            });
            tracer.end(build);
            counts.nodes += built.nodes().len() as u64;
            sh.tree = Some(built);
        }

        let mut total = InteractionTally::default();
        let mut failure: Option<ForceError> = None;
        for d in 0..shards.len() {
            tracer.set_lane(d as u32 + 1);
            let eval = tracer.begin("cluster.shard_eval");
            // this shard mutably (its device), every other tree shared
            let (before, rest) = shards.split_at_mut(d);
            let (sh, after) = rest.split_first_mut().expect("shard d exists");
            let remote: Vec<&Tree> = before
                .iter()
                .chain(after.iter())
                .map(|s| s.tree.as_ref().expect("every shard was just built"))
                .collect();
            let tree = sh.tree.as_ref().expect("every shard was just built");
            sh.acc.clear();
            sh.acc.resize(sh.pos.len(), Vec3::ZERO);
            sh.pot.clear();
            sh.pot.resize(sh.pos.len(), 0.0);
            // every shard declares the *global* window, as the product does
            let open = tracer.begin("session.open");
            let opened = DeviceSession::try_open(&mut sh.g5, pos, base.eps);
            tracer.end(open);
            let result = opened.map_err(ForceError::from).and_then(|session| {
                let mut session = session.with_retry(base.retry);
                stream_serial(
                    tracer,
                    counts,
                    tree,
                    &tr,
                    &sh.groups,
                    &sh.pool,
                    &mut session,
                    |tracer, work, rjp, rjm| {
                        tracer.time("domain.let_terms", || {
                            rjp.clear();
                            rjm.clear();
                            rjp.extend_from_slice(&work.jpos);
                            rjm.extend_from_slice(&work.jmass);
                            let sphere = tr.group_sphere(tree, work.group);
                            for src in &remote {
                                let_terms_into(src, &mac, &sphere, rjp, rjm);
                            }
                        });
                        true
                    },
                    &mut sh.acc,
                    &mut sh.pot,
                )
            });
            tracer.end(eval);
            match result {
                Ok(t) => total = total.merged(t),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        tracer.set_lane(0);
        counts.evals += 1;
        if let Some(e) = failure {
            tracer.end(root);
            return Err(e);
        }

        let mut out = empty_forces(pos.len());
        tracer.time("cluster.assemble", || {
            for (d, sh) in shards.iter().enumerate() {
                for (j, &gi) in decomp.owned(d).iter().enumerate() {
                    out.acc[gi as usize] = sh.acc[j];
                    out.pot[gi as usize] = sh.pot[j];
                }
            }
        });
        tracer.end(root);
        out.tally = total;
        out.timers.force_wall_s = tracer.spans()[root].dur_ns() as f64 * 1e-9;
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "staged-cluster-tree-grape"
    }
}
