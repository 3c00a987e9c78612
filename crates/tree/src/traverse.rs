//! Tree traversals: interaction-list construction.
//!
//! **Original algorithm** (Barnes & Hut 1986): one tree walk per
//! particle produces that particle's interaction list. Host cost is
//! O(N log N) walks — which is exactly what saturates the workstation
//! when GRAPE does the force arithmetic.
//!
//! **Modified algorithm** (Barnes 1990, §3 of the paper): particles are
//! grouped into tree cells holding at most `n_crit` neighbours; one
//! walk per *group* produces a single list shared by every member, with
//! the members themselves appended so intra-group forces are computed
//! directly (GRAPE's zero-distance guard drops the self term). Host
//! cost falls by ≈ n_g; list length — and thus GRAPE work — grows.
//! Trading one against the other gives the optimal n_g of §3.
//!
//! Every list **partitions the full particle set**: each particle of
//! the snapshot appears in exactly one accepted cell or body term, so
//! the summed list mass always equals the total mass. The tests enforce
//! this closure property.

use crate::mac::{GroupSphere, Mac, MacKind};
use crate::tree::{NodeColumns, Tree, NONE};
use g5util::counters::InteractionTally;
use g5util::morton;
use g5util::vec3::Vec3;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Reusable grouping state: the explicit stack of
/// [`Traversal::find_groups_into`], whose capacity is carried across
/// calls so steady-state grouping does no heap allocation. (The list
/// walk needs none: its stack is bounded by the tree's depth cap and
/// lives on the call stack.)
#[derive(Debug, Clone, Default)]
pub struct TraverseScratch {
    stack: Vec<u32>,
}

/// One term of an interaction list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ListTerm {
    /// A tree cell, standing in for its particles via its monopole.
    Cell(u32),
    /// A single particle (index into the tree's sorted order).
    Body(u32),
}

impl ListTerm {
    /// Resolve a term to the (position, mass) pair GRAPE consumes.
    #[inline]
    pub fn resolve(self, tree: &Tree) -> (Vec3, f64) {
        match self {
            ListTerm::Cell(c) => {
                let n = &tree.nodes()[c as usize];
                (n.com, n.mass)
            }
            ListTerm::Body(k) => (tree.pos()[k as usize], tree.mass()[k as usize]),
        }
    }
}

/// A group of the modified algorithm: one tree cell with ≤ n_crit
/// particles whose members share an interaction list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Group {
    /// The group's tree cell.
    pub node: u32,
}

/// All groups plus their shared lists, as produced by
/// [`Traversal::modified_lists`].
#[derive(Debug, Clone)]
pub struct ModifiedLists {
    /// The groups, in tree order.
    pub groups: Vec<Group>,
    /// `lists[g]` is the interaction list shared by group `g`.
    pub lists: Vec<Vec<ListTerm>>,
}

impl ModifiedLists {
    /// Interaction statistics: every member of a group interacts with
    /// every term of the shared list.
    pub fn tally(&self, tree: &Tree) -> InteractionTally {
        let mut t = InteractionTally::default();
        for (g, l) in self.groups.iter().zip(&self.lists) {
            let members = tree.nodes()[g.node as usize].count as u64;
            t.interactions += l.len() as u64 * members;
            t.terms += l.len() as u64;
            t.lists += 1;
        }
        t
    }
}

/// Tree-walk driver holding the opening criterion.
#[derive(Debug, Clone, Copy)]
pub struct Traversal {
    /// The opening criterion.
    pub mac: Mac,
}

impl Traversal {
    /// Construct with accuracy parameter θ.
    pub fn new(theta: f64) -> Traversal {
        Traversal { mac: Mac::new(theta) }
    }

    // ------------------------------------------------------------------
    // Original Barnes–Hut
    // ------------------------------------------------------------------

    /// Build the original-algorithm interaction list for a target point.
    ///
    /// The target particle itself, if it is in the tree, appears as a
    /// body term; force evaluation drops it via the zero-distance guard.
    pub fn original_list(&self, tree: &Tree, target: Vec3, out: &mut Vec<ListTerm>) {
        out.clear();
        self.walk_point(tree, 0, target, out);
    }

    fn walk_point(&self, tree: &Tree, idx: u32, target: Vec3, out: &mut Vec<ListTerm>) {
        let node = &tree.nodes()[idx as usize];
        if self.mac.accepts_point(node, target) {
            out.push(ListTerm::Cell(idx));
        } else if node.is_leaf() {
            out.extend(node.range().map(|k| ListTerm::Body(k as u32)));
        } else {
            for &c in &node.children {
                if c != NONE {
                    self.walk_point(tree, c, target, out);
                }
            }
        }
    }

    /// Interaction-count statistics of the original algorithm over all
    /// particles, without materializing the lists — this is how the
    /// paper estimates the "corrected" operation count (§5) from
    /// snapshots.
    pub fn original_tally(&self, tree: &Tree) -> InteractionTally {
        let n = tree.len();
        let total: u64 = (0..n)
            .into_par_iter()
            .map(|i| {
                let mut count = 0u64;
                self.count_point(tree, 0, tree.pos()[i], &mut count);
                count
            })
            .sum();
        InteractionTally { interactions: total, terms: total, lists: n as u64 }
    }

    fn count_point(&self, tree: &Tree, idx: u32, target: Vec3, count: &mut u64) {
        let node = &tree.nodes()[idx as usize];
        if self.mac.accepts_point(node, target) {
            *count += 1;
        } else if node.is_leaf() {
            *count += node.count as u64;
        } else {
            for &c in &node.children {
                if c != NONE {
                    self.count_point(tree, c, target, count);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Barnes' modified algorithm
    // ------------------------------------------------------------------

    /// Partition the tree into groups of at most `n_crit` particles:
    /// the shallowest cells whose population fits.
    ///
    /// Pair `n_crit` with the tree's `leaf_capacity`: a leaf larger than
    /// `n_crit` cannot be split further, so it becomes an oversized
    /// group and the n_crit knob silently stops binding. Keep
    /// `leaf_capacity <= n_crit` (the grouped backends assert this);
    /// only coincident-particle leaves may then exceed `n_crit`.
    pub fn find_groups(&self, tree: &Tree, n_crit: usize) -> Vec<Group> {
        let mut scratch = TraverseScratch::default();
        let mut groups = Vec::new();
        self.find_groups_into(tree, n_crit, &mut scratch, &mut groups);
        groups
    }

    /// [`find_groups`](Self::find_groups) into caller-owned buffers:
    /// the walk stack and the group vector keep their capacity across
    /// calls, so repeated grouping (one per step, or per refresh
    /// interval) allocates nothing in steady state.
    pub fn find_groups_into(
        &self,
        tree: &Tree,
        n_crit: usize,
        scratch: &mut TraverseScratch,
        out: &mut Vec<Group>,
    ) {
        assert!(n_crit >= 1, "n_crit must be positive");
        out.clear();
        let cols = tree.columns();
        let stack = &mut scratch.stack;
        stack.clear();
        stack.push(0);
        while let Some(idx) = stack.pop() {
            let i = idx as usize;
            if cols.span[i][1] as usize <= n_crit || cols.is_leaf(i) {
                out.push(Group { node: idx });
            } else {
                for &c in cols.children[i].iter().rev() {
                    if c != NONE {
                        stack.push(c);
                    }
                }
            }
        }
    }

    /// Bounding sphere of a group's members: centered on the center of
    /// the members' axis-aligned bounding box, radius to the farthest
    /// member.
    ///
    /// The center follows the *members*, not the cell: a group that
    /// fills one corner of its cell (the rule on a shard tree, which
    /// frames only its own slice of the snapshot) gets a sphere of the
    /// corner's size, not the cell's. Any center gives a sound opening
    /// test as long as the sphere contains every member — an accepted
    /// cell then satisfies `s/d < θ` from each of them (triangle
    /// inequality) — so the center only decides how long the lists are.
    ///
    /// On a refreshed tree the radius is inflated by
    /// [`Tree::drift_bound`], so MAC decisions stay valid for every
    /// position the members could have reached since the topology was
    /// frozen. Freshly built trees have zero drift, and `r + 0.0 == r`
    /// keeps the fresh path bit-identical.
    pub fn group_sphere(&self, tree: &Tree, group: Group) -> GroupSphere {
        let node = &tree.nodes()[group.node as usize];
        let members = &tree.pos()[node.range()];
        // every group holds ≥ 1 particle, so the box is never empty
        let (lo, hi) =
            members.iter().fold((members[0], members[0]), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        let mut sphere = GroupSphere::around((lo + hi) * 0.5, members);
        sphere.radius += tree.drift_bound();
        sphere
    }

    /// Build the shared interaction list for one group, as tree terms:
    /// the form the tallies, the host evaluator ([`crate::eval`]) and
    /// the referees read. Bit-identical, term for term, to the
    /// pre-overhaul recursive walk over the `Node` array that the
    /// `emitter_*` tests keep as its referee.
    pub fn modified_list(&self, tree: &Tree, group: Group, out: &mut Vec<ListTerm>) {
        out.clear();
        let sphere = self.group_sphere(tree, group);
        emit_terms(tree, &self.mac, &sphere, Some(group), |span| match span {
            Span::Cell(i) => out.push(ListTerm::Cell(i)),
            Span::Bodies(r) => out.extend(r.map(|k| ListTerm::Body(k as u32))),
        });
    }

    /// Append one group's shared list to `jpos`/`jmass` already
    /// resolved to the `(position, mass)` pairs GRAPE consumes — what
    /// [`modified_list`](Self::modified_list) followed by
    /// [`ListTerm::resolve`] per term would give, in the same order,
    /// without the term list in between.
    pub(crate) fn resolved_list_into(
        &self,
        tree: &Tree,
        group: Group,
        jpos: &mut Vec<Vec3>,
        jmass: &mut Vec<f64>,
    ) {
        let sphere = self.group_sphere(tree, group);
        emit_resolved(tree, &self.mac, &sphere, Some(group), jpos, jmass);
    }

    /// The pre-overhaul recursive walk over the `Node` array, kept as
    /// the referee the `emitter_*` bit-identity tests hold the one walk
    /// to.
    #[cfg(test)]
    fn modified_list_reference(&self, tree: &Tree, group: Group, out: &mut Vec<ListTerm>) {
        out.clear();
        let sphere = self.group_sphere(tree, group);
        let gnode = &tree.nodes()[group.node as usize];
        let (gfirst, gend) = (gnode.first, gnode.first + gnode.count);
        self.walk_group(tree, 0, group.node, gfirst, gend, &sphere, out);
    }

    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn walk_group(
        &self,
        tree: &Tree,
        idx: u32,
        gidx: u32,
        gfirst: u32,
        gend: u32,
        sphere: &GroupSphere,
        out: &mut Vec<ListTerm>,
    ) {
        let node = &tree.nodes()[idx as usize];
        if idx == gidx {
            // the group itself: members interact directly
            out.extend(node.range().map(|k| ListTerm::Body(k as u32)));
            return;
        }
        let is_ancestor = node.first <= gfirst && node.first + node.count >= gend;
        if is_ancestor {
            // a cell containing the group can never be accepted
            debug_assert!(!node.is_leaf(), "group must be a descendant or the node itself");
            for &c in &node.children {
                if c != NONE {
                    self.walk_group(tree, c, gidx, gfirst, gend, sphere, out);
                }
            }
        } else if self.mac.accepts_sphere(node, sphere) {
            out.push(ListTerm::Cell(idx));
        } else if node.is_leaf() {
            out.extend(node.range().map(|k| ListTerm::Body(k as u32)));
        } else {
            for &c in &node.children {
                if c != NONE {
                    self.walk_group(tree, c, gidx, gfirst, gend, sphere, out);
                }
            }
        }
    }

    /// Build every group's shared list (parallel over groups).
    pub fn modified_lists(&self, tree: &Tree, n_crit: usize) -> ModifiedLists {
        let groups = self.find_groups(tree, n_crit);
        let lists: Vec<Vec<ListTerm>> = groups
            .par_iter()
            .map(|&g| {
                let mut out = Vec::new();
                self.modified_list(tree, g, &mut out);
                out
            })
            .collect();
        ModifiedLists { groups, lists }
    }

    /// Interaction-count statistics of the modified algorithm without
    /// keeping the lists.
    pub fn modified_tally(&self, tree: &Tree, n_crit: usize) -> InteractionTally {
        let groups = self.find_groups(tree, n_crit);
        let (interactions, terms, lists) = groups
            .par_iter()
            .map(|&g| {
                let mut len = 0u64;
                let sphere = self.group_sphere(tree, g);
                emit_terms(tree, &self.mac, &sphere, Some(g), |span| match span {
                    Span::Cell(_) => len += 1,
                    Span::Bodies(r) => len += r.len() as u64,
                });
                let members = tree.nodes()[g.node as usize].count as u64;
                (len * members, len, 1u64)
            })
            .reduce(|| (0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
        InteractionTally { interactions, terms, lists }
    }
}

/// What the list walk emits, in depth-first order.
pub(crate) enum Span {
    /// An accepted cell, standing in via its monopole.
    Cell(u32),
    /// A run of bodies (tree sorted order): an opened leaf, or the
    /// group's own members.
    Bodies(std::ops::Range<usize>),
}

/// Longest root→node path: the build caps depth at `BITS_PER_DIM`.
const MAX_PATH: usize = morton::BITS_PER_DIM as usize + 1;
/// Deepest the walk stack gets: opening a node at depth d replaces it
/// by at most eight children above at most seven pending siblings per
/// level, 7·d + 8 entries, and only nodes above the depth cap open.
const MAX_STACK: usize = 7 * morton::BITS_PER_DIM as usize + 1;

/// The one list walk: the terms `tree` presents to the receiver
/// `sphere` under `mac`, emitted in the depth-first order of the
/// recursive `Node`-array walk the `emitter_*` tests referee it with.
///
/// With `group` the receiver is one of the tree's own groups (`sphere`
/// from [`Traversal::group_sphere`]): its ancestors overlap the sphere
/// and are opened untested, and the group node itself emits its members
/// as bodies. Without, the receiver is foreign — a local-essential-tree
/// walk ([`crate::domain::let_terms_into`]) — and every node, the root
/// included, takes the opening test.
pub(crate) fn emit_terms(
    tree: &Tree,
    mac: &Mac,
    sphere: &GroupSphere,
    group: Option<Group>,
    emit: impl FnMut(Span),
) {
    let cols = tree.columns();
    let inv2_theta = 2.0 / mac.theta;
    match mac.kind {
        // the paper's criterion, inlined against the packed column:
        // same arithmetic in the same order as `Mac::accepts_sphere`
        MacKind::BarnesHut => walk(cols, group, emit, |i| {
            let [cx, cy, cz, half] = cols.walk[i];
            let t = sphere.radius + half * inv2_theta;
            sphere.center.dist2(Vec3::new(cx, cy, cz)) > t * t
        }),
        MacKind::MinDistance => walk(cols, group, emit, |i| {
            mac.accepts_sphere_cols(&cols.geom[i], &cols.moment[i], sphere)
        }),
    }
}

/// [`emit_terms`] resolved on the spot to the `(position, mass)` pairs
/// GRAPE consumes, appended to `jpos`/`jmass`: an accepted cell is one
/// read of its packed `moment` entry, a run of bodies two slice copies
/// out of the tree's sorted arrays.
pub(crate) fn emit_resolved(
    tree: &Tree,
    mac: &Mac,
    sphere: &GroupSphere,
    group: Option<Group>,
    jpos: &mut Vec<Vec3>,
    jmass: &mut Vec<f64>,
) {
    let moment = &tree.columns().moment;
    emit_terms(tree, mac, sphere, group, |span| match span {
        Span::Cell(i) => {
            let [x, y, z, m] = moment[i as usize];
            jpos.push(Vec3::new(x, y, z));
            jmass.push(m);
        }
        Span::Bodies(r) => {
            jpos.extend_from_slice(&tree.pos()[r.clone()]);
            jmass.extend_from_slice(&tree.mass()[r]);
        }
    });
}

/// The explicit-stack DFS behind [`emit_terms`]. `accept` sees only the
/// node index, so each criterion reads just the columns it needs: one
/// packed 32-byte `walk` entry per Barnes–Hut test; `span` is touched
/// only when bodies are emitted and `children` only when a cell is
/// opened.
///
/// Nodes are classified when their parent is opened, not when they are
/// popped: the up-to-eight independent opening tests run back-to-back
/// (good instruction-level overlap of the distance chains), and the
/// verdict rides in the stack entry's top bit — popping an accepted
/// cell emits it with no further column reads. Children are pushed in
/// reverse octant order so pops replay the recursive depth-first order
/// exactly.
///
/// The group's ancestors (which may never stand in as cells) are
/// exactly the nodes of the root→group path, and a depth-first walk
/// meets them in path order. So the path is resolved once up front and
/// the ancestor test is a single register compare per node. Evaluation
/// order is the only thing that moves relative to the recursive
/// reference; the per-node decisions and the emitted sequence do not.
fn walk(
    cols: &NodeColumns,
    group: Option<Group>,
    mut emit: impl FnMut(Span),
    accept: impl Fn(usize) -> bool,
) {
    /// Stack-entry flag: this node passed the opening test and is not
    /// an ancestor of the group, so it stands in as a cell.
    const ACC: u32 = 1 << 31;
    debug_assert!(cols.span.len() < ACC as usize, "node index overflows the flag bit");
    // Root→group path, `NONE` past its end (and all of it without a
    // group: no entry ever matches). Resolved by span containment:
    // spans nest, siblings are disjoint, and every group holds ≥ 1
    // particle, so exactly one child contains the group's span.
    let mut path = [NONE; MAX_PATH + 1];
    let gnode = group.map_or(NONE, |g| g.node);
    if let Some(g) = group {
        let [gfirst, gcount] = cols.span[g.node as usize];
        let (mut at, mut depth) = (0u32, 0);
        while at != g.node {
            path[depth] = at;
            depth += 1;
            at = *cols.children[at as usize]
                .iter()
                .find(|&&c| {
                    c != NONE && {
                        let [first, count] = cols.span[c as usize];
                        first <= gfirst && first + count >= gfirst + gcount
                    }
                })
                .expect("group node must be reachable from the root");
        }
        path[depth] = at;
    }
    let mut stack = [0u32; MAX_STACK];
    // the root: a group's ancestor (or the group) goes on bare
    stack[0] = if group.is_none() && accept(0) { ACC } else { 0 };
    let mut top = 1;
    // index into `path` of the next ancestor the DFS will meet
    let mut anc = 0;
    while top > 0 {
        top -= 1;
        let entry = stack[top];
        if entry & ACC != 0 {
            emit(Span::Cell(entry & !ACC));
            continue;
        }
        let i = entry as usize;
        // the group itself (members interact directly), or an opened
        // leaf; an ancestor is never a leaf — the group is below it
        if entry == gnode || cols.is_leaf(i) {
            emit(Span::Bodies(cols.range(i)));
            continue;
        }
        // an ancestor's path-child is never a stand-in cell: pushed bare
        let anc_child = if entry == path[anc] {
            anc += 1;
            path[anc]
        } else {
            NONE
        };
        for &c in cols.children[i].iter().rev() {
            if c != NONE {
                stack[top] = if c != anc_child && accept(c as usize) { c | ACC } else { c };
                top += 1;
            }
        }
    }
}

/// Sum of the masses referenced by a list — must equal the snapshot's
/// total mass for a correct traversal (closure property).
pub fn list_mass(tree: &Tree, list: &[ListTerm]) -> f64 {
    list.iter().map(|&t| t.resolve(tree).1).sum()
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
                // clustered: half the points in a small ball
                let s = if rng.random_bool(0.5) { 0.15 } else { 1.0 };
                Vec3::new(rng.random_range(-s..s), rng.random_range(-s..s), rng.random_range(-s..s))
            })
            .collect();
        let mass = (0..n).map(|_| rng.random_range(0.5..2.0)).collect();
        (pos, mass)
    }

    #[test]
    fn original_list_mass_closure() {
        let (pos, mass) = cloud(500, 7);
        let tree = Tree::build(&pos, &mass);
        let total: f64 = mass.iter().sum();
        let tr = Traversal::new(0.8);
        let mut list = Vec::new();
        for i in (0..pos.len()).step_by(37) {
            tr.original_list(&tree, pos[i], &mut list);
            let m = list_mass(&tree, &list);
            assert!((m - total).abs() < 1e-9 * total, "list mass {m} != total {total}");
        }
    }

    #[test]
    fn theta_zero_list_is_all_bodies() {
        let (pos, mass) = cloud(100, 8);
        let tree = Tree::build(&pos, &mass);
        let tr = Traversal::new(0.0);
        let mut list = Vec::new();
        tr.original_list(&tree, pos[0], &mut list);
        assert_eq!(list.len(), 100);
        assert!(list.iter().all(|t| matches!(t, ListTerm::Body(_))));
    }

    #[test]
    fn larger_theta_gives_shorter_lists() {
        let (pos, mass) = cloud(2000, 9);
        let tree = Tree::build(&pos, &mass);
        let t_small = Traversal::new(0.3).original_tally(&tree);
        let t_large = Traversal::new(1.0).original_tally(&tree);
        assert!(t_large.interactions < t_small.interactions);
        assert_eq!(t_small.lists, 2000);
    }

    #[test]
    fn groups_partition_particles() {
        let (pos, mass) = cloud(777, 10);
        let tree = Tree::build(&pos, &mass);
        let tr = Traversal::new(0.75);
        for n_crit in [1, 16, 100, 1000] {
            let groups = tr.find_groups(&tree, n_crit);
            let mut covered = vec![false; pos.len()];
            for g in &groups {
                let node = &tree.nodes()[g.node as usize];
                for k in node.range() {
                    assert!(!covered[k], "particle {k} in two groups");
                    covered[k] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "groups must cover all particles");
        }
    }

    #[test]
    fn group_size_bounded_by_ncrit_or_leaf() {
        let (pos, mass) = cloud(1000, 11);
        let cfg = TreeConfig { leaf_capacity: 8, ..TreeConfig::default() };
        let tree = Tree::build_with(&pos, &mass, cfg);
        let tr = Traversal::new(0.75);
        let groups = tr.find_groups(&tree, 50);
        for g in &groups {
            let node = &tree.nodes()[g.node as usize];
            // a group larger than n_crit can only be a leaf (duplicates)
            assert!(node.count as usize <= 50 || node.is_leaf());
        }
    }

    #[test]
    fn modified_list_mass_closure() {
        let (pos, mass) = cloud(800, 12);
        let tree = Tree::build(&pos, &mass);
        let total: f64 = mass.iter().sum();
        let tr = Traversal::new(0.75);
        let ml = tr.modified_lists(&tree, 64);
        for list in &ml.lists {
            let m = list_mass(&tree, list);
            assert!((m - total).abs() < 1e-9 * total);
        }
    }

    #[test]
    fn modified_list_contains_own_members_as_bodies() {
        let (pos, mass) = cloud(300, 13);
        let tree = Tree::build(&pos, &mass);
        let tr = Traversal::new(0.75);
        let ml = tr.modified_lists(&tree, 32);
        for (g, list) in ml.groups.iter().zip(&ml.lists) {
            let node = &tree.nodes()[g.node as usize];
            for k in node.range() {
                assert!(
                    list.contains(&ListTerm::Body(k as u32)),
                    "group member {k} missing from shared list"
                );
            }
        }
    }

    #[test]
    fn tallies_match_materialized_lists() {
        let (pos, mass) = cloud(600, 14);
        let tree = Tree::build(&pos, &mass);
        let tr = Traversal::new(0.9);
        let ml = tr.modified_lists(&tree, 40);
        let from_lists = ml.tally(&tree);
        let direct = tr.modified_tally(&tree, 40);
        assert_eq!(from_lists, direct);
        assert_eq!(from_lists.lists, ml.groups.len() as u64);
    }

    #[test]
    fn modified_interactions_exceed_original() {
        // §3/§5: the modified algorithm evaluates *more* pairwise terms
        // (the paper's ratio is 2.90e13 vs 4.69e12)
        let (pos, mass) = cloud(3000, 15);
        let tree = Tree::build(&pos, &mass);
        let tr = Traversal::new(0.75);
        let orig = tr.original_tally(&tree);
        let modi = tr.modified_tally(&tree, 256);
        assert!(
            modi.interactions > orig.interactions,
            "modified {} must exceed original {}",
            modi.interactions,
            orig.interactions
        );
    }

    #[test]
    fn ncrit_one_reduces_to_per_particle_lists() {
        let (pos, mass) = cloud(200, 16);
        let cfg = TreeConfig { leaf_capacity: 1, ..TreeConfig::default() };
        let tree = Tree::build_with(&pos, &mass, cfg);
        let tr = Traversal::new(0.75);
        let groups = tr.find_groups(&tree, 1);
        assert_eq!(groups.len(), 200);
    }

    #[test]
    fn group_sphere_contains_members() {
        let (pos, mass) = cloud(400, 17);
        let tree = Tree::build(&pos, &mass);
        let tr = Traversal::new(0.75);
        for g in tr.find_groups(&tree, 64) {
            let sphere = tr.group_sphere(&tree, g);
            let node = &tree.nodes()[g.node as usize];
            for k in node.range() {
                assert!(tree.pos()[k].dist(sphere.center) <= sphere.radius * (1.0 + 1e-12) + 1e-15);
            }
        }
    }

    #[test]
    #[should_panic(expected = "n_crit must be positive")]
    fn zero_ncrit_rejected() {
        let (pos, mass) = cloud(10, 18);
        let tree = Tree::build(&pos, &mass);
        Traversal::new(0.75).find_groups(&tree, 0);
    }

    /// Every group's list from the one walk, in both forms — tree
    /// terms and resolved `(position, mass)` pairs — against the
    /// recursive reference over the `Node` array (resolved by
    /// `ListTerm::resolve`), bit for bit and in order.
    pub(super) fn assert_walk_matches_reference(tree: &Tree, tr: &Traversal, n_crit: usize) {
        let bits = |p: Vec3, m: f64| [p.x, p.y, p.z, m].map(f64::to_bits);
        let (mut terms, mut want) = (Vec::new(), Vec::new());
        // the emitter appends: whatever the buffers hold stays in front
        let (mut jpos, mut jmass) = (vec![Vec3::splat(7.0)], vec![7.0]);
        for g in tr.find_groups(tree, n_crit) {
            tr.modified_list_reference(tree, g, &mut want);
            tr.modified_list(tree, g, &mut terms);
            assert_eq!(terms, want, "{:?} n_crit {n_crit} group {}", tr.mac, g.node);
            jpos.truncate(1);
            jmass.truncate(1);
            tr.resolved_list_into(tree, g, &mut jpos, &mut jmass);
            assert_eq!((jpos.len(), jmass.len()), (want.len() + 1, want.len() + 1));
            assert_eq!(bits(jpos[0], jmass[0]), bits(Vec3::splat(7.0), 7.0));
            for (k, t) in want.iter().enumerate() {
                let (p, m) = t.resolve(tree);
                assert_eq!(
                    bits(jpos[k + 1], jmass[k + 1]),
                    bits(p, m),
                    "{:?} n_crit {n_crit} group {} term {k}",
                    tr.mac,
                    g.node
                );
            }
        }
    }

    /// The emitter's referee. Mutations of `walk` it was seen to catch:
    /// children pushed in forward octant order, the ancestor guard
    /// skipped (the path-child tested like its siblings), `moment` read
    /// where the opening test means `walk` (mass for half-width).
    #[test]
    fn emitter_matches_recursive_reference_exactly() {
        let (pos, mass) = cloud(900, 19);
        for leaf_capacity in [1, 8] {
            let cfg = TreeConfig { leaf_capacity, ..TreeConfig::default() };
            let mut tree = Tree::build_with(&pos, &mass, cfg);
            for refreshed in [false, true] {
                if refreshed {
                    let moved: Vec<Vec3> =
                        pos.iter().map(|p| *p + Vec3::new(0.004, -0.007, 0.005)).collect();
                    assert!(tree.refresh(&moved, &mass) > 0.0);
                }
                for mac in [
                    Mac::new(0.0),
                    Mac::new(0.5),
                    Mac::new(1.0),
                    Mac::with_kind(0.6, MacKind::MinDistance),
                ] {
                    // n_crit >= N: the root is the one group
                    for n_crit in [1, 8, 32, 2000, pos.len()] {
                        if n_crit >= leaf_capacity {
                            assert_walk_matches_reference(&tree, &Traversal { mac }, n_crit);
                        }
                    }
                }
            }
        }
        // the root as the group: one list, every particle a body
        let tr = Traversal::new(0.75);
        let tree = Tree::build(&pos, &mass);
        let groups = tr.find_groups(&tree, pos.len());
        assert_eq!(groups, [Group { node: 0 }]);
        let (mut jpos, mut jmass) = (Vec::new(), Vec::new());
        tr.resolved_list_into(&tree, groups[0], &mut jpos, &mut jmass);
        assert_eq!((&jpos[..], &jmass[..]), (tree.pos(), tree.mass()));
    }

    #[test]
    fn find_groups_into_reuses_buffers() {
        let (pos, mass) = cloud(600, 20);
        let tree = Tree::build(&pos, &mass);
        let tr = Traversal::new(0.75);
        let mut scratch = TraverseScratch::default();
        let mut groups = Vec::new();
        tr.find_groups_into(&tree, 32, &mut scratch, &mut groups);
        assert_eq!(groups, tr.find_groups(&tree, 32));
        let cap = groups.capacity();
        tr.find_groups_into(&tree, 32, &mut scratch, &mut groups);
        assert_eq!(groups.capacity(), cap, "second pass must not reallocate");
    }

    #[test]
    fn refreshed_tree_lists_keep_closure_with_inflated_spheres() {
        let (pos, mass) = cloud(500, 21);
        let mut tree = Tree::build(&pos, &mass);
        // nudge every particle and refresh in place
        let moved: Vec<Vec3> = pos.iter().map(|p| *p + Vec3::new(0.01, -0.02, 0.015)).collect();
        let drift = tree.refresh(&moved, &mass);
        assert!(drift > 0.0);
        let total: f64 = mass.iter().sum();
        let tr = Traversal::new(0.75);
        let ml = tr.modified_lists(&tree, 48);
        for list in &ml.lists {
            let m = list_mass(&tree, list);
            assert!((m - total).abs() < 1e-9 * total);
        }
        // inflated spheres still contain every (moved) member
        for g in tr.find_groups(&tree, 48) {
            let sphere = tr.group_sphere(&tree, g);
            let node = &tree.nodes()[g.node as usize];
            for k in node.range() {
                assert!(tree.pos()[k].dist(sphere.center) <= sphere.radius * (1.0 + 1e-12) + 1e-15);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn cloud() -> impl Strategy<Value = (Vec<Vec3>, Vec<f64>)> {
        proptest::collection::vec(
            ((-5.0f64..5.0), (-5.0f64..5.0), (-5.0f64..5.0), (0.1f64..3.0)),
            1..120,
        )
        .prop_map(|v| {
            let pos = v.iter().map(|&(x, y, z, _)| Vec3::new(x, y, z)).collect();
            let mass = v.iter().map(|&(_, _, _, m)| m).collect();
            (pos, mass)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn original_closure((pos, mass) in cloud(), theta in 0.0f64..1.5) {
            let tree = Tree::build(&pos, &mass);
            let total: f64 = mass.iter().sum();
            let tr = Traversal::new(theta);
            let mut list = Vec::new();
            tr.original_list(&tree, pos[0], &mut list);
            prop_assert!((list_mass(&tree, &list) - total).abs() < 1e-9 * total.max(1.0));
        }

        #[test]
        fn modified_closure((pos, mass) in cloud(), theta in 0.0f64..1.5, n_crit in 1usize..64) {
            let tree = Tree::build(&pos, &mass);
            let total: f64 = mass.iter().sum();
            let tr = Traversal::new(theta);
            let ml = tr.modified_lists(&tree, n_crit);
            for list in &ml.lists {
                prop_assert!((list_mass(&tree, list) - total).abs() < 1e-9 * total.max(1.0));
            }
        }

        #[test]
        fn emitter_matches_reference_on_random_clouds(
            (pos, mass) in cloud(),
            theta in 0.0f64..1.5,
            n_crit in 1usize..64,
            min_distance in any::<bool>(),
            drift in 0.0f64..0.05,
        ) {
            let kind = if min_distance { MacKind::MinDistance } else { MacKind::BarnesHut };
            let tr = Traversal { mac: Mac::with_kind(theta, kind) };
            let mut tree = Tree::build(&pos, &mass);
            super::tests::assert_walk_matches_reference(&tree, &tr, n_crit);
            let moved: Vec<Vec3> = pos.iter().map(|p| *p + Vec3::splat(drift)).collect();
            tree.refresh(&moved, &mass);
            super::tests::assert_walk_matches_reference(&tree, &tr, n_crit);
        }

        #[test]
        fn list_no_duplicate_bodies((pos, mass) in cloud(), n_crit in 1usize..64) {
            let tree = Tree::build(&pos, &mass);
            let tr = Traversal::new(0.75);
            let ml = tr.modified_lists(&tree, n_crit);
            for list in &ml.lists {
                let mut bodies: Vec<u32> = list.iter().filter_map(|t| match t {
                    ListTerm::Body(k) => Some(*k),
                    _ => None,
                }).collect();
                let before = bodies.len();
                bodies.sort_unstable();
                bodies.dedup();
                prop_assert_eq!(before, bodies.len());
            }
        }
    }
}
