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
use g5util::vec3::Vec3;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Reusable traversal state: the explicit walk stack whose capacity is
/// carried across calls, so steady-state traversals do no heap
/// allocation. One scratch per worker thread; see
/// [`Traversal::modified_list_with`] and
/// [`Traversal::find_groups_into`].
#[derive(Debug, Clone, Default)]
pub struct TraverseScratch {
    stack: Vec<u32>,
    /// Root→group node path, rebuilt per walk (≤ tree depth entries).
    path: Vec<u32>,
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

    /// Build the shared interaction list for one group.
    ///
    /// Convenience wrapper over
    /// [`modified_list_with`](Self::modified_list_with) that allocates a
    /// fresh walk stack; hot paths should hold a [`TraverseScratch`]
    /// per worker instead.
    pub fn modified_list(&self, tree: &Tree, group: Group, out: &mut Vec<ListTerm>) {
        let mut scratch = TraverseScratch::default();
        self.modified_list_with(tree, group, &mut scratch, out);
    }

    /// Build the shared interaction list for one group with an explicit
    /// stack over the tree's SoA columns.
    ///
    /// The hot loop reads one packed 32-byte `walk` entry
    /// (`[com, half]`) per opening test; `span` is touched only when a
    /// cell is accepted (the ancestor guard) or a leaf is expanded, and
    /// `children` only when a cell is opened. Children are pushed in
    /// reverse octant order so pops replay the recursive depth-first
    /// order exactly: the emitted term sequence is bit-identical to
    /// [`modified_list_reference`](Self::modified_list_reference).
    pub fn modified_list_with(
        &self,
        tree: &Tree,
        group: Group,
        scratch: &mut TraverseScratch,
        out: &mut Vec<ListTerm>,
    ) {
        out.clear();
        let cols = tree.columns();
        let sphere = self.group_sphere(tree, group);
        let inv2_theta = 2.0 / self.mac.theta;
        match self.mac.kind {
            // the paper's criterion, inlined against the packed column:
            // same arithmetic in the same order as `Mac::accepts_sphere`
            MacKind::BarnesHut => {
                Self::walk_stack(cols, group, scratch, out, |cols, i| {
                    let [cx, cy, cz, half] = cols.walk[i];
                    let t = sphere.radius + half * inv2_theta;
                    sphere.center.dist2(Vec3::new(cx, cy, cz)) > t * t
                });
            }
            MacKind::MinDistance => {
                Self::walk_stack(cols, group, scratch, out, |cols, i| {
                    self.mac.accepts_sphere_cols(&cols.geom[i], &cols.moment[i], &sphere)
                });
            }
        }
    }

    /// The explicit-stack DFS shared by both opening criteria. `accept`
    /// sees only the node index, so each criterion reads just the
    /// columns it needs.
    ///
    /// Nodes are classified when their parent is opened, not when they
    /// are popped: the up-to-eight independent opening tests run
    /// back-to-back (good instruction-level overlap of the distance
    /// chains), and the verdict rides in the stack entry's top bit —
    /// popping an accepted cell emits its term with no further column
    /// reads.
    ///
    /// The group's ancestors (which may never stand in as cells, since
    /// they overlap the sphere) are exactly the nodes of the root→group
    /// path, and a depth-first walk meets them in path order. So the
    /// path is resolved once up front and the ancestor test is a single
    /// register compare per node — the span column drops out of the hot
    /// loop entirely, leaving one packed `walk` read per opening test.
    /// Evaluation order is the only thing that moves relative to the
    /// recursive reference; the per-node decisions and the emitted DFS
    /// sequence are unchanged.
    fn walk_stack(
        cols: &NodeColumns,
        group: Group,
        scratch: &mut TraverseScratch,
        out: &mut Vec<ListTerm>,
        accept: impl Fn(&NodeColumns, usize) -> bool,
    ) {
        /// Stack-entry flag: this node passed the opening test and is
        /// not an ancestor of the group, so it stands in as a cell.
        const ACC: u32 = 1 << 31;
        debug_assert!(cols.span.len() < ACC as usize, "node index overflows the flag bit");
        let [gfirst, gcount] = cols.span[group.node as usize];
        let gend = gfirst + gcount;
        // Resolve the root→group path by span containment: spans nest,
        // siblings are disjoint, and every group holds ≥ 1 particle, so
        // exactly one child contains the group's span at each level.
        let path = &mut scratch.path;
        path.clear();
        let mut at = 0u32;
        loop {
            path.push(at);
            if at == group.node {
                break;
            }
            let mut next = NONE;
            for &c in &cols.children[at as usize] {
                if c != NONE {
                    let [first, count] = cols.span[c as usize];
                    if first <= gfirst && first + count >= gend {
                        next = c;
                        break;
                    }
                }
            }
            debug_assert!(next != NONE, "group node must be reachable from the root");
            at = next;
        }
        let stack = &mut scratch.stack;
        stack.clear();
        stack.push(0);
        // index into `path` of the next ancestor the DFS will meet
        let mut anc_ptr = 0usize;
        while let Some(entry) = stack.pop() {
            if entry & ACC != 0 {
                out.push(ListTerm::Cell(entry & !ACC));
                continue;
            }
            let i = entry as usize;
            if entry == group.node {
                // the group itself: members interact directly
                out.extend((gfirst..gend).map(ListTerm::Body));
                continue;
            }
            // ancestor's path-child: never a stand-in cell, pushed bare
            let anc_child = if entry == path[anc_ptr] {
                // an ancestor is never a leaf (the group is below it)
                debug_assert!(!cols.is_leaf(i), "ancestor of a group cannot be a leaf");
                anc_ptr += 1;
                path[anc_ptr]
            } else if cols.is_leaf(i) {
                let [first, count] = cols.span[i];
                out.extend((first..first + count).map(ListTerm::Body));
                continue;
            } else {
                NONE
            };
            for &c in cols.children[i].iter().rev() {
                if c != NONE {
                    if c != anc_child && accept(cols, c as usize) {
                        stack.push(c | ACC);
                    } else {
                        stack.push(c);
                    }
                }
            }
        }
    }

    /// The pre-overhaul recursive walk over the `Node` array, kept as
    /// the A/B reference for `exp_host` and the bit-identity tests.
    pub fn modified_list_reference(&self, tree: &Tree, group: Group, out: &mut Vec<ListTerm>) {
        out.clear();
        let sphere = self.group_sphere(tree, group);
        let gnode = &tree.nodes()[group.node as usize];
        let (gfirst, gend) = (gnode.first, gnode.first + gnode.count);
        self.walk_group(tree, 0, group.node, gfirst, gend, &sphere, out);
    }

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

    /// Build every group's shared list (parallel over groups, one
    /// reused walk stack per worker thread).
    pub fn modified_lists(&self, tree: &Tree, n_crit: usize) -> ModifiedLists {
        let groups = self.find_groups(tree, n_crit);
        let lists: Vec<Vec<ListTerm>> = groups
            .par_iter()
            .map_init(TraverseScratch::default, |scratch, &g| {
                let mut out = Vec::new();
                self.modified_list_with(tree, g, scratch, &mut out);
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
            .map_init(
                || (TraverseScratch::default(), Vec::new()),
                |(scratch, buf), &g| {
                    self.modified_list_with(tree, g, scratch, buf);
                    let members = tree.nodes()[g.node as usize].count as u64;
                    (buf.len() as u64 * members, buf.len() as u64, 1u64)
                },
            )
            .reduce(|| (0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
        InteractionTally { interactions, terms, lists }
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

    #[test]
    fn stack_walk_matches_recursive_reference_exactly() {
        let (pos, mass) = cloud(900, 19);
        let tree = Tree::build(&pos, &mass);
        for theta in [0.0, 0.5, 1.0] {
            let tr = Traversal::new(theta);
            let mut scratch = TraverseScratch::default();
            let (mut stack_out, mut rec_out) = (Vec::new(), Vec::new());
            for g in tr.find_groups(&tree, 48) {
                tr.modified_list_with(&tree, g, &mut scratch, &mut stack_out);
                tr.modified_list_reference(&tree, g, &mut rec_out);
                assert_eq!(stack_out, rec_out, "term sequence diverged at theta {theta}");
            }
        }
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
