//! Morton-curve domain decomposition and local-essential-tree (LET)
//! exchange — the tree side of PC-GRAPE cluster sharding.
//!
//! The GRAPE-6A cluster papers scale the treecode by hanging one GRAPE
//! card off each PC and giving each PC a *domain*: a contiguous slice
//! of the Morton-ordered particle set. Contiguous curve slices are
//! compact in space (the Z-order curve is a space-filling curve), so
//! each domain builds a local octree over its own particles and imports
//! only a *summary* of everybody else's mass distribution — the local
//! essential tree.
//!
//! ## Decomposition
//!
//! [`Decomposition::morton`] quantizes every particle onto the 2²¹
//! grid of the snapshot's bounding cube (the quantizer the octree build
//! uses, on the whole snapshot rather than a shard), sorts by
//! `(code, index)` (a total order, so the split is deterministic for a
//! given snapshot), and cuts the sorted sequence into `K` near-equal
//! contiguous slices. Within a
//! shard the owned indices are then re-sorted ascending, so gathering a
//! shard's particles preserves the caller's input order. In particular
//! `K = 1` owns `0..n` *in input order*: the single-shard decomposition
//! is the identity, and the local tree built over the gathered slice is
//! bit-identical to the tree built over the full snapshot.
//!
//! ## LET exchange
//!
//! [`let_terms_into`] walks a remote shard's tree against a
//! *receiver's bounding sphere* (the cluster passes one group's sphere
//! per walk) and emits the accepted cells' monopoles (and opened
//! leaves' bodies) as plain `(position, mass)` terms. Acceptance uses
//! the same [`Mac`] as the force traversal, so the import holds exactly
//! the resolution the MAC demands:
//!
//! * a cell accepted against the receiver sphere satisfies
//!   `dist(com, p) > s/θ` for **every** particle `p` inside it
//!   (triangle inequality through the sphere center) — the same
//!   distance bound the per-group opening test enforces, so remote
//!   forces carry treecode accuracy, never worse;
//! * a rejected cell is opened and its children re-tested, down to
//!   bodies, so the emitted terms always partition the remote shard's
//!   mass (the closure property the traversal tests enforce locally).
//!
//! Both sides are drift-aware: the receiver passes its sphere already
//! inflated by its own tree's refresh drift
//! ([`Traversal::group_sphere`](crate::traverse::Traversal::group_sphere)
//! does), and the walk additionally inflates by the *source* tree's
//! drift bound so remote cells whose particles moved since the last
//! rebuild stay conservatively represented.

use crate::mac::{GroupSphere, Mac};
use crate::traverse::emit_resolved;
use crate::tree::Tree;
use g5util::morton_sort;
use g5util::vec3::Vec3;

/// A partition of a particle snapshot into `K` Morton-contiguous
/// domains, by original (input-order) index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// `owned[k]` = original indices owned by shard `k`, ascending.
    owned: Vec<Vec<u32>>,
    /// Total particles across all shards.
    total: usize,
}

impl Decomposition {
    /// Partition `pos` into `shards` near-equal domains along the
    /// Morton curve.
    ///
    /// Slice `k` covers sorted ranks `[k·n/K, (k+1)·n/K)`, so shard
    /// populations differ by at most one. Ties on the quantized code
    /// break by original index, making the split a pure function of the
    /// snapshot.
    ///
    /// # Panics
    /// On empty input, `shards == 0`, `shards > pos.len()`, or
    /// non-finite positions.
    pub fn morton(pos: &[Vec3], shards: usize) -> Decomposition {
        assert!(shards >= 1, "shard count must be positive");
        Decomposition::morton_weighted(pos, &vec![1u64; shards])
    }

    /// Partition `pos` into `weights.len()` Morton-contiguous domains,
    /// with slice populations proportional to `weights` — the
    /// capacity-weighted decomposition a heterogeneous cluster needs
    /// (shards differ in alive-board count and measured throughput
    /// after partial failures).
    ///
    /// Cut `k` lands at `⌊n · Σweights[..k] / Σweights⌋` on the sorted
    /// Morton order, then cuts are nudged apart so every shard owns at
    /// least one particle even under extreme weights. With **equal**
    /// weights every cut reduces exactly to `⌊k·n/K⌋` — the same slices
    /// [`morton`](Self::morton) produces — so a healthy, unmeasured
    /// cluster decomposes bit-identically to the unweighted path.
    ///
    /// # Panics
    /// On empty input, empty or all-zero `weights`,
    /// `weights.len() > pos.len()`, or non-finite positions.
    pub fn morton_weighted(pos: &[Vec3], weights: &[u64]) -> Decomposition {
        Decomposition::morton_weighted_hinted(pos, weights, None).0
    }

    /// [`morton_weighted`](Self::morton_weighted), seeding the Morton
    /// sort with the sorted order of a previous decomposition of the
    /// same (since drifted) snapshot and returning the new sorted order
    /// for the caller to keep as the next step's hint. The resulting
    /// decomposition is bit-identical to the unhinted one (the
    /// `(code, index)` total order is unique); only the sort cost
    /// changes ([`morton_sort::sort_indices_incremental`]).
    ///
    /// # Panics
    /// As [`morton_weighted`](Self::morton_weighted).
    pub fn morton_weighted_hinted(
        pos: &[Vec3],
        weights: &[u64],
        hint: Option<&[u32]>,
    ) -> (Decomposition, Vec<u32>) {
        let shards = weights.len();
        assert!(!pos.is_empty(), "cannot decompose zero particles");
        assert!(shards >= 1, "shard count must be positive");
        assert!(shards <= pos.len(), "more shards ({shards}) than particles ({})", pos.len());
        let total: u128 = weights.iter().map(|&w| w as u128).sum();
        assert!(total > 0, "cut weights must not all be zero");
        let n = pos.len();
        // The 2²¹ grid on the snapshot's own bounding cube (the shared
        // g5util::morton_sort frame), radix-sorted by (code, index) — a
        // total order, so the result is a pure function of the
        // snapshot. The shard trees are not built on this grid: each
        // frames its own particles (`Tree::build_with_hint`), so a
        // domain boundary is no cell boundary of theirs.
        let order = match hint {
            Some(h) => morton_sort::morton_order_incremental(pos, h).order,
            None => morton_sort::morton_order(pos).order,
        };

        // Proportional cut points on the sorted order: boundary k sits
        // at floor(n · prefix_k / total) (u128: no overflow even at
        // u64::MAX weights). cuts[0] = 0 and cuts[K] = n are pinned.
        let mut cuts = Vec::with_capacity(shards + 1);
        cuts.push(0usize);
        let mut prefix: u128 = 0;
        for &w in &weights[..shards - 1] {
            prefix += w as u128;
            cuts.push((n as u128 * prefix / total) as usize);
        }
        cuts.push(n);
        // Nudge interior cuts strictly increasing (a zero or tiny
        // weight must still own ≥ 1 particle: domain trees cannot be
        // empty). Feasible because shards ≤ n; a no-op for equal
        // weights, whose floors already differ by ≥ ⌊n/K⌋ ≥ 1.
        for i in 1..shards {
            cuts[i] = cuts[i].max(cuts[i - 1] + 1);
        }
        for i in (1..shards).rev() {
            cuts[i] = cuts[i].min(cuts[i + 1] - 1);
        }

        let mut owned = Vec::with_capacity(shards);
        for k in 0..shards {
            let mut slice: Vec<u32> = order[cuts[k]..cuts[k + 1]].to_vec();
            // input order within the shard: K = 1 is then the identity
            // and gathers are cache-friendly forward scans
            slice.sort_unstable();
            owned.push(slice);
        }
        (Decomposition { owned, total: n }, order)
    }

    /// Number of domains.
    pub fn shards(&self) -> usize {
        self.owned.len()
    }

    /// Original indices owned by shard `k`, ascending.
    pub fn owned(&self, k: usize) -> &[u32] {
        &self.owned[k]
    }

    /// Total particles across all shards (the snapshot size this
    /// decomposition was computed for).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Gather shard `k`'s particles out of the full snapshot into
    /// caller-owned buffers (cleared first; capacity is retained across
    /// calls for steady-state reuse).
    pub fn gather(
        &self,
        k: usize,
        pos: &[Vec3],
        mass: &[f64],
        out_pos: &mut Vec<Vec3>,
        out_mass: &mut Vec<f64>,
    ) {
        let own = &self.owned[k];
        out_pos.clear();
        out_mass.clear();
        out_pos.reserve(own.len());
        out_mass.reserve(own.len());
        for &i in own {
            out_pos.push(pos[i as usize]);
            out_mass.push(mass[i as usize]);
        }
    }
}

/// Append the local-essential-tree summary of `source` as seen by a
/// domain bounded by `receiver` — accepted cells as monopole terms,
/// opened leaves as bodies. Returns the number of terms appended.
///
/// `receiver` must already include the receiving tree's own drift
/// inflation
/// ([`Traversal::group_sphere`](crate::traverse::Traversal::group_sphere)
/// does); this walk additionally inflates by `source.drift_bound()` so
/// both sides' motion since their last rebuilds is covered.
///
/// The appended terms partition `source`'s total mass: every particle
/// of the remote shard is represented exactly once, in an accepted
/// ancestor cell or as itself.
pub fn let_terms_into(
    source: &Tree,
    mac: &Mac,
    receiver: &GroupSphere,
    out_pos: &mut Vec<Vec3>,
    out_mass: &mut Vec<f64>,
) -> usize {
    let before = out_pos.len();
    let mut sphere = *receiver;
    sphere.radius += source.drift_bound();
    // the force traversal's own walk, with no group of `source` to spare
    emit_resolved(source, mac, &sphere, None, (out_pos, out_mass), None);
    out_pos.len() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacKind;
    use crate::tree::{TreeConfig, NONE};
    use g5util::morton;
    use rand::{Rng, SeedableRng};

    fn cloud(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let pos = (0..n)
            .map(|_| {
                let s = if rng.random_bool(0.5) { 0.2 } else { 1.0 };
                Vec3::new(rng.random_range(-s..s), rng.random_range(-s..s), rng.random_range(-s..s))
            })
            .collect();
        let mass = (0..n).map(|_| rng.random_range(0.5..2.0)).collect();
        (pos, mass)
    }

    /// One sphere around a tree's whole domain (root-cell center,
    /// farthest particle, refresh drift): the coarsest receiver a LET
    /// walk can be given, which is what these tests want. The cluster
    /// walks per group, against `Traversal::group_sphere`.
    fn domain_sphere(tree: &Tree) -> GroupSphere {
        let mut sphere = GroupSphere::around(tree.root().center, tree.pos());
        sphere.radius += tree.drift_bound();
        sphere
    }

    #[test]
    fn single_shard_is_identity() {
        let (pos, _) = cloud(333, 1);
        let d = Decomposition::morton(&pos, 1);
        assert_eq!(d.shards(), 1);
        let expect: Vec<u32> = (0..333).collect();
        assert_eq!(d.owned(0), &expect[..]);
    }

    #[test]
    fn shards_partition_and_balance() {
        let (pos, _) = cloud(1001, 2);
        for k in [2, 3, 4, 8] {
            let d = Decomposition::morton(&pos, k);
            let mut covered = vec![false; pos.len()];
            let (mut lo, mut hi) = (usize::MAX, 0usize);
            for s in 0..k {
                let own = d.owned(s);
                lo = lo.min(own.len());
                hi = hi.max(own.len());
                for &i in own {
                    assert!(!covered[i as usize], "index {i} owned twice");
                    covered[i as usize] = true;
                }
                assert!(own.windows(2).all(|w| w[0] < w[1]), "owned not ascending");
            }
            assert!(covered.iter().all(|&c| c), "some particle unowned at k={k}");
            assert!(hi - lo <= 1, "imbalance {lo}..{hi} at k={k}");
        }
    }

    #[test]
    fn equal_weights_reduce_to_unweighted_cuts() {
        let (pos, _) = cloud(1001, 2);
        for k in [1, 2, 3, 4, 8] {
            for w in [1u64, 7, u64::MAX / 8] {
                let weighted = Decomposition::morton_weighted(&pos, &vec![w; k]);
                assert_eq!(
                    weighted,
                    Decomposition::morton(&pos, k),
                    "equal weights {w} at K={k} must match the unweighted split exactly"
                );
            }
        }
    }

    #[test]
    fn weighted_cuts_track_capacity() {
        let (pos, _) = cloud(1000, 8);
        let d = Decomposition::morton_weighted(&pos, &[3, 1]);
        assert_eq!(d.owned(0).len(), 750);
        assert_eq!(d.owned(1).len(), 250);
        // partition holds under uneven weights
        let mut covered = vec![false; pos.len()];
        for s in 0..2 {
            for &i in d.owned(s) {
                assert!(!covered[i as usize]);
                covered[i as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        // the weighted boundary is still a Morton-order boundary:
        // shard 0 is a contiguous prefix of the same sorted order the
        // 4-way equal split uses (750 = 3 quarters of 1000)
        let quarters = Decomposition::morton(&pos, 4);
        let mut first_three: Vec<u32> =
            (0..3).flat_map(|s| quarters.owned(s).iter().copied()).collect();
        first_three.sort_unstable();
        assert_eq!(d.owned(0), &first_three[..]);
    }

    #[test]
    fn extreme_weights_keep_every_shard_nonempty() {
        let (pos, _) = cloud(100, 9);
        for weights in [vec![0, 1, 0], vec![u64::MAX, 1, 1], vec![1, 0, u64::MAX]] {
            let d = Decomposition::morton_weighted(&pos, &weights);
            let total: usize = (0..3).map(|s| d.owned(s).len()).sum();
            assert_eq!(total, 100);
            for s in 0..3 {
                assert!(!d.owned(s).is_empty(), "shard {s} empty under weights {weights:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "all be zero")]
    fn all_zero_weights_rejected() {
        let (pos, _) = cloud(10, 10);
        let _ = Decomposition::morton_weighted(&pos, &[0, 0]);
    }

    #[test]
    fn hinted_decomposition_is_bit_identical() {
        let (pos, _) = cloud(800, 12);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let (_, order) = Decomposition::morton_weighted_hinted(&pos, &[2, 1, 1], None);
        let moved: Vec<Vec3> = pos
            .iter()
            .map(|&p| {
                p + Vec3::new(
                    rng.random_range(-0.01..0.01),
                    rng.random_range(-0.01..0.01),
                    rng.random_range(-0.01..0.01),
                )
            })
            .collect();
        let plain = Decomposition::morton_weighted(&moved, &[2, 1, 1]);
        let (hinted, new_order) =
            Decomposition::morton_weighted_hinted(&moved, &[2, 1, 1], Some(&order));
        assert_eq!(plain, hinted);
        let (_, scratch_order) = Decomposition::morton_weighted_hinted(&moved, &[2, 1, 1], None);
        assert_eq!(new_order, scratch_order);
    }

    #[test]
    fn weighted_decomposition_is_deterministic() {
        let (pos, _) = cloud(500, 11);
        assert_eq!(
            Decomposition::morton_weighted(&pos, &[5, 2, 9]),
            Decomposition::morton_weighted(&pos, &[5, 2, 9])
        );
    }

    #[test]
    fn decomposition_is_deterministic() {
        let (pos, _) = cloud(500, 3);
        assert_eq!(Decomposition::morton(&pos, 4), Decomposition::morton(&pos, 4));
    }

    #[test]
    fn gather_matches_owned_order() {
        let (pos, mass) = cloud(200, 4);
        let d = Decomposition::morton(&pos, 4);
        let (mut gp, mut gm) = (Vec::new(), Vec::new());
        for s in 0..4 {
            d.gather(s, &pos, &mass, &mut gp, &mut gm);
            for (j, &i) in d.owned(s).iter().enumerate() {
                assert_eq!(gp[j], pos[i as usize]);
                assert_eq!(gm[j], mass[i as usize]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "more shards")]
    fn more_shards_than_particles_rejected() {
        let (pos, _) = cloud(3, 5);
        let _ = Decomposition::morton(&pos, 4);
    }

    #[test]
    fn let_mass_closure_and_mac_validity() {
        let (pos, mass) = cloud(900, 6);
        let d = Decomposition::morton(&pos, 3);
        let mac = Mac::new(0.75);
        let (mut sp, mut sm) = (Vec::new(), Vec::new());
        let mut trees = Vec::new();
        for s in 0..3 {
            d.gather(s, &pos, &mass, &mut sp, &mut sm);
            trees.push(Tree::build(&sp, &sm));
        }
        for r in 0..3 {
            let sphere = domain_sphere(&trees[r]);
            for s in 0..3 {
                if s == r {
                    continue;
                }
                let (mut lp, mut lm) = (Vec::new(), Vec::new());
                let appended = let_terms_into(&trees[s], &mac, &sphere, &mut lp, &mut lm);
                assert_eq!(appended, lp.len());
                assert!(appended >= 1, "remote shard must contribute at least its root");
                // closure: the import carries exactly the remote mass
                let total: f64 = trees[s].mass().iter().sum();
                let got: f64 = lm.iter().sum();
                assert!((got - total).abs() < 1e-9 * total, "LET mass {got} != {total}");
                // MAC validity: an imported *cell* must satisfy the
                // opening distance bound from every receiver particle
                for (term_pos, _) in lp.iter().zip(&lm) {
                    // identify cells as terms that are not a remote body
                    let is_body = trees[s].pos().contains(term_pos);
                    if is_body {
                        continue;
                    }
                    let node = trees[s]
                        .nodes()
                        .iter()
                        .find(|n| n.com == *term_pos)
                        .expect("cell term must be a node monopole");
                    for p in trees[r].pos() {
                        let d = p.dist(node.com);
                        assert!(
                            d * mac.theta > node.side() * (1.0 - 1e-12),
                            "cell of side {} at distance {d} violates theta",
                            node.side()
                        );
                    }
                }
            }
        }
    }

    /// The walk `let_terms_into` once was, before it became the force
    /// traversal's emitter called with no group: a heap stack over the
    /// `Node` array and `Mac::accepts_sphere` itself.
    fn let_terms_reference(source: &Tree, mac: &Mac, receiver: &GroupSphere) -> Vec<(Vec3, f64)> {
        let mut sphere = *receiver;
        sphere.radius += source.drift_bound();
        let (nodes, mut out, mut stack) = (source.nodes(), Vec::new(), vec![0u32]);
        while let Some(i) = stack.pop() {
            let node = &nodes[i as usize];
            if mac.accepts_sphere(node, &sphere) {
                out.push((node.com, node.mass));
            } else if node.is_leaf() {
                out.extend(node.range().map(|k| (source.pos()[k], source.mass()[k])));
            } else {
                stack.extend(node.children.iter().rev().filter(|&&c| c != NONE));
            }
        }
        out
    }

    #[test]
    fn let_terms_replay_the_node_walk_bit_for_bit() {
        let bits = |p: Vec3, m: f64| [p.x, p.y, p.z, m].map(f64::to_bits);
        let (pos, mass) = cloud(1500, 11);
        let d = Decomposition::morton(&pos, 4);
        let (mut sp, mut sm) = (Vec::new(), Vec::new());
        let cfg = TreeConfig { leaf_capacity: 1, ..TreeConfig::default() };
        let mut trees: Vec<Tree> = (0..4)
            .map(|s| {
                d.gather(s, &pos, &mass, &mut sp, &mut sm);
                Tree::build_with(&sp, &sm, cfg)
            })
            .collect();
        // and a corner ladder, the fixed stack's worst case: at every
        // level the seven octants beside the one nearest the low corner
        // hold one body each and a close pair sits at the bottom, so
        // the walk descends with seven siblings pending per level
        let mut ladder = vec![Vec3::splat(-1.0), Vec3::splat(-1.0 + 1e-9), Vec3::splat(1.0)];
        for level in 1..=morton::BITS_PER_DIM as i32 {
            let cell = f64::from(-level).exp2();
            for oct in 1..8u32 {
                let at = |bit: u32| -1.0 + 2.0 * cell * (0.5 + f64::from(oct >> bit & 1));
                ladder.push(Vec3::new(at(0), at(1), at(2)));
            }
        }
        trees.push(Tree::build_with(&ladder, &vec![1.0; ladder.len()], cfg));
        assert_eq!(trees[4].depth(), morton::BITS_PER_DIM);
        // one shard refreshed after a drift: a non-zero drift bound on
        // the source side
        d.gather(1, &pos, &mass, &mut sp, &mut sm);
        sp.iter_mut().for_each(|p| *p += Vec3::splat(1e-3));
        trees[1].refresh(&sp, &sm);
        assert!(trees[1].drift_bound() > 0.0);
        for mac in [
            Mac::new(0.75),
            Mac::new(0.3),
            Mac::new(0.0),
            Mac::with_kind(0.6, MacKind::MinDistance),
        ] {
            for r in 0..trees.len() {
                let sphere = domain_sphere(&trees[r]);
                for s in (0..trees.len()).filter(|&s| s != r) {
                    let want = let_terms_reference(&trees[s], &mac, &sphere);
                    // appended after what the buffers already hold
                    let (mut lp, mut lm) = (vec![Vec3::ZERO; 3], vec![0.0; 3]);
                    let n = let_terms_into(&trees[s], &mac, &sphere, &mut lp, &mut lm);
                    assert_eq!(n, want.len(), "{mac:?} {s} -> {r}");
                    assert_eq!((lp.len(), lm.len()), (n + 3, n + 3));
                    for (k, &(p, m)) in want.iter().enumerate() {
                        assert_eq!(bits(lp[k + 3], lm[k + 3]), bits(p, m), "{mac:?} term {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn theta_zero_let_is_all_remote_bodies() {
        let (pos, mass) = cloud(120, 7);
        let d = Decomposition::morton(&pos, 2);
        let (mut sp, mut sm) = (Vec::new(), Vec::new());
        d.gather(0, &pos, &mass, &mut sp, &mut sm);
        let a = Tree::build(&sp, &sm);
        d.gather(1, &pos, &mass, &mut sp, &mut sm);
        let b = Tree::build(&sp, &sm);
        let (mut lp, mut lm) = (Vec::new(), Vec::new());
        let n = let_terms_into(&b, &Mac::new(0.0), &domain_sphere(&a), &mut lp, &mut lm);
        assert_eq!(n, b.len(), "theta 0 must open everything down to bodies");
    }
}
