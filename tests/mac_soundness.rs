//! MAC soundness on real trees — the property that makes a group
//! sphere legitimate, wherever it is centred.
//!
//! A shared list is sound when every cell on it satisfies the
//! *per-particle* opening test (`Mac::accepts_point`, `s/d < θ`) from
//! the position of **every member** of the group that shares it. The
//! group test (`Mac::accepts_sphere` against
//! `Traversal::group_sphere`) guarantees that through the triangle
//! inequality as long as the sphere contains every member; this suite
//! checks the conclusion directly, cell by cell and member by member,
//! on the own-tree lists and on the LET imports of K ∈ {1, 2, 4} shard
//! trees, fresh and refreshed — and checks that it *would* notice: the
//! same lists built against spheres of 0.9 × the radius fail it.
//!
//! The lists checked are the product's: what `plan::stream` hands the
//! device (the walk's resolved emitter) and what `let_terms_into`
//! appends are held, bit for bit and in order, to the `Node`-array walks
//! the property is checked on.

use grape5_nbody::ic::{CosmologicalIc, ZeldovichConfig};
use grape5_nbody::tree::plan::{self, PlanConfig};
use grape5_nbody::tree::{
    let_terms_into, Decomposition, Group, GroupSphere, ListTerm, Mac, Traversal, Tree, TreeConfig,
    NONE,
};
use grape5_nbody::util::Vec3;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const THETA: f64 = 0.75;

/// Two-scale clustered cloud: half the points in a ball a seventh the
/// size of the rest.
fn clustered(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let s = if rng.random_bool(0.5) { 0.15 } else { 1.0 };
            Vec3::new(rng.random_range(-s..s), rng.random_range(-s..s), rng.random_range(-s..s))
        })
        .collect()
}

/// A deliberately quarter-filled slab: L/4 × L/4 × L/2 of matter in one
/// corner of the root cube, which two far outliers stretch to side L —
/// the shape a K = 4 shard's level-1 cells have on the CDM sphere.
fn slab(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut pos: Vec<Vec3> = (0..n - 2)
        .map(|_| {
            Vec3::new(
                rng.random_range(0.0..0.25),
                rng.random_range(0.0..0.25),
                rng.random_range(0.0..0.5),
            )
        })
        .collect();
    pos.push(Vec3::ZERO);
    pos.push(Vec3::splat(1.0));
    pos
}

fn cdm_sphere(seed: u64) -> Vec<Vec3> {
    CosmologicalIc::generate(&ZeldovichConfig::small(seed)).snapshot.pos
}

/// Diagonal of a point set's axis-aligned bounding box, as a vector.
fn box_diagonal(pos: &[Vec3]) -> Vec3 {
    let (lo, hi) = pos.iter().fold((pos[0], pos[0]), |(lo, hi), &p| (lo.min(p), hi.max(p)));
    hi - lo
}

/// Largest axis extent of a point set.
fn extent(pos: &[Vec3]) -> f64 {
    box_diagonal(pos).max_component()
}

/// One tree per shard of a K-way Morton decomposition; with `drift`,
/// every tree is then refreshed onto positions jittered by up to
/// `drift` per axis, so its `drift_bound` is non-zero and its cells no
/// longer bound their members.
fn shard_trees(pos: &[Vec3], k: usize, drift: Option<f64>) -> Vec<Tree> {
    let mass = vec![1.0; pos.len()];
    let d = Decomposition::morton(pos, k);
    let mut rng = ChaCha8Rng::seed_from_u64(0xd1f7);
    let (mut sp, mut sm) = (Vec::new(), Vec::new());
    (0..k)
        .map(|s| {
            d.gather(s, pos, &mass, &mut sp, &mut sm);
            let mut tree = Tree::build(&sp, &sm);
            if let Some(a) = drift {
                for p in &mut sp {
                    *p += Vec3::new(
                        rng.random_range(-a..a),
                        rng.random_range(-a..a),
                        rng.random_range(-a..a),
                    );
                }
                assert!(tree.refresh(&sp, &sm) > 0.0);
            }
            tree
        })
        .collect()
}

/// The own-tree walk of `Traversal::modified_list_reference`, against a
/// caller-chosen sphere (so the mutation check can shrink it).
fn own_walk(tree: &Tree, mac: &Mac, group: Group, sphere: &GroupSphere) -> Vec<ListTerm> {
    let nodes = tree.nodes();
    let g = &nodes[group.node as usize];
    let (gfirst, gend) = (g.first, g.first + g.count);
    let (mut out, mut stack) = (Vec::new(), vec![0u32]);
    while let Some(i) = stack.pop() {
        let node = &nodes[i as usize];
        let ancestor = node.first <= gfirst && node.first + node.count >= gend;
        if i != group.node && !ancestor && mac.accepts_sphere(node, sphere) {
            out.push(ListTerm::Cell(i));
        } else if i == group.node || node.is_leaf() {
            out.extend(node.range().map(|k| ListTerm::Body(k as u32)));
        } else {
            stack.extend(node.children.iter().rev().filter(|&&c| c != NONE));
        }
    }
    out
}

/// The LET walk of `let_terms_into` over the `Node` array: the accepted
/// cells by index, and every emitted term as `(position, mass)`.
fn let_walk(source: &Tree, mac: &Mac, receiver: &GroupSphere) -> (Vec<u32>, Vec<(Vec3, f64)>) {
    let mut sphere = *receiver;
    sphere.radius += source.drift_bound();
    let nodes = source.nodes();
    let (mut cells, mut terms, mut stack) = (Vec::new(), Vec::new(), vec![0u32]);
    while let Some(i) = stack.pop() {
        let node = &nodes[i as usize];
        if mac.accepts_sphere(node, &sphere) {
            cells.push(i);
            terms.push((node.com, node.mass));
        } else if node.is_leaf() {
            terms.extend(node.range().map(|k| (source.pos()[k], source.mass()[k])));
        } else {
            stack.extend(node.children.iter().rev().filter(|&&c| c != NONE));
        }
    }
    (cells, terms)
}

/// The soundness property over every group of every shard, with
/// `shrink` applied to each group sphere's radius before the walks.
/// Returns the number of (cell, member) pairs checked, or the first
/// violation.
fn check_lists(trees: &[Tree], n_crit: usize, shrink: f64) -> Result<u64, String> {
    let tr = Traversal::new(THETA);
    let mac = tr.mac;
    let mut checked = 0u64;
    let mut list = Vec::new();
    let term_bits = |p: Vec3, m: f64| [p.x, p.y, p.z, m].map(f64::to_bits);
    for (r, tree) in trees.iter().enumerate() {
        let groups = tr.find_groups(tree, n_crit);
        // what the plan streams to the device: the resolved emitter's
        // lists, by group node
        let mut streamed = std::collections::HashMap::new();
        if shrink == 1.0 {
            plan::stream(tree, &tr, &groups, &PlanConfig::serial(), |w| {
                let terms: Vec<_> =
                    w.jpos.iter().zip(&w.jmass).map(|(&p, &m)| term_bits(p, m)).collect();
                streamed.insert(w.group.node, terms);
            })
            .expect("serial stream");
        }
        for group in groups {
            let mut sphere = tr.group_sphere(tree, group);
            sphere.radius *= shrink;
            let members = &tree.pos()[tree.nodes()[group.node as usize].range()];
            let own = own_walk(tree, &mac, group, &sphere);
            if shrink == 1.0 {
                // the walks under test are the product's own
                tr.modified_list(tree, group, &mut list);
                assert_eq!(list, own, "shard {r}: own-tree list differs from the node walk");
                let resolved: Vec<_> =
                    own.iter().map(|t| t.resolve(tree)).map(|(p, m)| term_bits(p, m)).collect();
                assert_eq!(
                    streamed[&group.node], resolved,
                    "shard {r}: streamed list differs from the node walk, resolved"
                );
            }
            let mut cells: Vec<(usize, u32)> = own
                .iter()
                .filter_map(|t| match t {
                    ListTerm::Cell(c) => Some((r, *c)),
                    ListTerm::Body(_) => None,
                })
                .collect();
            for (s, src) in trees.iter().enumerate().filter(|&(s, _)| s != r) {
                let (accepted, terms) = let_walk(src, &mac, &sphere);
                if shrink == 1.0 {
                    let (mut lp, mut lm) = (Vec::new(), Vec::new());
                    let n = let_terms_into(src, &mac, &sphere, &mut lp, &mut lm);
                    assert_eq!(n, terms.len(), "shard {s} -> {r}: LET term count");
                    let same = terms
                        .iter()
                        .zip(lp.iter().zip(&lm))
                        .all(|(&(p, m), (&q, &w))| term_bits(p, m) == term_bits(q, w));
                    assert!(same, "shard {s} -> {r}: let_terms_into differs from the node walk");
                }
                cells.extend(accepted.into_iter().map(|c| (s, c)));
            }
            for (s, c) in cells {
                let node = &trees[s].nodes()[c as usize];
                for (k, &p) in members.iter().enumerate() {
                    checked += 1;
                    if !mac.accepts_point(node, p) {
                        return Err(format!(
                            "group {} of shard {r}: cell {c} of shard {s} (side {}) fails s/d < \
                             theta from member {k} at distance {}",
                            group.node,
                            node.side(),
                            p.dist(node.com)
                        ));
                    }
                }
            }
        }
    }
    Ok(checked)
}

/// Containment and tightness of every group sphere of `tree`.
fn check_spheres(tree: &Tree, n_crit: usize) {
    let tr = Traversal::new(THETA);
    for group in tr.find_groups(tree, n_crit) {
        let sphere = tr.group_sphere(tree, group);
        let members = &tree.pos()[tree.nodes()[group.node as usize].range()];
        for p in members {
            assert!(p.dist(sphere.center) <= sphere.radius, "member outside its group sphere");
        }
        // no member is farther from the box centre than a box corner
        let half_diagonal = 0.5 * box_diagonal(members).norm();
        assert!(
            sphere.radius <= half_diagonal * (1.0 + 1e-12) + tree.drift_bound(),
            "radius {} exceeds half the member box diagonal {half_diagonal} + drift {}",
            sphere.radius,
            tree.drift_bound()
        );
    }
}

/// The (name, positions, n_crit) configurations of the suite.
fn clouds() -> Vec<(&'static str, Vec<Vec3>, usize)> {
    vec![
        ("clustered", clustered(3000, 31), 64),
        ("clustered", clustered(6000, 32), 500),
        ("slab", slab(3000, 33), 256),
        ("cdm", cdm_sphere(42), 2000),
    ]
}

#[test]
fn every_accepted_cell_passes_the_point_test_from_every_member() {
    for (name, pos, n_crit) in clouds() {
        for k in [1, 2, 4] {
            for drift in [None, Some(1e-3 * extent(&pos))] {
                let trees = shard_trees(&pos, k, drift);
                for tree in &trees {
                    check_spheres(tree, n_crit);
                }
                let checked = check_lists(&trees, n_crit, 1.0)
                    .unwrap_or_else(|e| panic!("{name} K = {k} drift {drift:?}: {e}"));
                assert!(checked > 0, "{name} K = {k}: no cell was ever accepted");
            }
        }
    }
}

#[test]
fn a_sphere_a_tenth_too_small_is_caught() {
    // the check bites: lists built against 0.9 × the radius put a cell
    // on some list that a member of the group must have opened
    for (name, pos, n_crit) in clouds() {
        for k in [1, 2, 4] {
            let trees = shard_trees(&pos, k, None);
            assert!(
                check_lists(&trees, n_crit, 0.9).is_err(),
                "{name} K = {k}: a 0.9 × radius sphere went unnoticed"
            );
        }
    }
}

#[test]
fn degenerate_groups_have_radius_equal_to_drift() {
    let tr = Traversal::new(THETA);
    // n_crit 1 over distinct points: one-member groups; and a leaf of
    // coincident points, which no n_crit can split
    let mut pos = clustered(200, 34);
    pos.extend([Vec3::new(0.3, -0.2, 0.1); 12]);
    let mass = vec![1.0; pos.len()];
    let cfg = TreeConfig { leaf_capacity: 1, ..TreeConfig::default() };
    let mut tree = Tree::build_with(&pos, &mass, cfg);
    for refreshed in [false, true] {
        if refreshed {
            // a rigid shift: coincident points stay coincident
            pos.iter_mut().for_each(|p| *p += Vec3::new(1e-3, -2e-3, 5e-4));
            assert!(tree.refresh(&pos, &mass) > 0.0);
        }
        let (mut single, mut coincident) = (0, 0);
        for group in tr.find_groups(&tree, 1) {
            let node = &tree.nodes()[group.node as usize];
            let members = &tree.pos()[node.range()];
            if members.iter().all(|&p| p == members[0]) {
                let sphere = tr.group_sphere(&tree, group);
                assert_eq!(sphere.center, members[0]);
                assert_eq!(sphere.radius.to_bits(), tree.drift_bound().to_bits());
                if node.count == 1 {
                    single += 1;
                } else {
                    coincident += 1;
                }
            }
        }
        assert_eq!((single, coincident), (200, 1));
    }
}

#[test]
fn group_spheres_do_not_depend_on_the_threads_that_compute_them() {
    use rayon::prelude::*;
    let bits = |s: GroupSphere| [s.center.x, s.center.y, s.center.z, s.radius].map(f64::to_bits);
    let pos = cdm_sphere(7);
    let tr = Traversal::new(THETA);
    for tree in &shard_trees(&pos, 4, Some(1e-3 * extent(&pos))) {
        let groups = tr.find_groups(tree, 200);
        let serial: Vec<_> = groups.iter().map(|&g| bits(tr.group_sphere(tree, g))).collect();
        // the process-wide rayon pool, whatever size this machine gives it
        let pooled: Vec<_> = groups.par_iter().map(|&g| bits(tr.group_sphere(tree, g))).collect();
        assert_eq!(pooled, serial);
        // and explicit crews of every size, groups dealt round-robin
        for threads in [1, 2, 3, 8] {
            let dealt = std::thread::scope(|s| {
                let crew: Vec<_> = (0..threads)
                    .map(|t| {
                        let groups = &groups;
                        s.spawn(move || {
                            (t..groups.len())
                                .step_by(threads)
                                .map(|i| (i, bits(tr.group_sphere(tree, groups[i]))))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                crew.into_iter().flat_map(|h| h.join().expect("crew thread")).collect::<Vec<_>>()
            });
            assert_eq!(dealt.len(), groups.len());
            for (i, b) in dealt {
                assert_eq!(b, serial[i], "group {i} differs on a crew of {threads}");
            }
        }
    }
}
