//! Property tests for the streaming force-plan pipeline: overlapped
//! traversal/device execution must be *bit-identical* to the serial
//! in-order reference in exact arithmetic, for arbitrary snapshots,
//! group sizes, worker counts and channel depths.

use grape5_nbody::core::{ForceBackend, PlanConfig, TreeGrape, TreeGrapeConfig};
use grape5_nbody::ic::plummer_sphere;
use grape5_nbody::util::Vec3;
use proptest::prelude::*;
use rand::SeedableRng;

fn plummer(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let s = plummer_sphere(n, &mut rng);
    (s.pos, s.mass)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Forces, potentials and tallies of the streamed pipeline equal
    /// the serial reference bit for bit in `paper_exact` mode,
    /// regardless of how production is scheduled.
    #[test]
    fn streaming_is_bit_identical_to_serial(
        n in 64usize..600,
        seed in any::<u64>(),
        n_crit in 8usize..256,
        workers in 1usize..5,
        depth in 1usize..9,
    ) {
        let (pos, mass) = plummer(n, seed);
        let base = TreeGrapeConfig { n_crit, ..TreeGrapeConfig::paper(0.01) };

        let mut serial = TreeGrape::new(TreeGrapeConfig { plan: PlanConfig::serial(), ..base });
        let reference = serial.compute(&pos, &mass);

        let mut streamed = TreeGrape::new(TreeGrapeConfig {
            plan: PlanConfig::overlapped(workers, depth),
            ..base
        });
        let fs = streamed.compute(&pos, &mass);

        prop_assert_eq!(&reference.acc, &fs.acc);
        prop_assert_eq!(&reference.pot, &fs.pot);
        prop_assert_eq!(reference.tally, fs.tally);
    }

    /// Repeated streamed evaluations of the same snapshot are
    /// reproducible — scheduling nondeterminism never leaks into
    /// results.
    #[test]
    fn streaming_is_reproducible_across_runs(
        n in 64usize..400,
        seed in any::<u64>(),
        depth in 1usize..5,
    ) {
        let (pos, mass) = plummer(n, seed);
        let cfg = TreeGrapeConfig {
            n_crit: 48,
            plan: PlanConfig::overlapped(3, depth),
            ..TreeGrapeConfig::paper(0.02)
        };
        let a = TreeGrape::new(cfg).compute(&pos, &mass);
        let b = TreeGrape::new(cfg).compute(&pos, &mass);
        prop_assert_eq!(&a.acc, &b.acc);
        prop_assert_eq!(&a.pot, &b.pot);
        prop_assert_eq!(a.tally, b.tally);
    }
}

/// Every way of scheduling the plan — inline (no producer at all), one
/// to four producers, a rendezvous-deep or a four-deep channel, and
/// the per-process default — gives the same forces, potentials and
/// tally, on the single device and on a two-shard cluster (LET terms
/// appended producer-side when overlapped, consumer-side when not).
#[test]
fn forces_do_not_depend_on_workers_or_channel_depth() {
    use grape5_nbody::core::{ClusterTreeGrape, ClusterTreeGrapeConfig, LifecyclePolicy};
    let (pos, mass) = plummer(700, 11);
    let base = TreeGrapeConfig { n_crit: 32, ..TreeGrapeConfig::paper(0.01) };
    let mut plans = vec![PlanConfig::default()];
    for workers in [0, 1, 2, 4] {
        for channel_depth in [1, 4] {
            plans.push(PlanConfig { workers: Some(workers), channel_depth });
        }
    }
    let cluster = |plan, overlap| -> Box<dyn ForceBackend> {
        Box::new(ClusterTreeGrape::new(ClusterTreeGrapeConfig {
            base: TreeGrapeConfig { plan, ..base },
            shards: 2,
            lifecycle: LifecyclePolicy::default(),
            overlap,
        }))
    };
    let make = |name: &str, plan| -> Box<dyn ForceBackend> {
        match name {
            "tree-grape" => Box::new(TreeGrape::new(TreeGrapeConfig { plan, ..base })),
            "cluster K = 2, overlapped" => cluster(plan, true),
            _ => cluster(plan, false),
        }
    };
    for name in ["tree-grape", "cluster K = 2, overlapped", "cluster K = 2, barrier"] {
        let want = make(name, PlanConfig::serial()).compute(&pos, &mass);
        for plan in &plans {
            let got = make(name, *plan).compute(&pos, &mass);
            assert_eq!(got.acc, want.acc, "{name} {plan:?}");
            assert_eq!(got.pot, want.pot, "{name} {plan:?}");
            assert_eq!(got.tally, want.tally, "{name} {plan:?}");
        }
    }
}

/// Degenerate snapshots through the whole tree-on-GRAPE stack, in both
/// arithmetic modes and at a one-particle and a 32-particle group size:
/// a lone particle, a pair, a pair with a massless partner, a pile of
/// coincident particles (one leaf no `n_crit` can split), and a pile
/// beside a distant body. The answer is `DirectHost`'s — to the mode's
/// arithmetic error — or a typed `ForceError`; a panic fails the test.
#[test]
fn degenerate_snapshots_give_the_direct_answer_or_a_typed_error() {
    use grape5_nbody::core::DirectHost;
    use grape5_nbody::grape5::Grape5Config;
    use grape5_nbody::tree::TreeConfig;
    let at = Vec3::new(0.3, -0.2, 0.1);
    let cases: Vec<(&str, Vec<Vec3>, Vec<f64>)> = vec![
        ("N = 1", vec![at], vec![1.0]),
        ("N = 2", vec![at, Vec3::new(-0.4, 0.5, 0.0)], vec![1.0, 2.0]),
        ("zero-mass partner", vec![at, Vec3::new(-0.4, 0.5, 0.0)], vec![1.0, 0.0]),
        ("all coincident", vec![at; 40], vec![0.025; 40]),
        (
            "coincident pile and a far body",
            [vec![at; 12], vec![Vec3::new(5.0, 5.0, -5.0)]].concat(),
            vec![0.5; 13],
        ),
    ];
    for (grape, tol) in [(Grape5Config::paper_exact(), 1e-6), (Grape5Config::paper(), 0.02)] {
        for n_crit in [1, 32] {
            let cfg = TreeGrapeConfig {
                n_crit,
                grape,
                tree_config: TreeConfig { leaf_capacity: n_crit.min(8), ..TreeConfig::default() },
                ..TreeGrapeConfig::paper(0.01)
            };
            for (name, pos, mass) in &cases {
                let what = format!("{name}, {:?}, n_crit {n_crit}", grape.mode);
                let want = DirectHost::new(0.01).compute(pos, mass);
                match TreeGrape::new(cfg).try_compute(pos, mass) {
                    // typed: printable, and no partial answer to misuse
                    Err(e) => assert!(!e.to_string().is_empty(), "{what}"),
                    Ok(got) => {
                        let scale = want.acc.iter().fold(0.0f64, |s, a| s.max(a.norm()));
                        for (k, (g, w)) in got.acc.iter().zip(&want.acc).enumerate() {
                            assert!(
                                (*g - *w).norm() <= tol * scale,
                                "{what}: acc[{k}] = {g:?}, direct {w:?}"
                            );
                        }
                        let pscale = want.pot.iter().fold(0.0f64, |s, p| s.max(p.abs()));
                        for (k, (g, w)) in got.pot.iter().zip(&want.pot).enumerate() {
                            assert!(
                                (g - w).abs() <= tol * pscale,
                                "{what}: pot[{k}] = {g}, direct {w}"
                            );
                        }
                    }
                }
            }
        }
    }
}
