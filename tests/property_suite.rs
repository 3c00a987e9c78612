//! Property-based integration tests across the whole stack: random
//! snapshots through every backend, randomized hardware configurations
//! through the device, randomized simulations through the integrator.

use grape5_nbody::core::{
    ClusterTreeGrape, ClusterTreeGrapeConfig, DirectHost, ForceBackend, PlanConfig, TreeGrape,
    TreeGrapeConfig, TreeHost,
};
use grape5_nbody::grape5::{Grape5, Grape5Config};
use grape5_nbody::util::Vec3;
use proptest::prelude::*;

fn snapshot_strategy(max_n: usize) -> impl Strategy<Value = (Vec<Vec3>, Vec<f64>)> {
    proptest::collection::vec(
        ((-3.0f64..3.0), (-3.0f64..3.0), (-3.0f64..3.0), (0.1f64..2.0)),
        2..max_n,
    )
    .prop_map(|v| {
        let pos = v.iter().map(|&(x, y, z, _)| Vec3::new(x, y, z)).collect();
        let mass = v.iter().map(|&(_, _, _, m)| m).collect();
        (pos, mass)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full system force agrees with direct summation within the
    /// tree+hardware error budget, for arbitrary particle sets.
    #[test]
    fn tree_grape_tracks_direct_on_random_snapshots((pos, mass) in snapshot_strategy(120)) {
        let eps = 0.05;
        let exact = DirectHost::new(eps).compute(&pos, &mass);
        let mut tg = TreeGrape::new(TreeGrapeConfig {
            theta: 0.5,
            n_crit: 16,
            ..TreeGrapeConfig::paper(eps)
        });
        let fs = tg.compute(&pos, &mass);
        for (i, (a, b)) in fs.acc.iter().zip(&exact.acc).enumerate() {
            let scale = b.norm().max(1e-3);
            prop_assert!(
                (*a - *b).norm() < 0.05 * scale + 1e-6,
                "particle {i}: {a:?} vs {b:?}"
            );
        }
        // tallies: every particle got exactly one group's list
        prop_assert!(fs.tally.lists >= 1);
        prop_assert!(fs.tally.interactions >= (pos.len() * pos.len()) as u64 / 4,
            "suspiciously few interactions for n_crit=16");
    }

    /// GRAPE potential sums are symmetric for equal-mass pairs and
    /// scale linearly with mass.
    #[test]
    fn device_potential_scales_with_mass(m in 0.1f64..50.0, d in 0.2f64..3.0) {
        let mut g5 = Grape5::open(Grape5Config::paper_exact());
        g5.set_range(-8.0, 8.0);
        let pos = vec![Vec3::new(d, 0.0, 0.0)];
        g5.set_j_particles(&pos, &[m]);
        let f = g5.force_on(&[Vec3::ZERO]);
        let expect_pot = m / d;
        prop_assert!((f[0].pot - expect_pot).abs() / expect_pot < 1e-5);
        let expect_acc = m / (d * d);
        prop_assert!((f[0].acc.x - expect_acc).abs() / expect_acc < 1e-5);
    }

    /// Host treecode with theta=0 is exactly the direct sum whatever
    /// the particle geometry (the strongest traversal invariant).
    #[test]
    fn theta_zero_is_exact_for_random_snapshots((pos, mass) in snapshot_strategy(80)) {
        let eps = 0.02;
        let exact = DirectHost::new(eps).compute(&pos, &mass);
        let fs = TreeHost::modified(0.0, 8, eps).compute(&pos, &mass);
        for (a, b) in fs.acc.iter().zip(&exact.acc) {
            prop_assert!((*a - *b).norm() < 1e-10);
        }
    }

    /// The cluster step does not depend on its schedule: LET terms
    /// resolved inline in front of each device call (`serial`) or by
    /// two producers beside it, with double-buffered j-load pricing on
    /// the second side, at K in {2, 4, 8} on arbitrary snapshots — same
    /// forces, same tallies, same hardware counters.
    #[test]
    fn cluster_is_schedule_invariant_at_k_2_4_8(
        (pos, mass) in snapshot_strategy_min(96, 260),
        k_idx in 0usize..3,
    ) {
        let k = [2usize, 4, 8][k_idx];
        let mut base = TreeGrapeConfig::paper(0.05);
        base.n_crit = 24;
        base.grape = grape5_nbody::grape5::Grape5Config::single_board();
        base.plan = PlanConfig::serial();
        let inline_cfg = ClusterTreeGrapeConfig { base, shards: k, lifecycle: Default::default() };
        let mut over_cfg = inline_cfg;
        over_cfg.base.grape.double_buffer_j = true;
        over_cfg.base.plan = PlanConfig::overlapped(2, 2);
        let mut inline = ClusterTreeGrape::new(inline_cfg);
        let mut over = ClusterTreeGrape::new(over_cfg);
        let a = inline.compute(&pos, &mass);
        let b = over.compute(&pos, &mass);
        prop_assert_eq!(&a.acc, &b.acc, "K={}", k);
        prop_assert_eq!(&a.pot, &b.pot, "K={}", k);
        prop_assert_eq!(a.tally, b.tally, "K={}", k);
        for s in 0..k {
            prop_assert_eq!(
                inline.shard_accounting(s),
                over.shard_accounting(s),
                "K={} shard {} counters diverged",
                k, s
            );
        }
    }
}

fn snapshot_strategy_min(
    min_n: usize,
    max_n: usize,
) -> impl Strategy<Value = (Vec<Vec3>, Vec<f64>)> {
    proptest::collection::vec(
        ((-3.0f64..3.0), (-3.0f64..3.0), (-3.0f64..3.0), (0.1f64..2.0)),
        min_n..max_n,
    )
    .prop_map(|v| {
        let pos = v.iter().map(|&(x, y, z, _)| Vec3::new(x, y, z)).collect();
        let mass = v.iter().map(|&(_, _, _, m)| m).collect();
        (pos, mass)
    })
}
