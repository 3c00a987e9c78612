//! Property tests for the streaming force-plan pipeline: overlapped
//! traversal/device execution must be *bit-identical* to the serial
//! in-order reference in exact arithmetic, for arbitrary snapshots,
//! group sizes, worker counts and channel depths — and whoever else in
//! the process is computing at the time (`g5util::cores`).

use grape5_nbody::core::{ForceBackend, PlanConfig, TreeGrape, TreeGrapeConfig};
use grape5_nbody::grape5::{bounding_window, DeviceError, FaultConfig, RecoveryStats, RetryPolicy};
use grape5_nbody::ic::plummer_sphere;
use grape5_nbody::util::{cores, Vec3};
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
/// appended by the producers, or inline in front of each device call).
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
    let make = |name: &str, plan| -> Box<dyn ForceBackend> {
        match name {
            "tree-grape" => Box::new(TreeGrape::new(TreeGrapeConfig { plan, ..base })),
            _ => Box::new(ClusterTreeGrape::new(ClusterTreeGrapeConfig {
                base: TreeGrapeConfig { plan, ..base },
                shards: 2,
                lifecycle: LifecyclePolicy::default(),
            })),
        }
    };
    for name in ["tree-grape", "cluster K = 2"] {
        let want = make(name, PlanConfig::serial()).compute(&pos, &mass);
        for plan in &plans {
            let got = make(name, *plan).compute(&pos, &mass);
            assert_eq!(got.acc, want.acc, "{name} {plan:?}");
            assert_eq!(got.pot, want.pot, "{name} {plan:?}");
            assert_eq!(got.tally, want.tally, "{name} {plan:?}");
        }
    }
}

/// The share of the machine a caller sizes itself for (`cores::share`)
/// decides how many producers a default plan takes and whether a long
/// force call runs its boards on their own threads — never a result.
/// Forces, potentials, tallies and recovery actions (a transient-fault
/// injector is armed, so there are some) are the same with no, one,
/// `total` and 4 × `total` other callers registered around the
/// evaluation, and when two registered evaluations run side by side.
/// Groups of up to 512 put calls on both sides of the 2¹⁷-interaction
/// board-split threshold (on this model: four single-device calls of
/// 160–220 k interactions, four of 20–32 k).
#[test]
fn forces_do_not_depend_on_who_else_is_computing() {
    use grape5_nbody::core::{ClusterTreeGrape, ClusterTreeGrapeConfig, LifecyclePolicy};
    use grape5_nbody::grape5::Grape5Config;
    let total = cores::total();
    let (pos, mass) = plummer(1000, 5);
    let base = TreeGrapeConfig {
        n_crit: 512,
        retry: RetryPolicy::no_wait(),
        ..TreeGrapeConfig::paper(0.01)
    };
    // a shard makes only a call or two: a high rate, and a seed with
    // which every backend below does see a fault (asserted)
    let fault = FaultConfig::transient(34, 0.3);
    let eval = |name: &str| -> (Vec<Vec3>, Vec<f64>, _, RecoveryStats) {
        let mut backend: Box<dyn ForceBackend> = match name {
            "tree-grape exact" | "tree-grape LNS" => {
                let grape = if name.ends_with("LNS") { Grape5Config::paper() } else { base.grape };
                let mut b = TreeGrape::new(TreeGrapeConfig { grape, ..base });
                b.grape_mut().set_fault_injector(fault);
                Box::new(b)
            }
            _ => {
                let mut b = ClusterTreeGrape::new(ClusterTreeGrapeConfig {
                    base,
                    shards: 2,
                    lifecycle: LifecyclePolicy::default(),
                });
                b.set_fault_injectors(fault);
                Box::new(b)
            }
        };
        let fs = backend.try_compute(&pos, &mass).expect("transient faults are recovered");
        (fs.acc, fs.pot, fs.tally, backend.recovery_stats().expect("a validating backend"))
    };
    for name in ["tree-grape exact", "tree-grape LNS", "cluster K = 2"] {
        let want = eval(name);
        assert!(want.3.retries > 0, "{name}: no fault ever fired");
        for others in [0, 1, total, 4 * total] {
            let entered: Vec<cores::Caller> = (0..others).map(|_| cores::enter()).collect();
            assert_eq!(eval(name), want, "{name}, {others} other callers");
            drop(entered);
        }
        // two evaluations at once, each a registered caller, released
        // together so they do overlap
        let gate = std::sync::Barrier::new(2);
        let registered = || {
            let _me = cores::enter();
            gate.wait();
            eval(name)
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(registered);
            (registered(), other.join().expect("concurrent evaluation"))
        });
        assert_eq!(a, want, "{name}, concurrent");
        assert_eq!(b, want, "{name}, concurrent");
    }
}

/// `bounding_window` is one fused serial pass since PR 20; this is the
/// two-pass definition it replaced (all indices checked for a
/// non-finite coordinate, lowest bad index reported; then min / max).
fn two_pass_window(pos: &[Vec3]) -> Result<(f64, f64), DeviceError> {
    if let Some(index) = pos.iter().position(|p| !p.is_finite()) {
        return Err(DeviceError::NonFinitePosition { index });
    }
    let (lo, hi) = pos
        .iter()
        .map(|p| (p.min_component(), p.max_component()))
        .fold((f64::INFINITY, f64::NEG_INFINITY), |a, b| (a.0.min(b.0), a.1.max(b.1)));
    let pad = ((hi - lo) * 0.01).max(1e-12);
    // finite extremes whose padded window is not: the first particle on one
    if lo <= hi && !((lo - pad).is_finite() && (hi + pad).is_finite()) {
        let on_extreme = |p: &Vec3| p.max_component() == hi || p.min_component() == lo;
        return Err(DeviceError::NonFinitePosition {
            index: pos.iter().position(on_extreme).unwrap(),
        });
    }
    Ok((lo - pad, hi + pad))
}

#[test]
fn bounding_window_equals_its_two_pass_definition_bit_for_bit() {
    let bits = |w: Result<(f64, f64), DeviceError>| w.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
    let (cloud, _) = plummer(1000, 3);
    let mut clouds: Vec<(String, Vec<Vec3>)> = vec![
        ("a Plummer model".into(), cloud.clone()),
        ("one particle".into(), vec![Vec3::new(0.3, -0.2, 0.1)]),
        ("one particle at the origin".into(), vec![Vec3::ZERO]),
        // the extremes are zeros of both signs, met in either order —
        // `f64::min(-0.0, 0.0)` may return either, the padded window
        // must not care
        ("-0.0 then +0.0".into(), vec![Vec3::new(-0.0, 0.0, -0.0), Vec3::new(0.0, -0.0, 0.0)]),
        ("+0.0 then -0.0".into(), vec![Vec3::new(0.0, -0.0, 0.0), Vec3::new(-0.0, 0.0, -0.0)]),
        ("lower extreme -0.0".into(), vec![Vec3::new(-0.0, 0.5, 1.0), Vec3::new(0.0, 0.25, 0.0)]),
        ("upper extreme +0.0".into(), vec![Vec3::new(-1.0, 0.0, -0.0), Vec3::new(-0.5, -0.0, 0.0)]),
        ("no particle".into(), vec![]),
    ];
    // finite coordinates, no finite window: the pad, or the extent itself,
    // overflows
    for (at, far) in [(3, Vec3::new(0.0, f64::MAX, 0.0)), (5, Vec3::new(-1.5e308, 0.0, 1.5e308))] {
        let mut c = cloud.clone();
        c[at] = far;
        assert_eq!(bounding_window(&c), Err(DeviceError::NonFinitePosition { index: at }));
        clouds.push((format!("{far:?} at {at}"), c));
    }
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for at in [0, cloud.len() / 2, cloud.len() - 1] {
            let mut c = cloud.clone();
            c[at].y = bad;
            // a later bad coordinate must not displace the first one
            c[cloud.len() - 1].z = f64::NAN;
            clouds.push((format!("{bad} at {at}"), c));
        }
    }
    for (name, c) in &clouds {
        assert_eq!(bits(bounding_window(c)), bits(two_pass_window(c)), "{name}");
    }
    assert_eq!(
        bounding_window(&clouds.last().unwrap().1),
        Err(DeviceError::NonFinitePosition { index: cloud.len() - 1 })
    );
}

/// Degenerate snapshots through every GRAPE backend — direct
/// summation, the tree, and the cluster at K ∈ {1, 2, 4}, where K > N
/// leaves shards empty — in both arithmetic modes and at a
/// one-particle and a 32-particle group size: no particle at all, a
/// lone particle, a pair, a pair with a massless partner, a pile of
/// coincident particles (one leaf no `n_crit` can split), and a pile
/// beside a distant body; then the inputs that reach the accumulate's
/// window test and its ordered path through the whole stack — masses
/// over 24 decades whose largest terms leave the encode window but not
/// the accumulator, masses over 60 decades that clamp it, an infinite
/// and a NaN mass — and the edges of the coordinate window: a body on
/// each end of it with a pile between them that shares one Morton cell,
/// a coordinate so large the window overflows, a non-finite one. The
/// answer is `DirectHost`'s — to the mode's arithmetic error — or a
/// typed `ForceError`; a panic fails the test. Whatever it is, it is
/// the same under every `G5_LANE_PATH`: a process that was not given one
/// re-runs this test pinned to each and compares digests.
#[test]
fn degenerate_snapshots_give_the_direct_answer_or_a_typed_error() {
    use grape5_nbody::core::{ClusterTreeGrape, ClusterTreeGrapeConfig, DirectGrape, DirectHost};
    use grape5_nbody::grape5::Grape5Config;
    use grape5_nbody::tree::TreeConfig;
    let at = Vec3::new(0.3, -0.2, 0.1);
    let trio = |third: Vec3| vec![at, Vec3::new(-0.4, 0.5, 0.0), third];
    let spread =
        |k: usize| Vec3::new(k as f64 * 0.37 - 2.0, (k * k % 7) as f64 * 0.21, k as f64 % 5.0);
    // a pile 2e-7 across — 1/24 of a Morton cell of the 10-wide box, a
    // hundred fixed-point cells — light enough that its own sub-quantum
    // geometry is below the tolerance the far bodies set
    let pile = (0..20).map(|k| at + Vec3::new(1e-8, -0.7e-8, 0.3e-8) * k as f64);
    let ends = [Vec3::new(-5.0, -5.0, 5.0), Vec3::new(5.0, 5.0, -5.0)];
    let cases: Vec<(&str, Vec<Vec3>, Vec<f64>)> = vec![
        ("N = 0", vec![], vec![]),
        ("N = 1", vec![at], vec![1.0]),
        ("N = 2", vec![at, Vec3::new(-0.4, 0.5, 0.0)], vec![1.0, 2.0]),
        ("zero-mass partner", vec![at, Vec3::new(-0.4, 0.5, 0.0)], vec![1.0, 0.0]),
        ("all coincident", vec![at; 40], vec![0.025; 40]),
        (
            "coincident pile and a far body",
            [vec![at; 12], vec![Vec3::new(5.0, 5.0, -5.0)]].concat(),
            vec![0.5; 13],
        ),
        (
            // m / r² up to ~1e6 ≫ 2¹⁸, the encode window in accumulator
            // units, m / r up to ~1e9 < 2³¹: ordered path, no clamp (one
            // body outweighs the rest by 1e9, so a tree's monopoles are
            // exact to the tolerance)
            "masses 1e-12 … 1e12, terms past the encode window",
            (0..12).map(|k| spread(k) * 500.0).collect(),
            (0..12).map(|k| if k == 0 { 1e12 } else { 10f64.powf(4.5 - 1.5 * k as f64) }).collect(),
        ),
        (
            "masses 1e-30 … 1e30: the accumulators clamp",
            (0..12).map(spread).collect(),
            (0..12).map(|k| 10f64.powi(-30 + 60 * k / 11)).collect(),
        ),
        ("an infinite mass", trio(Vec3::new(0.9, 0.1, 0.2)), vec![1.0, f64::INFINITY, 1.0]),
        ("a NaN mass", trio(Vec3::new(0.9, 0.1, 0.2)), vec![1.0, f64::NAN, 1.0]),
        (
            "a body on each end of the window, a pile in one Morton cell",
            ends.into_iter().chain(pile).collect(),
            [vec![1.0, 2.0], vec![1e-9; 20]].concat(),
        ),
        ("a coordinate past any window", trio(Vec3::new(f64::MAX, 0.1, 0.2)), vec![1.0; 3]),
        ("an infinite coordinate", trio(Vec3::new(0.9, f64::NEG_INFINITY, 0.2)), vec![1.0; 3]),
        ("a NaN coordinate", trio(Vec3::new(0.9, 0.1, f64::NAN)), vec![1.0; 3]),
    ];
    // FNV-1a over every outcome, bit for bit
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (grape, tol) in [(Grape5Config::paper_exact(), 1e-6), (Grape5Config::paper(), 0.02)] {
        for n_crit in [1, 32] {
            let cfg = TreeGrapeConfig {
                n_crit,
                grape,
                tree_config: TreeConfig { leaf_capacity: n_crit.min(8), ..TreeConfig::default() },
                ..TreeGrapeConfig::paper(0.01)
            };
            let cluster = |shards| {
                let cfg = ClusterTreeGrapeConfig {
                    base: cfg,
                    ..ClusterTreeGrapeConfig::paper(0.01, shards)
                };
                Box::new(ClusterTreeGrape::new(cfg)) as Box<dyn ForceBackend>
            };
            type Build<'a> = &'a dyn Fn() -> Box<dyn ForceBackend>;
            let backends: [(&str, Build); 5] = [
                ("DirectGrape", &|| Box::new(DirectGrape::new(grape, 0.01))),
                ("TreeGrape", &|| Box::new(TreeGrape::new(cfg))),
                ("cluster K = 1", &|| cluster(1)),
                ("cluster K = 2", &|| cluster(2)),
                ("cluster K = 4", &|| cluster(4)),
            ];
            for ((name, pos, mass), (backend, build)) in
                cases.iter().flat_map(|c| backends.iter().map(move |b| (c, b)))
            {
                let what = format!("{name}, {backend}, {:?}, n_crit {n_crit}", grape.mode);
                let want = DirectHost::new(0.01).compute(pos, mass);
                match build().try_compute(pos, mass) {
                    // typed: printable, and no partial answer to misuse
                    Err(e) => {
                        assert!(!e.to_string().is_empty(), "{what}");
                        fold(e.to_string().as_bytes());
                    }
                    Ok(got) => {
                        assert_eq!(
                            (got.acc.len(), got.pot.len()),
                            (pos.len(), pos.len()),
                            "{what}"
                        );
                        for (a, p) in got.acc.iter().zip(&got.pot) {
                            [a.x, a.y, a.z, *p]
                                .iter()
                                .for_each(|v| fold(&v.to_bits().to_le_bytes()));
                        }
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
    println!("degenerate digest {digest:016x}");
    if std::env::var_os("G5_LANE_PATH").is_none() {
        for path in ["avx2", "scalar"] {
            let out = std::process::Command::new(std::env::current_exe().expect("the test binary"))
                .args(["degenerate_snapshots_give", "--nocapture", "--test-threads=1"])
                .env("G5_LANE_PATH", path)
                .output()
                .expect("re-run the test binary");
            let text = String::from_utf8_lossy(&out.stdout);
            let line = text.lines().find(|l| l.contains("degenerate digest"));
            let want = format!("degenerate digest {digest:016x}");
            assert!(
                out.status.success() && line.is_some_and(|l| l.contains(&want)),
                "G5_LANE_PATH={path}: {want} here, there:\n{text}"
            );
        }
    }
}
