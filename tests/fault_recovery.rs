//! Property tests for the fault model and recovery stack: transient
//! device faults healed by validate/retry must leave trajectories
//! *bit-identical* to fault-free runs, checkpoint → restart must
//! reproduce the uninterrupted run exactly, and persistent faults
//! (stuck pipe, board dropout) must degrade gracefully instead of
//! crashing or corrupting physics.

use grape5_nbody::core::checkpoint::{latest, Checkpointer};
use grape5_nbody::core::{
    ClusterTreeGrape, ClusterTreeGrapeConfig, DirectHost, ForceBackend, LifecyclePolicy,
    PlanConfig, Simulation, TreeGrape, TreeGrapeConfig,
};
use grape5_nbody::grape5::{BoardDropout, FaultConfig, Grape5Config, RetryPolicy, StuckPipe};
use grape5_nbody::ic::{plummer_sphere, Snapshot};
use proptest::prelude::*;
use rand::SeedableRng;

fn plummer(n: usize, seed: u64) -> Snapshot {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    plummer_sphere(n, &mut rng)
}

/// Plenty of retries so even an unlucky fault draw converges; rates in
/// the tests stay ≤ 0.1 so P(fail 20 straight) is negligible.
fn patient() -> RetryPolicy {
    RetryPolicy { max_retries: 20, ..RetryPolicy::no_wait() }
}

fn config(n_crit: usize) -> TreeGrapeConfig {
    TreeGrapeConfig { n_crit, retry: patient(), ..TreeGrapeConfig::paper(0.01) }
}

fn run_sim(
    snap: &Snapshot,
    fault: Option<FaultConfig>,
    cfg: TreeGrapeConfig,
    steps: u64,
    dt: f64,
) -> Simulation<TreeGrape> {
    let mut backend = TreeGrape::new(cfg);
    if let Some(f) = fault {
        backend.grape_mut().set_fault_injector(f);
    }
    let mut sim = Simulation::try_new(snap.clone(), backend, 0.0).expect("initial forces");
    sim.try_run(dt, steps).expect("run");
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A trajectory integrated through a device with random transient
    /// readback faults (healed by validate + retry) is bit-identical
    /// to the fault-free trajectory.
    #[test]
    fn transient_faults_leave_trajectory_bit_identical(
        n in 64usize..300,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        rate in 0.01f64..0.1,
        n_crit in 16usize..128,
    ) {
        let snap = plummer(n, seed);
        let cfg = config(n_crit);
        let clean = run_sim(&snap, None, cfg, 3, 0.01);
        let faulty = run_sim(&snap, Some(FaultConfig::transient(fault_seed, rate)), cfg, 3, 0.01);

        prop_assert!(faulty.backend().recovery_stats().is_some_and(|s| s.quarantined_boards == 0));
        prop_assert_eq!(&clean.state.pos, &faulty.state.pos);
        prop_assert_eq!(&clean.state.vel, &faulty.state.vel);
    }

    /// j-memory corruption (bad masses resident on the device) is
    /// detected by the magnitude bound, healed by reload + retry, and
    /// likewise leaves the trajectory bit-identical.
    #[test]
    fn jmem_corruption_heals_bit_identically(
        n in 64usize..300,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        rate in 0.01f64..0.1,
    ) {
        let snap = plummer(n, seed);
        let cfg = config(64);
        let clean = run_sim(&snap, None, cfg, 3, 0.01);
        let faulty = run_sim(&snap, Some(FaultConfig::jmem(fault_seed, rate)), cfg, 3, 0.01);

        prop_assert_eq!(&clean.state.pos, &faulty.state.pos);
        prop_assert_eq!(&clean.state.vel, &faulty.state.vel);
    }

    /// Kill + resume from a mid-run checkpoint reproduces the
    /// uninterrupted run bit-for-bit — including the fault schedule,
    /// whose RNG state rides in the checkpoint manifest.
    #[test]
    fn checkpoint_restart_is_bit_identical(
        n in 64usize..256,
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        total in 4u64..8,
        cut in 1u64..4,
        with_faults in any::<bool>(),
    ) {
        let snap = plummer(n, seed);
        let cfg = config(48);
        let dt = 0.01;
        let fault = with_faults.then(|| FaultConfig::transient(fault_seed, 0.05));

        let dir = std::env::temp_dir()
            .join(format!("g5_fault_ckpt_{}_{seed:x}_{fault_seed:x}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ck = Checkpointer::new(&dir, 1).unwrap();

        // uninterrupted run, checkpointing at `cut` along the way
        let mut backend = TreeGrape::new(cfg);
        if let Some(f) = fault {
            backend.grape_mut().set_fault_injector(f);
        }
        let mut sim = Simulation::try_new(snap.clone(), backend, 0.0).unwrap();
        sim.try_run(dt, cut).unwrap();
        ck.maybe_write(&sim).unwrap().expect("a checkpoint at every step");
        sim.try_run(dt, total - cut).unwrap();

        // "kill" here; restart from the newest valid checkpoint
        let restored = latest(&dir).unwrap().expect("checkpoint present");
        prop_assert_eq!(restored.step, cut);
        prop_assert_eq!(restored.state.fault_state.is_some(), with_faults);
        let mut backend = TreeGrape::new(cfg);
        if let Some(f) = fault {
            backend.grape_mut().set_fault_injector(f);
        }
        let mut resumed = restored.resume(backend).unwrap();
        resumed.try_run(dt, total - cut).unwrap();

        prop_assert_eq!(resumed.steps, sim.steps);
        prop_assert_eq!(resumed.time.to_bits(), sim.time.to_bits());
        prop_assert_eq!(&resumed.state.pos, &sim.state.pos);
        prop_assert_eq!(&resumed.state.vel, &sim.state.vel);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A persistently stuck pipeline is convicted by self-test, the pipe is
/// quarantined, and — since lane assignment never changes force values —
/// the run stays bit-identical to fault-free.
#[test]
fn stuck_pipe_quarantines_and_stays_bit_identical() {
    let snap = plummer(400, 7);
    let cfg = config(64);
    let clean = run_sim(&snap, None, cfg, 5, 0.01);
    let stuck = StuckPipe { after_call: 2, board: 1, pipe: 9 };
    let faulty = run_sim(&snap, Some(FaultConfig::stuck(77, stuck)), cfg, 5, 0.01);

    let stats = faulty.backend().recovery_stats().unwrap();
    assert!(stats.quarantined_pipes >= 1, "stuck pipe was never quarantined");
    assert_eq!(clean.state.pos, faulty.state.pos);
    assert_eq!(clean.state.vel, faulty.state.vel);
}

/// A board dying mid-run is quarantined and the run completes on the
/// surviving board with energy conservation intact (the j-set is
/// re-grouped, so only agreement to rounding is guaranteed).
#[test]
fn board_dropout_completes_within_energy_tolerance() {
    let snap = plummer(500, 9);
    let cfg = config(64);
    let clean = run_sim(&snap, None, cfg, 10, 0.01);
    let dropout = BoardDropout { after_call: 12, board: 0 };
    let faulty = run_sim(&snap, Some(FaultConfig::dropout(88, dropout)), cfg, 10, 0.01);

    let stats = faulty.backend().recovery_stats().unwrap();
    assert_eq!(stats.quarantined_boards, 1, "dead board was never quarantined");
    assert_eq!(faulty.steps, 10);
    let e0 = Simulation::try_new(snap, TreeGrape::new(cfg), 0.0).unwrap().total_energy();
    let drift_clean = ((clean.total_energy() - e0) / e0).abs();
    let drift_fault = ((faulty.total_energy() - e0) / e0).abs();
    assert!(
        (drift_fault - drift_clean).abs() < 1e-6,
        "dropout run drifted: clean {drift_clean:.3e}, faulty {drift_fault:.3e}"
    );
}

/// A whole shard dying inside a cluster evaluation — its only board
/// drops out, exhausting the device — is detected as shard-fatal, the
/// snapshot is re-decomposed over the survivors, and the *same*
/// `try_compute` call still returns accurate forces. The paper-lineage
/// failure mode: one PC+GRAPE node of the cluster goes dark mid-run.
#[test]
fn shard_death_recovers_by_redecomposition() {
    let snap = plummer(800, 31);
    let mut base = config(64);
    base.grape = Grape5Config::single_board();
    base.plan = PlanConfig::serial();
    let mut cl = ClusterTreeGrape::new(ClusterTreeGrapeConfig {
        base,
        shards: 3,
        lifecycle: LifecyclePolicy::default(),
    });

    // Shard 1's lone board dies a few calls in: retries cannot help a
    // device with no boards left, so the shard itself is lost.
    cl.set_fault_injector(1, FaultConfig::dropout(99, BoardDropout { after_call: 4, board: 0 }));
    let fs = cl.compute(&snap.pos, &snap.mass);

    assert_eq!(cl.alive_shards(), 2, "dead shard was never culled");
    assert_eq!(cl.decomposition().unwrap().shards(), 2);
    let exact = DirectHost { eps: 0.01 }.compute(&snap.pos, &snap.mass);
    let mut sum = 0.0;
    for (a, b) in fs.acc.iter().zip(&exact.acc) {
        sum += (*a - *b).norm2() / b.norm2().max(1e-12);
    }
    let err = (sum / fs.acc.len() as f64).sqrt();
    assert!(err < 0.01, "post-recovery rms force error {err:.3e}");

    // The survivors keep serving evaluations without re-decomposing.
    cl.compute(&snap.pos, &snap.mass);
    assert_eq!(cl.alive_shards(), 2);
}
