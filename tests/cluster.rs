//! Integration tests for the PC-GRAPE cluster backend: K = 1 must be
//! bit-identical to the single-device `TreeGrape` (forces, tallies, and
//! whole trajectories, including tree-refresh steps), K > 1 must stay
//! at treecode accuracy against direct summation, and a checkpointed
//! cluster run killed mid-flight must resume byte-for-byte.

use grape5_nbody::core::accuracy::compare;
use grape5_nbody::core::checkpoint::{latest, Checkpointer};
use grape5_nbody::core::snapshot_io;
use grape5_nbody::core::{
    ClusterTreeGrape, ClusterTreeGrapeConfig, DirectHost, ForceBackend, LifecyclePolicy,
    PlanConfig, ResumeState, ShardHealth, Simulation, TreeGrape, TreeGrapeConfig,
};
use grape5_nbody::grape5::{BoardDropout, FaultConfig, Grape5Config, RetryPolicy};
use grape5_nbody::ic::{plummer_sphere, CosmologicalIc, Snapshot, ZeldovichConfig};
use grape5_nbody::util::Vec3;
use proptest::prelude::*;
use rand::SeedableRng;

fn plummer(n: usize, seed: u64) -> Snapshot {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    plummer_sphere(n, &mut rng)
}

/// A small, fast operating point: one simulated board per shard,
/// serial streaming, groups small enough that a few hundred particles
/// split into several shards' worth of work.
fn cluster_cfg(shards: usize, n_crit: usize) -> ClusterTreeGrapeConfig {
    let mut base = TreeGrapeConfig::paper(0.01);
    base.n_crit = n_crit;
    base.grape = Grape5Config::single_board();
    base.plan = PlanConfig::serial();
    ClusterTreeGrapeConfig { base, shards, lifecycle: LifecyclePolicy::default() }
}

fn rms_err(fs: &[Vec3], exact: &[Vec3]) -> f64 {
    let mut sum = 0.0;
    for (a, b) in fs.iter().zip(exact) {
        let scale = b.norm2().max(1e-12);
        sum += (*a - *b).norm2() / scale;
    }
    (sum / fs.len() as f64).sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A K = 1 cluster is the identity refactor: same forces, same
    /// potentials, same interaction tally as `TreeGrape`, bit for bit,
    /// on arbitrary Plummer draws and group sizes.
    #[test]
    fn k1_cluster_is_bit_identical_to_treegrape(
        n in 100usize..600,
        seed in any::<u64>(),
        n_crit in 32usize..256,
    ) {
        let snap = plummer(n, seed);
        let cfg = cluster_cfg(1, n_crit);
        let mut mono = TreeGrape::new(cfg.base);
        let mut cluster = ClusterTreeGrape::new(cfg);
        let a = mono.compute(&snap.pos, &snap.mass);
        let b = cluster.compute(&snap.pos, &snap.mass);
        prop_assert_eq!(&a.acc, &b.acc);
        prop_assert_eq!(&a.pot, &b.pot);
        prop_assert_eq!(a.tally, b.tally);

        // With the lifecycle supervisor armed but never firing (every
        // shard healthy, deadline unreachable) the result must still be
        // the same bits: probes and deadlines only *observe* a healthy
        // cluster.
        let mut supervised_cfg = cluster_cfg(1, n_crit);
        supervised_cfg.lifecycle =
            LifecyclePolicy { probe_interval: 1, straggler_factor: Some(1e12) };
        let mut supervised = ClusterTreeGrape::new(supervised_cfg);
        let c = supervised.compute(&snap.pos, &snap.mass);
        prop_assert_eq!(&a.acc, &c.acc);
        prop_assert_eq!(&a.pot, &c.pot);
        prop_assert_eq!(a.tally, c.tally);
    }

    /// The identity also holds across a short trajectory with a lazy
    /// refresh policy, so the cluster's refresh / rebuild decisions
    /// line up with the single-device ones step by step.
    #[test]
    fn k1_cluster_trajectory_is_bit_identical(
        n in 100usize..400,
        seed in any::<u64>(),
        interval in 1u32..4,
    ) {
        let snap = plummer(n, seed);
        let mut cfg = cluster_cfg(1, 64);
        cfg.base.refresh.interval = interval;
        let mut mono = Simulation::try_new(snap.clone(), TreeGrape::new(cfg.base), 0.0).unwrap();
        let mut cluster =
            Simulation::try_new(snap, ClusterTreeGrape::new(cfg), 0.0).unwrap();
        mono.try_run(0.01, 5).unwrap();
        cluster.try_run(0.01, 5).unwrap();
        prop_assert_eq!(&mono.state.pos, &cluster.state.pos);
        prop_assert_eq!(&mono.state.vel, &cluster.state.vel);
    }
}

/// Sharded evaluation stays at treecode accuracy: the per-group LET
/// exchange resolves remote mass with the same MAC the monolithic
/// traversal uses, so K ∈ {2, 4, 8} errors against direct summation
/// stay within a small factor of the K = 1 error.
#[test]
fn sharded_forces_match_direct_summation() {
    let snap = plummer(2000, 21);
    let exact = DirectHost { eps: 0.01 }.compute(&snap.pos, &snap.mass);
    let mut mono = TreeGrape::new(cluster_cfg(1, 64).base);
    let base_err = rms_err(&mono.compute(&snap.pos, &snap.mass).acc, &exact.acc);
    let tol = 3.0 * base_err.max(1e-4);
    for k in [2, 4, 8] {
        let mut cl = ClusterTreeGrape::new(cluster_cfg(k, 64));
        let fs = cl.compute(&snap.pos, &snap.mass);
        let err = rms_err(&fs.acc, &exact.acc);
        assert!(err < tol, "K={k}: rms force error {err:.3e} vs tolerance {tol:.3e}");
        assert_eq!(cl.alive_shards(), k);
    }
}

/// Committed envelopes for the cluster path at the paper's operating
/// point (θ 0.75, n_crit 2000, exact arithmetic) on the standard-CDM
/// sphere, K = 4 overlapped — the configuration `cluster4_overlap`
/// benchmarks. Accuracy and LET inflation fail here like a perf
/// regression would: the sharded evaluation may not be less accurate
/// than the one tree it stands in for, nor do more than twice its
/// interactions (measured 1.80×; 3.01× while group spheres were centred
/// on their cells), and the one tree's own lists may not drift either.
#[test]
fn cdm_k4_overlapped_accuracy_and_let_inflation_envelopes() {
    /// `TreeGrape` interactions per evaluation on this snapshot.
    const MONO_INTERACTIONS: f64 = 39.07e6;
    let snap = CosmologicalIc::generate(&ZeldovichConfig::small(42)).snapshot;
    let eps = 0.005;
    let exact = DirectHost::new(eps).compute(&snap.pos, &snap.mass);
    let mono = TreeGrape::new(TreeGrapeConfig::paper(eps)).compute(&snap.pos, &snap.mass);
    let mut cluster = ClusterTreeGrape::new(ClusterTreeGrapeConfig::paper_overlapped(eps, 4));
    let sharded = cluster.compute(&snap.pos, &snap.mass);
    assert_eq!(cluster.alive_shards(), 4);

    let (mono_err, err) = (compare(&mono, &exact).rms, compare(&sharded, &exact).rms);
    assert!(err <= 1.1 * mono_err, "K = 4 rms force error {err:.3e} vs monolithic {mono_err:.3e}");
    assert!(err <= 0.01, "K = 4 rms force error {err:.3e} above 1 %");

    let (mono_i, i) = (mono.tally.interactions as f64, sharded.tally.interactions as f64);
    assert!(
        i <= 2.0 * mono_i,
        "LET inflation {:.3} above 2.0 ({i:.4e} / {mono_i:.4e})",
        i / mono_i
    );
    assert!(
        (mono_i / MONO_INTERACTIONS - 1.0).abs() <= 0.05,
        "monolithic tally {mono_i:.4e} outside ±5 % of {MONO_INTERACTIONS:.4e}"
    );
}

/// Kill a cluster run mid-flight and resume it from its own
/// cluster-format checkpoint: the resumed trajectory must reproduce
/// the uninterrupted one byte-for-byte, down to the serialized
/// snapshot files.
#[test]
fn cluster_checkpoint_resume_is_byte_identical() {
    let snap = plummer(500, 22);
    let cfg = cluster_cfg(3, 64);
    let dt = 0.01;
    let (total, cut) = (6u64, 3u64);

    let dir = std::env::temp_dir().join(format!("g5_cluster_ckpt_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ck = Checkpointer::new(&dir, 1).unwrap();

    // Uninterrupted run, writing a cluster checkpoint at `cut`.
    let mut sim = Simulation::try_new(snap.clone(), ClusterTreeGrape::new(cfg), 0.0).unwrap();
    sim.try_run(dt, cut).unwrap();
    // the pre-lifecycle manifest format: shard count and fault words only
    let state = ResumeState { lifecycle: None, ..sim.backend().resume_state() };
    ck.write(&sim.state, sim.time, sim.steps, &state).unwrap();
    sim.try_run(dt, total - cut).unwrap();

    // "Kill" here; restart from the newest valid checkpoint with the
    // recorded shard count.
    let restored = latest(&dir).unwrap().expect("checkpoint present");
    assert_eq!(restored.step, cut);
    let shards = restored.state.shards.expect("cluster manifest records the shard count");
    assert_eq!(shards, 3);
    let mut resumed = restored.resume(ClusterTreeGrape::new(cluster_cfg(shards, 64))).unwrap();
    resumed.try_run(dt, total - cut).unwrap();

    assert_eq!(resumed.steps, sim.steps);
    assert_eq!(resumed.time.to_bits(), sim.time.to_bits());
    assert_eq!(&resumed.state.pos, &sim.state.pos);
    assert_eq!(&resumed.state.vel, &sim.state.vel);

    // Byte-for-byte: the serialized final snapshots are identical files.
    let a = dir.join("final_uninterrupted.snap");
    let b = dir.join("final_resumed.snap");
    snapshot_io::save(&a, &sim.state, sim.time).unwrap();
    snapshot_io::save(&b, &resumed.state, resumed.time).unwrap();
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoint/resume with the lifecycle supervisor active and real
/// history on the ledger: a shard killed mid-run and re-admitted by a
/// probe before the cut. The lifecycle payload (health codes, measured
/// rates, cut weights, recovery ledger) rides in the manifest;
/// restoring it and replaying resumes the trajectory byte-for-byte and
/// leaves the resumed ledger identical to the uninterrupted one.
#[test]
fn lifecycle_checkpoint_resume_is_byte_identical() {
    let snap = plummer(500, 24);
    let mut cfg = cluster_cfg(3, 64);
    cfg.lifecycle.probe_interval = 3;
    let dt = 0.01;
    let (total, cut) = (7u64, 4u64);

    let dir = std::env::temp_dir().join(format!("g5_cluster_life_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ck = Checkpointer::new(&dir, 1).unwrap();

    let mut sim = Simulation::try_new(snap.clone(), ClusterTreeGrape::new(cfg), 0.0).unwrap();
    sim.try_run(dt, 1).unwrap();
    sim.backend_mut().kill_shard(1); // healthy hardware, operator kill
    sim.try_run(dt, cut - 1).unwrap(); // probe at eval 3 re-admits it
    assert_eq!(sim.backend().alive_shards(), 3, "probe should have re-admitted shard 1");
    ck.maybe_write(&sim).unwrap().expect("a checkpoint at every step");
    sim.try_run(dt, total - cut).unwrap();

    let restored = latest(&dir).unwrap().expect("checkpoint present");
    assert_eq!(restored.step, cut);
    let lc = restored.state.lifecycle.as_ref().expect("lifecycle payload present");
    assert!(lc.ledger.iter().any(|e| e.contains("shard 1 killed by operator")), "{:?}", lc.ledger);
    let mut resumed = restored.resume(ClusterTreeGrape::new(cfg)).unwrap();
    resumed.try_run(dt, total - cut).unwrap();

    assert_eq!(resumed.time.to_bits(), sim.time.to_bits());
    assert_eq!(&resumed.state.pos, &sim.state.pos);
    assert_eq!(&resumed.state.vel, &sim.state.vel);
    assert_eq!(resumed.backend().ledger(), sim.backend().ledger());
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint taken while a shard is dead carries that shard's fault
/// process: shard 1's only board drops out at eval 1, the checkpoint at
/// step 2 finds it dead, and the probe at eval 4 must find the dropout
/// still there in the resumed run as in the uninterrupted one — not a
/// fault injector rewound to zero that passes the self-test and
/// re-admits the shard.
#[test]
fn a_dead_shard_keeps_its_fault_process_across_resume() {
    let snap = plummer(500, 24);
    let mut cfg = cluster_cfg(3, 64);
    cfg.base.retry = RetryPolicy::no_wait();
    cfg.lifecycle.probe_interval = 4;
    let build = || {
        let mut cl = ClusterTreeGrape::new(cfg);
        cl.set_fault_injector(1, FaultConfig::dropout(5, BoardDropout { after_call: 3, board: 0 }));
        cl
    };
    let dt = 0.01;
    let (total, cut) = (7u64, 2u64);

    let dir = std::env::temp_dir().join(format!("g5_cluster_dead_ckpt_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ck = Checkpointer::new(&dir, cut).unwrap();

    let mut sim = Simulation::try_new(snap, build(), 0.0).unwrap();
    sim.try_run(dt, cut).unwrap();
    assert_eq!(sim.backend().shard_health(1), Some(ShardHealth::Dead));
    ck.maybe_write(&sim).unwrap().expect("a checkpoint at the cut");
    sim.try_run(dt, total - cut).unwrap();
    let events = sim.backend().ledger().events();
    assert!(events.iter().any(|e| e == "eval 4: shard 1 probed, still dead"), "{events:?}");

    let mut resumed = latest(&dir).unwrap().expect("checkpoint present").resume(build()).unwrap();
    resumed.try_run(dt, total - cut).unwrap();
    assert_eq!(resumed.backend().ledger(), sim.backend().ledger());
    assert_eq!(&resumed.state.pos, &sim.state.pos);
    assert_eq!(&resumed.state.vel, &sim.state.vel);
    std::fs::remove_dir_all(&dir).ok();
}

/// Losing a shard invalidates the decomposition; the next evaluation
/// re-partitions over the survivors and keeps the trajectory going at
/// treecode accuracy.
#[test]
fn shard_loss_mid_trajectory_recovers() {
    let snap = plummer(600, 23);
    let mut sim =
        Simulation::try_new(snap, ClusterTreeGrape::new(cluster_cfg(4, 64)), 0.0).unwrap();
    sim.try_run(0.01, 2).unwrap();
    sim.backend_mut().kill_shard(2);
    sim.try_run(0.01, 2).unwrap();
    assert_eq!(sim.steps, 4);
    assert_eq!(sim.backend().alive_shards(), 3);
    assert_eq!(sim.backend().decomposition().unwrap().shards(), 3);
    let exact = DirectHost { eps: 0.01 }.compute(&sim.state.pos, &sim.state.mass);
    let err = rms_err(sim.acc(), &exact.acc);
    assert!(err < 0.01, "post-loss force error {err:.3e}");
}
