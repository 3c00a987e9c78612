//! Bit-identity of whole trajectories as a committed digest.
//!
//! Eight kick–drift–kick steps of one small Plummer sphere through every
//! GRAPE backend — direct summation on two boards and on one, the tree at
//! refresh interval 1 and 4, the `g5serve` tenant's tree (one board, one
//! group: every device call has the i-set equal to the j-set), clusters
//! of two and four shards, the tree under an armed transient-fault
//! injector, a supervised three-shard cluster that loses a board — in
//! exact and LNS arithmetic — the first steps of a small standard-CDM
//! sphere through the tree (several groups) and a two-shard cluster, a
//! larger sphere of two mass species through the LNS tree at the
//! paper's n_g 2000, and the final snapshots of one exact and one LNS
//! `g5serve` job, each preempted on the way.
//! Each simulation run is one row of FNV-1a
//! digests: final positions, velocities, accelerations and potentials,
//! the cumulative interaction tally, the recovery stats, and the modeled
//! device clock (its counters and the bits of its seconds). The table
//! must equal `tests/golden/steps_v1.txt` byte for byte, under every
//! `G5_LANE_PATH`: a process that was not given one re-runs this test
//! pinned to each and lets the children compare too.
//!
//! The digests depend on the platform libm as well as on this code:
//! every row through the Plummer sphere (`powf`, `sin`, `cos`) or the
//! CDM sphere's Zel'dovich realization, the LNS rows also through the
//! converter tables, built with `f64::exp2` /
//! `f64::log2`. Past the initial conditions the exact rows use IEEE add,
//! multiply, divide and sqrt only.
//!
//! A change that moves bits on purpose re-blesses by pasting the table
//! the failure prints over the committed file, and says why in the
//! change log.

use grape5_nbody::core::{
    snapshot_io, BackendSpec, ClusterTreeGrape, ClusterTreeGrapeConfig, DirectGrape, ForceBackend,
    LifecyclePolicy, RefreshPolicy, Simulation, TreeGrape, TreeGrapeConfig,
};
use grape5_nbody::grape5::{ArithMode, BoardDropout, FaultConfig, Grape5Config, RetryPolicy};
use grape5_nbody::ic::{plummer_sphere, CosmologicalIc, ZeldovichConfig};
use grape5_nbody::serve::{job_dir_name, JobSpec, JobState, Server, ServerConfig};
use grape5_nbody::util::Vec3;
use rand::SeedableRng;

const GOLDEN: &str = "tests/golden/steps_v1.txt";
const N: usize = 256;
const SEED: u64 = 26;
const EPS: f64 = 0.01;
const DT: f64 = 1.0 / 128.0;
const STEPS: u64 = 8;
/// The CDM sphere: an 8³ grid (268 particles in the sphere), stepped
/// along the first [`STEPS`] times of the paper's 999-step schedule.
const CDM_GRID: usize = 8;
const EPS_CDM: f64 = 0.005;
/// The two-species sphere: more bodies than one group of n_g 2000
/// holds, so each group's members are a run inside a longer list.
const N_MIXED: usize = 2100;
/// Bodies of each `g5serve` job.
const N_SERVE: usize = 128;

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn words(&mut self, words: impl IntoIterator<Item = u64>) -> &mut Fnv {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
        self
    }

    fn vecs(&mut self, v: &[Vec3]) -> &mut Fnv {
        self.words(v.iter().flat_map(|p| [p.x, p.y, p.z]).map(f64::to_bits))
    }
}

fn digest(f: impl FnOnce(&mut Fnv) -> &mut Fnv) -> String {
    format!("{:016x}", f(&mut Fnv::new()).0)
}

/// Eight steps of `backend` on the Plummer sphere, as one row of the table.
fn row<B: ForceBackend>(name: &str, backend: B, grape: &Grape5Config) -> String {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(SEED);
    let mut sim = Simulation::try_new(plummer_sphere(N, &mut rng), backend, 0.0)
        .unwrap_or_else(|e| panic!("{name}: initial forces: {e}"));
    sim.try_run(DT, STEPS).unwrap_or_else(|e| panic!("{name}: {e}"));
    digests(name, &sim, grape)
}

/// The initial force evaluation of `backend` on a Plummer sphere of
/// [`N_MIXED`] bodies in which every 64th body is three times as heavy,
/// as one row of the table.
fn mixed_row<B: ForceBackend>(name: &str, backend: B, grape: &Grape5Config) -> String {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(SEED);
    let mut ic = plummer_sphere(N_MIXED, &mut rng);
    ic.mass.iter_mut().step_by(64).for_each(|m| *m *= 3.0);
    let sim = Simulation::try_new(ic, backend, 0.0)
        .unwrap_or_else(|e| panic!("{name}: initial forces: {e}"));
    digests(name, &sim, grape)
}

/// One exact and one LNS `g5serve` job on one worker with a quantum of
/// four steps, so each is preempted and resumed from its checkpoint:
/// a row per job of its final snapshot — positions, velocities, the
/// file's bytes, the time — and its interaction, preemption and step
/// counts.
fn serve_rows() -> String {
    let dir = std::env::temp_dir().join(format!("g5_golden_serve_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = ServerConfig { workers: 1, quantum: 4, ..ServerConfig::new(&dir) };
    let server = Server::open(cfg).expect("open the server");
    let exact = JobSpec::plummer(N_SERVE, SEED, 6);
    let mut lns = JobSpec::hernquist(N_SERVE, SEED + 1, 6);
    lns.backend.mode = ArithMode::Lns;
    let ids = [("serve-exact", exact), ("serve-lns", lns)]
        .map(|(name, spec)| (name, server.submit(spec).expect("submit")));
    assert_eq!(server.wait_all(), 2, "a served job failed");
    let mut rows = String::new();
    for (name, id) in ids {
        assert_eq!(server.wait(id), JobState::Completed);
        let st = server.status(id).expect("a submitted job");
        assert!(st.preemptions > 0, "{name}: never preempted");
        let path = dir.join(job_dir_name(id)).join("final.g5snap");
        let bytes = std::fs::read(&path).expect("the final snapshot");
        let (snap, time) = snapshot_io::load(&path).expect("a readable final snapshot");
        let cols = [
            digest(|h| h.vecs(&snap.pos)),
            digest(|h| h.vecs(&snap.vel)),
            digest(|h| h.bytes(&bytes)),
            digest(|h| h.words([time.to_bits()])),
            digest(|h| h.words([st.interactions])),
            digest(|h| h.words([st.preemptions, st.resumes])),
            digest(|h| h.words([st.steps_done])),
        ];
        rows += &format!("{name:<19} {}\n", cols.join(" "));
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    rows
}

/// Eight steps of `backend` on the CDM sphere, as one row of the table.
fn cdm_row<B: ForceBackend>(name: &str, backend: B, grape: &Grape5Config) -> String {
    let ic = CosmologicalIc::generate(&ZeldovichConfig {
        grid_n: CDM_GRID,
        ..ZeldovichConfig::small(SEED)
    });
    let mut sim = Simulation::try_new(ic.snapshot, backend, ic.units.run_span().0)
        .unwrap_or_else(|e| panic!("{name}: initial forces: {e}"));
    for &t in &ic.units.a_uniform_schedule(999)[..STEPS as usize] {
        sim.try_step_to(t).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    digests(name, &sim, grape)
}

/// The digest row of a finished run.
fn digests<B: ForceBackend>(name: &str, sim: &Simulation<B>, grape: &Grape5Config) -> String {
    let t = sim.tally();
    let r = sim.backend().recovery_stats().expect("a validating backend");
    let c = sim.backend().grape_accounting().expect("a GRAPE backend");
    let cols = [
        digest(|h| h.vecs(&sim.state.pos)),
        digest(|h| h.vecs(&sim.state.vel)),
        digest(|h| h.vecs(sim.acc())),
        digest(|h| h.words(sim.pot().iter().map(|p| p.to_bits()))),
        digest(|h| h.words([t.interactions, t.terms, t.lists])),
        digest(|h| {
            h.words([
                r.retries,
                r.j_reloads,
                r.validation_failures,
                r.device_errors,
                r.quarantined_pipes,
                r.quarantined_boards,
                r.backoff_s.to_bits(),
            ])
        }),
        digest(|h| {
            h.words([c.pipeline_cycles, c.iface_words, c.calls, c.interactions, c.j_words]);
            h.words([c.report(grape).total_s().to_bits()])
        }),
    ];
    if name.ends_with("faults") {
        assert!(r.retries > 0, "{name}: the injector never fired");
    }
    if name.ends_with("lifecycle") {
        assert!(r.quarantined_boards > 0, "{name}: the injector never fired");
    }
    format!("{name:<19} {}\n", cols.join(" "))
}

/// The whole table, header included: the text of the golden file.
fn table() -> String {
    let tree = |grape, interval| TreeGrapeConfig {
        n_crit: 32,
        grape,
        refresh: RefreshPolicy::every(interval),
        ..TreeGrapeConfig::paper(EPS)
    };
    let (exact, lns) = (Grape5Config::paper_exact(), Grape5Config::paper());
    let mut faulty =
        TreeGrape::new(TreeGrapeConfig { retry: RetryPolicy::no_wait(), ..tree(exact, 1) });
    faulty.grape_mut().set_fault_injector(FaultConfig::transient(7, 0.1));
    let cluster = |grape, shards| ClusterTreeGrapeConfig {
        base: tree(grape, 1),
        ..ClusterTreeGrapeConfig::paper(EPS, shards)
    };
    // probes every third evaluation and a straggler deadline, with
    // shard 1 losing one of its two boards mid-run: a quarantine, then
    // a re-decomposition weighted by the boards each shard has left
    let mut supervised = ClusterTreeGrape::new(ClusterTreeGrapeConfig {
        base: TreeGrapeConfig { retry: RetryPolicy::no_wait(), ..tree(exact, 1) },
        lifecycle: LifecyclePolicy { probe_interval: 3, straggler_factor: Some(3.0) },
        ..cluster(exact, 3)
    });
    supervised
        .set_fault_injector(1, FaultConfig::dropout(5, BoardDropout { after_call: 4, board: 0 }));
    let mut t = format!(
        "# FNV-1a 64 digests after {STEPS} KDK steps (dt = 1/128) of a Plummer sphere,\n\
         # N = {N}, seed {SEED}, eps = {EPS}; checked by tests/golden_steps.rs.\n\
         # cdm-* rows: the first {STEPS} steps of the 999-step a-uniform schedule\n\
         # of a standard-CDM sphere (grid {CDM_GRID}^3, seed {SEED}, eps = {EPS_CDM}).\n\
         # tree-*-ng2k-mixed: the initial forces, N = {N_MIXED}, every 64th\n\
         # body three times as heavy. serve-*: a Plummer (exact) and a Hernquist\n\
         # (LNS) g5serve job, N = {N_SERVE}, 6 steps, quantum 4: the final snapshot\n\
         # (pos, vel, bytes, time), interactions, preemptions + resumes, steps.\n\
         # Platform libm: every row through the sphere (powf, sin, cos), the\n\
         # *-lns rows also through the LNS tables (exp2, log2).\n\
         {:<19} {:<16} {:<16} {:<16} {:<16} {:<16} {:<16} modeled\n",
        "run", "pos", "vel", "acc", "pot", "tally", "recovery"
    );
    t += &row("direct-exact", DirectGrape::new(exact, EPS), &exact);
    t += &row("direct-lns", DirectGrape::new(lns, EPS), &lns);
    t += &row("tree-exact-r1", TreeGrape::new(tree(exact, 1)), &exact);
    t += &row("tree-exact-r4", TreeGrape::new(tree(exact, 4)), &exact);
    t += &row("tree-lns-r1", TreeGrape::new(tree(lns, 1)), &lns);
    t += &row("tree-lns-r4", TreeGrape::new(tree(lns, 4)), &lns);
    t += &row("cluster2-exact", ClusterTreeGrape::new(cluster(exact, 2)), &exact);
    t += &row("tree-exact-faults", faulty, &exact);
    t += &row("cluster4-exact", ClusterTreeGrape::new(cluster(exact, 4)), &exact);
    t += &row("cluster2-lns", ClusterTreeGrape::new(cluster(lns, 2)), &lns);
    t += &row("cluster3-lifecycle", supervised, &exact);
    // a `g5serve` tenant's backend: n_crit 2000 > N puts the whole sphere
    // in one group on one board
    let one_board = Grape5Config { boards: 1, ..exact };
    t += &row("tree-exact-onegroup", BackendSpec::tree(EPS).build(), &one_board);
    t += &row("direct-exact-1b", DirectGrape::new(one_board, EPS), &one_board);
    // n_crit 32 cuts the CDM sphere into several groups
    let cdm_tree = TreeGrapeConfig { eps: EPS_CDM, ..tree(exact, 1) };
    t += &cdm_row("cdm-tree-exact", TreeGrape::new(cdm_tree), &exact);
    let cdm_cluster =
        ClusterTreeGrapeConfig { base: cdm_tree, ..ClusterTreeGrapeConfig::paper(EPS_CDM, 2) };
    t += &cdm_row("cdm-cluster2-exact", ClusterTreeGrape::new(cdm_cluster), &exact);
    // the paper's n_g on two boards: a few groups, several hundred
    // members each, of two mass species
    let ng2000 = TreeGrapeConfig { n_crit: 2000, ..tree(lns, 1) };
    t += &mixed_row("tree-lns-ng2k-mixed", TreeGrape::new(ng2000), &lns);
    let ng2000_exact = TreeGrapeConfig { n_crit: 2000, ..tree(exact, 1) };
    t += &mixed_row("tree-exact-ng2k-mixed", TreeGrape::new(ng2000_exact), &exact);
    t += &serve_rows();
    t
}

#[test]
fn eight_steps_match_the_committed_digests_on_every_lane_path() {
    let want =
        std::fs::read_to_string(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN))
            .unwrap_or_else(|e| panic!("{GOLDEN}: {e}"));
    let got = table();
    let path = std::env::var("G5_LANE_PATH").unwrap_or_else(|_| "<unset>".into());
    assert!(
        got == want,
        "G5_LANE_PATH={path}: the trajectories no longer match {GOLDEN}. If the change moves \
         bits on purpose, replace the file with the table below and say why in CHANGES.md. On \
         a new platform compare its libm first: every row hangs on powf / sin / cos, the \
         *-lns rows also on exp2 / log2.\n\
         --- committed\n{want}--- this build\n{got}"
    );
    if std::env::var_os("G5_LANE_PATH").is_none() {
        for path in ["avx2", "scalar"] {
            let out = std::process::Command::new(std::env::current_exe().expect("the test binary"))
                .args(["eight_steps_match", "--nocapture", "--test-threads=1"])
                .env("G5_LANE_PATH", path)
                .output()
                .expect("re-run the test binary");
            assert!(
                out.status.success(),
                "G5_LANE_PATH={path}:\n{}{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}
