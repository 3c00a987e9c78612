//! Thread census: callers that share the process spawn no thread for a
//! core they do not have (`g5util::cores`).
//!
//! With as many registered callers as the machine has cores, each has a
//! one-core share and must run the one-core path — inline plan, boards
//! in turn, serial sort and window — so the process's thread count
//! (`Threads:` in `/proc/self/status`, sampled by a watcher thread)
//! stays where it was when the callers were in place. A lone caller with
//! the whole machine spawns nothing either when its set is one group on
//! one board, a `g5serve` tenant's shape: the stream has nothing to
//! overlap and the call no board to split. The four
//! scenarios share one `#[test]`: the census counts every thread in the
//! process, so nothing else may run beside it — which is also why this
//! file is its own test binary. `cores::total()` is whatever the runner
//! has; on one core every scenario still holds (nothing ever spawns).
#![cfg(target_os = "linux")]

use grape5_nbody::core::{
    BackendSpec, ClusterTreeGrape, ClusterTreeGrapeConfig, ForceBackend, TreeGrape, TreeGrapeConfig,
};
use grape5_nbody::ic::plummer_sphere;
use grape5_nbody::serve::{JobSpec, JobState, Server, ServerConfig};
use grape5_nbody::util::{cores, Vec3};
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn threads_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("a Threads: line");
    line["Threads:".len()..].trim().parse().expect("a thread count")
}

/// Samples the process's thread count until told to stop; itself one of
/// the threads counted, at the start and at every sample alike.
struct Census {
    start: usize,
    stop: Arc<AtomicBool>,
    watcher: std::thread::JoinHandle<usize>,
}

impl Census {
    fn begin() -> Census {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let watcher = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(threads_now());
                std::thread::sleep(Duration::from_micros(200));
            }
            peak
        });
        Census { start: threads_now(), stop, watcher }
    }

    /// (threads at the start, most ever seen since)
    fn end(self) -> (usize, usize) {
        self.stop.store(true, Ordering::Relaxed);
        (self.start, self.watcher.join().expect("watcher"))
    }
}

fn plummer(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let s = plummer_sphere(n, &mut rng);
    (s.pos, s.mass)
}

/// Particles per caller, shard or job, and their group size: two
/// boards and groups of up to 400 against lists of ≈ 900 put the large
/// calls above the 2¹⁷ interactions at which a caller with a spare core
/// splits its boards over threads, and the default plan would take a
/// producer for every stream — small enough for a debug build.
const N: usize = 1200;
const N_CRIT: usize = 400;

fn config() -> TreeGrapeConfig {
    TreeGrapeConfig { n_crit: N_CRIT, ..TreeGrapeConfig::paper(0.01) }
}

/// `total` registered callers, each evaluating on its own `TreeGrape`:
/// the thread count never rises above its value once they are in place.
fn callers_with_one_core_each_spawn_nothing(total: usize) {
    let (pos, mass) = plummer(N, 1);
    let gate = Barrier::new(total + 1);
    std::thread::scope(|s| {
        for _ in 0..total {
            s.spawn(|| {
                let _me = cores::enter();
                let mut backend = TreeGrape::new(config());
                gate.wait(); // everyone has entered
                gate.wait(); // the census has begun
                for _ in 0..3 {
                    backend.compute(&pos, &mass);
                }
                gate.wait(); // stay counted until the census ends
            });
        }
        gate.wait();
        let census = Census::begin();
        gate.wait();
        gate.wait();
        let (start, peak) = census.end();
        assert!(
            peak <= start,
            "{total} callers on {total} cores: {start} threads at the start, {peak} at the peak"
        );
    });
}

/// A lone `TreeGrape` on the whole machine with fewer particles than its
/// group size (`BackendSpec::tree`: n_crit 2,000, one board): one group,
/// so no plan producer; one board, so no board split. The evaluations
/// are short and many, so that a producer — alive for one group's
/// resolution — would be alive at some of the census's samples.
fn a_lone_one_group_evaluation_spawns_nothing() {
    let (pos, mass) = plummer(200, 3);
    let mut backend = BackendSpec::tree(0.01).build();
    let census = Census::begin();
    for _ in 0..100 {
        backend.compute(&pos, &mass);
    }
    let (start, peak) = census.end();
    assert!(
        peak <= start,
        "a lone one-group evaluation: {start} threads at the start, {peak} at the peak"
    );
}

/// A cluster of `total` shards on the calling thread: its shard threads
/// and nothing else.
fn a_cluster_adds_its_shard_threads_and_nothing_else(total: usize) {
    let (pos, mass) = plummer(N * total, 2);
    let mut cluster = ClusterTreeGrape::new(ClusterTreeGrapeConfig {
        base: config(),
        ..ClusterTreeGrapeConfig::paper(0.01, total)
    });
    let census = Census::begin();
    for _ in 0..2 {
        cluster.compute(&pos, &mass);
    }
    let (start, peak) = census.end();
    assert!(
        peak <= start + total,
        "K = {total} cluster on {total} cores: {start} threads at the start, {peak} at the peak"
    );
}

/// A server with `total` workers and more jobs than workers: no thread
/// beyond the workers while the queue keeps every one of them busy.
fn a_saturated_server_adds_no_thread_to_its_workers(total: usize) {
    let dir = std::env::temp_dir().join(format!("g5_thread_budget_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // Until every worker holds a job the first ones may rightly size
    // themselves for the idle workers' cores; keep them to one core
    // each through the start-up, then count.
    let startup: Vec<cores::Caller> = (0..total).map(|_| cores::enter()).collect();
    let server =
        Server::open(ServerConfig { workers: total, quantum: 2, ..ServerConfig::new(&dir) })
            .expect("open server");
    let ids: Vec<_> = (0..3 * total as u64)
        .map(|j| {
            let mut spec = JobSpec::plummer(N, 40 + j, 4 + j);
            spec.backend.n_crit = N_CRIT;
            spec.backend.boards = 2;
            server.submit(spec).expect("submit")
        })
        .collect();
    let running =
        || server.statuses().iter().filter(|s| s.state == JobState::Running).count() == total;
    while !running() {
        std::thread::yield_now();
    }
    drop(startup);
    let census = Census::begin();
    // under a third of the fleet's steps: long before the queue can run dry
    // and leave a worker idle
    let budget: u64 = 4 * total as u64;
    while server.statuses().iter().map(|s| s.steps_done).sum::<u64>() < budget {
        std::thread::sleep(Duration::from_millis(2));
    }
    let (start, peak) = census.end();
    server.wait_all();
    for id in ids {
        assert_eq!(server.status(id).expect("status").state, JobState::Completed);
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        peak <= start,
        "{total} workers on {total} cores: {start} threads at the start, {peak} at the peak"
    );
}

#[test]
fn callers_sharing_the_process_spawn_no_thread_for_a_core_they_do_not_have() {
    let total = cores::total();
    callers_with_one_core_each_spawn_nothing(total);
    a_cluster_adds_its_shard_threads_and_nothing_else(total);
    a_saturated_server_adds_no_thread_to_its_workers(total);
    a_lone_one_group_evaluation_spawns_nothing();
}
