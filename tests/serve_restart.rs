//! Fleet-level durability: kill the job server mid-storm with many
//! jobs in flight, restart it over the same directory, and prove every
//! job's final snapshot is *byte-identical* to an uninterrupted
//! reference run — the tests/fault_recovery.rs single-run guarantee
//! lifted to the whole fleet.

use grape5_nbody::core::{snapshot_io, BackendSpec, Simulation};
use grape5_nbody::grape5::FaultConfig;
use grape5_nbody::serve::{job_dir_name, JobError, JobSpec, JobState, Server, ServerConfig};
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("g5serve_restart_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// The storm fleet: mixed Plummer/Hernquist, tree and cluster
/// backends, a fault storm armed on a subset.
fn fleet() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for j in 0..6u64 {
        let mut spec = if j % 2 == 0 {
            JobSpec::plummer(96 + 16 * j as usize, 100 + j, 18 + 3 * j)
        } else {
            JobSpec::hernquist(80 + 8 * j as usize, 200 + j, 12 + 2 * j)
        };
        spec.checkpoint_every = 4;
        if j % 3 == 0 {
            // seeded fault storm: transient readback + j-memory
            // corruption, healed by validate/retry
            let storm = FaultConfig {
                transient_rate: 0.05,
                jmem_corrupt_rate: 0.02,
                ..FaultConfig::none(900 + j)
            };
            spec.backend = spec.backend.with_fault(storm);
        }
        if j == 5 {
            spec.backend = BackendSpec::cluster(spec.backend.eps, 2);
        }
        specs.push(spec);
    }
    specs
}

/// Uninterrupted reference: same spec, no server, one unbroken run.
fn reference_final_bytes(spec: &JobSpec, scratch: &Path) -> Vec<u8> {
    let mut sim =
        Simulation::try_new(spec.make_ic(), spec.backend.build(), 0.0).expect("reference init");
    sim.try_run(spec.dt, spec.steps).expect("reference run");
    snapshot_io::save(scratch, &sim.state, sim.time).expect("reference save");
    std::fs::read(scratch).expect("reference read")
}

fn cfg(dir: &Path) -> ServerConfig {
    ServerConfig { workers: 3, quantum: 5, ..ServerConfig::new(dir) }
}

#[test]
fn fleet_survives_two_kills_byte_identically() {
    let dir = tmpdir("two_kills");
    let specs = fleet();

    let server = Server::open(cfg(&dir)).unwrap();
    let ids: Vec<_> = specs.iter().map(|s| server.submit(*s).unwrap()).collect();

    // first kill: as soon as any job has durable progress
    while !server.statuses().iter().any(|s| s.steps_done > 0) {
        std::thread::yield_now();
    }
    server.kill();

    // second kill: restart, let it run a little further, kill again
    let server = Server::open(cfg(&dir)).unwrap();
    let before: u64 = server.statuses().iter().map(|s| s.steps_done).sum();
    while server.statuses().iter().map(|s| s.steps_done).sum::<u64>() <= before
        && !server.statuses().iter().all(|s| s.state.is_terminal())
    {
        std::thread::yield_now();
    }
    server.kill();

    // final restart: every job must run to completion
    let server = Server::open(cfg(&dir)).unwrap();
    let completed = server.wait_all();
    assert_eq!(completed, specs.len(), "lost jobs across kills");
    for (&id, spec) in ids.iter().zip(&specs) {
        assert_eq!(server.wait(id), JobState::Completed);
        let st = server.status(id).unwrap();
        assert_eq!(st.steps_done, spec.steps, "job {id} stopped early");
        let served = std::fs::read(dir.join(job_dir_name(id)).join("final.g5snap"))
            .expect("final snapshot persisted");
        let reference = reference_final_bytes(spec, &dir.join(format!("ref_{id}.g5snap")));
        assert_eq!(served, reference, "job {id} final snapshot diverged from uninterrupted run");
    }
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn restart_preserves_terminal_states_and_taxonomy() {
    let dir = tmpdir("taxonomy");
    let tight = ServerConfig {
        workers: 1,
        quantum: 4,
        jmem_budget: 500,
        resident_budget: 500,
        ..ServerConfig::new(&dir)
    };
    let server = Server::open(tight.clone()).unwrap();
    let ok = server.submit(JobSpec::plummer(64, 1, 6)).unwrap();
    let too_big = server.submit(JobSpec::plummer(5000, 2, 6)).unwrap();
    let doomed = server.submit(JobSpec::plummer(64, 3, 500)).unwrap();
    assert!(server.cancel(doomed));
    assert_eq!(server.wait(ok), JobState::Completed);
    match server.wait(too_big) {
        JobState::Failed(JobError::AdmissionRejected { .. }) => {}
        other => panic!("expected admission rejection, got {other:?}"),
    }
    assert_eq!(server.wait(doomed), JobState::Failed(JobError::Cancelled));
    server.shutdown();

    // terminal states must survive replay — completed jobs are not
    // re-run, failures keep their taxonomy kind
    let server = Server::open(tight).unwrap();
    assert_eq!(server.status(ok).unwrap().state, JobState::Completed);
    match server.status(too_big).unwrap().state {
        JobState::Failed(JobError::AdmissionRejected { .. }) => {}
        other => panic!("rejection kind lost in replay: {other:?}"),
    }
    match server.status(doomed).unwrap().state {
        JobState::Failed(JobError::Cancelled) => {}
        other => panic!("cancel kind lost in replay: {other:?}"),
    }
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// A replayed job whose newest checkpoint is *ahead* of its spec —
/// `steps=4000` cut to `steps=4` in the ledger's job line after the job
/// had checkpointed at step 8 or later — has no steps left to count: it
/// fails with the typed error at once (it used to run on for 2⁶⁴ steps in a
/// release build and take the worker down in a debug one, `wait` never
/// returning either way), and its neighbours run on untouched.
#[test]
fn a_checkpoint_past_its_spec_fails_typed_and_spares_the_neighbours() {
    let dir = tmpdir("past_spec");
    let one = ServerConfig { workers: 1, quantum: 8, ..ServerConfig::new(&dir) };
    let mut specs =
        [JobSpec::plummer(64, 1, 4000), JobSpec::plummer(72, 2, 12), JobSpec::hernquist(64, 3, 10)];
    specs.iter_mut().for_each(|s| s.checkpoint_every = 4);

    // quantum 8: by the time the kill lands the first job has a
    // checkpoint at step 8 or later — past the damaged spec's four
    // steps, far short of its own 4000
    let server = Server::open(one.clone()).unwrap();
    let ids: Vec<_> = specs.iter().map(|s| server.submit(*s).unwrap()).collect();
    while server.status(ids[0]).unwrap().steps_done < 8 {
        std::thread::yield_now();
    }
    server.kill();

    let ledger = dir.join("jobs.ledger");
    let text = std::fs::read_to_string(&ledger).unwrap();
    let job_line = format!("job {} ", ids[0]);
    let damaged: Vec<String> = text
        .lines()
        .map(|l| {
            if l.starts_with(&job_line) {
                l.replace(" steps=4000 ", " steps=4 ")
            } else {
                l.into()
            }
        })
        .collect();
    assert_ne!(damaged.join("\n"), text.trim_end(), "the job line was not found");
    std::fs::write(&ledger, damaged.join("\n") + "\n").unwrap();

    let server = Server::open(ServerConfig { workers: 2, ..one }).unwrap();
    // polled, not `wait`ed: where the job never ends, `wait` never returns
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    while !server.status(ids[0]).unwrap().state.is_terminal() {
        let st = server.status(ids[0]).unwrap();
        assert!(std::time::Instant::now() < deadline, "still {st:?} after a second");
        std::thread::yield_now();
    }
    match server.wait(ids[0]) {
        JobState::Failed(JobError::CheckpointCorrupt(m)) => {
            assert!(m.contains("is past the 4 steps of the spec"), "{m}");
        }
        other => panic!("expected the typed failure, got {other:?}"),
    }
    for (&id, spec) in ids.iter().zip(&specs).skip(1) {
        assert_eq!(server.wait(id), JobState::Completed);
        let served = std::fs::read(dir.join(job_dir_name(id)).join("final.g5snap")).unwrap();
        let reference = reference_final_bytes(spec, &dir.join(format!("ref_{id}.g5snap")));
        assert_eq!(served, reference, "neighbour {id} diverged from its uninterrupted run");
    }
    server.shutdown();
    // the failure is on the ledger: a third server does not retry it
    let server = Server::open(cfg(&dir)).unwrap();
    assert!(matches!(
        server.status(ids[0]).unwrap().state,
        JobState::Failed(JobError::CheckpointCorrupt(_))
    ));
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// A cluster job whose newest manifest names a shard slot the cluster
/// does not have — `shard_fault_state 1 …` rewritten to `… 9 …`: the line
/// parses and the snapshot passes its CRC, so the slot reaches the
/// fault-state restore, which used to index past the shards and take the
/// worker down (`wait` never returning). It fails typed, and its
/// neighbours run on untouched.
#[test]
fn a_manifest_naming_a_missing_shard_fails_typed_and_spares_the_neighbours() {
    let dir = tmpdir("bad_slot");
    let one = ServerConfig { workers: 1, quantum: 8, ..ServerConfig::new(&dir) };
    let mut clustered = JobSpec::plummer(96, 1, 4000);
    let storm = FaultConfig { transient_rate: 0.05, ..FaultConfig::none(901) };
    clustered.backend = BackendSpec::cluster(clustered.backend.eps, 2).with_fault(storm);
    let mut specs = [clustered, JobSpec::plummer(72, 2, 12), JobSpec::hernquist(64, 3, 10)];
    specs.iter_mut().for_each(|s| s.checkpoint_every = 4);

    let server = Server::open(one.clone()).unwrap();
    let ids: Vec<_> = specs.iter().map(|s| server.submit(*s).unwrap()).collect();
    while server.status(ids[0]).unwrap().steps_done < 8 {
        std::thread::yield_now();
    }
    server.kill();

    let jobdir = dir.join(job_dir_name(ids[0]));
    let newest = std::fs::read_dir(&jobdir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .max()
        .expect("the cluster job checkpointed");
    let text = std::fs::read_to_string(&newest).unwrap();
    let damaged = text.replace("\nshard_fault_state 1 ", "\nshard_fault_state 9 ");
    assert_ne!(damaged, text, "no shard_fault_state line for slot 1 in {newest:?}");
    std::fs::write(&newest, damaged).unwrap();

    let server = Server::open(ServerConfig { workers: 2, ..one }).unwrap();
    // polled, not `wait`ed: where the worker dies, `wait` never returns
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !server.status(ids[0]).unwrap().state.is_terminal() {
        let st = server.status(ids[0]).unwrap();
        assert!(std::time::Instant::now() < deadline, "still {st:?} after five seconds");
        std::thread::yield_now();
    }
    match server.wait(ids[0]) {
        JobState::Failed(JobError::CheckpointCorrupt(m)) => {
            assert!(m.contains("shard 9 fault restore failed"), "{m}");
        }
        other => panic!("expected the typed failure, got {other:?}"),
    }
    for (&id, spec) in ids.iter().zip(&specs).skip(1) {
        assert_eq!(server.wait(id), JobState::Completed);
        let served = std::fs::read(dir.join(job_dir_name(id)).join("final.g5snap")).unwrap();
        let reference = reference_final_bytes(spec, &dir.join(format!("ref_{id}.g5snap")));
        assert_eq!(served, reference, "neighbour {id} diverged from its uninterrupted run");
    }
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// A cluster job whose ledger line now says `kind=tree` — its manifests
/// carry a shard count and a lifecycle that a single-device backend does
/// not own. The restore used to skip those keys and resume the job
/// silently on the other family's forces; it fails typed, and its
/// neighbours run on untouched.
#[test]
fn a_checkpoint_of_the_other_backend_family_fails_typed_and_spares_the_neighbours() {
    let dir = tmpdir("other_family");
    let one = ServerConfig { workers: 1, quantum: 8, ..ServerConfig::new(&dir) };
    let mut clustered = JobSpec::plummer(96, 1, 4000);
    clustered.backend = BackendSpec::cluster(clustered.backend.eps, 2);
    let mut specs = [clustered, JobSpec::plummer(72, 2, 12), JobSpec::hernquist(64, 3, 10)];
    specs.iter_mut().for_each(|s| s.checkpoint_every = 4);

    let server = Server::open(one.clone()).unwrap();
    let ids: Vec<_> = specs.iter().map(|s| server.submit(*s).unwrap()).collect();
    while server.status(ids[0]).unwrap().steps_done < 8 {
        std::thread::yield_now();
    }
    server.kill();

    let ledger = dir.join("jobs.ledger");
    let text = std::fs::read_to_string(&ledger).unwrap();
    let job_line = format!("job {} ", ids[0]);
    let damaged: Vec<String> = text
        .lines()
        .map(|l| {
            if l.starts_with(&job_line) {
                l.replace(" kind=cluster:2 ", " kind=tree ")
            } else {
                l.into()
            }
        })
        .collect();
    assert_ne!(damaged.join("\n"), text.trim_end(), "the job line was not found");
    std::fs::write(&ledger, damaged.join("\n") + "\n").unwrap();

    let server = Server::open(ServerConfig { workers: 2, ..one }).unwrap();
    // polled, not `wait`ed: a job resumed on the wrong family runs 4000 steps
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !server.status(ids[0]).unwrap().state.is_terminal() {
        let st = server.status(ids[0]).unwrap();
        assert!(std::time::Instant::now() < deadline, "still {st:?} after five seconds");
        std::thread::yield_now();
    }
    match server.wait(ids[0]) {
        JobState::Failed(JobError::CheckpointCorrupt(m)) => {
            assert!(m.contains("cluster resume state"), "{m}");
        }
        other => panic!("expected the typed failure, got {other:?}"),
    }
    for (&id, spec) in ids.iter().zip(&specs).skip(1) {
        assert_eq!(server.wait(id), JobState::Completed);
        let served = std::fs::read(dir.join(job_dir_name(id)).join("final.g5snap")).unwrap();
        let reference = reference_final_bytes(spec, &dir.join(format!("ref_{id}.g5snap")));
        assert_eq!(served, reference, "neighbour {id} diverged from its uninterrupted run");
    }
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn job_directories_are_collision_free_under_concurrency() {
    let dir = tmpdir("collision");
    let server =
        Server::open(ServerConfig { workers: 4, quantum: 3, ..ServerConfig::new(&dir) }).unwrap();
    let ids: Vec<_> = (0..8u64)
        .map(|j| {
            let mut s = JobSpec::plummer(64, 500 + j, 9);
            s.checkpoint_every = 3;
            server.submit(s).unwrap()
        })
        .collect();
    assert_eq!(server.wait_all(), 8);
    // every job dir holds only manifests stamped with its own id
    for &id in &ids {
        let name = job_dir_name(id);
        let jobdir = dir.join(&name);
        for entry in std::fs::read_dir(&jobdir).unwrap() {
            let p = entry.unwrap().path();
            if p.extension().is_some_and(|x| x == "ckpt") {
                let m = grape5_nbody::core::checkpoint::read_manifest(&p).unwrap();
                assert_eq!(m.job_id.as_deref(), Some(name.as_str()), "foreign manifest in {name}");
            }
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}
