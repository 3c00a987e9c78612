#![warn(missing_docs)]
//! # g5serve — a multi-tenant simulation job service over pooled GRAPE backends
//!
//! The paper's $7.0/Mflops only matters if the machine stays busy: the
//! real GRAPE installations were *shared facilities*, multiplexing many
//! users' runs onto the boards. This crate is that operational layer
//! for the reproduction — a thread-based job server (no async runtime;
//! `std::thread` + the mutex/condvar coordination style proven in
//! `g5tree::plan`) that turns the single-run binary into a facility:
//!
//! * **[`JobSpec`]** describes a run as a plain value: IC family,
//!   particle count, seed, steps, backend ([`treegrape::BackendSpec`]:
//!   tree or cluster, arithmetic mode, fault policy), checkpoint
//!   policy. Everything a worker needs to (re)build the run
//!   deterministically, any number of times.
//! * **Admission** bounds aggregate j-memory and resident particles
//!   against a [`grape5::DevicePool`]; jobs lease capacity FIFO and
//!   hold it to the terminal state.
//! * **Fair scheduling** slices every runnable job round-robin onto a
//!   fixed worker pool; preemption happens only at step boundaries by
//!   writing the existing crash-atomic, job-scoped manifest and
//!   resuming later — long jobs cannot starve short ones, and the
//!   preemption path *is* the crash-recovery path.
//! * **Durability**: an append-only job ledger plus per-job checkpoint
//!   directories make the whole fleet resumable — kill the server,
//!   [`Server::open`] the same directory, and every in-flight job
//!   continues bit-identically from its latest manifest.
//! * **Observability**: each job streams [`JobEvent`]s (steps, energy
//!   drift, checkpoints, preemptions, recovery and cluster lifecycle
//!   activity) over a subscription channel, and [`JobError`] gives
//!   failures a typed taxonomy.
//!
//! ## Quickstart
//!
//! ```no_run
//! use g5serve::{JobSpec, Server, ServerConfig, JobState};
//!
//! let cfg = ServerConfig::new(std::path::Path::new("serve_state"));
//! let server = Server::open(cfg).unwrap();
//! let id = server.submit(JobSpec::plummer(512, 42, 100)).unwrap();
//! let events = server.subscribe(id).unwrap();
//! assert_eq!(server.wait(id), JobState::Completed);
//! for ev in events.try_iter() {
//!     println!("{ev:?}");
//! }
//! server.shutdown();
//! ```

pub mod job;
pub mod ledger;
pub mod server;

pub use job::{job_dir_name, IcClass, JobError, JobEvent, JobId, JobSpec, JobState, JobStatus};
pub use server::{Server, ServerConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("g5serve_test_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn small_cfg(dir: &Path) -> ServerConfig {
        ServerConfig { workers: 2, quantum: 6, ..ServerConfig::new(dir) }
    }

    #[test]
    fn single_job_runs_to_completion_with_events() {
        let dir = tmpdir("single");
        let server = Server::open(small_cfg(&dir)).unwrap();
        let id = server.submit(JobSpec::plummer(96, 3, 10)).unwrap();
        let events = server.subscribe(id).unwrap();
        assert_eq!(server.wait(id), JobState::Completed);
        let st = server.status(id).unwrap();
        assert_eq!(st.steps_done, 10);
        assert!(st.interactions > 0);
        assert!(st.drift.abs() < 0.05, "drift {}", st.drift);
        // completion must release the lease
        assert_eq!(server.pool_usage().leases, 0);
        server.shutdown();
        let evs: Vec<JobEvent> = events.try_iter().collect();
        assert!(evs.iter().any(|e| matches!(e, JobEvent::Step { .. })));
        assert!(evs.iter().any(|e| matches!(e, JobEvent::Checkpointed { .. })));
        assert!(evs.iter().any(|e| matches!(e, JobEvent::Completed { steps: 10 })));
        assert!(dir.join("job-000000").join("final.g5snap").exists());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn long_job_is_preempted_and_short_jobs_finish_first() {
        let dir = tmpdir("fairness");
        // one worker: without preemption the long job would block the
        // short one for its whole duration
        let cfg = ServerConfig { workers: 1, quantum: 4, ..ServerConfig::new(&dir) };
        let server = Server::open(cfg).unwrap();
        let long = server.submit(JobSpec::plummer(128, 1, 40)).unwrap();
        let short = server.submit(JobSpec::plummer(64, 2, 4)).unwrap();
        assert_eq!(server.wait(short), JobState::Completed);
        let long_then = server.status(long).unwrap();
        assert!(
            long_then.steps_done < 40,
            "long job should still be in flight when the short one finishes"
        );
        assert_eq!(server.wait(long), JobState::Completed);
        let st = server.status(long).unwrap();
        assert!(st.preemptions >= 1, "40 steps at quantum 4 must preempt");
        assert_eq!(st.steps_done, 40);
        server.shutdown();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn impossible_demand_is_admission_rejected() {
        let dir = tmpdir("admission");
        let cfg = ServerConfig {
            workers: 1,
            jmem_budget: 1000,
            resident_budget: 1000,
            ..ServerConfig::new(&dir)
        };
        let server = Server::open(cfg).unwrap();
        let id = server.submit(JobSpec::plummer(5000, 1, 5)).unwrap();
        match server.wait(id) {
            JobState::Failed(JobError::AdmissionRejected { budget, asked, total }) => {
                assert_eq!(budget, "jmem");
                assert_eq!(asked, 5000);
                assert_eq!(total, 1000);
            }
            other => panic!("expected admission rejection, got {other:?}"),
        }
        assert!(server.status(id).unwrap().state.is_terminal());
        server.shutdown();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn admission_bounds_concurrent_residency() {
        let dir = tmpdir("budget");
        // budget fits exactly one 200-particle job at a time
        let cfg = ServerConfig {
            workers: 2,
            quantum: 4,
            jmem_budget: 250,
            resident_budget: 250,
            ..ServerConfig::new(&dir)
        };
        let server = Server::open(cfg).unwrap();
        let a = server.submit(JobSpec::plummer(200, 1, 8)).unwrap();
        let b = server.submit(JobSpec::plummer(200, 2, 8)).unwrap();
        let u = server.pool_usage();
        assert!(u.leases <= 1, "only one job may hold a lease: {u:?}");
        assert_eq!(server.wait(a), JobState::Completed);
        assert_eq!(server.wait(b), JobState::Completed);
        server.shutdown();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn cancel_hits_queued_and_running_jobs() {
        let dir = tmpdir("cancel");
        let cfg = ServerConfig { workers: 1, quantum: 4, ..ServerConfig::new(&dir) };
        let server = Server::open(cfg).unwrap();
        let running = server.submit(JobSpec::plummer(256, 1, 400)).unwrap();
        let queued = server.submit(JobSpec::plummer(64, 2, 400)).unwrap();
        assert!(server.cancel(queued));
        assert_eq!(server.wait(queued), JobState::Failed(JobError::Cancelled));
        // let the long job get going, then cancel it mid-run
        while server.status(running).unwrap().steps_done == 0 {
            std::thread::yield_now();
        }
        assert!(server.cancel(running));
        assert_eq!(server.wait(running), JobState::Failed(JobError::Cancelled));
        assert!(!server.cancel(running), "terminal jobs cannot be re-cancelled");
        assert_eq!(server.pool_usage().leases, 0);
        server.shutdown();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn graceful_shutdown_resumes_on_reopen() {
        let dir = tmpdir("reopen");
        let server = Server::open(small_cfg(&dir)).unwrap();
        let id = server.submit(JobSpec::plummer(128, 7, 30)).unwrap();
        // wait for some durable progress, then drain
        while server.status(id).unwrap().steps_done == 0 {
            std::thread::yield_now();
        }
        server.shutdown();

        let server = Server::open(small_cfg(&dir)).unwrap();
        assert_eq!(server.wait(id), JobState::Completed);
        assert_eq!(server.status(id).unwrap().steps_done, 30);
        server.shutdown();
        std::fs::remove_dir_all(dir).ok();
    }

    /// A small job with one backend field a worker thread would panic on.
    fn bad_backend_specs() -> Vec<(&'static str, JobSpec)> {
        use grape5::FaultConfig;
        use treegrape::BackendKind;
        let ok = JobSpec::plummer(64, 5, 4);
        let with = |f: &dyn Fn(&mut treegrape::BackendSpec)| {
            let mut spec = ok;
            f(&mut spec.backend);
            spec
        };
        vec![
            ("n_crit = 0", with(&|b| b.n_crit = 0)),
            ("n_crit below a leaf", with(&|b| b.n_crit = 7)),
            ("boards = 0", with(&|b| b.boards = 0)),
            ("shards = 0", with(&|b| b.kind = BackendKind::Cluster { shards: 0 })),
            // past the 64 particles: `Grape5::open` would abort the process
            // on a 2^40-board allocation; 2^62 shards wrap the j-memory
            // demand to 0 and `ClusterTreeGrape::new` panics in the worker
            ("boards = 2^40", with(&|b| b.boards = 1 << 40)),
            ("shards = 2^62", with(&|b| b.kind = BackendKind::Cluster { shards: 1 << 62 })),
            ("theta NaN", with(&|b| b.theta = f64::NAN)),
            ("theta < 0", with(&|b| b.theta = -0.5)),
            ("theta inf", with(&|b| b.theta = f64::INFINITY)),
            ("eps NaN", with(&|b| b.eps = f64::NAN)),
            ("eps < 0", with(&|b| b.eps = -1e-3)),
            ("transient rate 2", with(&|b| b.fault = Some(FaultConfig::transient(1, 2.0)))),
            ("jmem rate NaN", with(&|b| b.fault = Some(FaultConfig::jmem(1, f64::NAN)))),
        ]
    }

    #[test]
    fn bad_backend_fields_are_refused_at_submit() {
        let dir = tmpdir("bad_submit");
        let server = Server::open(small_cfg(&dir)).unwrap();
        for (what, spec) in bad_backend_specs() {
            let err = server.submit(spec).expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{what}: {err}");
        }
        // the boundary values are specs like any other
        let mut edge = JobSpec::plummer(64, 5, 4);
        (edge.backend.theta, edge.backend.eps, edge.backend.n_crit) = (0.0, 0.0, 8);
        let id = server.submit(edge).unwrap();
        assert_eq!(server.wait(id), JobState::Completed);
        assert_eq!(server.statuses().len(), 1, "a refused spec leaves no job behind");
        server.shutdown();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_replayed_job_with_a_bad_backend_field_fails_and_its_neighbours_run() {
        // what a flipped digit in a ledger token decodes to: the spec
        // parses, `submit` would have refused it, and a worker handed
        // it would panic and leave the job `Running` for ever
        for (what, bad) in bad_backend_specs() {
            let dir = tmpdir("bad_replay");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("jobs.ledger");
            let mut led = ledger::Ledger::create(&path).unwrap();
            let good = JobSpec::plummer(64, 5, 4);
            led.submit(0, &good).unwrap();
            led.submit(1, &bad).unwrap();
            led.state(1, &JobState::Preempted, 2).unwrap();
            led.submit(2, &good).unwrap();
            drop(led);

            let server = Server::open(small_cfg(&dir)).expect(what);
            match server.wait(1) {
                JobState::Failed(JobError::CheckpointCorrupt(m)) => {
                    assert!(m.contains("bad spec"), "{what}: {m}")
                }
                other => panic!("{what}: expected a corrupt-checkpoint failure, got {other:?}"),
            }
            assert_eq!(server.wait(0), JobState::Completed, "{what}");
            assert_eq!(server.wait(2), JobState::Completed, "{what}");
            server.shutdown();

            // the failure is in the ledger: the next open does not retry
            let replayed = ledger::replay(&path).unwrap();
            assert!(matches!(replayed[1].state, JobState::Failed(_)), "{what}: {replayed:?}");
            let server = Server::open(small_cfg(&dir)).expect(what);
            assert!(server.status(1).unwrap().state.is_terminal(), "{what}");
            assert_eq!(server.submit(good).unwrap(), 3, "{what}: ids go on past the failed job");
            server.shutdown();
            std::fs::remove_dir_all(dir).ok();
        }
    }
}
