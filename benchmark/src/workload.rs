//! The five workloads: names, rationale, and seeded input generation.
//!
//! Names are normative — later issues cite them. Every input is a pure
//! function of `(workload, seed)`; the product only ever receives the
//! generated values. Sizes are chosen so that one run (nine set-ups,
//! `--seconds` of timed work, the output checks) ends in well under
//! 30 s on a 2-core sandbox: the driver makes more than a hundred runs
//! inside one hour.

use g5ic::{plummer_sphere, CosmologicalIc, Snapshot, ZeldovichConfig};
use g5serve::{IcClass, JobSpec};
use grape5::{splitmix, ArithMode, FaultConfig, Grape5Config};
use rand::SeedableRng;
use treegrape::{BackendSpec, ClusterTreeGrapeConfig, TreeGrapeConfig};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's workload class at its operating point.
    CdmNg2000Exact,
    /// The arithmetic the paper actually ran.
    PlummerNg2000Lns,
    /// Left arm of the n_g curve: thousands of short device calls.
    PlummerNg32Exact,
    /// Four shards, LET exchange, cluster checkpoints.
    Cluster4Overlap,
    /// The job service under a closed-loop tenant mix.
    ServeMix,
}

/// Every workload, in reporting order.
pub const ALL: [Workload; 5] = [
    Workload::CdmNg2000Exact,
    Workload::PlummerNg2000Lns,
    Workload::PlummerNg32Exact,
    Workload::Cluster4Overlap,
    Workload::ServeMix,
];

impl Workload {
    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CdmNg2000Exact => "cdm_ng2000_exact",
            Workload::PlummerNg2000Lns => "plummer_ng2000_lns",
            Workload::PlummerNg32Exact => "plummer_ng32_exact",
            Workload::Cluster4Overlap => "cluster4_overlap",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does a run of this workload confine itself to one CPU?
    ///
    /// The single-device backend cuts every device call into one static
    /// share per CPU and waits for the slowest, and the sandbox's second
    /// vCPU is not reliably a second core: interleaved ten-seed sets on
    /// two CPUs spread 34-42 % on the fastest step (the LNS step read
    /// 0.28-0.50 s) where the same runs on one CPU spread 10-21 %. The
    /// cluster and the server hand work to whichever thread is free, so
    /// they were as steady or steadier on both CPUs and keep them.
    pub fn one_cpu(self) -> bool {
        matches!(
            self,
            Workload::CdmNg2000Exact | Workload::PlummerNg2000Lns | Workload::PlummerNg32Exact
        )
    }

    /// One line on why the workload exists (goes into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CdmNg2000Exact => {
                "standard-CDM sphere at the paper's operating point (theta 0.75, n_g 2000, exact \
                 arithmetic): the exact-mode lane kernel does nearly all the wall time"
            }
            Workload::PlummerNg2000Lns => {
                "same operating point in the LNS arithmetic the paper ran: the LNS kernel, 11x \
                 slower per interaction, does >99% of the work; an LNS gain shows here only"
            }
            Workload::PlummerNg32Exact => {
                "left arm of the n_g curve (theta 0.5, n_g 32): thousands of short device calls \
                 per step, so per-call session work and traversal dominate, not the kernel"
            }
            Workload::Cluster4Overlap => {
                "the same CDM sphere on a four-shard overlapped cluster, checkpoint every 2 steps: \
                 only here run domain decomposition, LET resolution, shard threads, cluster restore"
            }
            Workload::ServeMix => {
                "g5serve, 2 workers, closed loop of 6 outstanding mixed jobs (Plummer/Hernquist, \
                 LNS sixth, faulty quarter): scheduling, admission, checkpoint I/O, ledger"
            }
        }
    }
}

/// How a simulation workload's backend is configured.
#[derive(Debug, Clone, Copy)]
pub enum BackendCfg {
    /// Single-device [`treegrape::TreeGrape`].
    Tree(TreeGrapeConfig),
    /// K-shard [`treegrape::ClusterTreeGrape`].
    Cluster(ClusterTreeGrapeConfig),
}

impl BackendCfg {
    /// The per-device operating point (the cluster's `base`).
    pub fn tree(&self) -> &TreeGrapeConfig {
        match self {
            BackendCfg::Tree(c) => c,
            BackendCfg::Cluster(c) => &c.base,
        }
    }
}

/// The timestep schedule of a simulation workload.
#[derive(Debug, Clone)]
pub enum Schedule {
    /// `try_step(dt)` every step.
    Uniform(f64),
    /// `try_step_to(times[k])` at step `k`; the run stops when the
    /// schedule is exhausted.
    Times(Vec<f64>),
}

/// Accuracy bands a run must stay inside (checked at the prefix step).
#[derive(Debug, Clone, Copy)]
pub struct Bands {
    /// Upper bound on `force_rms_err`.
    pub force_rms_err_max: f64,
    /// Upper bound on `accuracy.energy_drift`; `None` where total
    /// energy is near zero and a relative drift means nothing.
    pub energy_drift_max: Option<f64>,
}

/// Generated inputs of a simulation workload (1–4).
#[derive(Debug, Clone)]
pub struct SimInputs {
    /// Initial particle state.
    pub snapshot: Snapshot,
    /// Simulation time of the initial state.
    pub t0: f64,
    /// Timestep schedule.
    pub schedule: Schedule,
    /// Backend configuration.
    pub backend: BackendCfg,
    /// `Checkpointer::write_cluster` cadence in steps, if the workload
    /// checkpoints.
    pub checkpoint_every: Option<u64>,
    /// Accuracy bands.
    pub bands: Bands,
}

fn plummer(n: usize, seed: u64) -> Snapshot {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    plummer_sphere(n, &mut rng)
}

/// The standard-CDM sphere of the paper at laptop scale: 32^3 grid, so
/// N = 17,256 inside the sphere, stepped along the first entries of the
/// paper's 999-step uniform-in-a schedule. Its total energy is near
/// zero, so a relative energy drift means nothing and is not banded.
fn cdm_sphere(seed: u64, backend: BackendCfg, checkpoint_every: Option<u64>) -> SimInputs {
    let ic = CosmologicalIc::generate(&ZeldovichConfig::small(seed));
    let (t0, _) = ic.units.run_span();
    SimInputs {
        schedule: Schedule::Times(ic.units.a_uniform_schedule(999)),
        snapshot: ic.snapshot,
        t0,
        backend,
        checkpoint_every,
        bands: Bands { force_rms_err_max: 0.02, energy_drift_max: None },
    }
}

/// Generate the inputs of simulation workload `w` from `seed`.
///
/// # Panics
/// For [`Workload::ServeMix`], which has job specs instead
/// ([`job_spec`]).
pub fn sim_inputs(w: Workload, seed: u64) -> SimInputs {
    match w {
        Workload::CdmNg2000Exact => {
            cdm_sphere(seed, BackendCfg::Tree(TreeGrapeConfig::paper(0.005)), None)
        }
        Workload::PlummerNg2000Lns => SimInputs {
            snapshot: plummer(2048, seed),
            t0: 0.0,
            schedule: Schedule::Uniform(0.001),
            backend: BackendCfg::Tree(TreeGrapeConfig {
                grape: Grape5Config::paper(),
                ..TreeGrapeConfig::paper(0.01)
            }),
            checkpoint_every: None,
            bands: Bands { force_rms_err_max: 3e-3, energy_drift_max: Some(1e-4) },
        },
        Workload::PlummerNg32Exact => SimInputs {
            snapshot: plummer(16_384, seed),
            t0: 0.0,
            schedule: Schedule::Uniform(0.001),
            backend: BackendCfg::Tree(TreeGrapeConfig {
                theta: 0.5,
                n_crit: 32,
                ..TreeGrapeConfig::paper(0.01)
            }),
            checkpoint_every: None,
            bands: Bands { force_rms_err_max: 3e-3, energy_drift_max: Some(1e-4) },
        },
        // the same sphere as cdm_ng2000_exact, so the two differ by the
        // cluster alone; and a fixed-radius sphere keeps the octree's
        // alignment, hence the work, steady from seed to seed, which a
        // Plummer model's stray outermost particle does not (+-11 %)
        Workload::Cluster4Overlap => cdm_sphere(
            seed,
            BackendCfg::Cluster(ClusterTreeGrapeConfig::paper_overlapped(0.005, 4)),
            Some(2),
        ),
        Workload::ServeMix => panic!("serve_mix has job specs, not simulation inputs"),
    }
}

/// Jobs outstanding in the `serve_mix` closed loop.
pub const SERVE_OUTSTANDING: usize = 6;
/// `serve_mix` server workers.
pub const SERVE_WORKERS: usize = 2;
/// `serve_mix` scheduling quantum in steps.
pub const SERVE_QUANTUM: u64 = 8;

/// The `j`-th job of the `serve_mix` tenant stream for `seed`.
///
/// Sizes, lengths, IC families, arithmetic and fault policy interleave
/// on coprime periods so any window of the stream holds the same mix:
/// Plummer/Hernquist alternate, every 6th job runs LNS arithmetic on a
/// smaller load, every 4th job has a seeded fault storm armed. Every
/// size carries a few particles of seeded jitter: tenants do not all
/// ask for round numbers, and the work of a stream then differs a
/// little from seed to seed like every other workload's.
pub fn job_spec(seed: u64, j: u64) -> JobSpec {
    let lns = j % 6 == 5;
    let jitter = (splitmix(seed ^ 0x512e, j) % 64) as usize;
    let n = if lns {
        192 + 64 * (j % 3) as usize + jitter / 2
    } else {
        512 + 192 * (j % 7) as usize + jitter
    };
    let steps = 16 + 4 * (j % 5);
    let mut backend = BackendSpec::tree(0.05);
    if lns {
        backend.mode = ArithMode::Lns;
    }
    if j % 4 == 3 {
        backend = backend.with_fault(FaultConfig {
            transient_rate: 0.05,
            jmem_corrupt_rate: 0.02,
            ..FaultConfig::none(splitmix(seed ^ 0xfa17, j))
        });
    }
    JobSpec {
        ic: if j.is_multiple_of(2) { IcClass::Plummer } else { IcClass::Hernquist { r_max: 10.0 } },
        n,
        seed: splitmix(seed, j),
        steps,
        dt: 0.01,
        backend,
        checkpoint_every: 4,
        retain: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_plain() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.name().chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(w.why().len() <= 200, "{} why is {} chars", w.name(), w.why().len());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn simulation_inputs_are_a_function_of_the_seed() {
        for w in [Workload::PlummerNg2000Lns, Workload::CdmNg2000Exact] {
            let (a, b, c) = (sim_inputs(w, 42), sim_inputs(w, 42), sim_inputs(w, 7));
            assert_eq!(a.snapshot.pos, b.snapshot.pos);
            assert_eq!(a.snapshot.vel, b.snapshot.vel);
            assert_eq!(a.snapshot.mass, b.snapshot.mass);
            assert_eq!(a.t0.to_bits(), b.t0.to_bits());
            assert_ne!(a.snapshot.pos, c.snapshot.pos, "{}: seed ignored", w.name());
        }
    }

    #[test]
    fn job_stream_is_a_function_of_the_seed_and_mixes_every_axis() {
        let stream = |seed| (0..60).map(|j| job_spec(seed, j)).collect::<Vec<_>>();
        assert_eq!(stream(42), stream(42));
        assert_ne!(stream(42), stream(7));
        let s = stream(42);
        assert!(s.iter().all(|j| j.validate().is_ok()));
        assert_eq!(s.iter().filter(|j| j.backend.mode == ArithMode::Lns).count(), 10);
        assert_eq!(s.iter().filter(|j| j.backend.fault.is_some()).count(), 15);
        assert_eq!(s.iter().filter(|j| j.ic == IcClass::Plummer).count(), 30);
    }

    #[test]
    #[should_panic(expected = "job specs")]
    fn serve_mix_has_no_simulation_inputs() {
        let _ = sim_inputs(Workload::ServeMix, 1);
    }
}
