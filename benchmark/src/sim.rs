//! Runner of the four simulation workloads.
//!
//! **Untraced run** (`--trace 0`): nine rounds, each one set-up (fastest
//! → `setup_s`) followed by `Simulation::try_step` calls, each timed on
//! its own, until the round's ninth of `--seconds` of step (and
//! checkpoint) wall has accumulated. Tracing is off: nothing but
//! `Instant::now()` around the product's own calls.
//!
//! **Traced run** (`--trace 1`): one traced set-up, half the time in
//! product steps (for the product's own `PhaseTimers` and the modeled
//! clock), half in *staged* steps ([`crate::staged`]) whose spans give
//! the per-layer numbers, then the off-path probes.
//!
//! Quantities that must repeat bit for bit — modeled seconds, counts,
//! force error, energy drift — are taken at the **prefix step**
//! ([`PREFIX_STEPS`]), which every run reaches whatever its speed; how
//! many steps follow depends on the machine and only feeds medians.

use crate::check;
use crate::metrics::{Outcome, Values};
use crate::staged::{Staged, StagedCluster, StagedTreeGrape};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{self, BackendCfg, Schedule, SimInputs, Workload};
use g5ic::Snapshot;
use g5tree::traverse::Traversal;
use g5tree::tree::Tree;
use g5util::counters::InteractionTally;
use g5util::morton_sort::morton_order;
use g5util::vec3::Vec3;
use grape5::{ArithMode, ClockReport, DeviceSession, Grape5, Grape5Config};
use std::path::Path;
use std::time::Instant;
use treegrape::checkpoint::{self, Checkpointer};
use treegrape::{
    AnyBackend, ClusterTreeGrape, ForceBackend, ForceError, HostModel, PhaseTimers, Simulation,
    TreeGrape,
};

/// Steps every run takes before the exact-repeat quantities are read.
pub const PREFIX_STEPS: u64 = 4;
/// Rounds of an untraced run: each is one timed set-up (`setup_s` is
/// the fastest) and its share of the timed steps. The set-ups are spread
/// over the run so that a slow spell of the machine shorter than the run
/// cannot cover all of them.
pub const ROUNDS: usize = 9;
/// Staged steps every traced run takes at least.
const MIN_STAGED_STEPS: u32 = 2;

fn build_backend(cfg: &BackendCfg) -> AnyBackend {
    match cfg {
        BackendCfg::Tree(c) => AnyBackend::Tree(Box::new(TreeGrape::new(*c))),
        BackendCfg::Cluster(c) => AnyBackend::Cluster(Box::new(ClusterTreeGrape::new(*c))),
    }
}

/// The modeled clock of the critical path: the single device, or the
/// slowest shard; plus mean ÷ max shard modeled time.
fn critical_clock(b: &AnyBackend, hw: &Grape5Config) -> (ClockReport, f64) {
    match b {
        AnyBackend::Tree(t) => (t.accounting().report(hw), 1.0),
        AnyBackend::Cluster(c) => {
            let reports: Vec<ClockReport> =
                (0..c.shards()).map(|k| c.shard_accounting(k).report(hw)).collect();
            let slowest = reports
                .iter()
                .copied()
                .max_by(|a, b| a.total_s().total_cmp(&b.total_s()))
                .expect("a cluster has at least one shard");
            let mean = reports.iter().map(ClockReport::total_s).sum::<f64>() / reports.len() as f64;
            (slowest, mean / slowest.total_s())
        }
    }
}

/// Everything but the particles of a set-up simulation.
struct Rig {
    schedule: Schedule,
    backend: BackendCfg,
    checkpoint_every: Option<u64>,
    bands: workload::Bands,
}

/// Time `f` as a span when a tracer is given, run it bare otherwise.
fn spanned<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer.as_deref_mut() {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

/// Set up the workload: generate inputs, construct the backend, run
/// the initial force evaluation. With a tracer, each is a span.
fn set_up(
    w: Workload,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Simulation<AnyBackend>, Rig), ForceError> {
    let SimInputs { snapshot, t0, schedule, backend, checkpoint_every, bands } =
        spanned(&mut tracer, "ic.generate", || workload::sim_inputs(w, seed));
    let b = spanned(&mut tracer, "setup.backend_new", || build_backend(&backend));
    let sim = spanned(&mut tracer, "setup.first_eval", || Simulation::try_new(snapshot, b, t0))?;
    Ok((sim, Rig { schedule, backend, checkpoint_every, bands }))
}

/// One step along the schedule; `None` once a finite schedule is used up.
fn advance<B: ForceBackend>(
    sim: &mut Simulation<B>,
    schedule: &Schedule,
) -> Option<Result<(), ForceError>> {
    match schedule {
        Schedule::Uniform(dt) => Some(sim.try_step(*dt)),
        Schedule::Times(ts) => ts.get(sim.steps as usize).map(|&t| sim.try_step_to(t)),
    }
}

/// State captured at the prefix step.
struct Prefix {
    evals: u64,
    tally: InteractionTally,
    critical: ClockReport,
    balance: f64,
    energy: f64,
    state: Snapshot,
    time: f64,
    acc: Vec<Vec3>,
}

/// What the timed product steps produced.
struct ProductRun {
    step_walls: Vec<f64>,
    ckpt_walls: Vec<f64>,
    ckpt_bytes: u64,
    /// In-memory state at the last checkpoint, for the restore check.
    ckpt_state: Option<(Snapshot, f64, u64)>,
    attempted: u64,
    failed: u64,
    prefix: Option<Prefix>,
    timers: PhaseTimers,
}

fn timers_since(now: &PhaseTimers, then: &PhaseTimers) -> PhaseTimers {
    PhaseTimers {
        build_s: now.build_s - then.build_s,
        refresh_s: now.refresh_s - then.refresh_s,
        decompose_s: now.decompose_s - then.decompose_s,
        exchange_s: now.exchange_s - then.exchange_s,
        traverse_s: now.traverse_s - then.traverse_s,
        device_s: now.device_s - then.device_s,
        consumer_blocked_s: now.consumer_blocked_s - then.consumer_blocked_s,
        force_wall_s: now.force_wall_s - then.force_wall_s,
        step_wall_s: now.step_wall_s - then.step_wall_s,
    }
}

/// Bytes of one checkpoint pair: the manifest and its snapshot.
fn pair_bytes(manifest: &Path) -> u64 {
    [manifest.to_path_buf(), manifest.with_extension("snap")]
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// Step the product for `seconds` of step + checkpoint wall (at least
/// to the prefix step), timing every call from outside.
fn measure_product(
    sim: &mut Simulation<AnyBackend>,
    rig: &Rig,
    seconds: f64,
    ckpt_dir: &Path,
    problems: &mut Vec<String>,
) -> ProductRun {
    let hw = rig.backend.tree().grape;
    let ckpt = rig.checkpoint_every.map(|every| {
        let ck = Checkpointer::new(ckpt_dir, every).expect("create checkpoint directory");
        (ck.with_retention(2), every)
    });
    let timers0 = sim.phase_timers();
    let mut run = ProductRun {
        step_walls: Vec::new(),
        ckpt_walls: Vec::new(),
        ckpt_bytes: 0,
        ckpt_state: None,
        attempted: 0,
        failed: 0,
        prefix: None,
        timers: PhaseTimers::default(),
    };
    let mut measured = 0.0;
    let mut done = 0u64;
    while measured < seconds || done < PREFIX_STEPS {
        let t = Instant::now();
        let Some(result) = advance(sim, &rig.schedule) else { break };
        let wall = t.elapsed().as_secs_f64();
        run.attempted += 1;
        if let Err(e) = result {
            run.failed += 1;
            problems.push(format!("step {} failed: {e}", sim.steps + 1));
            break;
        }
        run.step_walls.push(wall);
        measured += wall;
        done += 1;
        if let Some((ck, every)) = &ckpt {
            if sim.steps.is_multiple_of(*every) {
                // the copy is the benchmark's (for the restore check), not the write's
                let (state, time, steps) = (sim.state.clone(), sim.time, sim.steps);
                let t = Instant::now();
                let written = sim.backend_mut().checkpoint(ck, &state, time, steps);
                let wall = t.elapsed().as_secs_f64();
                match written {
                    Ok(manifest) => {
                        run.ckpt_walls.push(wall);
                        measured += wall;
                        if done == PREFIX_STEPS {
                            run.ckpt_bytes = pair_bytes(&manifest);
                        }
                        run.ckpt_state = Some((state, time, steps));
                    }
                    Err(e) => problems.push(format!("checkpoint at step {steps} failed: {e}")),
                }
            }
        }
        if done == PREFIX_STEPS {
            let (critical, balance) = critical_clock(sim.backend(), &hw);
            run.prefix = Some(Prefix {
                evals: done + 1,
                tally: sim.tally(),
                critical,
                balance,
                energy: sim.total_energy(),
                state: sim.state.clone(),
                time: sim.time,
                acc: sim.acc().to_vec(),
            });
        }
    }
    run.timers = timers_since(&sim.phase_timers(), &timers0);
    run
}

/// `checkpoint::latest` + `load_snapshot`, timed, and compared byte for
/// byte with the in-memory state the checkpoint was written from.
fn check_restore(
    run: &ProductRun,
    ckpt_dir: &Path,
    values: &mut Values,
    problems: &mut Vec<String>,
) {
    let Some((state, time, steps)) = &run.ckpt_state else { return };
    let t = Instant::now();
    let latest = checkpoint::latest(ckpt_dir);
    values.set("checkpoint.latest_s", t.elapsed().as_secs_f64());
    let ckpt = match latest {
        Ok(Some(c)) => c,
        other => {
            problems.push(format!("no valid checkpoint to restore: {other:?}"));
            return;
        }
    };
    let t = Instant::now();
    let loaded = ckpt.load_snapshot();
    values.set("checkpoint.load_s", t.elapsed().as_secs_f64());
    match loaded {
        Ok((snap, t_loaded)) => {
            if ckpt.step != *steps
                || t_loaded.to_bits() != time.to_bits()
                || !check::same_snapshot(&snap, state)
            {
                problems.push(format!(
                    "restored checkpoint (step {}) differs from the in-memory state at step {steps}",
                    ckpt.step
                ));
            }
        }
        Err(e) => problems.push(format!("load_snapshot failed: {e}")),
    }
}

/// Accuracy at the prefix step: force error against direct summation
/// and energy drift, each against its band. Returns `(err, drift)`.
fn check_accuracy(
    prefix: &Prefix,
    rig: &Rig,
    e0: f64,
    seed: u64,
    problems: &mut Vec<String>,
) -> (f64, f64) {
    let targets = check::sample_targets(prefix.state.len(), check::SAMPLE_TARGETS, seed);
    let err = check::force_rms_err(
        &prefix.state.pos,
        &prefix.state.mass,
        rig.backend.tree().eps,
        &targets,
        &prefix.acc,
    );
    if !(err > 0.0 && err <= rig.bands.force_rms_err_max) {
        problems.push(format!(
            "force_rms_err {err:.3e} outside (0, {:.1e}]",
            rig.bands.force_rms_err_max
        ));
    }
    let drift = check::energy_drift(e0, prefix.energy);
    if let Some(max) = rig.bands.energy_drift_max {
        if drift > max {
            problems.push(format!("energy drift {drift:.3e} above {max:.1e}"));
        }
    }
    (err, drift)
}

fn mb(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// Run simulation workload `w` untraced and report the end-to-end
/// metrics: [`ROUNDS`] rounds of one timed set-up and a share of the
/// timed steps each, one simulation resident at a time.
pub fn run_untraced(w: Workload, seed: u64, seconds: f64, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(ROUNDS);
    let mut step_walls = Vec::new();
    let mut ckpt_walls = Vec::new();
    let mut last = None;
    for round in 0..ROUNDS {
        drop(last.take()); // peak RSS is one simulation's, not two
        let t = Instant::now();
        let made = set_up(w, seed, None);
        setups.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        let (mut sim, rig) = match made {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("set-up failed: {e}"));
                return out;
            }
        };
        let e0 = sim.total_energy();
        let dir = scratch.join(format!("round_{round}"));
        let run = measure_product(&mut sim, &rig, seconds / ROUNDS as f64, &dir, &mut out.problems);
        out.attempted += run.attempted;
        out.failed += run.failed;
        step_walls.extend_from_slice(&run.step_walls);
        ckpt_walls.extend_from_slice(&run.ckpt_walls);
        if run.failed > 0 {
            return out;
        }
        last = Some((sim, rig, e0, dir, run));
    }
    let (sim, rig, e0, dir, run) = last.expect("ROUNDS >= 1");
    out.values.set("setup_s", stats::fastest(&setups));
    let n = sim.state.len() as f64;
    // the read-back times are per-layer numbers; untraced, only the check counts
    check_restore(&run, &dir, &mut Values::default(), &mut out.problems);
    let Some(prefix) = &run.prefix else {
        out.problems.push(format!("run ended before the prefix step {PREFIX_STEPS}"));
        return out;
    };

    let step_s = stats::fastest(&step_walls);
    let ckpt_s_per_step = match rig.checkpoint_every {
        Some(every) if !ckpt_walls.is_empty() => stats::fastest(&ckpt_walls) / every as f64,
        _ => 0.0,
    };
    out.values.set("particle_steps_per_s", n / (step_s + ckpt_s_per_step));
    out.values.set("latency_s", step_s);
    out.values.set("modeled_step_s", prefix.critical.total_s() / prefix.evals as f64);
    let (err, drift) = check_accuracy(prefix, &rig, e0, seed, &mut out.problems);
    out.notes.push(format!(
        "N = {n}; {ROUNDS} rounds; step wall: {}, best {step_s:.4} s; {} checkpoints",
        stats::describe(&step_walls),
        ckpt_walls.len()
    ));
    out.notes.push(format!(
        "at step {PREFIX_STEPS}: force_rms_err {err:.3e} (band {:.0e}), energy drift {drift:.3e}",
        rig.bands.force_rms_err_max
    ));
    out
}

/// Seconds of `f`, median of three calls.
fn probe<R>(mut f: impl FnMut() -> R) -> f64 {
    let walls: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&walls)
}

/// Large-call kernel rate of this arithmetic mode, in ns/interaction:
/// one resident j-set, one long `force_on`, nothing else. The per-call
/// share of a workload's device time is measured against the best of
/// these, one taken after every staged step: a rate the kernel *can*
/// reach is a capability, not a typical value, and samples spread over
/// the staged steps see the machine those steps saw.
fn calibrate_kernel(hw: Grape5Config, eps: f64, pos: &[Vec3], mass: &[f64]) -> f64 {
    let (nj, ni) = match hw.mode {
        ArithMode::Exact => (4096, 2048),
        ArithMode::Lns => (2048, 512),
    };
    let (nj, ni) = (nj.min(pos.len()), ni.min(pos.len()));
    let mut g5 = Grape5::open(hw);
    let mut session = DeviceSession::open(&mut g5, pos, eps);
    session.load_j(&pos[..nj], &mass[..nj]);
    let t = Instant::now();
    std::hint::black_box(session.force_on(&pos[..ni]));
    t.elapsed().as_secs_f64() * 1e9 / (nj * ni) as f64
}

/// The staged half of a traced run, generic over the staged backend.
#[allow(clippy::too_many_arguments)]
fn staged_half<B: Staged>(
    backend: B,
    prefix: &Prefix,
    rig: &Rig,
    seconds: f64,
    product: &mut Simulation<AnyBackend>,
    product_step_s: f64,
    layers: &mut Values,
    out: &mut Outcome,
) -> Option<Tracer> {
    // warm-up evaluation at the prefix state: its counts repeat exactly
    let resumed = Simulation::resume(prefix.state.clone(), backend, prefix.time, prefix.evals - 1);
    out.attempted += 1;
    let mut sim = match resumed {
        Ok(s) => s,
        Err(e) => {
            out.failed += 1;
            out.problems.push(format!("staged warm-up evaluation failed: {e}"));
            return None;
        }
    };
    let at_prefix = sim.backend().counts();
    let j_words = sim.backend().accounting().j_words;
    let n = sim.state.len() as f64;
    layers.set("tree.nodes", at_prefix.nodes as f64);
    layers.set("traverse.groups", at_prefix.groups as f64);
    layers.set("traverse.terms", at_prefix.terms as f64);
    layers.set(
        "traverse.mean_list_len",
        (at_prefix.terms + at_prefix.let_terms) as f64 / at_prefix.groups as f64,
    );
    layers.set("session.calls", at_prefix.calls as f64);
    layers.set("session.j_words", j_words as f64);
    layers.set("pipeline.interactions", at_prefix.interactions as f64);
    let clustered = matches!(rig.backend, BackendCfg::Cluster(_));
    if clustered {
        layers.set("domain.count_balance", sim.backend().count_balance());
        layers.set("domain.let_terms", at_prefix.let_terms as f64);
        layers.set("cluster.interactions", at_prefix.interactions as f64);
    }

    let (hw, eps) = (rig.backend.tree().grape, rig.backend.tree().eps);
    let mut calib_ns = f64::INFINITY;
    let mut steps = 0u32;
    let mut measured = 0.0;
    while measured < seconds || steps < MIN_STAGED_STEPS {
        steps += 1;
        let tracer = sim.backend_mut().tracer();
        tracer.set_step(steps);
        let id = tracer.begin("step");
        let t = Instant::now();
        let result = advance(&mut sim, &rig.schedule);
        measured += t.elapsed().as_secs_f64();
        sim.backend_mut().tracer().end(id);
        out.attempted += 1;
        match result {
            Some(Ok(())) => {}
            Some(Err(e)) => {
                out.failed += 1;
                out.problems.push(format!("staged step {steps} failed: {e}"));
                return None;
            }
            None => {
                steps -= 1;
                break;
            }
        }
        let t = Instant::now();
        calib_ns = calib_ns.min(calibrate_kernel(hw, eps, &prefix.state.pos, &prefix.state.mass));
        measured += t.elapsed().as_secs_f64();
    }
    sim.backend_mut().tracer().set_step(0);
    layers.set("pipeline.calib_ns_per_interaction", calib_ns);

    // the spans timed the product's work only if the forces agree bit for bit
    match product.backend_mut().try_compute(&sim.state.pos, &sim.state.mass) {
        Ok(f) => {
            if !check::same_vec3_bits(&f.acc, sim.acc()) || !check::same_f64_bits(&f.pot, sim.pot())
            {
                out.problems.push(
                    "staged forces differ from the product's compute() on the same state".into(),
                );
            }
        }
        Err(e) => out.problems.push(format!("product compute for the staged check failed: {e}")),
    }

    let counts = sim.backend().counts().since(&at_prefix);
    let recovery = sim.backend().recovery_stats().unwrap_or_default();
    layers.set("plan.husks_minted", counts.husks_minted as f64);
    layers.set("session.retries", recovery.retries as f64);
    layers.set("session.j_reloads", recovery.j_reloads as f64);
    layers.set("session.validation_failures", recovery.validation_failures as f64);
    layers.set("plan.produce_cpu_s", counts.produce_cpu_s / f64::from(steps));

    let tr = sim.backend_mut().tracer();
    let per_step = |name: &str| tr.total_s(name) / f64::from(steps);
    let staged_step_s = per_step("step");
    let build_s = per_step("tree.build");
    let lists_s = per_step("traverse.list");
    let force_on_s = per_step("session.force_on");
    let inter = counts.interactions as f64 / f64::from(steps);
    layers.set("tree.build_s", build_s);
    layers.set("tree.build_ns_per_particle", build_s * 1e9 / n);
    layers.set("traverse.find_groups_s", per_step("traverse.find_groups"));
    layers.set("traverse.lists_s", lists_s);
    layers.set(
        "traverse.ns_per_term",
        lists_s * 1e9 * f64::from(steps) / (counts.terms as f64).max(1.0),
    );
    layers.set("plan.stream_wall_s", per_step("plan.stream"));
    layers.set("session.open_s", per_step("session.open"));
    layers.set("session.load_j_s", per_step("session.load_j"));
    layers.set("session.force_on_s", force_on_s);
    layers.set("pipeline.ns_per_interaction", force_on_s * 1e9 / inter);
    layers.set("pipeline.interactions_per_s", inter / force_on_s);
    layers.set("pipeline.host_gflops38", inter * 38.0 / force_on_s / 1e9);
    layers.set("integrator.kick_drift_s", tr.self_total_s("step") / f64::from(steps));
    layers.set("trace.staged_step_s", staged_step_s);
    layers.set("trace.staged_over_product", staged_step_s / product_step_s);
    // time inside force_eval that no child span names
    let residual = tr.self_total_s("force_eval") / tr.total_s("step");
    layers.set("trace.closure_residual_frac", residual);
    if residual > 0.05 {
        out.problems.push(format!("trace closure residual {residual:.3} above 0.05"));
    }
    layers.set("domain.decompose_s", per_step("domain.decompose"));
    layers.set("domain.gather_s", per_step("domain.gather"));
    layers.set("domain.let_terms_s", per_step("domain.let_terms"));
    layers.set("cluster.assemble_s", per_step("cluster.assemble"));
    if clustered {
        // per step: the slowest shard, and the sum over shards
        let slowest_per_step = |names: &[&str]| {
            let mut worst = std::collections::BTreeMap::new();
            for ((step, _lane), s) in tr.by_step_and_lane(names) {
                let w: &mut f64 = worst.entry(step).or_insert(0.0);
                *w = w.max(s);
            }
            worst.values().sum::<f64>() / f64::from(steps)
        };
        layers.set("cluster.shard_build_s_max", slowest_per_step(&["cluster.shard_build"]));
        let device = ["session.load_j", "session.force_on"];
        layers.set("cluster.shard_device_s_max", slowest_per_step(&device));
        layers.set("cluster.shard_device_s_sum", per_step(device[0]) + per_step(device[1]));
    }
    out.notes.push(format!("{steps} staged steps after warm-up"));
    Some(std::mem::replace(tr, Tracer::new()))
}

/// Per-layer numbers of the product half: the product's own
/// `PhaseTimers`, the step-wall distribution, the modeled clock at the
/// prefix step and the checkpoint writes. Returns the median step wall.
fn product_layers(
    run: &ProductRun,
    prefix: &Prefix,
    rig: &Rig,
    n: usize,
    layers: &mut Values,
) -> f64 {
    let hw = rig.backend.tree().grape;
    let steps = run.step_walls.len() as u64;
    let t = run.timers.per_step(steps);
    layers.set("phase.build_s", t.build_s);
    layers.set("phase.refresh_s", t.refresh_s);
    layers.set("phase.decompose_s", t.decompose_s);
    layers.set("phase.exchange_s", t.exchange_s);
    layers.set("phase.traverse_s", t.traverse_s);
    layers.set("phase.device_s", t.device_s);
    layers.set("phase.consumer_blocked_s", t.consumer_blocked_s);
    layers.set("phase.force_wall_s", t.force_wall_s);
    layers.set("phase.host_misc_s", t.host_misc_s());
    let product_step_s = stats::median(&run.step_walls);
    layers.set("trace.product_step_s", product_step_s);
    layers.set("latency.p50_s", product_step_s);
    layers.set("latency.p80_s", stats::upper_quantile(&run.step_walls, 0.8).unwrap_or(0.0));
    layers.set("latency.samples", steps as f64);

    let evals = prefix.evals as f64;
    let c = &prefix.critical;
    let modeled_step_s = c.total_s() / evals;
    layers.set("clock.pipeline_s", c.pipeline_s / evals);
    layers.set("clock.transfer_s", c.transfer_s / evals);
    layers.set("clock.latency_s", c.latency_s / evals);
    layers.set("clock.hidden_s", c.hidden_s / evals);
    layers.set("clock.efficiency", c.efficiency(&hw));
    layers.set("clock.modeled_gflops38", c.gflops());
    layers.set(
        "perf.modeled_host_s",
        HostModel::ds10().run_time(n, prefix.evals, prefix.tally.terms) / evals,
    );
    layers.set("perf.wall_over_modeled", stats::fastest(&run.step_walls) / modeled_step_s);
    if matches!(rig.backend, BackendCfg::Cluster(_)) {
        layers.set("cluster.modeled_balance", prefix.balance);
    }
    if !run.ckpt_walls.is_empty() {
        let write_s = stats::median(&run.ckpt_walls);
        layers.set("checkpoint.write_s", write_s);
        layers.set("checkpoint.bytes", run.ckpt_bytes as f64);
        layers.set("checkpoint.write_mb_per_s", mb(run.ckpt_bytes as f64) / write_s);
    }
    product_step_s
}

/// Run simulation workload `w` traced and report the per-layer
/// metrics; the Chrome trace goes to `trace_path`.
pub fn run_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    trace_path: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Values::default();
    let mut setup_tracer = Tracer::new();
    setup_tracer.set_step(1);
    let t = Instant::now();
    let made = set_up(w, seed, Some(&mut setup_tracer));
    layers.set("setup.first_s", t.elapsed().as_secs_f64());
    out.attempted += 1;
    let (mut sim, rig) = match made {
        Ok(r) => r,
        Err(e) => {
            out.failed += 1;
            out.problems.push(format!("set-up failed: {e}"));
            return out;
        }
    };
    layers.set("ic.generate_s", setup_tracer.total_s("ic.generate"));
    layers.set("setup.backend_new_s", setup_tracer.total_s("setup.backend_new"));
    layers.set("setup.first_eval_s", setup_tracer.total_s("setup.first_eval"));
    let n = sim.state.len();
    let e0 = sim.total_energy();

    // product half: the product's own timers and the modeled clock
    let run = measure_product(&mut sim, &rig, seconds / 2.0, scratch, &mut out.problems);
    out.attempted += run.attempted;
    out.failed += run.failed;
    check_restore(&run, scratch, &mut layers, &mut out.problems);
    let Some(prefix) = &run.prefix else {
        out.problems.push(format!("run ended before the prefix step {PREFIX_STEPS}"));
        return out;
    };
    let steps = run.step_walls.len() as u64;
    let product_step_s = product_layers(&run, prefix, &rig, n, &mut layers);
    let (err, drift) = check_accuracy(prefix, &rig, e0, seed, &mut out.problems);
    layers.set("accuracy.force_rms_err", err);
    layers.set("accuracy.energy_drift", drift);

    // off-path probes on the prefix state
    let (pos, mass) = (&prefix.state.pos, &prefix.state.mass);
    let order_s = probe(|| morton_order(pos));
    layers.set("morton_sort.order_s", order_s);
    layers.set("morton_sort.ns_per_key", order_s * 1e9 / n as f64);
    let tree_config = rig.backend.tree().tree_config;
    let mut tree = Tree::build_with(pos, mass, tree_config);
    layers.set("tree.refresh_s", probe(|| tree.refresh(pos, mass)));

    // staged half: the per-layer spans
    let staged_tracer = match rig.backend {
        BackendCfg::Tree(cfg) => staged_half(
            StagedTreeGrape::new(cfg),
            prefix,
            &rig,
            seconds / 2.0,
            &mut sim,
            product_step_s,
            &mut layers,
            &mut out,
        ),
        BackendCfg::Cluster(cfg) => {
            let global = Tree::build_with(pos, mass, tree_config);
            let mono = Traversal::new(cfg.base.theta).modified_tally(&global, cfg.base.n_crit);
            let tracer = staged_half(
                StagedCluster::new(cfg),
                prefix,
                &rig,
                seconds / 2.0,
                &mut sim,
                product_step_s,
                &mut layers,
                &mut out,
            );
            if let Some(inter) = layers.get("cluster.interactions") {
                layers.set("domain.let_inflation", inter / mono.interactions as f64);
            }
            tracer
        }
    };
    if let (Some(calib), Some(ns), Some(inter), Some(staged_s)) = (
        layers.get("pipeline.calib_ns_per_interaction"),
        layers.get("pipeline.ns_per_interaction"),
        layers.get("pipeline.interactions"),
        layers.get("trace.staged_step_s"),
    ) {
        // the kernel's rate: the large-call calibration, or this workload's
        // own calls where those happen to run faster per interaction
        let kernel_ns = calib.min(ns);
        layers.set("session.call_overhead_frac", 1.0 - kernel_ns / ns);
        // device calls, and the kernel proper at that rate, as shares of
        // the serial step: the design each workload stands for
        let device_s = layers.get("session.force_on_s").unwrap_or(0.0)
            + layers.get("session.load_j_s").unwrap_or(0.0);
        let device_share = device_s / staged_s;
        let kernel_share = inter * kernel_ns * 1e-9 / staged_s;
        layers.set("pipeline.device_share", device_share);
        layers.set("pipeline.kernel_share", kernel_share);
        // The design each workload stands for at the commit that defined
        // it, reported and not checked: a share is a property of the
        // product that later changes are meant to move (a cheaper j-load
        // raises the kernel's share on ng32), not of a correct output.
        match w {
            Workload::CdmNg2000Exact | Workload::PlummerNg2000Lns => out.notes.push(format!(
                "design witness: device share {device_share:.3} (>= 0.9 when the workload was defined)"
            )),
            Workload::PlummerNg32Exact => out.notes.push(format!(
                "design witness: kernel share {kernel_share:.3} (< 0.5 when the workload was defined)"
            )),
            _ => {}
        }
    }

    if let Some(tracer) = staged_tracer {
        layers.set("trace.spans", (tracer.spans().len() + setup_tracer.spans().len()) as f64);
        crate::write_trace(
            trace_path,
            &[(&setup_tracer, "set-up"), (&tracer, "staged steps")],
            &mut out.problems,
        );
    }
    out.notes.push(format!(
        "N = {n}, {steps} product steps then staged steps; counts are of the evaluation at step \
         {PREFIX_STEPS}"
    ));
    out.values = layers;
    out
}
