//! The metric registry: every number g5spine reports, by name.
//!
//! One table for the end-to-end metrics (what a user of the system
//! sees; each carries the bound by which it may worsen) and one for the
//! per-layer metrics (what a single layer did; each names the
//! end-to-end metric and workload it should move). `BENCHMARK.json`,
//! the result line and the README tables are all derived from these two
//! tables, so a metric cannot be printed without being declared.
//!
//! **Host time and simulated time are never mixed in one number.**
//! `*_s` latencies, throughput and `phase.*`/span times are host wall
//! clock; `modeled_step_s`, `clock.*` and `perf.modeled_host_s` are the
//! simulated GRAPE-5/DS10 clock. `perf.wall_over_modeled` is the one
//! ratio between them and says so in its name.

use crate::json::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported on every workload with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Repeats bit for bit for one seed (a simulated or counted
    /// quantity): `--aa` demands equality, not a bound.
    pub exact: bool,
    /// Definition.
    pub what: &'static str,
}

/// A per-layer metric: reported on every workload by the traced run
/// (0 where the layer does not run).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the prefix is the module measured.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Repeats bit for bit for one seed.
    pub exact: bool,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    what: &'static str,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, exact, what }
}

/// The end-to-end metrics, in reporting order.
pub const END_TO_END: &[EndToEnd] = &[
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        false,
        "fastest of repeated set-ups (9, one opening each round of steps; 11 on serve_mix): IC \
         generation + backend construction + the initial force evaluation in Simulation::try_new \
         (serve_mix: Server::open + spec generation + one 1024-particle smoke job served to \
         Completed)",
    ),
    e2e(
        "particle_steps_per_s",
        "1/s",
        Higher,
        0.25,
        false,
        "host-clock throughput. Workloads 1-4: N over the fastest step wall (+ the fastest \
         checkpoint wall per step where the workload checkpoints); serve_mix: sum of N_j x steps_j \
         of completed jobs over the makespan",
    ),
    e2e(
        "latency_s",
        "s",
        Lower,
        0.25,
        false,
        "host seconds of the unit a caller waits for. Workloads 1-4: fastest try_step/try_step_to \
         wall of the run (medians: latency.p50_s); serve_mix: median submit -> terminal of a job",
    ),
    e2e(
        "modeled_step_s",
        "s",
        Lower,
        0.15,
        true,
        "simulated GRAPE-5 seconds per force evaluation on the critical path over the prefix \
         steps: ClockAccounting::report(cfg).total_s() (cluster: max over shards; serve_mix: \
         the witness job)",
    ),
    e2e("peak_rss_mb", "MB", Lower, 0.25, false, "VmHWM of the run's own process"),
];

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, exact, moves }
}

const STEP_ALL: &str = "latency_s on workloads 1-4";
const STEP_NG32: &str = "latency_s on plummer_ng32_exact (<= 2% on the ng2000 workloads)";
const STEP_KERNEL: &str = "latency_s: exact mode on cdm_ng2000_exact and cluster4_overlap, LNS \
                           mode on plummer_ng2000_lns; no change across modes";
const MODELED: &str = "modeled_step_s only; a simulator-speed change leaves it bit-identical";
const CROSS: &str = "cross-check of the staged spans (the product's own PhaseTimers)";
const CLUSTER: &str = "latency_s and modeled_step_s on cluster4_overlap only";
const SERVE: &str = "latency_s and particle_steps_per_s on serve_mix";
const CKPT: &str = "particle_steps_per_s on serve_mix and cluster4_overlap";

/// The per-layer metrics, in reporting order. `_s` values are means per
/// counted step unless the name says otherwise.
pub const PER_LAYER: &[PerLayer] = &[
    pl("setup.first_s", "s", Lower, false, "setup_s (first set-up pays one-time table init)"),
    pl("ic.generate_s", "s", Lower, false, "setup_s, all workloads"),
    pl("setup.backend_new_s", "s", Lower, false, "setup_s, all workloads"),
    pl("setup.first_eval_s", "s", Lower, false, "setup_s on workloads 1-4"),
    pl("morton_sort.order_s", "s", Lower, false, STEP_ALL),
    pl("morton_sort.ns_per_key", "ns", Lower, false, STEP_ALL),
    pl("tree.build_s", "s", Lower, false, STEP_ALL),
    pl("tree.build_ns_per_particle", "ns", Lower, false, STEP_ALL),
    pl("tree.refresh_s", "s", Lower, false, "off the step path at RefreshPolicy::default()"),
    pl("tree.nodes", "count", Lower, true, STEP_ALL),
    pl("traverse.find_groups_s", "s", Lower, false, STEP_NG32),
    pl("traverse.groups", "count", Lower, true, STEP_NG32),
    pl("traverse.lists_s", "s", Lower, false, STEP_NG32),
    pl("traverse.terms", "count", Lower, true, "latency_s on ng32; perf.modeled_host_s"),
    pl("traverse.ns_per_term", "ns", Lower, false, STEP_NG32),
    pl("traverse.mean_list_len", "count", Lower, true, STEP_KERNEL),
    pl("plan.stream_wall_s", "s", Lower, false, STEP_NG32),
    pl("plan.produce_cpu_s", "s", Lower, false, STEP_NG32),
    pl("plan.husks_minted", "count", Lower, true, "peak_rss_mb; 0 in steady state"),
    pl("session.open_s", "s", Lower, false, STEP_NG32),
    pl("session.load_j_s", "s", Lower, false, STEP_NG32),
    pl("session.j_words", "count", Lower, true, "modeled_step_s via clock.transfer_s"),
    pl("session.force_on_s", "s", Lower, false, STEP_KERNEL),
    pl("session.calls", "count", Lower, true, "modeled_step_s via clock.latency_s"),
    pl("session.call_overhead_frac", "ratio", Lower, false, STEP_NG32),
    pl("session.retries", "count", Lower, true, "particle_steps_per_s on serve_mix only"),
    pl("session.j_reloads", "count", Lower, true, "particle_steps_per_s on serve_mix only"),
    pl("session.validation_failures", "count", Lower, true, "serve_mix only"),
    pl("pipeline.interactions", "count", Lower, true, STEP_KERNEL),
    pl("pipeline.ns_per_interaction", "ns", Lower, false, STEP_KERNEL),
    pl("pipeline.interactions_per_s", "1/s", Higher, false, STEP_KERNEL),
    pl("pipeline.host_gflops38", "Gflops", Higher, false, STEP_KERNEL),
    pl("pipeline.calib_ns_per_interaction", "ns", Lower, false, STEP_KERNEL),
    pl(
        "pipeline.device_share",
        "ratio",
        Higher,
        false,
        "design witness, not checked: >= 0.9 on ng2000 at the baseline",
    ),
    pl(
        "pipeline.kernel_share",
        "ratio",
        Higher,
        false,
        "design witness, not checked: < 0.5 on ng32 at the baseline",
    ),
    pl("clock.pipeline_s", "s", Lower, true, MODELED),
    pl("clock.transfer_s", "s", Lower, true, MODELED),
    pl("clock.latency_s", "s", Lower, true, MODELED),
    pl("clock.hidden_s", "s", Higher, true, MODELED),
    pl("clock.efficiency", "ratio", Higher, true, MODELED),
    pl("clock.modeled_gflops38", "Gflops", Higher, true, MODELED),
    pl("perf.modeled_host_s", "s", Lower, true, MODELED),
    pl(
        "perf.wall_over_modeled",
        "ratio",
        Lower,
        false,
        "latency_s / modeled_step_s, the gap between the clocks",
    ),
    pl("phase.build_s", "s", Lower, false, CROSS),
    pl("phase.refresh_s", "s", Lower, false, CROSS),
    pl("phase.decompose_s", "s", Lower, false, CROSS),
    pl("phase.exchange_s", "s", Lower, false, CROSS),
    pl("phase.traverse_s", "s", Lower, false, CROSS),
    pl("phase.device_s", "s", Lower, false, CROSS),
    pl("phase.consumer_blocked_s", "s", Lower, false, CROSS),
    pl("phase.force_wall_s", "s", Lower, false, CROSS),
    pl("phase.host_misc_s", "s", Lower, false, CROSS),
    pl("integrator.kick_drift_s", "s", Lower, false, STEP_ALL),
    pl(
        "trace.product_step_s",
        "s",
        Lower,
        false,
        "latency_s (median step of the traced run's product half)",
    ),
    pl("trace.staged_step_s", "s", Lower, false, "none: the serial re-enactment"),
    pl("trace.staged_over_product", "ratio", Lower, false, "what overlap buys, not overhead"),
    pl("trace.closure_residual_frac", "ratio", Lower, false, "must stay <= 0.05"),
    pl("trace.spans", "count", Lower, false, "none: size of the trace"),
    pl("domain.decompose_s", "s", Lower, false, CLUSTER),
    pl("domain.gather_s", "s", Lower, false, CLUSTER),
    pl("domain.count_balance", "ratio", Higher, true, CLUSTER),
    pl("domain.let_terms_s", "s", Lower, false, CLUSTER),
    pl("domain.let_terms", "count", Lower, true, CLUSTER),
    pl("domain.let_inflation", "ratio", Lower, true, CLUSTER),
    pl("cluster.interactions", "count", Lower, true, CLUSTER),
    pl("cluster.shard_build_s_max", "s", Lower, false, CLUSTER),
    pl("cluster.shard_device_s_max", "s", Lower, false, CLUSTER),
    pl("cluster.shard_device_s_sum", "s", Lower, false, CLUSTER),
    pl("cluster.assemble_s", "s", Lower, false, CLUSTER),
    pl("cluster.modeled_balance", "ratio", Higher, true, "modeled_step_s on cluster4_overlap"),
    pl("checkpoint.write_s", "s", Lower, false, CKPT),
    pl("checkpoint.bytes", "B", Lower, true, CKPT),
    pl("checkpoint.write_mb_per_s", "MB/s", Higher, false, CKPT),
    pl("checkpoint.latest_s", "s", Lower, false, CKPT),
    pl("checkpoint.load_s", "s", Lower, false, CKPT),
    pl("server.jobs", "count", Higher, false, SERVE),
    pl("server.busy_s", "s", Lower, false, SERVE),
    pl("server.worker_utilization", "ratio", Higher, false, SERVE),
    pl("server.queue_wait_p50_s", "s", Lower, false, SERVE),
    pl("server.slice_p50_s", "s", Lower, false, SERVE),
    pl("server.preemptions", "count", Lower, true, SERVE),
    pl("server.resumes", "count", Lower, true, SERVE),
    pl("server.checkpoints", "count", Lower, true, SERVE),
    pl("server.interactions", "count", Lower, true, SERVE),
    pl("server.reopen_s", "s", Lower, false, "restart time, not in the closed loop"),
    pl("ledger.bytes", "B", Lower, false, SERVE),
    pl("ledger.replay_s", "s", Lower, false, "server.reopen_s"),
    pl("pool.jmem_peak_frac", "ratio", Lower, false, SERVE),
    pl("pool.resident_peak_frac", "ratio", Lower, false, SERVE),
    pl("latency.p50_s", "s", Lower, false, "latency_s (the median the guide asks for)"),
    pl("latency.p80_s", "s", Lower, false, "tail of latency_s; 0 below 50 samples"),
    pl("latency.samples", "count", Higher, false, "sample count behind latency.*"),
    pl("accuracy.force_rms_err", "ratio", Lower, true, "band-checked on every workload"),
    pl("accuracy.energy_drift", "ratio", Lower, true, "band-checked on workloads 2-4, serve_mix"),
    pl("machine.nproc", "count", Higher, false, "every host-clock metric"),
    pl("machine.lane_avx2", "count", Higher, false, "pipeline.* (1 = AVX2 lane path)"),
];

/// Is `name` a declared metric (either table)?
pub fn is_declared(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name)
}

/// Measured values, keyed by declared metric name.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `name = value`.
    ///
    /// # Panics
    /// On an undeclared name or a non-finite value — both are bugs in
    /// the benchmark, and a result line must never carry either.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(is_declared(name), "undeclared metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for every end-to-end
    /// metric. Errors on a metric the run did not measure.
    pub fn end_to_end_json(&self) -> Result<Json, String> {
        let mut pairs = Vec::new();
        for m in END_TO_END {
            let v = self.get(m.name).ok_or(format!("end-to-end metric {} not measured", m.name))?;
            pairs.push((m.name.to_string(), metric_json(v, m.unit)));
        }
        Ok(Json::Obj(pairs))
    }

    /// The same for every per-layer metric; a layer that does not run
    /// on the workload reports 0.
    pub fn per_layer_json(&self) -> Json {
        Json::Obj(
            PER_LAYER
                .iter()
                .map(|m| (m.name.to_string(), metric_json(self.get(m.name).unwrap_or(0.0), m.unit)))
                .collect(),
        )
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics.
    pub values: Values,
    /// Operations attempted (set-ups, steps, jobs).
    pub attempted: u64,
    /// Operations that failed (a step returning `Err`, a job not
    /// `Completed`).
    pub failed: u64,
    /// Failed output checks, one line each; empty means correct.
    pub problems: Vec<String>,
    /// Context for the human-readable report (sample counts, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Did every operation succeed and every output check pass?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(name: &str, extra: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(plain(name, "_.-", 64), "bad metric name {name:?}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(plain(unit, "_/%.-", 16), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "metric {name} declared twice");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn bounds_and_setup_metric_fit_the_contract() {
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound {}", m.name, m.bound);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn values_reject_undeclared_and_fill_absent_layers_with_zero() {
        let mut v = Values::default();
        v.set("tree.nodes", 12.0);
        v.set("tree.nodes", 13.0);
        assert_eq!(v.get("tree.nodes"), Some(13.0));
        let layers = v.per_layer_json();
        assert_eq!(
            layers.get("tree.nodes").and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(13.0)
        );
        assert_eq!(
            layers.get("server.jobs").and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(v.end_to_end_json().is_err(), "unmeasured end-to-end metric must not print");
        assert!(std::panic::catch_unwind(|| Values::default().set("nope", 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| Values::default().set("setup_s", f64::NAN)).is_err());
    }
}
