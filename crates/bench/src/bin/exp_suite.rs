//! **E14 — benchmark suite driver, cross-PR trajectory ledger, and
//! regression gate.**
//!
//! Runs the kernel, cluster, endurance, flagship, and serve harnesses
//! (`exp_kernel`, `exp_cluster`, `exp_endurance`, `exp_flagship`,
//! `exp_serve`: `HARNESSES`) as sibling binaries, aggregates the
//! kernel headline numbers into the suite report, and maintains
//! `BENCH_trajectory.json` — a cumulative, commit-keyed ledger of each
//! PR's headline metrics, so a regression in any later PR is visible as
//! a broken monotone series instead of requiring archaeology across
//! per-PR report files.
//!
//! ```text
//! cargo run --release -p g5-bench --bin exp_suite -- \
//!     --pr pr21 [--quick] [--append] [--gate] [--gate-only] \
//!     [--out artifacts/exp_suite.json] [--trajectory FILE] \
//!     [--kernel-json K.json] [--cluster-json C.json] \
//!     [--endurance-json E.json] \
//!     [--flagship-json F.json] [--serve-json S.json]
//! ```
//!
//! The suite report defaults to the git-ignored
//! `artifacts/exp_suite.json`; the committed `BENCH_pr8.json` is only
//! rewritten by naming it.
//!
//! `--pr` is the label stamped on every row this run writes; a run
//! that writes the ledger (`--append` or not — everything but
//! `--gate-only`) refuses to start without it.
//!
//! Without `--append` the trajectory is (re)seeded: the committed
//! `BENCH_pr7/19/20.json` reports are mined for their headline numbers,
//! each keyed by the commit that last touched its file, and this run's
//! rows are added at `HEAD` — into the git-ignored
//! `artifacts/BENCH_trajectory.json` unless `--trajectory` names a
//! file, because re-seeding overwrites its target. With `--append` the
//! existing ledger (by default the committed `BENCH_trajectory.json`)
//! is kept verbatim and only this run's rows are appended — the mode
//! CI and future PRs use. `--kernel-json` etc. reuse existing reports
//! instead of re-running the harnesses; rows mined from a reused report
//! are keyed by the commit that last touched the file and skipped
//! entirely when an identical (metric, n, value) row is already in the
//! ledger.
//!
//! **The gate.** `--gate` fails the run (exit 1) if, for any
//! (metric, n) series in the final ledger, the newest entry is more
//! than 10 % worse than the best earlier entry. "Worse" is
//! direction-aware: speedups and interaction rates are
//! higher-is-better; drift envelopes and modeled seconds are
//! lower-is-better. `--gate-only` runs just that check against the
//! committed ledger without executing any harness — the cheap CI mode
//! that makes a regressed appended row fail the build.

use g5_bench::report::{self, num, num_any, Row};
use g5_bench::trajectory::{self, commit_for, Entry};
use g5_bench::{row, Args};
use std::path::PathBuf;
use std::process::Command;

/// The sibling harnesses a run spawns, `exp_<name>` each, in the order
/// `main` destructures their reports; `--<name>-json` reuses a report
/// instead.
const HARNESSES: [&str; 5] = ["kernel", "cluster", "endurance", "flagship", "serve"];

/// Direction of goodness for a trajectory metric: drift envelopes,
/// modeled/wall seconds and costs per item (`…_ns_per_term`) regress
/// upward, speedups and rates regress downward.
fn lower_is_better(metric: &str) -> bool {
    metric.contains("drift")
        || metric.contains("_ns_per_")
        || (metric.ends_with("_s") && !metric.ends_with("_per_s"))
}

/// The regression check: for every (metric, n) series with at least two
/// entries, the newest must be within `tol` (fractional) of the best
/// earlier value in the metric's good direction. Returns one message
/// per failing series.
fn gate_failures(entries: &[Entry], tol: f64) -> Vec<String> {
    use std::collections::BTreeMap;
    let mut series: BTreeMap<(String, u64), Vec<f64>> = BTreeMap::new();
    for e in entries {
        series.entry((e.metric.clone(), e.n)).or_default().push(e.value);
    }
    let mut fails = Vec::new();
    for ((metric, n), vs) in series {
        if vs.len() < 2 {
            continue;
        }
        let newest = *vs.last().unwrap();
        let prior = &vs[..vs.len() - 1];
        let lb = lower_is_better(&metric);
        let best = if lb {
            prior.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            prior.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        };
        let regressed = if lb { newest > best * (1.0 + tol) } else { newest < best * (1.0 - tol) };
        if regressed {
            let pct = 100.0 * (newest - best) / best;
            fails.push(format!(
                "{metric} (n = {n}, {}): newest {newest:.6e} vs best-known {best:.6e} ({pct:+.1}%)",
                if lb { "lower is better" } else { "higher is better" },
            ));
        }
    }
    fails
}

/// Run the gate over ledger entries; returns true when clean.
fn run_gate(entries: &[Entry]) -> bool {
    let fails = gate_failures(entries, 0.10);
    println!();
    if fails.is_empty() {
        println!("gate: no (metric, n) series regressed by more than 10% — PASS");
        true
    } else {
        println!("gate: {} series regressed by more than 10% — FAIL", fails.len());
        for f in &fails {
            println!("  {f}");
        }
        false
    }
}

/// Run a sibling harness binary with `--out` into `out`, inheriting
/// stdout so its tables stream to the user.
fn run_sibling(name: &str, out: &PathBuf, quick: bool) -> String {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut cmd = Command::new(dir.join(name));
    cmd.arg("--out").arg(out);
    if quick {
        cmd.arg("--quick");
    }
    println!(">>> running {name}{}", if quick { " --quick" } else { "" });
    let status = cmd.status().unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    assert!(status.success(), "{name} failed with {status}");
    std::fs::read_to_string(out).expect("harness report readable")
}

/// Headline rows mined from the committed per-PR reports (the seed of
/// the trajectory; absent files are skipped with a note).
fn seed_entries() -> Vec<Entry> {
    let mut out = Vec::new();
    let mut mine =
        |pr: &str, file: &str, metric: &str, pick: &dyn Fn(&str) -> Option<(u64, f64)>| {
            match std::fs::read_to_string(file) {
                Ok(text) => match pick(&text) {
                    Some((n, value)) => {
                        out.push(Entry::new(pr, &commit_for(Some(file)), metric, n, value))
                    }
                    None => println!("note: no {metric} found in {file}; skipping seed row"),
                },
                Err(_) => println!("note: {file} not present; skipping {pr} seed row"),
            }
        };
    // pr19 (the report of record of the retired exp_host harness; pr4's
    // table re-measured):
    // best host-phase speedup at the headline size
    mine("pr19", "BENCH_pr19.json", "host_phase_speedup", &|t| {
        t.lines()
            .filter_map(|l| Some((num(l, "n")? as u64, num(l, "speedup")?)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    });
    // pr7: chaos-endurance energy-drift envelope actually reached
    mine("pr7", "BENCH_pr7.json", "endurance_max_energy_drift", &|t| {
        Some((num_any(t, "n")? as u64, num_any(t, "max_energy_drift")?))
    });
    // pr20 (the exp_serve report of record; pr10's storm re-run once
    // callers took equal shares of the machine): aggregate rate and the
    // one-worker → worker-per-core scaling of the same fleet
    mine("pr20", "BENCH_pr20.json", "serve_aggregate_interactions_per_s", &|t| {
        Some((num_any(t, "jobs")? as u64, num_any(t, "aggregate_interactions_per_s")?))
    });
    mine("pr20", "BENCH_pr20.json", "serve_worker_scaling", &|t| {
        Some((num_any(t, "jobs")? as u64, num_any(t, "worker_scaling")?))
    });
    out
}

fn main() {
    let args = Args::parse(&[
        "quick",
        "append",
        "gate",
        "gate-only",
        "out",
        "trajectory",
        "pr",
        "kernel-json",
        "cluster-json",
        "endurance-json",
        "flagship-json",
        "serve-json",
    ]);
    let quick = args.flag("quick");
    let append = args.flag("append");
    let gate = args.flag("gate");
    let gate_only = args.flag("gate-only");
    let out_path: String = args.get("out", "artifacts/exp_suite.json".to_string());
    // only a run that keeps what is there (`--append`, `--gate-only`)
    // defaults to the committed ledger; a re-seeding run overwrites its
    // target, so unless told otherwise that is a git-ignored scratch copy
    let scratch = if append || gate_only { "" } else { "artifacts/" };
    let traj_path: String = args.get("trajectory", format!("{scratch}BENCH_trajectory.json"));

    if gate_only {
        let text = std::fs::read_to_string(&traj_path).expect("trajectory ledger readable");
        let entries = trajectory::entries(&text);
        println!("gate-only: checking {} ledger entries in {traj_path}", entries.len());
        if !run_gate(&entries) {
            std::process::exit(1);
        }
        return;
    }

    let pr: String = args.get("pr", String::new());
    assert!(
        !pr.is_empty(),
        "--pr <label> (e.g. --pr pr21) is required: it stamps the rows this run writes to \
         {traj_path}"
    );
    // run harness `exp_<name>`, or reuse the report `--<name>-json`
    // names; a reused report's rows are keyed by the commit that last
    // touched the file, a not-yet-committed one (this PR's fresh
    // numbers) at HEAD
    let get = |name: &str| -> (String, String) {
        let json: String = args.get(&format!("{name}-json"), String::new());
        if json.is_empty() {
            let out = std::env::temp_dir().join(format!("exp_suite_{name}.json"));
            return (run_sibling(&format!("exp_{name}"), &out, quick), commit_for(None));
        }
        let c = match commit_for(Some(&json)) {
            c if c == "unknown" => commit_for(None),
            c => c,
        };
        (std::fs::read_to_string(&json).unwrap_or_else(|e| panic!("read {json}: {e}")), c)
    };
    let [kernel, cluster, endurance, flagship, serve] = HARNESSES.map(get);
    let (kernel_text, kernel_commit) = kernel;
    let (cluster_text, cluster_commit) = cluster;
    let (endurance_text, endurance_commit) = endurance;
    let (flagship_text, flagship_commit) = flagship;
    let (serve_text, serve_commit) = serve;

    // ---- mine this run's PR 8 headline numbers ----
    let need = |text: &str, key: &str| {
        num_any(text, key).unwrap_or_else(|| panic!("no {key} in a harness report"))
    };
    let exact_rows: Vec<&str> = kernel_text
        .lines()
        .filter(|l| {
            report::text(l, "mode").as_deref() == Some("exact") && num(l, "lane_speedup").is_some()
        })
        .collect();
    assert!(!exact_rows.is_empty(), "exp_kernel report carries no exact-mode lane rows");
    let headline_kernel = exact_rows
        .iter()
        .max_by_key(|l| num(l, "n").unwrap_or(0.0) as u64)
        .expect("exact rows present");
    let kn = need(headline_kernel, "n") as u64;
    let lane_speedup = need(headline_kernel, "lane_speedup");
    // ... and the LNS lane kernel's A/B at the same N (PR 12's
    // headline), where the report has it (a reused aggregate has not)
    let lns_lane_speedup = report::find_row(&kernel_text, &row! { "n": kn, "mode": "lns" })
        .and_then(|l| num(l, "lane_speedup"));
    let head = commit_for(None);

    // ---- mine the cluster / endurance / flagship headline numbers ----
    // time to the same answer, largest K against K = 1, from the
    // critical-path column every exp_cluster report has carried — not
    // the interaction rate, which counts LET-inflated work as throughput
    let cluster_rows: Vec<(u64, u64, f64)> = cluster_text
        .lines()
        .filter_map(|l| {
            let crit = num(l, "critical_path_s_per_step")?;
            Some((num(l, "k")? as u64, num(l, "n")? as u64, crit))
        })
        .collect();
    let &(_, cluster_n, crit_top) =
        cluster_rows.iter().max_by_key(|r| r.0).expect("rows in exp_cluster report");
    let crit_k1 =
        cluster_rows.iter().find(|r| r.0 == 1).expect("K = 1 row in exp_cluster report").2;
    let cluster_step_speedup = crit_k1 / crit_top;
    let endurance_n = need(&endurance_text, "n") as u64;
    let endurance_drift = need(&endurance_text, "max_energy_drift");
    // the gate and segment rows of exp_flagship, each by a key only it has
    let flagship_row = |key: &str| {
        flagship_text
            .lines()
            .find(|l| num(l, key).is_some())
            .unwrap_or_else(|| panic!("no {key} row in exp_flagship report"))
    };
    let gate_row = flagship_row("overlap_critical_path_speedup");
    let overlap_n = need(gate_row, "n") as u64;
    let overlap_speedup = need(gate_row, "overlap_critical_path_speedup");
    let flagship_n = need(flagship_row("interactions_per_step"), "n") as u64;
    let flagship_rate = need(&flagship_text, "flagship_interactions_per_s");

    // ---- mine the serve (multi-tenant job service) headline numbers ----
    let serve_jobs = need(&serve_text, "jobs") as u64;
    let serve_rate = need(&serve_text, "aggregate_interactions_per_s");
    let serve_p95 = need(&serve_text, "p95_latency_s");
    let serve_jain = need(&serve_text, "jain_fairness");

    // ---- the aggregated suite report (committed once as BENCH_pr8.json) ----
    let lane_gate = exact_rows
        .iter()
        .filter(|l| num(l, "n").unwrap_or(0.0) as u64 >= 65_536)
        .all(|l| num(l, "lane_speedup").unwrap_or(0.0) >= 3.0);
    let gates = if quick {
        row! { "lane_speedup_ge_3x": "not-evaluated-in-quick" }
    } else {
        row! { "lane_speedup_ge_3x": lane_gate }
    };
    let kernel_exact: Vec<Row> =
        exact_rows.iter().map(|l| Row::parse(l).expect("a kernel row")).collect();
    row! {
        "experiment": "exp_suite", "commit": head.as_str(), "quick": quick,
        "kernel_exact": kernel_exact, "gates": gates,
    }
    .write(&out_path);
    println!();
    println!("wrote PR 8 aggregate to {out_path}");

    // ---- trajectory ledger ----
    let this_run: Vec<Entry> = [
        (&kernel_commit, "kernel_exact_lane_speedup", kn, lane_speedup),
        (&cluster_commit, "cluster_step_speedup", cluster_n, cluster_step_speedup),
        (&endurance_commit, "endurance_max_energy_drift", endurance_n, endurance_drift),
        (&flagship_commit, "overlap_critical_path_speedup", overlap_n, overlap_speedup),
        (&flagship_commit, "flagship_interactions_per_s", flagship_n, flagship_rate),
        (&serve_commit, "serve_aggregate_interactions_per_s", serve_jobs, serve_rate),
        (&serve_commit, "serve_p95_latency_s", serve_jobs, serve_p95),
        (&serve_commit, "serve_jain_fairness", serve_jobs, serve_jain),
    ]
    .into_iter()
    .chain(lns_lane_speedup.map(|x| (&kernel_commit, "kernel_lns_lane_speedup", kn, x)))
    .map(|(commit, metric, n, value)| Entry::new(&pr, commit, metric, n, value))
    .collect();
    let existing = std::fs::read_to_string(&traj_path).ok();
    let mut entries = match (&existing, append) {
        (Some(text), true) => trajectory::entries(text),
        _ => seed_entries(),
    };
    // a reused report re-mines a number the ledger already carries —
    // skip rows whose (metric, n, value) is already present verbatim
    let appended: Vec<Entry> = this_run
        .into_iter()
        .filter(|e| {
            !entries.iter().any(|p| {
                p.metric == e.metric && p.n == e.n && p.value.to_bits() == e.value.to_bits()
            })
        })
        .collect();
    let appended_count = appended.len();
    entries.extend(appended);
    trajectory::write(&traj_path, &entries);
    println!(
        "{} {} with {} entries ({} this run)",
        if append && existing.is_some() { "appended to" } else { "seeded" },
        traj_path,
        entries.len(),
        appended_count
    );
    println!();
    println!("kernel headline: exact lanes {lane_speedup:.2}x at N = {kn}");
    println!(
        "cluster/flagship headline: step {cluster_step_speedup:.2}x over K = 1 at N = {cluster_n}; \
         overlap {overlap_speedup:.2}x at N = {overlap_n}; \
         flagship {flagship_rate:.3e} inter/s at N = {flagship_n}; \
         endurance drift {endurance_drift:.3e} at N = {endurance_n}"
    );
    println!(
        "serve headline: {serve_rate:.3e} aggregate inter/s across {serve_jobs} tenant jobs; \
         p95 turnaround {serve_p95:.2} s; Jain fairness {serve_jain:.3}"
    );

    if gate && !run_gate(&entries) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{gate_failures, lower_is_better, Entry, HARNESSES};

    fn row(metric: &str, n: u64, value: f64) -> Entry {
        Entry::new("pr0", "abc1234", metric, n, value)
    }

    #[test]
    fn every_spawned_harness_has_a_binary() {
        let bin = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        for name in HARNESSES {
            let src = bin.join(format!("exp_{name}.rs"));
            assert!(src.is_file(), "exp_suite spawns exp_{name}, but {} is gone", src.display());
        }
    }

    #[test]
    fn direction_classification() {
        // higher-is-better families
        assert!(!lower_is_better("kernel_exact_lane_speedup"));
        assert!(!lower_is_better("overlap_critical_path_speedup"));
        assert!(!lower_is_better("cluster_interactions_per_s"));
        assert!(!lower_is_better("cluster_step_speedup"));
        assert!(!lower_is_better("flagship_interactions_per_s"));
        assert!(!lower_is_better("serve_aggregate_interactions_per_s"));
        assert!(!lower_is_better("serve_jain_fairness"));
        // lower-is-better families
        assert!(lower_is_better("endurance_max_energy_drift"));
        assert!(lower_is_better("critical_path_s"));
        assert!(lower_is_better("modeled_total_s"));
        assert!(lower_is_better("serve_p95_latency_s"));
        assert!(lower_is_better("host_emit_ns_per_term"));
    }

    #[test]
    fn improvement_and_within_tolerance_pass() {
        let rows = [
            row("x_speedup", 100, 2.0),
            row("x_speedup", 100, 2.5), // improvement
            row("y_drift", 100, 1e-3),
            row("y_drift", 100, 1.05e-3), // 5% worse, inside 10%
        ];
        assert!(gate_failures(&rows, 0.10).is_empty());
    }

    #[test]
    fn higher_better_regression_fails() {
        let rows = [row("x_speedup", 100, 2.0), row("x_speedup", 100, 1.7)];
        let fails = gate_failures(&rows, 0.10);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("x_speedup"), "{fails:?}");
    }

    #[test]
    fn lower_better_regression_fails() {
        let rows = [row("y_drift", 100, 1e-3), row("y_drift", 100, 1.2e-3)];
        assert_eq!(gate_failures(&rows, 0.10).len(), 1);
    }

    #[test]
    fn best_known_is_best_not_latest() {
        // latest-but-one dipped; newest only has to beat the BEST prior
        // entry's 10% envelope, so a recovery to near-best passes while
        // a value 10% under the best still fails
        let rows =
            [row("x_speedup", 100, 3.0), row("x_speedup", 100, 2.0), row("x_speedup", 100, 2.95)];
        assert!(gate_failures(&rows, 0.10).is_empty());
        let rows =
            [row("x_speedup", 100, 3.0), row("x_speedup", 100, 2.0), row("x_speedup", 100, 2.6)];
        assert_eq!(gate_failures(&rows, 0.10).len(), 1);
    }

    #[test]
    fn distinct_n_are_distinct_series_and_singletons_skip() {
        let rows = [
            row("x_speedup", 100, 3.0),
            row("x_speedup", 200, 1.0), // different n: not compared to the 3.0
            row("z_rate_per_s", 100, 5.0), // singleton: nothing to compare
        ];
        assert!(gate_failures(&rows, 0.10).is_empty());
    }
}
