//! Shared plumbing for the experiment binaries: a tiny `--key value`
//! argument parser, workload constructors, table printing, and the one
//! report schema ([`report`]) every JSON report and the trajectory
//! ledger are written and read through.
//!
//! Each binary in `src/bin/` regenerates one evaluated item of the
//! paper; see `DESIGN.md` §5 for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.

use g5ic::{plummer_sphere, CosmologicalIc, Snapshot, ZeldovichConfig};
use rand::SeedableRng;
use std::collections::HashMap;

pub mod report;

/// Minimal `--key value` / `--flag` command-line parser.
#[derive(Debug, Clone, Default)]
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    /// Parse `std::env::args`, treating `--key value` pairs and bare
    /// `--flag`s (stored as `"true"`).
    pub fn parse() -> Args {
        let mut map = HashMap::new();
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    map.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    map.insert(key.to_string(), "true".to_string());
                    i += 1;
                }
            } else {
                eprintln!("ignoring stray argument {a:?}");
                i += 1;
            }
        }
        Args { map }
    }

    /// Typed lookup with default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.map.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                panic!("could not parse --{key} {v:?}");
            }),
        }
    }

    /// Flag lookup.
    pub fn flag(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }
}

/// A deterministic Plummer model (clustered workload) of `n` particles.
pub fn plummer(n: usize, seed: u64) -> Snapshot {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    plummer_sphere(n, &mut rng)
}

/// Streaming-plan scheduling from the shared CLI surface:
/// `--plan-workers W` (0 = serial in-order reference, omitted = default:
/// the caller's share of the cores − 1) and `--channel-depth D`.
pub fn plan_from_args(args: &Args) -> g5tree::plan::PlanConfig {
    let depth: usize = args.get("channel-depth", g5tree::plan::PlanConfig::default().channel_depth);
    match args.get::<i64>("plan-workers", -1) {
        -1 => g5tree::plan::PlanConfig { channel_depth: depth, ..Default::default() },
        0 => g5tree::plan::PlanConfig::serial(),
        w => g5tree::plan::PlanConfig::overlapped(w as usize, depth),
    }
}

/// A standard-CDM sphere realization with at least `n_target` particles.
pub fn cdm(n_target: usize, seed: u64) -> CosmologicalIc {
    CosmologicalIc::generate(&ZeldovichConfig::for_target_particles(n_target, seed))
}

/// Write a harness report, creating its directory first: every harness
/// defaults `--out` to the git-ignored `artifacts/<harness>.json`, so a
/// committed `BENCH_pr*.json` is only ever written by naming it.
pub fn write_report(path: &str, text: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create the report's directory");
    }
    std::fs::write(path, text).expect("write the report");
}

/// Print a horizontal rule sized to a table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Format a big count with thousands separators.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Seconds, human-formatted.
pub fn fmt_secs(s: f64) -> String {
    if s >= 3600.0 {
        format!("{:.2} h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1} min", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.2} ms", s * 1e3)
    }
}

/// `BENCH_trajectory.json`: the cumulative, commit-keyed ledger of each
/// PR's headline metrics (one entry per line; see `exp_suite`).
pub mod trajectory {
    use crate::report::{self, Row};
    use crate::Args;
    use std::process::Command;

    /// One trajectory row: a PR's headline metric at a commit.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Entry {
        /// PR label, e.g. `pr12`.
        pub pr: String,
        /// Commit key (see [`working_commit`]).
        pub commit: String,
        /// Metric name; `exp_suite`'s gate infers its good direction.
        pub metric: String,
        /// Problem size the value was measured at.
        pub n: u64,
        /// The measured value.
        pub value: f64,
    }

    impl Entry {
        /// The entry of `metric` at `n` measured by `pr` at `commit`.
        pub fn new(pr: &str, commit: &str, metric: &str, n: u64, value: f64) -> Entry {
            Entry { pr: pr.into(), commit: commit.into(), metric: metric.into(), n, value }
        }

        /// The entry on a ledger line (a `null` value reads as NaN);
        /// `None` when the line holds no entry.
        pub fn parse(line: &str) -> Option<Entry> {
            Some(Entry {
                pr: report::text(line, "pr")?,
                commit: report::text(line, "commit")?,
                metric: report::text(line, "metric")?,
                n: report::num(line, "n")? as u64,
                value: report::num(line, "value").unwrap_or(f64::NAN),
            })
        }
    }

    /// The entries of a ledger text, in ledger (chronological) order.
    pub fn entries(text: &str) -> Vec<Entry> {
        text.lines().filter_map(Entry::parse).collect()
    }

    /// Write a ledger holding exactly `entries`.
    ///
    /// # Panics
    /// When the ledger cannot be written.
    pub fn write(path: &str, entries: &[Entry]) {
        let rows: Vec<Row> = entries
            .iter()
            .map(|e| {
                crate::row! {
                    "pr": e.pr.as_str(), "commit": e.commit.as_str(), "metric": e.metric.as_str(),
                    "n": e.n, "value": e.value,
                }
            })
            .collect();
        crate::row! { "schema": "bench-trajectory-v1", "entries": rows }.write(path);
    }

    /// A harness's `--trajectory FILE --pr LABEL`: append its
    /// `(metric, n, value)` rows to the ledger FILE, keeping its entries,
    /// keyed by the working tree's commit ([`working_commit`]); nothing
    /// without `--trajectory`.
    ///
    /// # Panics
    /// When the ledger cannot be read or written.
    pub fn append_from_args(args: &Args, rows: &[(&str, u64, f64)]) {
        let path: String = args.get("trajectory", String::new());
        if path.is_empty() {
            return;
        }
        let (pr, commit): (String, _) = (args.get("pr", "unlabelled".into()), working_commit());
        let mut all = entries(&std::fs::read_to_string(&path).expect("trajectory ledger readable"));
        all.extend(
            rows.iter().map(|&(metric, n, value)| Entry::new(&pr, &commit, metric, n, value)),
        );
        write(&path, &all);
        println!("appended {} rows to {path} at commit key {commit}", rows.len());
    }

    fn git(args: &[&str]) -> Option<String> {
        let o = Command::new("git").args(args).output().ok()?;
        o.status.success().then(|| String::from_utf8_lossy(&o.stdout).trim().to_string())
    }

    /// Short hash of the commit that last touched `path` (`HEAD` if
    /// `None`); `"unknown"` outside a repository.
    pub fn commit_for(path: Option<&str>) -> String {
        let h = match path {
            Some(p) => git(&["log", "-1", "--format=%h", "--", p]),
            None => git(&["rev-parse", "--short", "HEAD"]),
        };
        h.filter(|h| !h.is_empty()).unwrap_or_else(|| "unknown".into())
    }

    /// The key for numbers measured on the working tree: `HEAD`'s short
    /// hash, with a `+` appended when the tree has uncommitted changes —
    /// `abc1234+` reads "the commit made on top of `abc1234`", i.e. the
    /// PR's own commit, which cannot name itself from inside.
    pub fn working_commit() -> String {
        let dirty =
            git(&["status", "--porcelain", "--untracked-files=no"]).is_some_and(|s| !s.is_empty());
        format!("{}{}", commit_for(None), if dirty { "+" } else { "" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_count_groups_digits() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1000), "1,000");
        assert_eq!(fmt_count(29_000_000_000_000), "29,000,000,000,000");
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.005), "5.00 ms");
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(90.0), "1.5 min");
        assert_eq!(fmt_secs(30141.0), "8.37 h");
    }

    #[test]
    fn trajectory_lines_round_trip() {
        let e = trajectory::Entry::new("pr12", "abc1234+", "kernel_lns_lane_speedup", 262_144, 5.5);
        let line = "{\"pr\": \"pr12\", \"commit\": \"abc1234+\", \"metric\": \
                    \"kernel_lns_lane_speedup\", \"n\": 262144, \"value\": 5.5}";
        let text = format!("{{\n  \"entries\": [\n    {line},\n    {line}\n  ]\n}}\n");
        assert_eq!(trajectory::entries(&text), vec![e.clone(), e]);
        assert_eq!(trajectory::entries("{\"pr\": \"pr3\"}\nnot an entry\n"), vec![]);
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = plummer(100, 5);
        let b = plummer(100, 5);
        assert_eq!(a.pos, b.pos);
    }
}
