//! Shared plumbing for the experiment binaries: a tiny `--key value`
//! argument parser, workload constructors, and table printing.
//!
//! Each binary in `src/bin/` regenerates one evaluated item of the
//! paper; see `DESIGN.md` §5 for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.

use g5ic::{plummer_sphere, CosmologicalIc, Snapshot, ZeldovichConfig};
use rand::SeedableRng;
use std::collections::HashMap;

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
    use std::fmt::Write as _;
    use std::process::Command;

    /// One trajectory row: a PR's headline metric at a commit.
    #[derive(Debug, Clone)]
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
        /// The entry as one ledger line (no trailing comma).
        pub fn json(&self) -> String {
            format!(
                "    {{\"pr\": \"{}\", \"commit\": \"{}\", \"metric\": \"{}\", \
                 \"n\": {}, \"value\": {}}}",
                self.pr, self.commit, self.metric, self.n, self.value
            )
        }
    }

    /// The entry lines of a ledger text, verbatim minus trailing commas.
    pub fn entry_lines(text: &str) -> Vec<String> {
        text.lines()
            .filter(|l| l.trim_start().starts_with("{\"pr\""))
            .map(|l| l.trim_end().trim_end_matches(',').to_string())
            .collect()
    }

    /// Write a ledger holding exactly `lines`.
    pub fn write(path: &str, lines: &[String]) -> std::io::Result<()> {
        let mut t = String::new();
        writeln!(t, "{{").unwrap();
        writeln!(t, "  \"schema\": \"bench-trajectory-v1\",").unwrap();
        writeln!(t, "  \"entries\": [").unwrap();
        for (i, l) in lines.iter().enumerate() {
            let comma = if i + 1 < lines.len() { "," } else { "" };
            writeln!(t, "{l}{comma}").unwrap();
        }
        writeln!(t, "  ]").unwrap();
        writeln!(t, "}}").unwrap();
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, t)
    }

    /// Append `rows` to the ledger at `path`, keeping its entries
    /// verbatim.
    ///
    /// # Panics
    /// When the ledger cannot be read or written.
    pub fn append(path: &str, rows: &[Entry]) {
        let old = std::fs::read_to_string(path).expect("trajectory ledger readable");
        let mut lines = entry_lines(&old);
        lines.extend(rows.iter().map(Entry::json));
        write(path, &lines).expect("trajectory ledger writable");
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
        let e = trajectory::Entry {
            pr: "pr12".into(),
            commit: "abc1234+".into(),
            metric: "kernel_lns_lane_speedup".into(),
            n: 262_144,
            value: 5.5,
        };
        let text = format!("{{\n  \"entries\": [\n{},\n{}\n  ]\n}}\n", e.json(), e.json());
        let lines = trajectory::entry_lines(&text);
        assert_eq!(lines, vec![e.json(), e.json()]);
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = plummer(100, 5);
        let b = plummer(100, 5);
        assert_eq!(a.pos, b.pos);
    }
}
