//! Shared plumbing for the experiment binaries: a tiny `--key value`
//! argument parser, workload constructors, table printing, and the one
//! report schema ([`report`]) every JSON report is written and read
//! through.
//!
//! Each `exp_*` binary in `src/bin/` regenerates one evaluated item of
//! the paper, except `exp_ab`, which measures a change against its
//! parent on the repository benchmark; see `DESIGN.md` §5 for the
//! experiment index and `EXPERIMENTS.md` for recorded paper-vs-measured
//! results.

use g5ic::{plummer_sphere, CosmologicalIc, Snapshot, ZeldovichConfig};
use rand::SeedableRng;
use std::collections::HashMap;

pub mod report;

/// Minimal `--key value` / `--flag` command-line parser over the keys
/// one harness declares.
#[derive(Debug, Clone, Default)]
pub struct Args {
    map: HashMap<String, String>,
    keys: Vec<String>,
}

impl Args {
    /// Parse `std::env::args`, treating `--key value` pairs and bare
    /// `--flag`s (stored as `"true"`); `keys` are the keys (without
    /// `--`) this harness reads.
    ///
    /// # Panics
    /// On a `--key=value` argument (only the `--key value` form is read)
    /// and on a key not in `keys`: both messages name what to write.
    pub fn parse(keys: &[&str]) -> Args {
        Args::parse_from(std::env::args().skip(1), keys)
    }

    /// [`parse`](Self::parse) over the arguments after the program name.
    /// A value may start with a single `-` (`--plan-workers -1`); a
    /// stray positional argument is reported and ignored.
    fn parse_from(argv: impl IntoIterator<Item = String>, keys: &[&str]) -> Args {
        let keys: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        let mut map = HashMap::new();
        let mut argv = argv.into_iter().peekable();
        while let Some(a) = argv.next() {
            let Some(key) = a.strip_prefix("--") else {
                eprintln!("ignoring stray argument {a:?}");
                continue;
            };
            if let Some((k, v)) = key.split_once('=') {
                panic!(
                    "{a:?}: write `--{k} {v}`, the `--key value` form (`--key=value` is not read)"
                );
            }
            if !keys.iter().any(|k| k == key) {
                panic!("--{key} is not read by this harness; it reads {}", Args::list(&keys));
            }
            let value = argv.next_if(|v| !v.starts_with("--")).unwrap_or_else(|| "true".into());
            map.insert(key.to_string(), value);
        }
        Args { map, keys }
    }

    fn list(keys: &[String]) -> String {
        keys.iter().map(|k| format!("--{k}")).collect::<Vec<_>>().join(", ")
    }

    /// The value at `key`, which the harness must have declared.
    fn value(&self, key: &str) -> Option<&String> {
        assert!(
            self.keys.iter().any(|k| k == key),
            "the harness reads --{key} but declares only {}",
            Args::list(&self.keys)
        );
        self.map.get(key)
    }

    /// Typed lookup with default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.value(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                panic!("could not parse --{key} {v:?}");
            }),
        }
    }

    /// Flag lookup.
    pub fn flag(&self, key: &str) -> bool {
        self.value(key).is_some()
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

    const KEYS: &[&str] =
        &["n", "quick", "out", "gate", "append", "steps", "plan-workers", "channel-depth"];

    fn parse(argv: &[&str]) -> Args {
        Args::parse_from(argv.iter().map(|a| a.to_string()), KEYS)
    }

    #[test]
    fn args_read_pairs_and_bare_flags() {
        let args = parse(&["--n", "4096", "--quick", "--out", "a.json", "--gate"]);
        assert_eq!(args.get("n", 0usize), 4096);
        assert_eq!(args.get("out", String::new()), "a.json");
        assert!(args.flag("quick") && args.flag("gate") && !args.flag("append"));
        assert_eq!(args.get("steps", 7u32), 7, "an absent key reads its default");
    }

    #[test]
    fn args_take_a_negative_value() {
        let args = parse(&["--plan-workers", "-1", "--channel-depth", "2"]);
        assert_eq!(args.get("plan-workers", 0i64), -1);
        assert_eq!(args.get("channel-depth", 0usize), 2);
    }

    #[test]
    fn args_ignore_a_stray_positional_argument() {
        let args = parse(&["stray", "--n", "64", "extra", "--quick"]);
        assert_eq!(args.get("n", 0usize), 64);
        assert!(args.flag("quick"));
        assert_eq!(args.map.len(), 2, "{:?}", args.map);
    }

    #[test]
    #[should_panic(expected = "write `--n 65536`")]
    fn args_reject_key_equals_value() {
        parse(&["--quick", "--n=65536"]);
    }

    #[test]
    #[should_panic(expected = "--n is not read by this harness; it reads --quick, --out")]
    fn args_reject_a_key_the_harness_does_not_read() {
        // a retired harness's `--n 4096` on a harness that reads only
        // `--quick` and `--out` used to run its defaults silently
        Args::parse_from(["--n", "4096"].map(String::from), &["quick", "out"]);
    }

    #[test]
    #[should_panic(expected = "the harness reads --steps but declares only --quick")]
    fn args_reject_reading_an_undeclared_key() {
        Args::parse_from(["--quick"].map(String::from), &["quick"]).get("steps", 1u64);
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = plummer(100, 5);
        let b = plummer(100, 5);
        assert_eq!(a.pos, b.pos);
    }
}
