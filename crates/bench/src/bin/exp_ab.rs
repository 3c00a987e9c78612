//! **Parent vs change on the repository benchmark** — the one
//! measurement a performance claim, or a claim of no regression, is
//! sized by.
//!
//! ```text
//! cargo run --release -p g5-bench --bin exp_ab -- [--base REV] [--quick] [--out artifacts/exp_ab.json]
//! ```
//!
//! Builds the benchmark (`g5spine`) twice, each `--locked` into its own
//! target directory under `target/ab/`: at `--base` (default: the
//! merge-base of `HEAD` with `main`, else with `origin/main`) checked out
//! in a temporary `git worktree`, and at the working tree, uncommitted
//! edits included. Everything else comes from the working tree's
//! `BENCHMARK.json`: the command, the workloads, `run_seconds`, and each
//! end-to-end metric's direction and bound.
//!
//! Each run is one fresh process of that command with `--workload W
//! --seed S --seconds T --trace 0`. Runs go in pairs, one per side, the
//! side that goes first alternating from pair to pair: [`PAIRS`] pairs
//! on each of [`SEEDS`] at `run_seconds`, or with `--quick` [`QUICK_PAIRS`]
//! pairs on the first seed at [`QUICK_SECONDS`]. Per workload × seed ×
//! metric it prints both medians with their quartiles, the ratio, and
//! the pairs the change wins and loses (a tie counts for neither).
//!
//! **Verdict.** A metric reads `better` (`worse`) only when the change
//! wins (loses) at least nine pairs in ten *and* the gap between the
//! medians is wider than the parent's interquartile range; otherwise it
//! reads `level`, marked `unresolved` when that range is wider than the
//! metric's bound (a level reading then cannot show the metric held).
//! The run exits 1 on any `worse`, on a change median past the metric's
//! bound (worse than the parent's median by more than `bound` of it), or
//! on a higher share of failed operations; a workload's share counts a
//! run that printed no result, or printed `"correct": false`, as at
//! least one failed operation.

use g5_bench::report::{num, text};
use g5_bench::{row, Args};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Pairs per workload and seed in a full run.
const PAIRS: usize = 10;
/// The seeds of a full run: the benchmark's default and its held-out one.
const SEEDS: [u64; 2] = [42, 7];
/// Pairs, on the first seed only, with `--quick`.
const QUICK_PAIRS: usize = 3;
/// Seconds per run with `--quick`, in place of `run_seconds`.
const QUICK_SECONDS: f64 = 2.0;

/// An end-to-end metric of the manifest.
#[derive(Debug)]
struct Metric {
    name: String,
    higher_is_better: bool,
    /// The share of the parent's median by which the change may be worse.
    bound: f64,
}

/// What `BENCHMARK.json` says to run and how to judge it.
#[derive(Debug)]
struct Manifest {
    command: Vec<String>,
    run_seconds: f64,
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

impl Manifest {
    fn parse(json: &str) -> Manifest {
        let field = |obj: &str, key: &str| {
            text(obj, key).unwrap_or_else(|| panic!("BENCHMARK.json: no {key:?} in {obj}"))
        };
        let command = array(json, "command").into_iter().map(|s| s.trim_matches('"').to_string());
        let metrics = array(json, "end_to_end").into_iter().map(|m| Metric {
            name: field(m, "name"),
            higher_is_better: field(m, "better") == "higher",
            bound: num(m, "bound").unwrap_or_else(|| panic!("BENCHMARK.json: no bound in {m}")),
        });
        Manifest {
            command: command.collect(),
            run_seconds: num(json, "run_seconds").expect("BENCHMARK.json: run_seconds"),
            workloads: array(json, "workloads").into_iter().map(|w| field(w, "name")).collect(),
            metrics: metrics.collect(),
        }
    }
}

/// The elements of the array at `key` (its first occurrence) as JSON
/// text, strings kept quoted; brackets inside strings are not structure.
fn array<'j>(json: &'j str, key: &str) -> Vec<&'j str> {
    let at = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key:?}"));
    let s = &json[at..];
    let s = &s[s.find('[').unwrap_or_else(|| panic!("{key:?} is not an array"))..];
    let (mut out, mut depth, mut quoted, mut escaped, mut from) = (vec![], 0, false, false, 1);
    for (i, c) in s.char_indices() {
        if quoted {
            (quoted, escaped) = (escaped || c != '"', !escaped && c == '\\');
            continue;
        }
        match c {
            '"' => quoted = true,
            '[' | '{' => depth += 1,
            ']' | '}' | ',' => {
                if depth == 1 {
                    let item = s[from..i].trim();
                    if !item.is_empty() {
                        out.push(item);
                    }
                    from = i + 1;
                }
                if c != ',' {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// One benchmark run's result line.
#[derive(Debug)]
struct Run {
    values: Vec<Option<f64>>,
    attempted: f64,
    failed: f64,
}

impl Run {
    /// The run whose standard output is `stdout`; a run that printed no
    /// result line, or an incorrect one, failed at least one operation.
    fn parse(stdout: &str, metrics: &[Metric]) -> Run {
        let line = stdout.lines().last().unwrap_or("");
        let value = |m: &Metric| {
            let at = line.find(&format!("\"{}\":", m.name))?;
            num(&line[at..], "value")
        };
        let (attempted, failed) = (num(line, "attempted"), num(line, "failed"));
        let correct = line.split_whitespace().collect::<String>().contains("\"correct\":true");
        Run {
            values: metrics.iter().map(value).collect(),
            attempted: attempted.unwrap_or(1.0).max(1.0),
            failed: failed.unwrap_or(1.0).max(if correct { 0.0 } else { 1.0 }),
        }
    }
}

/// `[q1, median, q3]` of a sample set, interpolated between the two
/// nearest order statistics: a selected median of ten is the fifth or
/// the sixth, which splits a rate and its reciprocal time (one run's
/// `N / step` and its step) apart by a whole sample.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let at = q * (v.len() - 1) as f64;
        let (lo, hi) = (v[at.floor() as usize], v[at.ceil() as usize]);
        lo + (hi - lo) * at.fract()
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Better,
    Level,
    Worse,
}

/// One metric on one workload and seed, parent against change.
#[derive(Debug)]
struct Compare {
    parent: [f64; 3],
    change: [f64; 3],
    wins: usize,
    losses: usize,
    pairs: usize,
    verdict: Verdict,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    past_bound: bool,
    /// The parent's own spread is wider than the bound: a `level` here
    /// cannot show that the metric held.
    unresolved: bool,
}

/// Judge `pairs` of (parent, change) values of `m`.
fn compare(m: &Metric, pairs: &[(f64, f64)]) -> Compare {
    let gain = |parent: f64, change: f64| {
        if m.higher_is_better {
            change - parent
        } else {
            parent - change
        }
    };
    let wins = pairs.iter().filter(|&&(p, c)| gain(p, c) > 0.0).count();
    let losses = pairs.iter().filter(|&&(p, c)| gain(p, c) < 0.0).count();
    let parent = quartiles(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
    let change = quartiles(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
    let (gap, iqr) = (gain(parent[1], change[1]), parent[2] - parent[0]);
    let most = |k: usize| 10 * k >= 9 * pairs.len();
    let verdict = match () {
        _ if gap > iqr && most(wins) => Verdict::Better,
        _ if -gap > iqr && most(losses) => Verdict::Worse,
        _ => Verdict::Level,
    };
    let (past_bound, unresolved) =
        (-gap > m.bound * parent[1].abs(), iqr > m.bound * parent[1].abs());
    Compare { parent, change, wins, losses, pairs: pairs.len(), verdict, past_bound, unresolved }
}

fn git(dir: &Path, args: &[&str]) -> Option<String> {
    let o = Command::new("git").current_dir(dir).args(args).output().ok()?;
    o.status.success().then(|| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Build the benchmark at `src` into `target`.
fn build(manifest: &Manifest, src: &Path, target: &Path) {
    let at = manifest.command.iter().position(|a| a == "--manifest-path");
    let cargo_toml = &manifest.command[at.expect("the command names --manifest-path") + 1];
    println!("building {} at {} ...", cargo_toml, src.display());
    let ok = Command::new("cargo")
        .args(["build", "--release", "--locked", "--quiet", "--manifest-path", cargo_toml])
        .current_dir(src)
        .env("CARGO_TARGET_DIR", target)
        .status()
        .is_ok_and(|s| s.success());
    assert!(ok, "the benchmark does not build at {}", src.display());
}

/// One run of `workload` at `src`, built into `target`.
fn run(m: &Manifest, (src, target): (&Path, &Path), workload: &str, seed: u64, secs: f64) -> Run {
    let (seed, secs) = (seed.to_string(), secs.to_string());
    let out = Command::new(&m.command[0])
        .args(&m.command[1..])
        .args(["--workload", workload, "--seed", &seed, "--seconds", &secs, "--trace", "0"])
        .current_dir(src)
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("spawn the benchmark");
    Run::parse(&String::from_utf8_lossy(&out.stdout), &m.metrics)
}

fn main() {
    let args = Args::parse(&["base", "quick", "out"]);
    let quick = args.flag("quick");
    let out: String = args.get("out", "artifacts/exp_ab.json".into());
    let root = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"]).expect("git"));
    let merge_base = |b: &str| git(&root, &["merge-base", "HEAD", b]);
    let base = args.get("base", String::new());
    let base = match base.as_str() {
        "" => merge_base("main").or_else(|| merge_base("origin/main")).expect("no merge-base"),
        rev => git(&root, &["rev-parse", rev]).unwrap_or_else(|| panic!("--base {rev}: unknown")),
    };
    let manifest = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let manifest = Manifest::parse(&manifest);
    let (pairs, seeds, secs) = match quick {
        true => (QUICK_PAIRS, &SEEDS[..1], QUICK_SECONDS),
        false => (PAIRS, &SEEDS[..], manifest.run_seconds),
    };

    let ab = root.join("target/ab");
    let base_src = ab.join("base-src");
    let worktree = base_src.to_str().expect("utf-8 path");
    // a run cut short leaves its worktree behind
    git(&root, &["worktree", "remove", "--force", worktree]);
    std::fs::remove_dir_all(&base_src).ok();
    git(&root, &["worktree", "prune"]);
    git(&root, &["worktree", "add", "--detach", worktree, &base]).expect("git worktree add");
    let sides = [(base_src.as_path(), ab.join("base")), (root.as_path(), ab.join("change"))];
    for (src, target) in &sides {
        build(&manifest, src, target);
    }

    println!("\nparent {base} vs the working tree: {pairs} pairs x {} s, seeds {seeds:?}", secs);
    let started = Instant::now();
    let (mut rows, mut failing) = (Vec::new(), Vec::new());
    for &seed in seeds {
        for w in &manifest.workloads {
            let mut runs: [Vec<Run>; 2] = Default::default();
            for pair in 0..pairs {
                for side in [pair % 2, 1 - pair % 2] {
                    let (src, target) = &sides[side];
                    runs[side].push(run(&manifest, (src, target), w, seed, secs));
                }
            }
            let share = |rs: &[Run]| {
                rs.iter().map(|r| r.failed).sum::<f64>()
                    / rs.iter().map(|r| r.attempted).sum::<f64>()
            };
            let failed = [share(&runs[0]), share(&runs[1])];
            if failed[1] > failed[0] {
                failing.push(format!("{w} seed {seed}: failed share {failed:?}"));
            }
            println!(
                "\n{w}, seed {seed} ({:.0} s in; failed share parent {:.4}, change {:.4})",
                started.elapsed().as_secs_f64(),
                failed[0],
                failed[1]
            );
            println!(
                "  {:<22} {:>30} {:>30} {:>7} {:>9}  verdict",
                "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "won/lost"
            );
            for (i, m) in manifest.metrics.iter().enumerate() {
                let both: Vec<(f64, f64)> = (0..pairs)
                    .filter_map(|p| Some((runs[0][p].values[i]?, runs[1][p].values[i]?)))
                    .collect();
                if both.is_empty() {
                    failing.push(format!("{w} seed {seed}: no pair reported {}", m.name));
                    continue;
                }
                let c = compare(m, &both);
                let q = |[a, b, c]: [f64; 3]| format!("{b:.4e} [{a:.3e}, {c:.3e}]");
                let notes = [(c.past_bound, ", past bound"), (c.unresolved, ", unresolved")];
                let notes = notes.iter().filter(|n| n.0).map(|n| n.1).collect::<String>();
                let verdict = format!("{:?}{notes}", c.verdict).to_lowercase();
                let ratio = c.change[1] / c.parent[1];
                println!(
                    "  {:<22} {:>30} {:>30} {ratio:>7.4} {:>4}/{:<4}  {verdict}",
                    m.name,
                    q(c.parent),
                    q(c.change),
                    c.wins,
                    c.losses,
                );
                if c.verdict == Verdict::Worse || c.past_bound {
                    failing.push(format!("{w} seed {seed}: {} {verdict}", m.name));
                }
                rows.push(row! {
                    "workload": w.as_str(), "seed": seed, "metric": m.name.as_str(),
                    "parent_q1": c.parent[0], "parent_median": c.parent[1], "parent_q3": c.parent[2],
                    "change_q1": c.change[0], "change_median": c.change[1], "change_q3": c.change[2],
                    "ratio": ratio, "wins": c.wins, "losses": c.losses, "pairs": c.pairs,
                    "verdict": verdict.as_str(), "parent": both.iter().map(|p| p.0).collect::<Vec<_>>(),
                    "change": both.iter().map(|p| p.1).collect::<Vec<_>>(),
                    "parent_failed_share": failed[0], "change_failed_share": failed[1],
                });
            }
        }
    }
    git(&root, &["worktree", "remove", "--force", worktree]);

    row! {
        "experiment": "exp_ab", "base": base.as_str(), "quick": quick, "pairs": pairs,
        "seconds": secs, "seeds": seeds.to_vec(),
        "failing": failing.clone(), "results": rows,
    }
    .write(&out);
    println!("\nreport: {out}");
    if !failing.is_empty() {
        println!("FAIL:");
        for f in &failing {
            println!("  {f}");
        }
        std::process::exit(1);
    }
    println!("no metric worse, none past its bound, no higher failed share");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Metric {
        Metric { name: "m".into(), higher_is_better, bound: 0.25 }
    }

    /// Ten pairs: the parent at 100 + i, the change at `change(i)`.
    fn ten(change: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
        (0..10).map(|i| (100.0 + f64::from(i), change(100.0 + f64::from(i)))).collect()
    }

    #[test]
    fn a_tie_counts_for_neither_side() {
        let c = compare(&metric(true), &[(1.0, 1.0), (2.0, 3.0), (3.0, 2.0), (4.0, 4.0)]);
        assert_eq!((c.wins, c.losses, c.pairs), (1, 1, 4));
        // eight wins and two ties, far past the spread: not nine in ten
        let c = compare(&metric(true), &ten(|p| if p < 102.0 { p } else { p + 50.0 }));
        assert_eq!((c.wins, c.losses, c.verdict), (8, 0, Verdict::Level));
        // a deterministic metric that did not move ties every pair
        let c = compare(&metric(false), &ten(|p| p));
        assert_eq!((c.wins, c.losses, c.verdict, c.past_bound), (0, 0, Verdict::Level, false));
    }

    #[test]
    fn nine_in_ten_reads_only_past_the_parents_spread() {
        // the parent's quartiles are 102.25 and 106.75: IQR 4.5
        let m = metric(true);
        assert!(!compare(&m, &ten(|p| p)).unresolved);
        let wide = Metric { bound: 0.04, ..metric(true) };
        assert!(compare(&wide, &ten(|p| p)).unresolved, "IQR 4.5 > 4 % of 104.5");
        assert_eq!(compare(&m, &ten(|p| p + 4.5)).verdict, Verdict::Level, "gap == IQR");
        assert_eq!(compare(&m, &ten(|p| p + 5.5)).verdict, Verdict::Better);
        assert_eq!(compare(&m, &ten(|p| p - 5.5)).verdict, Verdict::Worse);
        let m = metric(false);
        assert_eq!(compare(&m, &ten(|p| p - 5.5)).verdict, Verdict::Better);
        assert_eq!(compare(&m, &ten(|p| p + 5.5)).verdict, Verdict::Worse);
        // nine losses and one win past the spread still read worse
        let c = compare(&m, &ten(|p| if p == 100.0 { p - 1.0 } else { p + 6.0 }));
        assert_eq!((c.wins, c.losses, c.verdict), (1, 9, Verdict::Worse));
        // eight losses do not
        let c = compare(&m, &ten(|p| if p < 102.0 { p - 1.0 } else { p + 6.0 }));
        assert_eq!(c.verdict, Verdict::Level);
    }

    #[test]
    fn the_bound_holds_in_both_directions() {
        // parent median 104.5, bound 0.25 of it = 26.125
        let (higher, lower) = (metric(true), metric(false));
        assert!(!compare(&higher, &ten(|p| p - 25.0)).past_bound);
        assert!(compare(&higher, &ten(|p| p - 27.0)).past_bound);
        assert!(!compare(&higher, &ten(|p| p + 1e3)).past_bound, "a gain is never past");
        assert!(!compare(&lower, &ten(|p| p + 25.0)).past_bound);
        assert!(compare(&lower, &ten(|p| p + 27.0)).past_bound);
        assert!(!compare(&lower, &ten(|p| p - 90.0)).past_bound, "a gain is never past");
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&xs), [3.25, 5.5, 7.75]);
        assert_eq!(quartiles(&[2.0, 1.0, 3.0]), [1.5, 2.0, 2.5]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn a_result_line_and_its_failures_are_read() {
        let ms = [metric(true), Metric { name: "m2".into(), ..metric(true) }];
        let line = "{\"correct\": true, \"attempted\": 52, \"failed\": 3, \"metrics\": \
                    {\"m\": {\"value\": 0.5, \"unit\": \"s\"}, \"m2\": {\"value\": 7, \"unit\": \"s\"}}}";
        let r = Run::parse(&format!("note\n{line}"), &ms);
        assert_eq!(r.failed, 3.0);
        let r = Run::parse(&line.replace(": ", ":"), &ms);
        assert_eq!((r.values, r.attempted, r.failed), (vec![Some(0.5), Some(7.0)], 52.0, 3.0));
        let r = Run::parse(&line.replace("true", "false").replace("3,", "0,"), &ms);
        assert_eq!(r.failed, 1.0, "an incorrect run failed at least one operation");
        let r = Run::parse("usage: ...", &ms);
        assert_eq!((r.values, r.attempted, r.failed), (vec![None, None], 1.0, 1.0));
    }

    /// The committed manifest parses, and this file names none of what
    /// it declares: every workload and metric comes from the manifest.
    #[test]
    fn the_manifest_is_read_and_not_repeated_here() {
        let json = include_str!("../../../../BENCHMARK.json");
        let m = Manifest::parse(json);
        assert!(m.command.iter().any(|a| a == "--manifest-path"), "{:?}", m.command);
        assert!(m.run_seconds > 0.0 && !m.workloads.is_empty() && !m.metrics.is_empty());
        assert!(m.metrics.iter().all(|m| m.bound > 0.0 && m.bound < 1.0), "{:?}", m.metrics);
        assert!(m.metrics.iter().any(|m| m.higher_is_better));
        let source = include_str!("exp_ab.rs");
        for name in m.workloads.iter().chain(m.metrics.iter().map(|m| &m.name)) {
            assert!(!source.contains(name.as_str()), "exp_ab.rs names {name}");
        }
        let arr = "{\"a\": [\"x]\", {\"b\": [1, 2], \"c\": \"}\"}, 3], \"d\": []}";
        assert_eq!(array(arr, "a"), ["\"x]\"", "{\"b\": [1, 2], \"c\": \"}\"}", "3"]);
        assert!(array(arr, "d").is_empty());
    }
}
