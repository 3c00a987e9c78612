//! # g5spine — the repository's benchmark
//!
//! Five workloads, both clocks, per-layer numbers measured from outside.
//! See `benchmark/README.md` for the metrics, the workloads and why,
//! and how to read the trace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 42
//!     [--workload <name>|all]   one workload in this process, or all, one child each
//!     [--seconds <s>]           timed seconds per run (default 15)
//!     [--trace 0|1 | --traced]  per-layer run with spans (all: an extra pass)
//!     [--aa]                    two sides of three runs each, alternating order; compare
//!     [--spread <n>]            n seeds per workload; quartile spread per metric
//!     [--out <json>]            write machine record + every result to a file
//!     [--emit-manifest]         print BENCHMARK.json
//!     [--describe]              print the workload and metric tables (Markdown)
//! ```
//!
//! With `--workload <name>` the last line of standard output is the
//! result object `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`:
//! every end-to-end metric with `--trace 0`, every per-layer metric
//! with `--trace 1`. Any failed operation or output check exits
//! non-zero.

mod check;
mod json;
mod metrics;
mod serve;
mod sim;
mod staged;
mod stats;
mod trace;
mod workload;

use json::Json;
use metrics::{Better, Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;
use workload::Workload;

/// Timed seconds per run; `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: u64 = 15;
/// The seed later claims must also hold on.
const HELD_OUT_SEED: u64 = 7;
/// Untraced runs per side and workload in `--aa`. One pair cannot tell
/// the code from the sandbox: about one run in eight falls, start to
/// end, into a spell in which the machine is 1.3-1.6x slower. Each side
/// is therefore read at its best of three runs (ROADMAP item 1: min-of-k
/// for the wall clock), which misleads only when all three were hit.
const AA_RUNS: usize = 3;

/// One child run: workload, traced or not, its parsed result line.
type Run = (Workload, bool, Json);

/// Where runs may write: scratch directories and traces, all inside the
/// benchmark's own (git-ignored) `out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write the Chrome trace of a traced run: one viewer process per
/// `(tracer, name)` part.
fn write_trace(path: &Path, parts: &[(&Tracer, &str)], problems: &mut Vec<String>) {
    if let Err(e) = std::fs::write(path, Tracer::chrome_document(parts).to_line()) {
        problems.push(format!("cannot write trace {}: {e}", path.display()));
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confine this process (call before any thread exists) to the first CPU
/// it may run on, so the product's thread defaults resolve as on a
/// one-core machine. See [`Workload::one_cpu`] for which runs and why.
fn confine_to_one_cpu() -> Result<(), String> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: both calls get a valid, writable/readable mask of `bytes` bytes.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let word = mask.iter().position(|&w| w != 0).ok_or("empty CPU affinity mask")?;
    let first = mask[word] & mask[word].wrapping_neg();
    mask = [0u64; 16];
    mask[word] = first;
    if unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[derive(Debug, Clone)]
struct Cli {
    /// `None` = every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    aa: bool,
    spread: Option<u64>,
    out: Option<PathBuf>,
    emit_manifest: bool,
    describe: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: g5spine [--seed N] [--workload {}|all] [--seconds S] [--trace 0|1 | --traced] \
         [--aa] [--spread N] [--out FILE] [--emit-manifest] [--describe]",
        names.join("|")
    )
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        traced: false,
        aa: false,
        spread: None,
        out: None,
        emit_manifest: false,
        describe: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{}", usage()));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = match name.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::from_name(name)
                            .ok_or(format!("unknown workload {name:?}\n{}", usage()))?,
                    ),
                }
            }
            "--seed" => cli.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => cli.traced = true,
            "--aa" => cli.aa = true,
            "--spread" => {
                let n: u64 = value()?.parse().map_err(|_| "bad --spread".to_string())?;
                if n < 2 {
                    return Err("--spread needs at least 2 seeds".into());
                }
                cli.spread = Some(n);
            }
            "--describe" => cli.describe = true,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--emit-manifest" => cli.emit_manifest = true,
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(cli)
}

/// `BENCHMARK.json`, derived from the registries.
fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Run one workload in this process and build its result object.
fn run_one(w: Workload, cli: &Cli) -> (Outcome, Json) {
    let out = out_dir();
    let scratch = out.join(format!("scratch_{}_{}", w.name(), std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).expect("create scratch directory under benchmark/out");
    let trace_path = out.join(format!("trace_{}.json", w.name()));
    let confined = if w.one_cpu() { confine_to_one_cpu() } else { Ok(()) };
    let mut outcome = match (w, cli.traced) {
        (Workload::ServeMix, traced) => {
            serve::run(cli.seed, cli.seconds, traced, &scratch, &trace_path)
        }
        (_, false) => sim::run_untraced(w, cli.seed, cli.seconds, &scratch),
        (_, true) => sim::run_traced(w, cli.seed, cli.seconds, &scratch, &trace_path),
    };
    std::fs::remove_dir_all(&scratch).ok();
    if let Err(e) = confined {
        outcome.problems.push(format!("cannot confine the run to one CPU: {e}"));
    }

    let metrics = if cli.traced {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        outcome.values.set("machine.nproc", nproc as f64);
        let avx2 = grape5::detect_lane_path() == grape5::LanePath::Avx2;
        outcome.values.set("machine.lane_avx2", f64::from(u8::from(avx2)));
        outcome.values.per_layer_json()
    } else {
        match peak_rss_mb() {
            Some(mb) => outcome.values.set("peak_rss_mb", mb),
            None => outcome.problems.push("cannot read VmHWM from /proc/self/status".into()),
        }
        outcome.values.end_to_end_json().unwrap_or_else(|e| {
            outcome.problems.push(e);
            Json::Obj(vec![])
        })
    };
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    (outcome, result)
}

fn print_report(w: Workload, cli: &Cli, outcome: &Outcome, result: &Json) {
    println!(
        "== {} (seed {}, {} s, {}) ==",
        w.name(),
        cli.seed,
        cli.seconds,
        if cli.traced { "traced: per-layer metrics" } else { "untraced: end-to-end metrics" }
    );
    for note in &outcome.notes {
        println!("   {note}");
    }
    if let Some(Json::Obj(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("   {name:<34} {v:>16.6e} {unit}");
        }
    }
    println!("   attempted {} failed {}", outcome.attempted, outcome.failed);
    for p in &outcome.problems {
        println!("   CHECK FAILED: {p}");
    }
}

/// Run one workload in a fresh child process (so its `VmHWM` is its
/// own) and return its parsed result line.
fn run_child(w: Workload, cli: &Cli, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let output = child.wait_with_output().map_err(|e| format!("wait for child: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    let result = Json::parse(last).map_err(|e| {
        format!("{} ({}): no result line ({e}); exit {}", w.name(), traced, output.status)
    })?;
    if !output.status.success() {
        println!("   child exited {}", output.status);
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn is_correct(result: &Json) -> bool {
    result.get("correct") == Some(&Json::Bool(true))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine the numbers belong to.
fn machine_record() -> Json {
    Json::obj([
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)),
        ("lane_path", Json::str(format!("{:?}", grape5::detect_lane_path()))),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("git_head", Json::str(command_line("git", &["rev-parse", "--short", "HEAD"]))),
    ])
}

/// One pass over the workloads in `order`: untraced, and traced too if
/// asked. Returns `(workload, traced, result)` triples.
fn pass(order: &[Workload], cli: &Cli, with_traced: bool) -> Result<Vec<Run>, String> {
    let mut results = Vec::new();
    for &w in order {
        results.push((w, false, run_child(w, cli, false)?));
        if with_traced {
            results.push((w, true, run_child(w, cli, true)?));
        }
    }
    Ok(results)
}

fn results_json(results: &[Run]) -> Json {
    Json::Arr(
        results
            .iter()
            .map(|(w, traced, r)| {
                Json::obj([
                    ("workload", Json::str(w.name())),
                    ("trace", Json::Num(f64::from(u8::from(*traced)))),
                    ("result", r.clone()),
                ])
            })
            .collect(),
    )
}

/// The results of `w`'s (un)traced runs among `runs`.
fn side_runs(runs: &[Run], w: Workload, traced: bool) -> Vec<&Json> {
    runs.iter().filter(|(rw, rt, _)| (*rw, *rt) == (w, traced)).map(|(_, _, r)| r).collect()
}

/// Compare the two sides of an A/A. A side holds one or more runs of
/// each workload and is read at its **best** run (see
/// [`AA_RUNS`]): every end-to-end metric within its bound (in its worse
/// direction or the other — the sides are interchangeable), every
/// exact-repeat metric and count identical on every run of both sides.
fn compare_aa(a: &[Run], b: &[Run]) -> Vec<String> {
    let mut failures = Vec::new();
    for (w, traced) in workload::ALL.into_iter().flat_map(|w| [(w, false), (w, true)]) {
        let (ra, rb) = (side_runs(a, w, traced), side_runs(b, w, traced));
        if ra.is_empty() && rb.is_empty() {
            continue;
        }
        if ra.is_empty() || rb.is_empty() {
            failures.push(format!("{}: missing from one side", w.name()));
            continue;
        }
        println!(
            "-- A/A {} ({}, best of {} and {} runs) --",
            w.name(),
            if traced { "per-layer" } else { "end-to-end" },
            ra.len(),
            rb.len()
        );
        let rows: Vec<(&str, Better, Option<f64>, bool)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.better, None, m.exact)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.better, Some(m.bound), m.exact)).collect()
        };
        for (name, better, bound, exact) in rows {
            let values = |runs: &[&Json]| -> Option<Vec<f64>> {
                runs.iter().map(|r| metric_value(r, name)).collect()
            };
            let (Some(xa), Some(xb)) = (values(&ra), values(&rb)) else {
                failures.push(format!("{} {name}: missing from a run", w.name()));
                continue;
            };
            let best = |xs: &[f64]| match better {
                Better::Lower => stats::fastest(xs),
                Better::Higher => xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            };
            let (va, vb) = (best(&xa), best(&xb));
            let identical = xa.iter().chain(&xb).all(|x| x.to_bits() == xa[0].to_bits());
            let spread = if va == vb { 0.0 } else { (va - vb).abs() / va.abs().max(vb.abs()) };
            let verdict = if exact && !identical {
                failures.push(format!(
                    "{} {name}: exact-repeat metric differs: {xa:?} vs {xb:?}",
                    w.name()
                ));
                "DIFFERS"
            } else if bound.is_some_and(|b| spread > b) {
                failures.push(format!("{} {name}: spread {spread:.3} above its bound", w.name()));
                "OUT OF BOUND"
            } else if exact {
                "identical"
            } else {
                ""
            };
            println!("   {name:<34} {va:>15.6e} {vb:>15.6e}  spread {spread:>8.4}  {verdict}");
        }
    }
    failures
}

/// The workload and metric tables as Markdown — `README.md` carries
/// this output, so the documentation cannot drift from the registry.
fn describe() -> String {
    let mut md = String::from("| workload | why |\n|---|---|\n");
    for w in workload::ALL {
        md += &format!("| `{}` | {} |\n", w.name(), w.why());
    }
    md += "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n";
    for m in END_TO_END {
        let exact = if m.exact { " Repeats exactly for one seed." } else { "" };
        md += &format!(
            "| `{}` | {} | {} | {} | {}.{exact} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        );
    }
    md += "\n| per-layer metric | unit | better | exact repeat | moves |\n|---|---|---|---|---|\n";
    for m in PER_LAYER {
        md += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            if m.exact { "yes" } else { "" },
            m.moves
        );
    }
    md
}

/// Run each workload on `n` consecutive seeds and print, per end-to-end
/// metric, the quartile spread as a share of the median beside its
/// bound — the steadiness check the driver applies before it accepts
/// the benchmark. `setup_s` is exempt there and only reported here.
fn spread(selected: &[Workload], cli: &Cli, n: u64) -> Result<bool, String> {
    let mut ok = true;
    for &w in selected {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for seed in cli.seed..cli.seed + n {
            let result = run_child(w, &Cli { seed, ..cli.clone() }, false)?;
            ok &= is_correct(&result);
            for (m, column) in END_TO_END.iter().zip(&mut samples) {
                column.push(metric_value(&result, m.name).ok_or(format!("{} missing", m.name))?);
            }
        }
        println!("-- spread of {} over seeds {}..{} --", w.name(), cli.seed, cli.seed + n - 1);
        for (m, column) in END_TO_END.iter().zip(&samples) {
            let share = stats::quartile_spread(column);
            let verdict = if share <= m.bound / 3.0 {
                "steady"
            } else if share <= m.bound {
                "within bound"
            } else if m.name == "setup_s" {
                "above bound (exempt)"
            } else {
                ok = false;
                "ABOVE BOUND"
            };
            println!(
                "   {:<24} median {:>14.6e} {:<5} spread {share:>7.4}  bound {:<5} {verdict}",
                m.name,
                stats::median(column),
                m.unit,
                m.bound
            );
        }
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    if cli.emit_manifest {
        print!("{}", manifest().to_pretty());
        return Ok(true);
    }
    if cli.describe {
        print!("{}", describe());
        return Ok(true);
    }
    let selected: Vec<Workload> = match cli.workload {
        Some(w) if !cli.aa && cli.spread.is_none() => {
            let (outcome, result) = run_one(w, &cli);
            print_report(w, &cli, &outcome, &result);
            println!("{}", result.to_line());
            return Ok(outcome.correct());
        }
        Some(w) => vec![w],
        None => workload::ALL.to_vec(),
    };

    // several runs: each in a fresh child process, so VmHWM is its own
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("create {}: {e}", out_dir().display()))?;
    if let Some(n) = cli.spread {
        return spread(&selected, &cli, n);
    }
    let machine = machine_record();
    println!("machine: {}", machine.to_line());
    println!(
        "seed {} (held-out seed for later claims: {HELD_OUT_SEED}); threads are the product's \
         defaults",
        cli.seed
    );
    let forward = selected;
    let mut first = pass(&forward, &cli, cli.traced || cli.aa)?;
    let mut doc = vec![
        ("machine".to_string(), machine),
        ("seed".to_string(), Json::Num(cli.seed as f64)),
        ("seconds".to_string(), Json::Num(cli.seconds)),
    ];
    let mut ok = true;
    if cli.aa {
        // side A runs the workloads forward, side B backward, turn about
        let backward: Vec<Workload> = forward.iter().rev().copied().collect();
        let mut second = pass(&backward, &cli, true)?;
        for _ in 1..AA_RUNS {
            first.extend(pass(&forward, &cli, false)?);
            second.extend(pass(&backward, &cli, false)?);
        }
        ok &= second.iter().all(|(_, _, r)| is_correct(r));
        let failures = compare_aa(&first, &second);
        for f in &failures {
            println!("A/A FAILED: {f}");
        }
        ok &= failures.is_empty();
        doc.push(("results_side_b".to_string(), results_json(&second)));
    }
    ok &= first.iter().all(|(_, _, r)| is_correct(r));
    doc.insert(3, ("results".to_string(), results_json(&first)));
    if let Some(path) = &cli.out {
        std::fs::write(path, Json::Obj(doc).to_pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", if ok { "all checks passed" } else { "SOME CHECKS FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_defaults_and_driver_protocol() {
        let d = parse_cli(&[]).unwrap();
        assert_eq!((d.workload, d.seed, d.seconds, d.traced), (None, 42, 15.0, false));
        let c = parse_cli(&args("--workload serve_mix --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (c.workload, c.seed, c.seconds, c.traced),
            (Some(Workload::ServeMix), 7, 3.0, true)
        );
        assert_eq!(parse_cli(&args("--workload all")).unwrap().workload, None);
        assert!(parse_cli(&args("--traced --aa --out x.json")).unwrap().aa);
        assert_eq!(parse_cli(&args("--spread 10")).unwrap().spread, Some(10));
        for bad in
            ["--workload nope", "--trace 2", "--seed", "--seconds 0", "--spread 1", "--frobnicate"]
        {
            assert!(parse_cli(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn confinement_leaves_the_product_one_cpu() {
        // sched_setaffinity(0) binds the calling thread: this test's own
        confine_to_one_cpu().unwrap();
        assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
        let inherited = std::thread::spawn(|| std::thread::available_parallelism().unwrap().get());
        assert_eq!(inherited.join().unwrap(), 1, "threads spawned later inherit the mask");
    }

    #[test]
    fn manifest_has_exactly_the_contract_keys() {
        let m = manifest();
        let Json::Obj(pairs) = &m else { panic!("manifest is an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let Some(Json::Arr(workloads)) = m.get("workloads") else { panic!("workloads") };
        assert_eq!(workloads.len(), 5);
        let Some(Json::Arr(command)) = m.get("command") else { panic!("command") };
        assert!(command.len() <= 32);
        assert!(m.to_pretty().len() < 64 * 1024);
        // 4 + 22 x workloads runs, each with set-up and checks, inside 3420 s
        let runs = 4 + 22 * workloads.len() as u64;
        assert!(runs * (RUN_SECONDS + 12) < 3420, "run_seconds leaves no room for set-up");
    }

    #[test]
    fn committed_manifest_is_what_the_writer_emits() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- \
             --emit-manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn readme_carries_every_declared_name() {
        let readme =
            std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
                .expect("benchmark/README.md");
        for line in describe().lines().filter(|l| l.starts_with("| `")) {
            assert!(readme.contains(line), "README.md lacks the --describe row: {line}");
        }
    }

    /// `key = value` lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut lines: Vec<String> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap_or("").split_whitespace().collect::<String>())
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn release_profile_equals_the_root_manifest() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let ours = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let root = std::fs::read_to_string(dir.join("../Cargo.toml")).unwrap();
        let (ours, root) = (release_profile(&ours), release_profile(&root));
        assert!(!root.is_empty(), "root manifest has no [profile.release]");
        assert_eq!(ours, root, "path dependencies build with this package's profile");
    }

    #[test]
    fn aa_comparison_flags_exact_and_bounded_metrics() {
        let result = |modeled: f64, latency: f64| {
            let mut v = metrics::Values::default();
            for m in END_TO_END {
                v.set(m.name, 1.0);
            }
            v.set("modeled_step_s", modeled);
            v.set("latency_s", latency);
            Json::obj([("correct", Json::Bool(true)), ("metrics", v.end_to_end_json().unwrap())])
        };
        let w = Workload::PlummerNg32Exact;
        let run = |modeled, latency| (w, false, result(modeled, latency));
        let a = vec![run(0.5, 1.0)];
        assert!(compare_aa(&a, &[run(0.5, 1.05)]).is_empty());
        let exact = compare_aa(&a, &[run(0.5000001, 1.0)]);
        assert_eq!(exact.len(), 1, "{exact:?}");
        let bound = compare_aa(&a, &[run(0.5, 1.5)]);
        assert_eq!(bound.len(), 1, "{bound:?}");
        // a side is read at its best run: one slow run does not fail it ...
        assert!(compare_aa(&a, &[run(0.5, 1.5), run(0.5, 1.02)]).is_empty());
        // ... but an exact-repeat metric must agree on every run
        let stray = compare_aa(&a, &[run(0.6, 1.5), run(0.5, 1.0)]);
        assert_eq!(stray.len(), 1, "{stray:?}");
        assert_eq!(compare_aa(&a, &[]).len(), 1);
    }
}
