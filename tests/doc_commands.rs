//! Every `cargo run … --bin X`, `--example X` and `cargo bench …
//! --bench X` that the docs tell a reader to run names a target that
//! exists: a binary in `src/bin/` or `crates/*/src/bin/`, an example in
//! `examples/` or `crates/*/examples/`, a bench in `benches/` or
//! `crates/*/benches/`. Every report (`BENCH_*.json`) and script
//! (`scripts/*`) the docs name exists too, unless its line marks it
//! "retired in PR n".

use std::path::Path;

/// The documents whose commands a reader copies.
const DOCS: &[&str] =
    &["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"];

/// `(line, flag, target)` for each `--bin` / `--example` / `--bench`
/// of a cargo command in `text`; a line ending in `\` continues on the
/// next one.
fn targets(text: &str) -> Vec<(usize, &'static str, String)> {
    let mut found = Vec::new();
    let mut command = String::new();
    let mut first = 0;
    for (i, line) in text.lines().enumerate() {
        if command.is_empty() {
            first = i + 1;
        }
        let (body, continued) = match line.trim_end().strip_suffix('\\') {
            Some(body) => (body, true),
            None => (line, false),
        };
        command.push_str(body);
        command.push(' ');
        if continued {
            continue;
        }
        for (at, _) in command.match_indices("cargo ") {
            // a command in an inline code span ends at its closing backtick
            let rest = &command[at..];
            let rest = if command[..at].ends_with('`') {
                rest.split('`').next().unwrap_or(rest)
            } else {
                rest
            };
            let words: Vec<&str> = rest
                .split(|c: char| c.is_whitespace() || c == '`')
                .filter(|w| !w.is_empty())
                .collect();
            for pair in words.windows(2) {
                let flag = match pair[0] {
                    "--bin" => "--bin",
                    "--example" => "--example",
                    "--bench" => "--bench",
                    _ => continue,
                };
                let name = pair[1].trim_end_matches(|c: char| !c.is_alphanumeric() && c != '_');
                found.push((first, flag, name.to_string()));
            }
        }
        command.clear();
    }
    found
}

/// Whether `root` has a target `name` of the kind `flag` names.
fn exists(root: &Path, flag: &str, name: &str) -> bool {
    let dir = match flag {
        "--bin" => "src/bin",
        "--example" => "examples",
        _ => "benches",
    };
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/");
    std::iter::once(root.to_path_buf())
        .chain(crates.map(|e| e.expect("crate directory").path()))
        .any(|c| c.join(dir).join(format!("{name}.rs")).is_file())
}

/// `(line, path)` for each `BENCH_*.json` and `scripts/*` path in
/// `text`, skipping every line that marks what it names "retired in PR
/// n". A `*` in a path is a glob.
fn file_refs(text: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let retired = line
            .match_indices("retired in PR ")
            .any(|(at, m)| line[at + m.len()..].starts_with(|c: char| c.is_ascii_digit()));
        if retired {
            continue;
        }
        for start in ["BENCH_", "scripts/"] {
            for (at, _) in line.match_indices(start) {
                if line[..at].ends_with(|c: char| c.is_alphanumeric() || c == '/' || c == '_') {
                    continue;
                }
                let path: String = line[at..]
                    .chars()
                    .take_while(|&c| c.is_alphanumeric() || "_-./*".contains(c))
                    .collect();
                let path = path.trim_end_matches('.');
                if start == "scripts/" || path.ends_with(".json") {
                    found.push((i + 1, path.to_string()));
                }
            }
        }
    }
    found
}

/// Whether `path` (relative to `root`; a `*` matches any run of
/// characters within one file name) names a file.
fn file_exists(root: &Path, path: &str) -> bool {
    let (dir, name) = path.rsplit_once('/').unwrap_or(("", path));
    match name.split_once('*') {
        None => root.join(path).is_file(),
        Some((head, tail)) => std::fs::read_dir(root.join(dir)).is_ok_and(|mut files| {
            files.any(|f| {
                let f = f.expect("directory entry").file_name().to_string_lossy().into_owned();
                f.len() >= head.len() + tail.len() && f.starts_with(head) && f.ends_with(tail)
            })
        }),
    }
}

#[test]
fn every_documented_report_and_script_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut seen = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (line, path) in file_refs(&text) {
            seen += 1;
            if !file_exists(root, &path) {
                missing.push(format!("{doc}:{line}: {path}"));
            }
        }
    }
    assert!(seen >= 20, "only {seen} documented files found: the scanner is broken");
    assert!(
        missing.is_empty(),
        "documented files that do not exist (mark a line that names a deleted one \
         \"retired in PR n\"):\n{}",
        missing.join("\n")
    );
}

#[test]
fn a_stale_report_reference_is_caught() {
    let text = "CI gates on the ledger `BENCH_trajectory.json`.\n\
                `BENCH_trajectory.json` (retired in PR 37) and `BENCH_pr*.json`\n\
                see scripts/check_lane_disasm.sh, not crates/x/scripts/y.sh; BENCH_pr7.json.\n\
                retired in PR, not a number: BENCH_pr3.json";
    let found = file_refs(text);
    let found: Vec<(usize, &str)> = found.iter().map(|(l, p)| (*l, p.as_str())).collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert_eq!(
        found,
        [
            (1, "BENCH_trajectory.json"),
            (3, "BENCH_pr7.json"),
            (3, "scripts/check_lane_disasm.sh"),
            (4, "BENCH_pr3.json")
        ]
    );
    let live: Vec<bool> = found.iter().map(|(_, p)| file_exists(root, p)).collect();
    assert_eq!(live, [false, true, true, false]);
    assert!(file_exists(root, "BENCH_pr*.json") && !file_exists(root, "BENCH_pr*.txt.json"));
}

#[test]
fn every_documented_cargo_target_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut seen = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (line, flag, name) in targets(&text) {
            seen += 1;
            if !exists(root, flag, &name) {
                missing.push(format!("{doc}:{line}: {flag} {name}"));
            }
        }
    }
    assert!(seen >= 10, "only {seen} documented targets found: the scanner is broken");
    assert!(missing.is_empty(), "documented targets that do not exist:\n{}", missing.join("\n"));
}

#[test]
fn the_scanner_reads_every_form_a_doc_writes() {
    let text = "run `cargo run --release -p g5-bench --bin exp_paper -- --quick`\n\
                cargo run --release \\\n    --example quickstart\n\
                `cargo bench -p g5-bench --bench step_pipeline` and exp_kernel's --bin flag\n\
                cargo test -q --release --test golden_steps";
    let found = targets(text);
    let found: Vec<(usize, &str, &str)> =
        found.iter().map(|(l, f, n)| (*l, *f, n.as_str())).collect();
    assert_eq!(
        found,
        [
            (1, "--bin", "exp_paper"),
            (2, "--example", "quickstart"),
            (4, "--bench", "step_pipeline")
        ]
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(exists(root, "--bin", "exp_paper") && exists(root, "--example", "quickstart"));
    assert!(!exists(root, "--bench", "step_pipeline") && !exists(root, "--bin", "exp_host"));
}
