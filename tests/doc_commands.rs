//! Every `cargo run … --bin X`, `--example X` and `cargo bench …
//! --bench X` that the docs tell a reader to run names a target that
//! exists: a binary in `src/bin/` or `crates/*/src/bin/`, an example in
//! `examples/` or `crates/*/examples/`, a bench in `benches/` or
//! `crates/*/benches/`. Every report (`BENCH_*.json`) and script
//! (`scripts/*`) the docs name exists too, unless its line marks it
//! "retired in PR n". Every backticked `Type::item` in README, DESIGN
//! and SKILL.md names an item declared in `crates/` or `benchmark/src/`
//! (a few `std` names aside), unless its line marks it "deleted in PR n"
//! or "retired in PR n". Every backticked repo path (`crates/…`,
//! `tests/…`, `src/…`, `examples/…`) in the same three documents names a
//! file or directory that exists, unless its line marks it "deleted in PR
//! n" or "retired in PR n".

use std::collections::HashSet;
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

/// Does `line` mark what it names `marker` in a numbered PR?
fn marks(line: &str, marker: &str) -> bool {
    line.match_indices(marker)
        .any(|(at, m)| line[at + m.len()..].starts_with(|c: char| c.is_ascii_digit()))
}

/// `(line, path)` for each `BENCH_*.json` and `scripts/*` path in
/// `text`, skipping every line that marks what it names "retired in PR
/// n". A `*` in a path is a glob.
fn file_refs(text: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if marks(line, "retired in PR ") {
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

/// The documents whose `Type::item` names must exist.
const ITEM_DOCS: &[&str] = &["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"];

/// Names from outside the workspace the docs may write as `Type::item`.
const STD_ITEMS: &[&str] = &[
    "Box::leak",
    "array::map",
    "f64::round",
    "i64::from",
    "mem::transmute",
    "rayon::join",
    "std::thread",
    "thread::available_parallelism",
    "thread::scope",
];

/// `(line, "Type::item")` for each backticked path of two or more
/// segments in `text` (its last two), skipping every line that marks what
/// it names "deleted in PR n" or "retired in PR n", and a path a `*`
/// continues (a glob over names).
fn item_refs(text: &str) -> Vec<(usize, String)> {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
    let name = |s: &&str| s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_');
    let mut found = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if marks(line, "deleted in PR ") || marks(line, "retired in PR ") {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            let mut rest = span;
            while let Some(at) = rest.find(word) {
                let end = rest[at..].find(|c| !word(c)).map_or(rest.len(), |e| at + e);
                let segs: Vec<&str> = rest[at..end].trim_end_matches(':').split("::").collect();
                rest = &rest[end..];
                if segs.len() > 1 && segs.iter().all(name) && !rest.starts_with('*') {
                    found.push((i + 1, segs[segs.len() - 2..].join("::")));
                }
            }
        }
    }
    found
}

/// What may stand before a declaration's keyword (and `pub(in path) `).
const QUALIFIERS: &[&str] = &["pub(crate) ", "pub(super) ", "pub ", "unsafe ", "async "];
/// The keywords that declare a name.
const KEYWORDS: &[&str] =
    &["fn ", "struct ", "enum ", "trait ", "type ", "const fn ", "const ", "static ", "mod "];

/// `line` past its leading `pub(in path) `, if it has one.
fn restricted(line: &str) -> Option<&str> {
    line.strip_prefix("pub(in ")?.split_once(") ").map(|(_, rest)| rest)
}

/// The name `s` starts with.
fn ident(s: &str) -> &str {
    s.split(|c: char| !(c.is_alphanumeric() || c == '_')).next().unwrap_or("")
}

/// Every name the `.rs` files under `dir` declare: an item, a field
/// (`name: T`) or a variant (`Name,`, `Name(…)`, `Name { … }`, `Name =`)
/// at a line's start, or the names a row of a macro's entry table
/// declares (`name, name: Ops, "features";`).
fn declared_in(dir: &Path, names: &mut HashSet<String>) {
    for e in std::fs::read_dir(dir).expect("a source directory") {
        let path = e.expect("directory entry").path();
        if path.is_dir() {
            declared_in(&path, names);
            continue;
        }
        if path.extension().is_none_or(|x| x != "rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("a source file");
        for line in text.lines() {
            let mut line = line.trim_start();
            while let Some(rest) =
                QUALIFIERS.iter().find_map(|q| line.strip_prefix(q)).or_else(|| restricted(line))
            {
                line = rest;
            }
            if let (Some((row, _)), true) = (line.split_once(": "), line.ends_with("\";")) {
                names.extend(row.split(", ").map(String::from));
                continue;
            }
            let n = match KEYWORDS.iter().find_map(|k| line.strip_prefix(k)) {
                Some(rest) => ident(rest.trim_start_matches("mut ")),
                None => {
                    let n = ident(line);
                    let after = &line[n.len()..];
                    let variant = n.starts_with(|c: char| c.is_ascii_uppercase())
                        && [",", "(", " {", " ="].iter().any(|p| after.starts_with(p));
                    if !(after.starts_with(": ") || variant) {
                        continue;
                    }
                    n
                }
            };
            if !n.is_empty() {
                names.insert(n.to_string());
            }
        }
    }
}

#[test]
fn every_documented_item_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names = HashSet::new();
    declared_in(&root.join("crates"), &mut names);
    declared_in(&root.join("benchmark/src"), &mut names);
    assert!(names.contains("run_call") && names.contains("members_at") && names.contains("Avx2"));
    let mut missing = Vec::new();
    let mut seen = 0;
    for doc in ITEM_DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (line, path) in item_refs(&text) {
            seen += 1;
            let item = path.rsplit("::").next().expect("a segment");
            if !STD_ITEMS.contains(&path.as_str()) && !names.contains(item) {
                missing.push(format!("{doc}:{line}: {path}"));
            }
        }
    }
    assert!(seen >= 100, "only {seen} documented items found: the scanner is broken");
    assert!(
        missing.is_empty(),
        "documented items that do not exist (mark a line that names a deleted one \
         \"deleted in PR n\"):\n{}",
        missing.join("\n")
    );
}

#[test]
fn a_stale_item_reference_is_caught() {
    let text = "`G5Pipeline::interact_self` runs a self block; `window::PairWindow::run_call`.\n\
                `DeviceSession::try_force_for_run` (deleted in PR 9), `Box::leak`\n\
                the `interact_block_*_upto` hooks, `G5Pipeline::interact_block_*_upto`, `a::{b, c}`\n\
                `cargo test -p grape5 lanes::tests::x` and `Grape5::try_force_on_run(xi, at)`";
    let found = item_refs(text);
    let found: Vec<(usize, &str)> = found.iter().map(|(l, p)| (*l, p.as_str())).collect();
    assert_eq!(
        found,
        [
            (1, "G5Pipeline::interact_self"),
            (1, "PairWindow::run_call"),
            (4, "tests::x"),
            (4, "Grape5::try_force_on_run"),
        ]
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names = HashSet::new();
    declared_in(&root.join("crates"), &mut names);
    let live: Vec<bool> = ["interact_self", "run_call", "try_force_for_run", "try_force_on_run"]
        .iter()
        .map(|n| names.contains(*n))
        .collect();
    assert_eq!(live, [false, true, false, true]);
}

/// The roots of the repo paths [`path_refs`] reads.
const PATH_ROOTS: &[&str] = &["crates/", "tests/", "src/", "examples/"];

/// `(line, path)` for each repo path in a backticked span of `text` that
/// starts at one of [`PATH_ROOTS`] (not inside a longer path), skipping
/// every line that marks what it names "deleted in PR n" or "retired in
/// PR n". A `*` in a path is a glob.
fn path_refs(text: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if marks(line, "deleted in PR ") || marks(line, "retired in PR ") {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            let mut starts: Vec<usize> = PATH_ROOTS
                .iter()
                .flat_map(|root| span.match_indices(root).map(|(at, _)| at))
                .filter(|&at| {
                    !span[..at].ends_with(|c: char| c.is_alphanumeric() || "_-./".contains(c))
                })
                .collect();
            starts.sort_unstable();
            for at in starts {
                let path: String = span[at..]
                    .chars()
                    .take_while(|&c| c.is_alphanumeric() || "_-./*".contains(c))
                    .collect();
                found.push((i + 1, path.trim_end_matches('.').to_string()));
            }
        }
    }
    found
}

/// Whether `path` (relative to `root`) names a file or a directory; a `*`
/// globs within one file name.
fn path_exists(root: &Path, path: &str) -> bool {
    if path.contains('*') {
        file_exists(root, path)
    } else {
        root.join(path).exists()
    }
}

#[test]
fn every_documented_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut seen = 0;
    for doc in ITEM_DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (line, path) in path_refs(&text) {
            seen += 1;
            if !path_exists(root, &path) {
                missing.push(format!("{doc}:{line}: {path}"));
            }
        }
    }
    assert!(seen >= 30, "only {seen} documented paths found: the scanner is broken");
    assert!(
        missing.is_empty(),
        "documented paths that do not exist (mark a line that names a deleted one \
         \"deleted in PR n\"):\n{}",
        missing.join("\n")
    );
}

#[test]
fn a_stale_path_reference_is_caught() {
    let text = "the kernels in `crates/grape5/src/lanes.rs` and `tests/golden_steps.rs`\n\
                `crates/grape5/src/lanes.rs` (deleted in PR 3), `benchmark/src/staged.rs`\n\
                `cargo test --test x` over `tests/`, `crates/core/src/cluster/`, `tests/golden/*.txt`\n\
                `crates/grape5/src/lanes/avx2/`; not backticked: crates/grape5/src/lanes.rs";
    let found = path_refs(text);
    let found: Vec<(usize, &str)> = found.iter().map(|(l, p)| (*l, p.as_str())).collect();
    assert_eq!(
        found,
        [
            (1, "crates/grape5/src/lanes.rs"),
            (1, "tests/golden_steps.rs"),
            (3, "tests/"),
            (3, "crates/core/src/cluster/"),
            (3, "tests/golden/*.txt"),
            (4, "crates/grape5/src/lanes/avx2/"),
        ]
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let live: Vec<bool> = found.iter().map(|(_, p)| path_exists(root, p)).collect();
    assert_eq!(live, [false, true, true, true, true, true]);
    assert!(!path_exists(root, "tests/golden/*.json"));
}
