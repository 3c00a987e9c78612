//! Every `cargo run … --bin X`, `--example X` and `cargo bench …
//! --bench X` that the docs tell a reader to run names a target that
//! exists: a binary in `src/bin/` or `crates/*/src/bin/`, an example in
//! `examples/` or `crates/*/examples/`, a bench in `benches/` or
//! `crates/*/benches/`.

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
