//! The one report schema: every `exp_*` harness and the trajectory
//! ledger write through [`Row`] (built with [`row!`](crate::row)), and
//! `--baseline`, `exp_suite` and the tests read back through [`num`],
//! [`text`], [`num_any`] and [`find_row`].
//!
//! A report is a JSON object written one field per line; an array field
//! is written one element per line, each element a [`Row`] (one JSON
//! object on one line) or a text. Text is escaped per RFC 8259 and a
//! non-finite number is written as `null`, so every report is valid
//! JSON. The reader is line-based — a value is found by its key on one
//! line, at any depth of that line — so the layout is part of the
//! schema: every committed `BENCH_*.json` is read this way.

use crate::write_report;
use std::fmt::Write as _;

/// A [`Row`] from `"key": value` pairs, in order; a value is anything
/// with a [`Value`] conversion.
#[macro_export]
macro_rules! row {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::report::Row::default()$(.put($key, $value))*
    };
}

/// One JSON object, written on one line: a row of a report array, a
/// nested object, or — through [`Row::write`] — a whole report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(Vec<(String, Value)>);

/// A field of a [`Row`]: a number (NaN and ±∞ are written as `null`), a
/// count, a bool, a text, an `Option` of one (`None` is `null`), a
/// nested [`Row`], or a `Vec` of any of these (an array).
#[derive(Debug, Clone, PartialEq)]
pub struct Value(Json);

#[derive(Debug, Clone, PartialEq)]
enum Json {
    /// A scalar or an object, written.
    One(String),
    /// An array, its elements written.
    List(Vec<String>),
}

impl Value {
    fn inline(&self) -> String {
        match &self.0 {
            Json::One(j) => j.clone(),
            Json::List(items) => format!("[{}]", items.join(", ")),
        }
    }
}

macro_rules! as_written {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value(Json::One(v.to_string()))
            }
        }
    )*};
}
as_written!(u64, usize, bool);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value(Json::One(if v.is_finite() { v.to_string() } else { "null".to_string() }))
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value(Json::One(quote(v)))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::from(v.as_str())
    }
}

impl From<Row> for Value {
    fn from(v: Row) -> Value {
        Value(Json::One(v.line()))
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value(Json::One("null".to_string())), Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value(Json::List(v.into_iter().map(|e| e.into().inline()).collect()))
    }
}

impl Row {
    /// The row with `key` appended.
    pub fn put(mut self, key: &str, value: impl Into<Value>) -> Row {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// The object on one line.
    pub fn line(&self) -> String {
        let fields: Vec<String> =
            self.0.iter().map(|(k, v)| format!("{}: {}", quote(k), v.inline())).collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Write the object as a report: one field per line, an array one
    /// element per line, through [`write_report`].
    ///
    /// # Panics
    /// When the file cannot be written.
    pub fn write(&self, path: &str) {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.0.iter().enumerate() {
            let _ = write!(out, "  {}: ", quote(k));
            match &v.0 {
                Json::List(items) if !items.is_empty() => {
                    let lines: Vec<String> = items.iter().map(|e| format!("    {e}")).collect();
                    let _ = write!(out, "[\n{}\n  ]", lines.join(",\n"));
                }
                _ => out.push_str(&v.inline()),
            }
            out.push_str(if i + 1 < self.0.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        write_report(path, &out);
    }

    /// A flat one-line object of a report read back as a row, its values
    /// verbatim; `None` when the line is not one.
    pub fn parse(line: &str) -> Option<Row> {
        let mut s = line.trim().trim_end_matches(',').strip_prefix('{')?.trim_start();
        let mut row = Row::default();
        while let Some(len) = string_len(s) {
            let key = unquote(&s[..len])?;
            s = s[len..].trim_start().strip_prefix(':')?.trim_start();
            let len = value_len(s);
            row.0.push((key, Value(Json::One(s[..len].trim_end().to_string()))));
            s = s[len..].trim_start();
            s = s.strip_prefix(',').map_or(s, str::trim_start);
        }
        (s == "}").then_some(row)
    }
}

/// A `RecoveryStats` as every report writes it.
pub fn recovery(r: &grape5::RecoveryStats) -> Row {
    row! {
        "retries": r.retries, "j_reloads": r.j_reloads,
        "validation_failures": r.validation_failures, "device_errors": r.device_errors,
        "quarantined_pipes": r.quarantined_pipes, "quarantined_boards": r.quarantined_boards,
    }
}

/// The number at `key` on `line` (its first occurrence, at any depth);
/// `None` when the key is absent, `null` or not a number.
pub fn num(line: &str, key: &str) -> Option<f64> {
    token(line, key)?.parse().ok()
}

/// The text at `key` on `line`, unescaped.
pub fn text(line: &str, key: &str) -> Option<String> {
    unquote(token(line, key)?)
}

/// The number at `key` on the first line of `report` that has one.
pub fn num_any(report: &str, key: &str) -> Option<f64> {
    report.lines().find_map(|l| num(l, key))
}

/// The first line of `report` whose value at each of `key`'s fields
/// equals that field's, compared parsed — a number as a number
/// (`"k": 1` is not `"k": 16`), a text unescaped.
pub fn find_row<'r>(report: &'r str, key: &Row) -> Option<&'r str> {
    report
        .lines()
        .find(|l| key.0.iter().all(|(k, v)| token(l, k).is_some_and(|t| same(&v.inline(), t))))
}

/// `--baseline`: how each of `metrics` moved, for every fresh row,
/// against the row of `old` (a previous report) with the same values at
/// `key`. Informational; `note` says how far to trust it.
pub fn print_delta(old: &str, key: &[&str], metrics: &[&str], fresh: &[Row], note: &str) {
    println!();
    println!("delta vs baseline ({}):", metrics.join(", "));
    for row in fresh {
        let id = Row(row.0.iter().filter(|(k, _)| key.contains(&k.as_str())).cloned().collect());
        let (prior, now_line) = (find_row(old, &id), row.line());
        let moved: Option<Vec<String>> = metrics
            .iter()
            .map(|m| {
                let (was, now) = (num(prior?, m)?, num(&now_line, m)?);
                (was > 0.0).then(|| {
                    format!("{m} {was:.4e} -> {now:.4e} ({:+.1}%)", 100.0 * (now - was) / was)
                })
            })
            .collect();
        match moved {
            Some(moved) => println!("  {}  {}", id.line(), moved.join("   ")),
            None => println!("  {}  (no baseline entry)", id.line()),
        }
    }
    println!("({note})");
}

/// Two JSON scalars equal as values.
fn same(a: &str, b: &str) -> bool {
    match (a.parse::<f64>(), b.parse::<f64>(), unquote(a), unquote(b)) {
        (Ok(x), Ok(y), ..) => x == y,
        (.., Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

/// The JSON value of `key`'s first occurrence on `line`, verbatim.
fn token<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let mut i = 0;
    while let Some(at) = line[i..].find('"') {
        let start = i + at;
        let end = start + string_len(&line[start..])?;
        match line[end..].trim_start().strip_prefix(':') {
            Some(value) if line[start + 1..end - 1] == *key => {
                let value = value.trim_start();
                return Some(value[..value_len(value)].trim_end());
            }
            _ => i = end,
        }
    }
    None
}

/// Length of the string literal `s` starts with, quotes included.
fn string_len(s: &str) -> Option<usize> {
    let mut escaped = false;
    let close = s.strip_prefix('"')?.bytes().position(|b| {
        let close = b == b'"' && !escaped;
        escaped = b == b'\\' && !escaped;
        close
    })?;
    Some(close + 2)
}

/// Length of the JSON scalar `s` starts with: a string, or a bare
/// token running to the next `,`, `}` or `]`.
fn value_len(s: &str) -> usize {
    string_len(s).unwrap_or_else(|| s.find([',', '}', ']']).unwrap_or(s.len()))
}

/// `s` as a JSON string literal (RFC 8259 §7): `"` and `\` escaped, a
/// newline as `\n`, any other control character as `\u00XX`.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of a JSON string literal; `None` when `tok` is not one.
fn unquote(tok: &str) -> Option<String> {
    let body = tok.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'b' => '\u{8}',
            'f' => '\u{c}',
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
            }
            c => c,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_inside_text_values_are_not_keys() {
        let line = row! { "event": "\"n\": 5, {", "n": 7u64 }.line();
        assert_eq!(num(&line, "n"), Some(7.0));
    }

    #[test]
    fn rows_are_found_by_parsed_values() {
        let report = [
            row! { "n": 100u64, "k": 16u64, "mode": "exact", "x": 1.0 },
            row! { "n": 100u64, "k": 1u64, "mode": "exact", "x": 2.0 },
        ]
        .map(|r| format!("    {},", r.line()))
        .join("\n");
        let at = |key: Row| find_row(&report, &key).and_then(|l| num(l, "x"));
        assert_eq!(at(row! { "n": 100u64, "k": 1u64 }), Some(2.0));
        assert_eq!(at(row! { "n": 100.0, "mode": "exact" }), Some(1.0));
        assert_eq!(at(row! { "mode": "lns" }), None);
    }

    #[test]
    fn a_report_is_one_field_per_line_and_one_row_per_line() {
        let path = std::env::temp_dir().join(format!("g5_report_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let rows = vec![row! { "n": 1u64 }, row! { "n": 2u64 }];
        row! {
            "experiment": "x", "quick": true, "rerun": None::<bool>, "nested": row! { "n": 3u64 },
            "results": rows, "ledger": Vec::<String>::new(),
        }
        .write(path);
        let written = std::fs::read_to_string(path).expect("report written");
        std::fs::remove_file(path).ok();
        assert_eq!(
            written,
            "{\n  \"experiment\": \"x\",\n  \"quick\": true,\n  \"rerun\": null,\n  \
             \"nested\": {\"n\": 3},\n  \"results\": [\n    {\"n\": 1},\n    {\"n\": 2}\n  ],\n  \
             \"ledger\": []\n}\n"
        );
        assert_eq!(num_any(&written, "n"), Some(3.0));
    }

    /// Every committed report and the ledger through the reader — the
    /// keys CI's `--baseline` runs and `exp_suite`'s seed rows rely on —
    /// and the writer → reader round trip of what used to break a report.
    #[test]
    fn committed_reports_stay_readable() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{root}/{f}")).unwrap_or_else(|e| panic!("{f}: {e}"))
        };
        let reports: Vec<String> = std::fs::read_dir(root)
            .expect("repository root")
            .map(|e| e.expect("directory entry").file_name().to_string_lossy().into_owned())
            .filter(|f| f.starts_with("BENCH_pr") && f.ends_with(".json"))
            .collect();
        assert!(reports.len() >= 5, "{reports:?}");
        for f in &reports {
            assert!(read(f).lines().any(|l| text(l, "experiment").is_some()), "{f}");
        }
        let rows_with = |f: &str, keys: &[&str]| {
            let t = read(f);
            assert!(t.lines().any(|l| keys.iter().all(|k| token(l, k).is_some())), "{f}: {keys:?}");
            t
        };
        let pr15 = rows_with(
            "BENCH_pr15.json",
            &["n", "k", "steps", "critical_path_s_per_step", "interactions"],
        );
        assert!(find_row(&pr15, &row! { "n": 262_144u64, "k": 1u64 }).is_some());
        rows_with("BENCH_pr19.json", &["n", "n_crit", "k", "host_new_s_per_step", "speedup"]);
        let pr24 = rows_with("BENCH_pr24.json", &["n", "mode", "batch_per_second"]);
        let lns = find_row(&pr24, &row! { "n": 16_384u64, "mode": "lns" });
        assert!(lns.and_then(|l| num(l, "lane_speedup")).is_some());
        // exp_suite copies these rows into its own report
        let verbatim = lns.map(|l| l.trim().trim_end_matches(','));
        assert_eq!(lns.and_then(Row::parse).map(|r| r.line()).as_deref(), verbatim);
        for (file, keys) in [
            ("BENCH_pr7.json", &["n", "max_energy_drift"][..]),
            ("BENCH_pr20.json", &["jobs", "aggregate_interactions_per_s", "worker_scaling"][..]),
        ] {
            let t = read(file);
            for k in keys {
                assert!(num_any(&t, k).is_some(), "{file}: no number at {k}");
            }
        }

        // the ledger: every entry line is a (metric, n, value), and the
        // writer puts the whole file back byte for byte
        let ledger = read("BENCH_trajectory.json");
        let lines = ledger.lines().filter(|l| l.trim_start().starts_with("{\"pr\"")).count();
        let entries = crate::trajectory::entries(&ledger);
        assert!(lines > 10 && entries.len() == lines, "{} of {lines} entries", entries.len());
        assert!(entries.iter().all(|e| !e.metric.is_empty() && e.value.is_finite()));
        let path = std::env::temp_dir().join(format!("g5_ledger_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        crate::trajectory::write(path, &entries);
        let rewritten = std::fs::read_to_string(path).expect("ledger rewritten");
        std::fs::remove_file(path).ok();
        assert_eq!(rewritten, ledger);

        // text with a quote, a backslash and a newline (a multi-line
        // panic message inside a ledger event), and non-finite numbers
        let nasty = "shard 1 killed (assertion `left == right` failed\n  left: \"a\\b\"\tend)";
        let row = row! { "event": nasty, "nan": f64::NAN, "inf": f64::INFINITY };
        let line = row.line();
        assert!(!line.contains('\n'), "one row, one line: {line}");
        assert_eq!(text(&line, "event").as_deref(), Some(nasty));
        assert_eq!(
            (token(&line, "nan"), num(&line, "nan"), num(&line, "inf")),
            (Some("null"), None, None)
        );
        assert_eq!(Row::parse(&line), Some(row));
        let bell = "ring\u{7}";
        assert_eq!(text(&row! { "t": bell }.line(), "t").as_deref(), Some(bell));
    }
}
