//! Schema smoke-checker for telemetry JSON-lines files.
//!
//! ```text
//! jsonl_check <file.jsonl>...
//! ```
//!
//! For every line of every file: it must parse as an RFC 8259 JSON value
//! (via the telemetry crate's own validator — the same grammar its writer
//! targets), and its top-level `type` member must be one of the event
//! types this workspace emits. Empty files fail: every capture ends with
//! a `meta` line. Wired into `scripts/check.sh` against real `--metrics`
//! captures, so the hand-rolled JSON writer and the documented schema
//! cannot drift apart silently.

use std::process::ExitCode;

/// Every `type` the telemetry writer emits; see `docs/OBSERVABILITY.md`.
/// `meta` covers both the bench-run metadata line every capture ends
/// with and the metadata-layer events streamed by `cluster::metalog`
/// (log recovery, compaction).
const KNOWN_TYPES: &[&str] = &[
    "meta",
    "counter",
    "gauge",
    "histogram",
    "update",
    "repair",
    "span",
    "sim",
    "trace",
];

fn check_file(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        telemetry::json::validate(line)
            .map_err(|e| format!("{path}:{}: invalid JSON: {e}", i + 1))?;
        let ty = telemetry::json::top_level_str(line, "type")
            .ok_or_else(|| format!("{path}:{}: no top-level \"type\" member", i + 1))?;
        if !KNOWN_TYPES.contains(&ty.as_str()) {
            return Err(format!(
                "{path}:{}: unknown event type {ty:?} (known: {KNOWN_TYPES:?})",
                i + 1
            ));
        }
        lines += 1;
    }
    if lines == 0 {
        return Err(format!("{path}: no event lines"));
    }
    Ok(lines)
}

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: jsonl_check <file.jsonl>...");
        return ExitCode::FAILURE;
    }
    let mut total = 0usize;
    for path in &files {
        match check_file(path) {
            Ok(lines) => {
                println!("{path}: {lines} line(s) ok");
                total += lines;
            }
            Err(e) => {
                eprintln!("jsonl_check: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "jsonl_check: {total} line(s) across {} file(s), all valid",
        files.len()
    );
    ExitCode::SUCCESS
}
