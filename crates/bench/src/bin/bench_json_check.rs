//! Schema check for the machine-readable bench artifacts: parses each
//! named file in `HALO_BENCH_JSON_DIR` (default `results/`) and validates
//! it against its entry in the schema table (`halo_bench::json`), found
//! by file name. With no names it checks every `*.json` there. Exits
//! non-zero on any violation, on a file name without an entry (an
//! artifact nobody validates is an artifact nobody can trust), and on a
//! directory without artifacts.
//!
//! ```sh
//! cargo run --release -p halo-bench --bin bench_json_check
//! cargo run --release -p halo-bench --bin bench_json_check -- BENCH_SERVE.json
//! ```

use std::path::Path;
use std::process::ExitCode;

use halo_bench::json::{self, Schema};

fn check(dir: &Path, name: &str) -> Result<(), String> {
    let schema =
        Schema::by_file(name).ok_or(format!("{name}: no schema registered for this artifact"))?;
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{name}: parse error: {e}"))?;
    schema
        .check(&doc)
        .map_err(|e| format!("{name}: schema violation: {e}"))?;
    println!("OK {}", path.display());
    Ok(())
}

/// Every `*.json` file name in `dir`, sorted; none at all is an error.
fn artifacts(dir: &Path) -> Result<Vec<String>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no *.json artifacts in {}", dir.display()));
    }
    Ok(names)
}

/// Checks the named artifacts, or every one when none is named, and
/// returns the violations.
fn violations(names: Vec<String>) -> Vec<String> {
    let dir = match halo_bench::bench_json_dir() {
        Ok(dir) => dir,
        Err(e) => return vec![format!("bench JSON directory: {e}")],
    };
    let names = if names.is_empty() {
        match artifacts(&dir) {
            Ok(names) => names,
            Err(e) => return vec![e],
        }
    } else {
        names
    };
    names
        .iter()
        .filter_map(|name| check(&dir, name).err())
        .collect()
}

fn main() -> ExitCode {
    let violations = violations(std::env::args().skip(1).collect());
    for e in &violations {
        eprintln!("FAIL {e}");
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
