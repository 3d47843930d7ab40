//! Minimal dependency-free JSON: a value tree, an emitter, a
//! recursive-descent parser, and schema validators for the two
//! machine-readable bench artifacts (`BENCH_ROTATE.json`,
//! `BENCH_RUN_ALL.json`).
//!
//! The workspace deliberately vendors no serde; the bench trajectory only
//! needs flat objects of numbers and strings, so a ~200-line JSON core
//! keeps the artifact format honest (CI round-trips every emitted file
//! through this parser before accepting it).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (emitted via `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on emit.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, 0);
        out.push('\n');
        out
    }

    fn emit(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => emit_num(out, *x),
            Json::Str(s) => emit_str(out, s),
            Json::Arr(v) if v.is_empty() => out.push_str("[]"),
            Json::Arr(v) => {
                out.push('[');
                for (i, item) in v.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    item.emit(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(m) if m.is_empty() => out.push_str("{}"),
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    emit_str(out, k);
                    out.push_str(": ");
                    v.emit(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

fn emit_num(out: &mut String, x: f64) {
    // JSON has no NaN/Inf; the validators reject them, but never emit
    // something unparseable either.
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn emit_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document (the subset this crate emits: no `\uXXXX`
/// surrogate pairs beyond the BMP escape itself).
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                members.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            s.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{s}' at byte {start}"))
        }
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape".to_string())?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Convenience: a finite, non-negative number under `key`.
fn require_num(v: &Json, key: &str) -> Result<f64, String> {
    let x = v
        .get(key)
        .ok_or(format!("missing key '{key}'"))?
        .as_num()
        .ok_or(format!("key '{key}' is not a number"))?;
    if !x.is_finite() || x < 0.0 {
        return Err(format!("key '{key}' must be finite and >= 0, got {x}"));
    }
    Ok(x)
}

fn require_str<'j>(v: &'j Json, key: &str) -> Result<&'j str, String> {
    v.get(key)
        .ok_or(format!("missing key '{key}'"))?
        .as_str()
        .ok_or(format!("key '{key}' is not a string"))
}

/// Counter sub-object shared by both rotate snapshots.
fn check_counters(v: &Json, key: &str) -> Result<(), String> {
    let obj = v.get(key).ok_or(format!("missing object '{key}'"))?;
    for k in ["poly_allocs", "digit_decomposes", "digit_ntt_rows"] {
        require_num(obj, k).map_err(|e| format!("{key}: {e}"))?;
    }
    Ok(())
}

/// Validates a `BENCH_ROTATE.json` document (schema
/// `halo-bench-rotate/1`): hoisted-rotation microbenchmark results with
/// op/alloc counter snapshots for the sequential and hoisted paths.
///
/// # Errors
///
/// Returns the first schema violation.
pub fn validate_rotate(v: &Json) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != "halo-bench-rotate/1" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    for k in ["n", "levels", "batch", "reps", "threads"] {
        let x = require_num(v, k)?;
        if x < 1.0 {
            return Err(format!("key '{k}' must be >= 1"));
        }
    }
    let seq = require_num(v, "sequential_us")?;
    let hoisted = require_num(v, "hoisted_us")?;
    let speedup = require_num(v, "speedup")?;
    if hoisted > 0.0 && (speedup - seq / hoisted).abs() > 1e-6 * speedup.max(1.0) {
        return Err(format!(
            "speedup {speedup} inconsistent with {seq} / {hoisted}"
        ));
    }
    check_counters(v, "sequential")?;
    check_counters(v, "hoisted")?;
    // The hoisting contract: one decomposition per batch on the hoisted
    // path, one per rotation on the sequential path.
    let seq_dec = require_num(v.get("sequential").unwrap(), "digit_decomposes")?;
    let hoist_dec = require_num(v.get("hoisted").unwrap(), "digit_decomposes")?;
    if hoist_dec >= seq_dec {
        return Err(format!(
            "hoisted path must decompose less ({hoist_dec} vs {seq_dec})"
        ));
    }
    Ok(())
}

/// Validates a `BENCH_NTT.json` document (schema `halo-bench-ntt/2`):
/// the toy backend's kernel microbenchmark. Records the per-limb
/// negacyclic transform cost and the ct-ct multiply latency, plus the
/// deferred-reduction count proving the lazy kernels actually ran.
///
/// # Errors
///
/// Returns the first schema violation.
pub fn validate_ntt(v: &Json) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != "halo-bench-ntt/2" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    for k in ["n", "levels", "reps", "threads"] {
        let x = require_num(v, k)?;
        if x < 1.0 {
            return Err(format!("key '{k}' must be >= 1"));
        }
    }
    for k in ["ntt_ns_per_limb", "mult_us"] {
        if require_num(v, k)? <= 0.0 {
            return Err(format!("key '{k}' must be > 0"));
        }
    }
    if require_num(v, "lazy_reductions_skipped")? < 1.0 {
        return Err("lazy_reductions_skipped must be >= 1".into());
    }
    Ok(())
}

/// Validates a `BENCH_RUN_ALL.json` document (schema
/// `halo-bench-run-all/1`): per-benchmark modeled latencies and bootstrap
/// counts plus the run's wall time.
///
/// # Errors
///
/// Returns the first schema violation.
pub fn validate_run_all(v: &Json) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != "halo-bench-run-all/1" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    require_str(v, "scale")?;
    require_num(v, "iters")?;
    require_num(v, "wall_ms")?;
    require_num(v, "poly_allocs")?;
    let benches = v
        .get("benchmarks")
        .and_then(Json::as_arr)
        .ok_or("missing array 'benchmarks'".to_string())?;
    if benches.is_empty() {
        return Err("'benchmarks' must be non-empty".into());
    }
    for (i, row) in benches.iter().enumerate() {
        let ctx = |e| format!("benchmarks[{i}]: {e}");
        require_str(row, "bench").map_err(ctx)?;
        require_str(row, "config").map_err(ctx)?;
        require_num(row, "bootstraps").map_err(ctx)?;
        let total = require_num(row, "total_us").map_err(ctx)?;
        let boot = require_num(row, "bootstrap_us").map_err(ctx)?;
        if boot > total {
            return Err(format!(
                "benchmarks[{i}]: bootstrap_us {boot} exceeds total_us {total}"
            ));
        }
    }
    // The serving campaign rides along in newer documents; when present
    // it must be internally consistent (same row shape as BENCH_SERVE).
    if let Some(serving) = v.get("serving") {
        let rows = serving
            .as_arr()
            .ok_or("'serving' must be an array".to_string())?;
        if rows.is_empty() {
            return Err("'serving' must be non-empty when present".into());
        }
        check_serving_rows(rows)?;
    }
    // Likewise the autotuning summary (same row shape as BENCH_TUNE).
    if let Some(tuning) = v.get("tuning") {
        let rows = tuning
            .as_arr()
            .ok_or("'tuning' must be an array".to_string())?;
        if rows.is_empty() {
            return Err("'tuning' must be non-empty when present".into());
        }
        check_tune_rows(rows)?;
    }
    Ok(())
}

/// Row shape shared by `BENCH_SERVE.json` and the optional `serving`
/// section of `BENCH_RUN_ALL.json`: one closed-loop campaign result per
/// swept maximum batch size, with modeled latency percentiles and the
/// batched-vs-solo throughput ratio.
fn check_serving_rows(rows: &[Json]) -> Result<(), String> {
    let mut saw_solo = false;
    for (i, row) in rows.iter().enumerate() {
        let ctx = |e| format!("serving row [{i}]: {e}");
        let batch = require_num(row, "batch").map_err(ctx)?;
        if batch < 1.0 {
            return Err(format!("serving row [{i}]: batch must be >= 1"));
        }
        let jobs = require_num(row, "jobs").map_err(ctx)?;
        if jobs < 1.0 {
            return Err(format!("serving row [{i}]: jobs must be >= 1"));
        }
        let packed = require_num(row, "packed_batches").map_err(ctx)?;
        if batch > 1.0 && packed < 1.0 {
            return Err(format!(
                "serving row [{i}]: batch {batch} run never coalesced"
            ));
        }
        let jps = require_num(row, "jobs_per_sec").map_err(ctx)?;
        if jps <= 0.0 {
            return Err(format!("serving row [{i}]: jobs_per_sec must be > 0"));
        }
        let p50 = require_num(row, "p50_us").map_err(ctx)?;
        let p99 = require_num(row, "p99_us").map_err(ctx)?;
        if p50 > p99 {
            return Err(format!("serving row [{i}]: p50 {p50} exceeds p99 {p99}"));
        }
        if require_num(row, "makespan_us").map_err(ctx)? <= 0.0 {
            return Err(format!("serving row [{i}]: makespan_us must be > 0"));
        }
        let speedup = require_num(row, "speedup_vs_solo").map_err(ctx)?;
        if batch == 1.0 {
            saw_solo = true;
            if (speedup - 1.0).abs() > 1e-9 {
                return Err(format!(
                    "serving row [{i}]: solo row must have speedup 1, got {speedup}"
                ));
            }
        }
    }
    if !saw_solo {
        return Err("serving rows lack the batch-1 (solo baseline) row".into());
    }
    Ok(())
}

/// Validates a `BENCH_SERVE.json` document (schema `halo-bench-serve/1`):
/// the multi-tenant serving-layer throughput campaign. Rows sweep the
/// maximum batch size over the same seeded job stream; throughput and
/// latency are modeled (cost-model accounted), so the headline
/// batched-vs-solo ratio is machine-independent and the schema itself
/// demands the paper-level bar: batch-16 coalescing must model >= 10x
/// the solo throughput.
///
/// # Errors
///
/// Returns the first schema violation.
pub fn validate_serve(v: &Json) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != "halo-bench-serve/1" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    require_str(v, "bench")?;
    require_str(v, "scale")?;
    require_num(v, "seed")?;
    for k in ["jobs", "sessions", "workers", "iters", "slots", "width"] {
        let x = require_num(v, k)?;
        if x < 1.0 {
            return Err(format!("key '{k}' must be >= 1"));
        }
    }
    let rows = v
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing array 'rows'".to_string())?;
    if rows.is_empty() {
        return Err("'rows' must be non-empty".into());
    }
    check_serving_rows(rows)?;
    let speedup_at_16 = require_num(v, "speedup_at_16")?;
    let row_16 = rows
        .iter()
        .find(|r| r.get("batch").and_then(Json::as_num) == Some(16.0))
        .ok_or("rows lack the batch-16 entry".to_string())?;
    let row_speedup = require_num(row_16, "speedup_vs_solo")?;
    if (speedup_at_16 - row_speedup).abs() > 1e-9 * speedup_at_16.max(1.0) {
        return Err(format!(
            "speedup_at_16 {speedup_at_16} inconsistent with batch-16 row {row_speedup}"
        ));
    }
    if speedup_at_16 < 10.0 {
        return Err(format!(
            "batch-16 modeled speedup {speedup_at_16} below the 10x bar"
        ));
    }
    Ok(())
}

/// Row shape shared by `BENCH_TUNE.json` and the optional `tuning`
/// section of `BENCH_RUN_ALL.json`: one program per row, with the HALO
/// heuristic's modeled cost, the autotuned plan's modeled cost, and the
/// search accounting. The schema itself enforces the optimality bar: a
/// tuned plan may never model costlier than the HALO heuristic, and the
/// search's accounting must cover its whole candidate space. Returns the
/// number of rows with a strict improvement.
fn check_tune_rows(rows: &[Json]) -> Result<usize, String> {
    let mut improved = 0;
    for (i, row) in rows.iter().enumerate() {
        let ctx = |e| format!("tune row [{i}]: {e}");
        require_str(row, "program").map_err(ctx)?;
        require_str(row, "plan").map_err(ctx)?;
        let halo = require_num(row, "halo_us").map_err(ctx)?;
        let tuned = require_num(row, "tuned_us").map_err(ctx)?;
        if halo <= 0.0 || tuned <= 0.0 {
            return Err(format!("tune row [{i}]: costs must be > 0"));
        }
        if tuned > halo * (1.0 + 1e-9) {
            return Err(format!(
                "tune row [{i}]: tuned plan models costlier than the HALO \
                 heuristic ({tuned} > {halo})"
            ));
        }
        let gap = require_num(row, "gap").map_err(ctx)?;
        if (gap - halo / tuned).abs() > 1e-6 * gap.max(1.0) {
            return Err(format!(
                "tune row [{i}]: gap {gap} inconsistent with {halo} / {tuned}"
            ));
        }
        if tuned < halo * (1.0 - 1e-9) {
            improved += 1;
        }
        let evaluated = require_num(row, "evaluated").map_err(ctx)?;
        let pruned = require_num(row, "pruned").map_err(ctx)?;
        let space = require_num(row, "space").map_err(ctx)?;
        if evaluated < 1.0 {
            return Err(format!("tune row [{i}]: evaluated must be >= 1"));
        }
        if evaluated + pruned != space {
            return Err(format!(
                "tune row [{i}]: evaluated {evaluated} + pruned {pruned} does \
                 not cover space {space}"
            ));
        }
    }
    Ok(improved)
}

/// Validates a `BENCH_TUNE.json` document (schema `halo-bench-tune/1`):
/// the autotuner sweep over the seeded fuzz loop corpus. One row per
/// corpus program comparing the HALO heuristic's modeled cost against the
/// autotuned plan's; the schema demands the acceptance bar directly —
/// tuned never costlier on any row, strictly cheaper on at least one —
/// and cross-checks the headline aggregates against the rows.
///
/// # Errors
///
/// Returns the first schema violation.
pub fn validate_tune(v: &Json) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != "halo-bench-tune/1" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    require_str(v, "tuner")?;
    for k in ["seeds", "assumed_trips"] {
        let x = require_num(v, k)?;
        if x < 1.0 {
            return Err(format!("key '{k}' must be >= 1"));
        }
    }
    require_num(v, "wall_ms")?;
    let rows = v
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing array 'rows'".to_string())?;
    if rows.is_empty() {
        return Err("'rows' must be non-empty".into());
    }
    let improved_rows = check_tune_rows(rows)?;
    let improved = require_num(v, "improved")?;
    if improved != improved_rows as f64 {
        return Err(format!(
            "improved {improved} inconsistent with {improved_rows} strictly \
             improved rows"
        ));
    }
    if improved < 1.0 {
        return Err("no corpus program strictly improved on the HALO heuristic".into());
    }
    let geomean: f64 = rows
        .iter()
        .map(|r| require_num(r, "gap").map(f64::ln))
        .sum::<Result<f64, _>>()
        .map(|s| (s / rows.len() as f64).exp())?;
    let geomean_gap = require_num(v, "geomean_gap")?;
    if (geomean_gap - geomean).abs() > 1e-6 * geomean_gap.max(1.0) {
        return Err(format!(
            "geomean_gap {geomean_gap} inconsistent with rows ({geomean})"
        ));
    }
    Ok(())
}

/// Validates a `FUZZ_REPORT.json` document (schema `halo-fuzz-report/1`):
/// differential-fuzzing run coverage plus, per failure, the seed, stage,
/// diagnosis, and a reproduction command line.
///
/// # Errors
///
/// Returns the first schema violation.
pub fn validate_fuzz_report(v: &Json) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != "halo-fuzz-report/1" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    let seeds = require_num(v, "seeds")?;
    for k in ["start_seed", "ran", "skipped"] {
        require_num(v, k)?;
    }
    let ran = require_num(v, "ran")?;
    let skipped = require_num(v, "skipped")?;
    if ran + skipped > seeds {
        return Err(format!(
            "ran {ran} + skipped {skipped} exceeds seeds {seeds}"
        ));
    }
    if !matches!(v.get("pass_verify"), Some(Json::Bool(_))) {
        return Err("key 'pass_verify' must be a boolean".into());
    }
    let failures = v
        .get("failures")
        .and_then(Json::as_arr)
        .ok_or("missing array 'failures'".to_string())?;
    for (i, row) in failures.iter().enumerate() {
        let ctx = |e| format!("failures[{i}]: {e}");
        require_num(row, "seed").map_err(ctx)?;
        let stage = require_str(row, "stage").map_err(ctx)?;
        if stage == "pass-verify" {
            require_str(row, "pass").map_err(ctx)?;
        }
        require_str(row, "detail").map_err(ctx)?;
        let repro = require_str(row, "repro").map_err(ctx)?;
        if !repro.contains("--seed") {
            return Err(format!("failures[{i}]: repro lacks a --seed flag"));
        }
        require_num(row, "shrink_steps").map_err(ctx)?;
        require_str(row, "shrunk_spec").map_err(ctx)?;
    }
    Ok(())
}

/// Validates a `CRASH_REPORT.json` document (schema
/// `halo-crash-report/1`): the process-kill crash-resume matrix. Every
/// trial must carry its kind (`kill` = SIGKILL mid-run then resume,
/// `corrupt` = newest generation damaged then resume), the kill point,
/// resume telemetry, and the bit-identity verdict; the aggregate counts
/// must be consistent with the trial rows, and a green report has zero
/// aborts and zero failures.
///
/// # Errors
///
/// Returns the first schema violation.
pub fn validate_crash_report(v: &Json) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != "halo-crash-report/1" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    require_str(v, "bench")?;
    require_str(v, "scale")?;
    for k in ["iters", "snapshot_keep", "seeds", "wall_ms"] {
        require_num(v, k)?;
    }
    if require_num(v, "snapshot_keep")? < 2.0 {
        return Err("snapshot_keep must be >= 2 for generation fallback".into());
    }
    let passed = require_num(v, "passed")?;
    let failed = require_num(v, "failed")?;
    let aborts = require_num(v, "aborts")?;
    let trials = v
        .get("trials")
        .and_then(Json::as_arr)
        .ok_or("missing array 'trials'".to_string())?;
    if trials.is_empty() {
        return Err("'trials' must be non-empty".into());
    }
    let mut bit_identical = 0.0;
    let mut corrupt_trials = 0;
    for (i, row) in trials.iter().enumerate() {
        let ctx = |e| format!("trials[{i}]: {e}");
        let kind = require_str(row, "kind").map_err(ctx)?;
        if !matches!(kind, "kill" | "corrupt") {
            return Err(format!("trials[{i}]: unknown kind '{kind}'"));
        }
        require_num(row, "seed").map_err(ctx)?;
        require_num(row, "kill_point").map_err(ctx)?;
        require_num(row, "generations_at_resume").map_err(ctx)?;
        let resumes = require_num(row, "resumes_from_disk").map_err(ctx)?;
        let skipped = require_num(row, "corrupt_snapshots_skipped").map_err(ctx)?;
        match row.get("bit_identical") {
            Some(Json::Bool(ok)) => {
                if *ok {
                    bit_identical += 1.0;
                }
            }
            _ => return Err(format!("trials[{i}]: 'bit_identical' must be a boolean")),
        }
        if kind == "corrupt" {
            corrupt_trials += 1;
            if skipped < 1.0 {
                return Err(format!(
                    "trials[{i}]: corrupt trial must skip >= 1 generation, got {skipped}"
                ));
            }
            if resumes < 1.0 {
                return Err(format!(
                    "trials[{i}]: corrupt trial must fall back to an older generation"
                ));
            }
        }
    }
    if corrupt_trials == 0 {
        return Err("matrix must include at least one 'corrupt' trial".into());
    }
    if passed + failed != trials.len() as f64 {
        return Err(format!(
            "passed {passed} + failed {failed} does not cover {} trials",
            trials.len()
        ));
    }
    if bit_identical != passed {
        return Err(format!(
            "passed {passed} inconsistent with {bit_identical} bit-identical trials"
        ));
    }
    if failed > 0.0 || aborts > 0.0 {
        return Err(format!(
            "report is red: {failed} failed trials, {aborts} aborts"
        ));
    }
    Ok(())
}

/// Validates a `REMOTE_REPORT.json` document (schema
/// `halo-remote-report/1`): the seeded remote-fault campaign. Every trial
/// names its fault profile and kind (`run` = durable run through the
/// flaky `RemoteStore`, `resume` = continuation from the same store,
/// `resume_prefix` = continuation from a mid-run prefix of the remote's
/// objects), carries the remote-resilience telemetry, and reports the
/// bit-identity verdict; the aggregate counts must be consistent with the
/// trial rows, the campaign must actually have injected faults and
/// exercised both resume legs, and a green report has zero aborts and
/// zero failures.
///
/// # Errors
///
/// Returns the first schema violation.
pub fn validate_remote_report(v: &Json) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != "halo-remote-report/1" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    require_str(v, "bench")?;
    require_str(v, "scale")?;
    for k in ["iters", "seeds", "profiles", "wall_ms"] {
        require_num(v, k)?;
    }
    if require_num(v, "faults_injected")? < 1.0 {
        return Err("campaign injected no faults: the flaky remote was a no-op".into());
    }
    let passed = require_num(v, "passed")?;
    let failed = require_num(v, "failed")?;
    let aborts = require_num(v, "aborts")?;
    let trials = v
        .get("trials")
        .and_then(Json::as_arr)
        .ok_or("missing array 'trials'".to_string())?;
    if trials.is_empty() {
        return Err("'trials' must be non-empty".into());
    }
    let mut bit_identical = 0.0;
    let mut resumes = 0;
    let mut prefix_resumes = 0;
    let mut resilience_events = 0.0;
    for (i, row) in trials.iter().enumerate() {
        let ctx = |e| format!("trials[{i}]: {e}");
        require_str(row, "profile").map_err(ctx)?;
        require_num(row, "seed").map_err(ctx)?;
        let kind = require_str(row, "kind").map_err(ctx)?;
        match kind {
            "run" => {}
            "resume" => resumes += 1,
            "resume_prefix" => prefix_resumes += 1,
            _ => return Err(format!("trials[{i}]: unknown kind '{kind}'")),
        }
        require_num(row, "faults_injected").map_err(ctx)?;
        require_num(row, "snapshot_writes").map_err(ctx)?;
        for k in [
            "remote_puts",
            "remote_retries",
            "remote_backoff_us",
            "hedged_reads",
            "breaker_opens",
            "spilled_snapshots",
        ] {
            resilience_events += require_num(row, k).map_err(ctx)?;
        }
        match row.get("bit_identical") {
            Some(Json::Bool(ok)) => {
                if *ok {
                    bit_identical += 1.0;
                }
            }
            _ => return Err(format!("trials[{i}]: 'bit_identical' must be a boolean")),
        }
    }
    if resumes == 0 || prefix_resumes == 0 {
        return Err(format!(
            "campaign must exercise both resume legs (got {resumes} resume, \
             {prefix_resumes} resume_prefix trials)"
        ));
    }
    if resilience_events < 1.0 {
        return Err("no trial recorded any resilience telemetry: the stack never engaged".into());
    }
    if passed + failed != trials.len() as f64 {
        return Err(format!(
            "passed {passed} + failed {failed} does not cover {} trials",
            trials.len()
        ));
    }
    if bit_identical != passed {
        return Err(format!(
            "passed {passed} inconsistent with {bit_identical} bit-identical trials"
        ));
    }
    if failed > 0.0 || aborts > 0.0 {
        return Err(format!(
            "report is red: {failed} failed trials, {aborts} aborts"
        ));
    }
    Ok(())
}

/// Validates a `FLEET_REPORT.json` document (schema
/// `halo-fleet-report/1`): the fenced lease-based fleet campaign. Every
/// trial names its fault profile, carries the fleet telemetry (legs
/// claimed, leases expired, zombie writes fenced, legs reassigned,
/// coordinator resumes, executor crashes and stalls), and reports the
/// bit-identity verdict against the solo uninterrupted run. A green
/// report has zero aborts, zero failures, at least eight fault profiles,
/// and a campaign that provably exercised the failure machinery: at
/// least one fenced zombie write, one lease expiry with reassignment,
/// one executor crash, and one coordinator resume somewhere in the
/// trial set.
///
/// # Errors
///
/// Returns the first schema violation.
pub fn validate_fleet_report(v: &Json) -> Result<(), String> {
    let schema = require_str(v, "schema")?;
    if schema != "halo-fleet-report/1" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    require_str(v, "bench")?;
    require_str(v, "scale")?;
    for k in [
        "iters",
        "seeds",
        "profiles",
        "executors",
        "leg_len",
        "wall_ms",
    ] {
        require_num(v, k)?;
    }
    if require_num(v, "profiles")? < 8.0 {
        return Err("campaign must cover at least 8 fault profiles".into());
    }
    let passed = require_num(v, "passed")?;
    let failed = require_num(v, "failed")?;
    let aborts = require_num(v, "aborts")?;
    let trials = v
        .get("trials")
        .and_then(Json::as_arr)
        .ok_or("missing array 'trials'".to_string())?;
    if trials.is_empty() {
        return Err("'trials' must be non-empty".into());
    }
    let mut bit_identical = 0.0;
    let mut fenced = 0.0;
    let mut expired = 0.0;
    let mut reassigned = 0.0;
    let mut crashes = 0.0;
    let mut resumes = 0.0;
    for (i, row) in trials.iter().enumerate() {
        let ctx = |e| format!("trials[{i}]: {e}");
        require_str(row, "profile").map_err(ctx)?;
        require_num(row, "seed").map_err(ctx)?;
        if require_num(row, "legs").map_err(ctx)? < 2.0 {
            return Err(format!(
                "trials[{i}]: the job must shard into at least 2 legs"
            ));
        }
        require_num(row, "ticks").map_err(ctx)?;
        if require_num(row, "legs_claimed").map_err(ctx)? < 1.0 {
            return Err(format!("trials[{i}]: no leg was ever claimed"));
        }
        require_num(row, "snapshot_writes").map_err(ctx)?;
        require_num(row, "remote_puts").map_err(ctx)?;
        require_num(row, "executor_stalls").map_err(ctx)?;
        fenced += require_num(row, "zombie_writes_fenced").map_err(ctx)?;
        expired += require_num(row, "leases_expired").map_err(ctx)?;
        reassigned += require_num(row, "legs_reassigned").map_err(ctx)?;
        crashes += require_num(row, "executor_crashes").map_err(ctx)?;
        resumes += require_num(row, "coordinator_resumes").map_err(ctx)?;
        match row.get("bit_identical") {
            Some(Json::Bool(ok)) => {
                if *ok {
                    bit_identical += 1.0;
                }
            }
            _ => return Err(format!("trials[{i}]: 'bit_identical' must be a boolean")),
        }
    }
    if fenced < 1.0 {
        return Err("no trial fenced a zombie write: the fencing machinery never engaged".into());
    }
    if expired < 1.0 || reassigned < 1.0 {
        return Err(format!(
            "campaign must observe lease expiry and reassignment \
             (got {expired} expiries, {reassigned} reassignments)"
        ));
    }
    if crashes < 1.0 {
        return Err("no executor ever crashed: the kill machinery never engaged".into());
    }
    if resumes < 1.0 {
        return Err("no coordinator restart was exercised".into());
    }
    if passed + failed != trials.len() as f64 {
        return Err(format!(
            "passed {passed} + failed {failed} does not cover {} trials",
            trials.len()
        ));
    }
    if bit_identical != passed {
        return Err(format!(
            "passed {passed} inconsistent with {bit_identical} bit-identical trials"
        ));
    }
    if failed > 0.0 || aborts > 0.0 {
        return Err(format!(
            "report is red: {failed} failed trials, {aborts} aborts"
        ));
    }
    Ok(())
}

/// Builds an object from key/value pairs (emit-side convenience).
#[must_use]
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Shorthand for a numeric member.
#[must_use]
pub fn num(x: f64) -> Json {
    Json::Num(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_parser() {
        let doc = obj(vec![
            ("schema", Json::Str("x/1".into())),
            ("count", num(3.0)),
            ("frac", num(0.125)),
            ("name", Json::Str("a \"b\"\nc".into())),
            (
                "items",
                Json::Arr(vec![num(1.0), Json::Null, Json::Bool(true)]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = doc.pretty();
        assert!(text.ends_with('\n'));
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "{} x", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn integers_emit_without_decimal_point() {
        assert_eq!(Json::Num(42.0).pretty().trim(), "42");
        assert_eq!(Json::Num(0.5).pretty().trim(), "0.5");
        assert_eq!(Json::Num(f64::NAN).pretty().trim(), "null");
    }

    fn rotate_doc(hoist_dec: f64) -> Json {
        let counters = |dec: f64| {
            obj(vec![
                ("poly_allocs", num(100.0)),
                ("digit_decomposes", num(dec)),
                ("digit_ntt_rows", num(80.0)),
            ])
        };
        obj(vec![
            ("schema", Json::Str("halo-bench-rotate/1".into())),
            ("n", num(4096.0)),
            ("levels", num(8.0)),
            ("batch", num(8.0)),
            ("reps", num(10.0)),
            ("threads", num(4.0)),
            ("sequential_us", num(800.0)),
            ("hoisted_us", num(400.0)),
            ("speedup", num(2.0)),
            ("sequential", counters(8.0)),
            ("hoisted", counters(hoist_dec)),
        ])
    }

    #[test]
    fn rotate_schema_validates_and_rejects() {
        validate_rotate(&rotate_doc(1.0)).unwrap();
        // Hoisted path decomposing as often as sequential is a regression.
        assert!(validate_rotate(&rotate_doc(8.0)).is_err());
        // Missing keys are caught.
        assert!(validate_rotate(&obj(vec![(
            "schema",
            Json::Str("halo-bench-rotate/1".into())
        )]))
        .is_err());
    }

    fn ntt_doc(mult_us: f64, lazy_skipped: f64) -> Json {
        obj(vec![
            ("schema", Json::Str("halo-bench-ntt/2".into())),
            ("n", num(4096.0)),
            ("levels", num(8.0)),
            ("reps", num(50.0)),
            ("threads", num(4.0)),
            ("ntt_ns_per_limb", num(3000.0)),
            ("mult_us", num(mult_us)),
            ("lazy_reductions_skipped", num(lazy_skipped)),
        ])
    }

    #[test]
    fn ntt_schema_validates_and_rejects() {
        validate_ntt(&ntt_doc(1000.0, 1_000_000.0)).unwrap();
        // A run that never deferred a reduction measured the wrong code.
        assert!(validate_ntt(&ntt_doc(1000.0, 0.0)).is_err());
        // Timings must be positive.
        assert!(validate_ntt(&ntt_doc(0.0, 1.0)).is_err());
        // The v1 layout (eager and lazy columns) is a different schema.
        let mut v1 = ntt_doc(1000.0, 1.0);
        if let Json::Obj(members) = &mut v1 {
            members[0].1 = Json::Str("halo-bench-ntt/1".into());
        }
        assert!(validate_ntt(&v1).is_err());
        // Missing keys are caught.
        assert!(
            validate_ntt(&obj(vec![("schema", Json::Str("halo-bench-ntt/2".into()))])).is_err()
        );
    }

    #[test]
    fn run_all_schema_validates_and_rejects() {
        let row = obj(vec![
            ("bench", Json::Str("linear".into())),
            ("config", Json::Str("Halo".into())),
            ("bootstraps", num(3.0)),
            ("total_us", num(1000.0)),
            ("bootstrap_us", num(900.0)),
        ]);
        let doc = obj(vec![
            ("schema", Json::Str("halo-bench-run-all/1".into())),
            ("scale", Json::Str("Small".into())),
            ("iters", num(40.0)),
            ("wall_ms", num(12.5)),
            ("poly_allocs", num(0.0)),
            ("benchmarks", Json::Arr(vec![row])),
        ]);
        validate_run_all(&doc).unwrap();
        let empty = obj(vec![
            ("schema", Json::Str("halo-bench-run-all/1".into())),
            ("scale", Json::Str("Small".into())),
            ("iters", num(40.0)),
            ("wall_ms", num(12.5)),
            ("poly_allocs", num(0.0)),
            ("benchmarks", Json::Arr(vec![])),
        ]);
        assert!(validate_run_all(&empty).is_err());
    }

    fn serving_row(batch: f64, packed: f64, speedup: f64) -> Json {
        obj(vec![
            ("batch", num(batch)),
            ("jobs", num(128.0)),
            ("packed_batches", num(packed)),
            ("jobs_per_sec", num(10.0 * speedup)),
            ("p50_us", num(5_000.0 / speedup)),
            ("p99_us", num(9_000.0 / speedup)),
            ("makespan_us", num(1_000_000.0 / speedup)),
            ("speedup_vs_solo", num(speedup)),
        ])
    }

    fn serve_doc(rows: Vec<Json>, speedup_at_16: f64) -> Json {
        obj(vec![
            ("schema", Json::Str("halo-bench-serve/1".into())),
            ("bench", Json::Str("square_iter".into())),
            ("scale", Json::Str("Small".into())),
            ("seed", num(1.0)),
            ("jobs", num(128.0)),
            ("sessions", num(4.0)),
            ("workers", num(4.0)),
            ("iters", num(6.0)),
            ("slots", num(4096.0)),
            ("width", num(64.0)),
            ("rows", Json::Arr(rows)),
            ("speedup_at_16", num(speedup_at_16)),
        ])
    }

    #[test]
    fn serve_schema_validates_and_rejects() {
        let green_rows = vec![
            serving_row(1.0, 0.0, 1.0),
            serving_row(4.0, 32.0, 3.9),
            serving_row(16.0, 8.0, 15.2),
            serving_row(64.0, 2.0, 58.0),
        ];
        validate_serve(&serve_doc(green_rows.clone(), 15.2)).unwrap();

        // Batch-16 speedup below the 10x bar is red.
        let slow_rows = vec![serving_row(1.0, 0.0, 1.0), serving_row(16.0, 8.0, 4.0)];
        assert!(validate_serve(&serve_doc(slow_rows, 4.0)).is_err());

        // A batched row that never coalesced measured solo execution.
        let uncoalesced = vec![serving_row(1.0, 0.0, 1.0), serving_row(16.0, 0.0, 15.0)];
        assert!(validate_serve(&serve_doc(uncoalesced, 15.0)).is_err());

        // The headline number must match its row.
        assert!(validate_serve(&serve_doc(green_rows.clone(), 12.0)).is_err());

        // Missing the solo baseline row is red.
        let no_solo = vec![serving_row(16.0, 8.0, 15.0)];
        assert!(validate_serve(&serve_doc(no_solo, 15.0)).is_err());

        // p50 above p99 is incoherent.
        let mut bad_row = serving_row(16.0, 8.0, 15.0);
        if let Json::Obj(members) = &mut bad_row {
            for (k, v) in members.iter_mut() {
                if k == "p50_us" {
                    *v = num(1e9);
                }
            }
        }
        assert!(
            validate_serve(&serve_doc(vec![serving_row(1.0, 0.0, 1.0), bad_row], 15.0)).is_err()
        );

        // Missing keys are caught.
        assert!(validate_serve(&obj(vec![(
            "schema",
            Json::Str("halo-bench-serve/1".into())
        )]))
        .is_err());
    }

    #[test]
    fn run_all_serving_section_is_checked_when_present() {
        let bench_row = obj(vec![
            ("bench", Json::Str("linear".into())),
            ("config", Json::Str("Halo".into())),
            ("bootstraps", num(3.0)),
            ("total_us", num(1000.0)),
            ("bootstrap_us", num(900.0)),
        ]);
        let with_serving = |rows: Vec<Json>| {
            obj(vec![
                ("schema", Json::Str("halo-bench-run-all/1".into())),
                ("scale", Json::Str("Small".into())),
                ("iters", num(40.0)),
                ("wall_ms", num(12.5)),
                ("poly_allocs", num(0.0)),
                ("benchmarks", Json::Arr(vec![bench_row.clone()])),
                ("serving", Json::Arr(rows)),
            ])
        };
        validate_run_all(&with_serving(vec![
            serving_row(1.0, 0.0, 1.0),
            serving_row(16.0, 8.0, 15.0),
        ]))
        .unwrap();
        // An empty or malformed serving section is red.
        assert!(validate_run_all(&with_serving(vec![])).is_err());
        assert!(validate_run_all(&with_serving(vec![serving_row(16.0, 0.0, 15.0)])).is_err());
    }

    fn tune_row(program: &str, halo: f64, tuned: f64, evaluated: f64, pruned: f64) -> Json {
        obj(vec![
            ("program", Json::Str(program.into())),
            ("seed", num(7.0)),
            (
                "plan",
                Json::Str("unroll=heur pack=on peel=+0 tune=on".into()),
            ),
            ("halo_us", num(halo)),
            ("tuned_us", num(tuned)),
            ("gap", num(halo / tuned)),
            ("evaluated", num(evaluated)),
            ("pruned", num(pruned)),
            ("space", num(evaluated + pruned)),
        ])
    }

    fn tune_doc(rows: Vec<Json>, improved: f64, geomean_gap: f64) -> Json {
        obj(vec![
            ("schema", Json::Str("halo-bench-tune/1".into())),
            ("tuner", Json::Str("branch-bound".into())),
            ("seeds", num(rows.len() as f64)),
            ("assumed_trips", num(40.0)),
            ("wall_ms", num(1234.0)),
            ("rows", Json::Arr(rows)),
            ("improved", num(improved)),
            ("geomean_gap", num(geomean_gap)),
        ])
    }

    #[test]
    fn tune_schema_validates_and_rejects() {
        let green = vec![
            tune_row("fuzz-0", 1000.0, 800.0, 10.0, 30.0),
            tune_row("fuzz-1", 500.0, 500.0, 40.0, 0.0),
        ];
        let geomean = (1000.0f64 / 800.0).sqrt();
        validate_tune(&tune_doc(green.clone(), 1.0, geomean)).unwrap();

        // A tuned plan costlier than the HALO heuristic breaks the
        // optimality contract.
        let worse = vec![tune_row("fuzz-0", 1000.0, 1100.0, 10.0, 0.0)];
        assert!(validate_tune(&tune_doc(worse, 0.0, 1000.0 / 1100.0)).is_err());

        // No strict improvement anywhere is red (the acceptance bar).
        let flat = vec![tune_row("fuzz-0", 500.0, 500.0, 10.0, 0.0)];
        assert!(validate_tune(&tune_doc(flat, 0.0, 1.0)).is_err());

        // The improved counter must match the rows.
        assert!(validate_tune(&tune_doc(green.clone(), 2.0, geomean)).is_err());

        // The geomean must match the rows.
        assert!(validate_tune(&tune_doc(green.clone(), 1.0, 9.0)).is_err());

        // Search accounting must cover the whole space.
        let mut bad_row = tune_row("fuzz-0", 1000.0, 800.0, 10.0, 30.0);
        if let Json::Obj(members) = &mut bad_row {
            for (k, v) in members.iter_mut() {
                if k == "space" {
                    *v = num(99.0);
                }
            }
        }
        assert!(validate_tune(&tune_doc(vec![bad_row], 1.0, 1000.0 / 800.0)).is_err());

        // Missing keys are caught.
        assert!(validate_tune(&obj(vec![(
            "schema",
            Json::Str("halo-bench-tune/1".into())
        )]))
        .is_err());
    }

    #[test]
    fn run_all_tuning_section_is_checked_when_present() {
        let bench_row = obj(vec![
            ("bench", Json::Str("linear".into())),
            ("config", Json::Str("Halo".into())),
            ("bootstraps", num(3.0)),
            ("total_us", num(1000.0)),
            ("bootstrap_us", num(900.0)),
        ]);
        let with_tuning = |rows: Vec<Json>| {
            obj(vec![
                ("schema", Json::Str("halo-bench-run-all/1".into())),
                ("scale", Json::Str("Small".into())),
                ("iters", num(40.0)),
                ("wall_ms", num(12.5)),
                ("poly_allocs", num(0.0)),
                ("benchmarks", Json::Arr(vec![bench_row.clone()])),
                ("tuning", Json::Arr(rows)),
            ])
        };
        validate_run_all(&with_tuning(vec![tune_row(
            "linear", 1000.0, 900.0, 8.0, 4.0,
        )]))
        .unwrap();
        // An empty or contract-breaking tuning section is red.
        assert!(validate_run_all(&with_tuning(vec![])).is_err());
        assert!(validate_run_all(&with_tuning(vec![tune_row(
            "linear", 100.0, 200.0, 8.0, 0.0
        )]))
        .is_err());
    }

    fn crash_trial(kind: &str, ok: bool, skipped: f64) -> Json {
        obj(vec![
            ("kind", Json::Str(kind.into())),
            ("seed", num(1.0)),
            ("kill_point", num(4.0)),
            ("generations_at_resume", num(3.0)),
            ("resumes_from_disk", num(1.0)),
            ("corrupt_snapshots_skipped", num(skipped)),
            ("bit_identical", Json::Bool(ok)),
        ])
    }

    fn crash_doc(trials: Vec<Json>, passed: f64, failed: f64, aborts: f64) -> Json {
        obj(vec![
            ("schema", Json::Str("halo-crash-report/1".into())),
            ("bench", Json::Str("linear".into())),
            ("scale", Json::Str("small".into())),
            ("iters", num(12.0)),
            ("snapshot_keep", num(3.0)),
            ("seeds", num(2.0)),
            ("wall_ms", num(900.0)),
            ("passed", num(passed)),
            ("failed", num(failed)),
            ("aborts", num(aborts)),
            ("trials", Json::Arr(trials)),
        ])
    }

    #[test]
    fn crash_report_schema_validates_and_rejects() {
        let green = crash_doc(
            vec![
                crash_trial("kill", true, 0.0),
                crash_trial("corrupt", true, 1.0),
            ],
            2.0,
            0.0,
            0.0,
        );
        validate_crash_report(&green).unwrap();

        // A diverged trial makes the report red.
        let red = crash_doc(
            vec![
                crash_trial("kill", false, 0.0),
                crash_trial("corrupt", true, 1.0),
            ],
            1.0,
            1.0,
            0.0,
        );
        assert!(validate_crash_report(&red).is_err());

        // Any abort is red even if outputs matched.
        let aborted = crash_doc(
            vec![
                crash_trial("kill", true, 0.0),
                crash_trial("corrupt", true, 1.0),
            ],
            2.0,
            0.0,
            1.0,
        );
        assert!(validate_crash_report(&aborted).is_err());

        // A corrupt trial that did not fall back is a lie.
        let no_fallback = crash_doc(
            vec![
                crash_trial("kill", true, 0.0),
                crash_trial("corrupt", true, 0.0),
            ],
            2.0,
            0.0,
            0.0,
        );
        assert!(validate_crash_report(&no_fallback).is_err());

        // The matrix must exercise the corruption leg at all.
        let kills_only = crash_doc(vec![crash_trial("kill", true, 0.0)], 1.0, 0.0, 0.0);
        assert!(validate_crash_report(&kills_only).is_err());

        // Aggregate counters must cover the trial rows.
        let bad_counts = crash_doc(
            vec![
                crash_trial("kill", true, 0.0),
                crash_trial("corrupt", true, 1.0),
            ],
            5.0,
            0.0,
            0.0,
        );
        assert!(validate_crash_report(&bad_counts).is_err());
    }

    fn fuzz_doc(failures: Vec<Json>) -> Json {
        obj(vec![
            ("schema", Json::Str("halo-fuzz-report/1".into())),
            ("seeds", num(32.0)),
            ("start_seed", num(0.0)),
            ("ran", num(30.0)),
            ("skipped", num(2.0)),
            ("pass_verify", Json::Bool(true)),
            ("failures", Json::Arr(failures)),
        ])
    }

    #[test]
    fn fuzz_report_schema_validates_and_rejects() {
        // Green run: empty failures.
        validate_fuzz_report(&fuzz_doc(vec![])).unwrap();
        // Red run with a localized pass-verify failure.
        let failure = obj(vec![
            ("seed", num(17.0)),
            ("stage", Json::Str("pass-verify".into())),
            ("pass", Json::Str("peel".into())),
            ("detail", Json::Str("arity mismatch".into())),
            (
                "repro",
                Json::Str("cargo run -p halo-fuzz -- --seed 17".into()),
            ),
            ("shrink_steps", num(4.0)),
            ("shrunk_size", num(9.0)),
            ("shrunk_spec", Json::Str("ProgramSpec { .. }".into())),
        ]);
        validate_fuzz_report(&fuzz_doc(vec![failure.clone()])).unwrap();
        // A pass-verify failure without its pass name is invalid.
        let mut no_pass = failure.clone();
        if let Json::Obj(members) = &mut no_pass {
            members.retain(|(k, _)| k != "pass");
        }
        assert!(validate_fuzz_report(&fuzz_doc(vec![no_pass])).is_err());
        // A repro line that can't reproduce (no seed) is invalid.
        let mut no_seed = failure;
        if let Json::Obj(members) = &mut no_seed {
            for (k, v) in members.iter_mut() {
                if k == "repro" {
                    *v = Json::Str("cargo run -p halo-fuzz".into());
                }
            }
        }
        assert!(validate_fuzz_report(&fuzz_doc(vec![no_seed])).is_err());
        // Coverage accounting must be consistent.
        let mut bad_counts = fuzz_doc(vec![]);
        if let Json::Obj(members) = &mut bad_counts {
            for (k, v) in members.iter_mut() {
                if k == "ran" {
                    *v = num(33.0);
                }
            }
        }
        assert!(validate_fuzz_report(&bad_counts).is_err());
        // Wrong schema string.
        let mut wrong = fuzz_doc(vec![]);
        if let Json::Obj(members) = &mut wrong {
            for (k, v) in members.iter_mut() {
                if k == "schema" {
                    *v = Json::Str("halo-fuzz-report/2".into());
                }
            }
        }
        assert!(validate_fuzz_report(&wrong).is_err());
    }

    fn remote_trial(kind: &str, ok: bool, retries: f64) -> Json {
        obj(vec![
            ("profile", Json::Str("chaos".into())),
            ("seed", num(1.0)),
            ("kind", Json::Str(kind.into())),
            ("faults_injected", num(3.0)),
            ("snapshot_writes", num(6.0)),
            ("remote_puts", num(5.0)),
            ("remote_retries", num(retries)),
            ("remote_backoff_us", num(4200.0)),
            ("hedged_reads", num(1.0)),
            ("breaker_opens", num(0.0)),
            ("spilled_snapshots", num(1.0)),
            ("bit_identical", Json::Bool(ok)),
        ])
    }

    fn remote_doc(trials: Vec<Json>, passed: f64, failed: f64, aborts: f64) -> Json {
        obj(vec![
            ("schema", Json::Str("halo-remote-report/1".into())),
            ("bench", Json::Str("linear".into())),
            ("scale", Json::Str("small".into())),
            ("iters", num(12.0)),
            ("seeds", num(1.0)),
            ("profiles", num(6.0)),
            ("wall_ms", num(700.0)),
            ("faults_injected", num(9.0)),
            ("passed", num(passed)),
            ("failed", num(failed)),
            ("aborts", num(aborts)),
            ("trials", Json::Arr(trials)),
        ])
    }

    fn full_remote_matrix(ok: bool) -> Vec<Json> {
        vec![
            remote_trial("run", ok, 2.0),
            remote_trial("resume", ok, 2.0),
            remote_trial("resume_prefix", ok, 2.0),
        ]
    }

    #[test]
    fn remote_report_schema_validates_and_rejects() {
        validate_remote_report(&remote_doc(full_remote_matrix(true), 3.0, 0.0, 0.0)).unwrap();

        // A diverged trial makes the report red.
        let mut mixed = full_remote_matrix(true);
        mixed[1] = remote_trial("resume", false, 2.0);
        assert!(validate_remote_report(&remote_doc(mixed, 2.0, 1.0, 0.0)).is_err());

        // Any abort is red even if outputs matched.
        assert!(
            validate_remote_report(&remote_doc(full_remote_matrix(true), 3.0, 0.0, 1.0)).is_err()
        );

        // Both resume legs are mandatory.
        let runs_only = vec![
            remote_trial("run", true, 2.0),
            remote_trial("run", true, 2.0),
        ];
        assert!(validate_remote_report(&remote_doc(runs_only, 2.0, 0.0, 0.0)).is_err());

        // Aggregate counters must cover the trial rows.
        assert!(
            validate_remote_report(&remote_doc(full_remote_matrix(true), 7.0, 0.0, 0.0)).is_err()
        );

        // A campaign that injected no faults validated nothing.
        let mut tame = remote_doc(full_remote_matrix(true), 3.0, 0.0, 0.0);
        if let Json::Obj(members) = &mut tame {
            for (k, v) in members.iter_mut() {
                if k == "faults_injected" {
                    *v = num(0.0);
                }
            }
        }
        assert!(validate_remote_report(&tame).is_err());

        // Unknown trial kinds are rejected.
        let mut weird = full_remote_matrix(true);
        weird.push(remote_trial("teleport", true, 0.0));
        assert!(validate_remote_report(&remote_doc(weird, 4.0, 0.0, 0.0)).is_err());
    }
}
