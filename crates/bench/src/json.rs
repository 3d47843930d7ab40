//! Minimal dependency-free JSON: a value tree, an emitter, a
//! recursive-descent parser, and one schema table that validates all nine
//! machine-readable bench artifacts (`results/*.json`).
//!
//! The workspace deliberately vendors no serde; the bench trajectory only
//! needs flat objects of numbers and strings, so a ~200-line JSON core
//! keeps the artifact format honest (CI round-trips every emitted file
//! through this parser before accepting it).
//!
//! Each artifact has one [`Schema`] entry: its file name, its schema id,
//! its typed fields (row arrays carry typed row fields) and a few closures
//! for the rules that span fields. `bench_json_check` finds an entry by
//! file name; every emitter self-checks through [`validate`] by schema id.

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
                // Copy the run up to the next quote or backslash at once,
                // validating only that run: both are ASCII, so never part
                // of a multi-byte character.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |i| *pos + i);
                out.push_str(std::str::from_utf8(&b[*pos..end]).map_err(|e| e.to_string())?);
                *pos = end;
            }
        }
    }
}

/// A cross-field rule: the violation it names, and a predicate over a
/// value whose fields the table has already checked.
type Rule = (&'static str, fn(&Json) -> bool);

/// A field: its key and what its value must be.
type Field = (&'static str, Ty);

/// What a field's value must be.
enum Ty {
    /// A string.
    Str,
    /// One of these strings.
    OneOf(&'static [&'static str]),
    /// `true` or `false`.
    Bool,
    /// A finite number at least this bound.
    Min(f64),
    /// A finite number above 0.
    Pos,
    /// An object with these fields.
    Obj(&'static [Field]),
    /// An array of rows.
    Arr(&'static Rows),
    /// Absent, or what the inner type says.
    Opt(&'static Ty),
}

use Ty::{Arr, Bool, Min, Obj, OneOf, Opt, Pos, Str};

/// A finite number `>= 0`: every numeric field is at least this.
const NUM: Ty = Min(0.0);

/// A row array: the fields of every row and the rules over them.
struct Rows {
    /// Fewest rows accepted.
    min: usize,
    /// Typed fields of every row.
    fields: &'static [Field],
    /// Rules over one row, run once its fields passed.
    each: &'static [Rule],
    /// Rules over the whole array, run once every row passed.
    all: &'static [Rule],
}

/// One artifact's entry in the schema table.
pub struct Schema {
    /// File name under the bench JSON directory.
    pub(crate) file: &'static str,
    /// Value of the document's `schema` field.
    id: &'static str,
    /// Typed top-level fields.
    fields: &'static [Field],
    /// Cross-field rules, run once every field passed.
    rules: &'static [Rule],
}

impl Schema {
    /// The entry for the artifact file `name`.
    #[must_use]
    pub fn by_file(name: &str) -> Option<&'static Schema> {
        SCHEMAS.iter().find(|s| s.file == name)
    }

    /// The entry whose schema id is `id`.
    pub(crate) fn by_id(id: &str) -> Option<&'static Schema> {
        SCHEMAS.iter().find(|s| s.id == id)
    }

    /// Validates `doc` against this entry.
    ///
    /// # Errors
    ///
    /// Returns the first violation.
    pub fn check(&self, doc: &Json) -> Result<(), String> {
        if doc.get("schema").and_then(Json::as_str) != Some(self.id) {
            return Err(format!("'schema' must be '{}'", self.id));
        }
        check_fields(doc, self.fields)?;
        apply(self.rules, doc)
    }
}

/// Validates `doc` against the schema whose id is `id`: the self-check
/// every emitter runs before it writes an artifact.
///
/// # Errors
///
/// Returns the first violation, or names an unknown id.
pub fn validate(id: &str, doc: &Json) -> Result<(), String> {
    Schema::by_id(id)
        .ok_or(format!("no schema '{id}'"))?
        .check(doc)
}

fn check_fields(v: &Json, fields: &[Field]) -> Result<(), String> {
    for (key, ty) in fields {
        check_value(v.get(key), ty).map_err(|e| format!("'{key}': {e}"))?;
    }
    Ok(())
}

fn check_value(v: Option<&Json>, ty: &Ty) -> Result<(), String> {
    let ok = match (ty, v) {
        (Opt(_), None) => true,
        (Opt(ty), v) => return check_value(v, ty),
        (_, None) => return Err("missing".into()),
        (Obj(fields), Some(v @ Json::Obj(_))) => return check_fields(v, fields),
        (Arr(rows), Some(v @ Json::Arr(_))) => return rows.check(v),
        (Str, Some(Json::Str(_))) | (Bool, Some(Json::Bool(_))) => true,
        (OneOf(names), Some(Json::Str(s))) => names.contains(&s.as_str()),
        (Min(min), Some(Json::Num(x))) => x.is_finite() && x >= min,
        (Pos, Some(Json::Num(x))) => x.is_finite() && *x > 0.0,
        _ => false,
    };
    if ok {
        return Ok(());
    }
    Err(match ty {
        Str => "must be a string".into(),
        OneOf(names) => format!("must be one of {names:?}"),
        Bool => "must be a boolean".into(),
        Min(min) => format!("must be a finite number >= {min}"),
        Pos => "must be a finite number > 0".into(),
        Obj(_) => "must be an object".into(),
        Arr(_) | Opt(_) => "must be an array".into(),
    })
}

impl Rows {
    fn check(&self, arr: &Json) -> Result<(), String> {
        let rows = items(arr);
        if rows.len() < self.min {
            return Err(format!("needs at least {} row(s)", self.min));
        }
        for (i, row) in rows.iter().enumerate() {
            check_fields(row, self.fields)
                .and_then(|()| apply(self.each, row))
                .map_err(|e| format!("row [{i}]: {e}"))?;
        }
        apply(self.all, arr)
    }
}

fn apply(rules: &[Rule], v: &Json) -> Result<(), String> {
    match rules.iter().find(|(_, holds)| !holds(v)) {
        Some((violation, _)) => Err((*violation).into()),
        None => Ok(()),
    }
}

/// `a` equals `b` up to `rel`, relative to `a` (absolute below 1).
fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.max(1.0)
}

/// The value at the dotted `path`, which the field table has already
/// checked; rules read fields only through these accessors.
fn at<'j>(v: &'j Json, path: &str) -> &'j Json {
    path.split('.')
        .try_fold(v, Json::get)
        .expect("field checked by the table")
}

fn n(v: &Json, path: &str) -> f64 {
    at(v, path).as_num().expect("number checked by the table")
}

fn text<'j>(v: &'j Json, path: &str) -> &'j str {
    at(v, path).as_str().expect("string checked by the table")
}

fn items(v: &Json) -> &[Json] {
    v.as_arr().expect("array checked by the table")
}

/// The trials' values under `keys`, summed: a campaign must exercise the
/// machinery it reports on.
fn sum(trials: &Json, keys: &[&str]) -> f64 {
    items(trials)
        .iter()
        .flat_map(|t| keys.iter().map(move |k| n(t, k)))
        .sum()
}

/// The rules every campaign report shares: `passed + failed` covers the
/// trials, `passed` counts exactly the bit-identical ones, and a green
/// report has no failed trial and no abort.
const CAMPAIGN_TOTALS: &[Rule] = &[
    ("passed + failed does not cover the trials", |v| {
        n(v, "passed") + n(v, "failed") == items(at(v, "trials")).len() as f64
    }),
    ("passed differs from the bit-identical trial count", |v| {
        let trials = items(at(v, "trials"));
        let identical = trials
            .iter()
            .filter(|t| t.get("bit_identical") == Some(&Json::Bool(true)));
        n(v, "passed") == identical.count() as f64
    }),
    ("report is red: a trial failed or aborted", |v| {
        n(v, "failed") == 0.0 && n(v, "aborts") == 0.0
    }),
];

/// Counter snapshot of one rotation path in `BENCH_ROTATE.json`.
const COUNTERS: &[Field] = &[
    ("poly_allocs", NUM),
    ("digit_decomposes", NUM),
    ("digit_ntt_rows", NUM),
];

/// One benchmark × configuration of `BENCH_RUN_ALL.json`.
const BENCH_ROWS: Rows = Rows {
    min: 1,
    fields: &[
        ("bench", Str),
        ("config", Str),
        ("bootstraps", NUM),
        ("total_us", NUM),
        ("bootstrap_us", NUM),
    ],
    each: &[("bootstrap_us exceeds total_us", |r| {
        n(r, "bootstrap_us") <= n(r, "total_us")
    })],
    all: &[],
};

/// One swept maximum batch size of the serving campaign
/// (`BENCH_SERVE.json`, and `BENCH_RUN_ALL.json`'s `serving`): modeled
/// latency percentiles and the batched-vs-solo throughput ratio, against
/// the batch-1 row.
const SERVING_ROWS: Rows = Rows {
    min: 1,
    fields: &[
        ("batch", Min(1.0)),
        ("jobs", Min(1.0)),
        ("packed_batches", NUM),
        ("jobs_per_sec", Pos),
        ("p50_us", NUM),
        ("p99_us", NUM),
        ("makespan_us", Pos),
        ("speedup_vs_solo", NUM),
    ],
    each: &[
        ("a batched run never coalesced", |r| {
            n(r, "batch") <= 1.0 || n(r, "packed_batches") >= 1.0
        }),
        ("p50_us exceeds p99_us", |r| {
            n(r, "p50_us") <= n(r, "p99_us")
        }),
        ("the solo row's speedup must be 1", |r| {
            n(r, "batch") != 1.0 || (n(r, "speedup_vs_solo") - 1.0).abs() <= 1e-9
        }),
    ],
    all: &[("no batch-1 (solo baseline) row", |rows| {
        items(rows).iter().any(|r| n(r, "batch") == 1.0)
    })],
};

/// One program of the autotuner sweep (`BENCH_TUNE.json`, and
/// `BENCH_RUN_ALL.json`'s `tuning`): the HALO heuristic's modeled cost,
/// the tuned plan's, and the search accounting. A tuned plan never models
/// costlier than the heuristic, and the search covers its whole space.
const TUNE_ROWS: Rows = Rows {
    min: 1,
    fields: &[
        ("program", Str),
        ("plan", Str),
        ("halo_us", Pos),
        ("tuned_us", Pos),
        ("gap", NUM),
        ("evaluated", Min(1.0)),
        ("pruned", NUM),
        ("space", NUM),
    ],
    each: &[
        (
            "the tuned plan models costlier than the HALO heuristic",
            |r| n(r, "tuned_us") <= n(r, "halo_us") * (1.0 + 1e-9),
        ),
        ("gap is not halo_us / tuned_us", |r| {
            close(n(r, "gap"), n(r, "halo_us") / n(r, "tuned_us"), 1e-6)
        }),
        ("evaluated + pruned does not cover space", |r| {
            n(r, "evaluated") + n(r, "pruned") == n(r, "space")
        }),
    ],
    all: &[],
};

/// One differential-fuzzing failure: seed, stage, diagnosis and a
/// reproduction command line.
const FAILURES: Rows = Rows {
    min: 0,
    fields: &[
        ("seed", NUM),
        ("stage", Str),
        ("detail", Str),
        ("repro", Str),
        ("shrink_steps", NUM),
        ("shrunk_spec", Str),
    ],
    each: &[
        ("a pass-verify failure must name its pass", |r| {
            text(r, "stage") != "pass-verify" || r.get("pass").and_then(Json::as_str).is_some()
        }),
        ("repro lacks a --seed flag", |r| {
            text(r, "repro").contains("--seed")
        }),
    ],
    all: &[],
};

/// One crash-resume trial: `kill` is a SIGKILL mid-run then a resume,
/// `corrupt` damages the newest generation and then resumes.
const CRASH_TRIALS: Rows = Rows {
    min: 1,
    fields: &[
        ("kind", OneOf(&["kill", "corrupt"])),
        ("seed", NUM),
        ("kill_point", NUM),
        ("generations_at_resume", NUM),
        ("resumes_from_disk", NUM),
        ("corrupt_snapshots_skipped", NUM),
        ("bit_identical", Bool),
    ],
    each: &[(
        "a corrupt trial must skip a generation and fall back",
        |t| {
            text(t, "kind") != "corrupt"
                || (n(t, "corrupt_snapshots_skipped") >= 1.0 && n(t, "resumes_from_disk") >= 1.0)
        },
    )],
    all: &[("the matrix has no 'corrupt' trial", |trials| {
        items(trials).iter().any(|t| text(t, "kind") == "corrupt")
    })],
};

/// One remote-fault leg: `run` is a durable run through the flaky remote,
/// `resume` continues from the same store, `resume_prefix` from a remote
/// holding only a prefix of the run's objects.
const REMOTE_TRIALS: Rows = Rows {
    min: 1,
    fields: &[
        ("profile", Str),
        ("seed", NUM),
        ("kind", OneOf(&["run", "resume", "resume_prefix"])),
        ("faults_injected", NUM),
        ("snapshot_writes", NUM),
        ("remote_puts", NUM),
        ("remote_retries", NUM),
        ("remote_backoff_us", NUM),
        ("hedged_reads", NUM),
        ("breaker_opens", NUM),
        ("spilled_snapshots", NUM),
        ("bit_identical", Bool),
    ],
    each: &[],
    all: &[
        ("the campaign must exercise both resume legs", |trials| {
            let has = |leg| items(trials).iter().any(|t| text(t, "kind") == leg);
            has("resume") && has("resume_prefix")
        }),
        ("the resilience stack never engaged", |trials| {
            let events = [
                "remote_puts",
                "remote_retries",
                "remote_backoff_us",
                "hedged_reads",
                "breaker_opens",
                "spilled_snapshots",
            ];
            sum(trials, &events) >= 1.0
        }),
    ],
};

/// One fleet trial: the job sharded into legs under one fault profile,
/// with the fleet telemetry. Across the trials the campaign must fence a
/// zombie write, expire and reassign a lease, crash an executor, and
/// resume the coordinator.
const FLEET_TRIALS: Rows = Rows {
    min: 1,
    fields: &[
        ("profile", Str),
        ("seed", NUM),
        ("legs", Min(2.0)),
        ("ticks", NUM),
        ("legs_claimed", Min(1.0)),
        ("snapshot_writes", NUM),
        ("remote_puts", NUM),
        ("executor_stalls", NUM),
        ("zombie_writes_fenced", NUM),
        ("leases_expired", NUM),
        ("legs_reassigned", NUM),
        ("executor_crashes", NUM),
        ("coordinator_resumes", NUM),
        ("bit_identical", Bool),
    ],
    each: &[],
    all: &[
        ("no trial fenced a zombie write", |trials| {
            sum(trials, &["zombie_writes_fenced"]) >= 1.0
        }),
        ("no lease ever expired", |trials| {
            sum(trials, &["leases_expired"]) >= 1.0
        }),
        ("no leg was ever reassigned", |trials| {
            sum(trials, &["legs_reassigned"]) >= 1.0
        }),
        ("no executor ever crashed", |trials| {
            sum(trials, &["executor_crashes"]) >= 1.0
        }),
        ("no coordinator restart was exercised", |trials| {
            sum(trials, &["coordinator_resumes"]) >= 1.0
        }),
    ],
};

/// The batch-16 row of a serving campaign, if any.
fn batch_16(v: &Json) -> Option<&Json> {
    items(at(v, "rows")).iter().find(|r| n(r, "batch") == 16.0)
}

/// Every machine-readable bench artifact, one entry each. Unknown fields
/// are allowed; every listed one is required unless marked optional.
const SCHEMAS: &[Schema] = &[
    // Hoisted-rotation microbenchmark: timings plus counter snapshots of
    // the sequential and hoisted paths.
    Schema {
        file: "BENCH_ROTATE.json",
        id: "halo-bench-rotate/1",
        fields: &[
            ("n", Min(1.0)),
            ("levels", Min(1.0)),
            ("batch", Min(1.0)),
            ("reps", Min(1.0)),
            ("threads", Min(1.0)),
            ("sequential_us", NUM),
            ("hoisted_us", NUM),
            ("speedup", NUM),
            ("sequential", Obj(COUNTERS)),
            ("hoisted", Obj(COUNTERS)),
        ],
        rules: &[
            ("speedup is not sequential_us / hoisted_us", |v| {
                let (seq, hoisted) = (n(v, "sequential_us"), n(v, "hoisted_us"));
                hoisted == 0.0 || close(n(v, "speedup"), seq / hoisted, 1e-6)
            }),
            // The hoisting contract: one decomposition per batch on the
            // hoisted path, one per rotation on the sequential path.
            (
                "the hoisted path must decompose less than the sequential",
                |v| n(v, "hoisted.digit_decomposes") < n(v, "sequential.digit_decomposes"),
            ),
        ],
    },
    // The toy backend's kernel microbenchmark: the per-limb transform and
    // the ct-ct multiply, plus the deferred-reduction count proving the
    // lazy kernels ran.
    Schema {
        file: "BENCH_NTT.json",
        id: "halo-bench-ntt/2",
        fields: &[
            ("n", Min(1.0)),
            ("levels", Min(1.0)),
            ("reps", Min(1.0)),
            ("threads", Min(1.0)),
            ("ntt_ns_per_limb", Pos),
            ("mult_us", Pos),
            ("lazy_reductions_skipped", Min(1.0)),
        ],
        rules: &[],
    },
    // Per-benchmark modeled latencies and bootstrap counts, the run's wall
    // time, and optional serving and tuning sections.
    Schema {
        file: "BENCH_RUN_ALL.json",
        id: "halo-bench-run-all/1",
        fields: &[
            ("scale", Str),
            ("iters", NUM),
            ("wall_ms", NUM),
            ("poly_allocs", NUM),
            ("benchmarks", Arr(&BENCH_ROWS)),
            ("serving", Opt(&Arr(&SERVING_ROWS))),
            ("tuning", Opt(&Arr(&TUNE_ROWS))),
        ],
        rules: &[],
    },
    // The multi-tenant serving campaign. Throughput is modeled, so the
    // batched-vs-solo ratio is machine-independent, and the schema demands
    // the bar: batch-16 coalescing must model >= 10x the solo throughput.
    Schema {
        file: "BENCH_SERVE.json",
        id: "halo-bench-serve/1",
        fields: &[
            ("bench", Str),
            ("scale", Str),
            ("seed", NUM),
            ("jobs", Min(1.0)),
            ("sessions", Min(1.0)),
            ("workers", Min(1.0)),
            ("iters", Min(1.0)),
            ("slots", Min(1.0)),
            ("width", Min(1.0)),
            ("rows", Arr(&SERVING_ROWS)),
            ("speedup_at_16", NUM),
        ],
        rules: &[
            ("the rows lack the batch-16 entry", |v| {
                batch_16(v).is_some()
            }),
            ("speedup_at_16 differs from the batch-16 row", |v| {
                batch_16(v)
                    .is_some_and(|r| close(n(v, "speedup_at_16"), n(r, "speedup_vs_solo"), 1e-9))
            }),
            ("batch-16 modeled speedup below the 10x bar", |v| {
                n(v, "speedup_at_16") >= 10.0
            }),
        ],
    },
    // The autotuner sweep over the seeded fuzz corpus: tuned never
    // costlier on any row, strictly cheaper on at least one, and the
    // headline aggregates match the rows.
    Schema {
        file: "BENCH_TUNE.json",
        id: "halo-bench-tune/1",
        fields: &[
            ("tuner", Str),
            ("seeds", Min(1.0)),
            ("assumed_trips", Min(1.0)),
            ("wall_ms", NUM),
            ("rows", Arr(&TUNE_ROWS)),
            ("improved", NUM),
            ("geomean_gap", NUM),
        ],
        rules: &[
            ("improved differs from the strictly improved rows", |v| {
                let rows = items(at(v, "rows")).iter();
                let improved = rows.filter(|r| n(r, "tuned_us") < n(r, "halo_us") * (1.0 - 1e-9));
                n(v, "improved") == improved.count() as f64
            }),
            (
                "no corpus program strictly improved on the HALO heuristic",
                |v| n(v, "improved") >= 1.0,
            ),
            ("geomean_gap differs from the rows' geometric mean", |v| {
                let rows = items(at(v, "rows"));
                let ln_sum: f64 = rows.iter().map(|r| n(r, "gap").ln()).sum();
                close(
                    n(v, "geomean_gap"),
                    (ln_sum / rows.len() as f64).exp(),
                    1e-6,
                )
            }),
        ],
    },
    // Differential-fuzzing coverage plus, per failure, how to reproduce it.
    Schema {
        file: "FUZZ_REPORT.json",
        id: "halo-fuzz-report/1",
        fields: &[
            ("seeds", NUM),
            ("start_seed", NUM),
            ("ran", NUM),
            ("skipped", NUM),
            ("pass_verify", Bool),
            ("failures", Arr(&FAILURES)),
        ],
        rules: &[("ran + skipped exceeds seeds", |v| {
            n(v, "ran") + n(v, "skipped") <= n(v, "seeds")
        })],
    },
    // The process-kill crash-resume matrix.
    Schema {
        file: "CRASH_REPORT.json",
        id: "halo-crash-report/1",
        fields: &[
            ("bench", Str),
            ("scale", Str),
            ("iters", NUM),
            // Generation fallback needs an older generation to fall to.
            ("snapshot_keep", Min(2.0)),
            ("seeds", NUM),
            ("wall_ms", NUM),
            ("passed", NUM),
            ("failed", NUM),
            ("aborts", NUM),
            ("trials", Arr(&CRASH_TRIALS)),
        ],
        rules: CAMPAIGN_TOTALS,
    },
    // The seeded remote-fault campaign; it must actually inject faults.
    Schema {
        file: "REMOTE_REPORT.json",
        id: "halo-remote-report/1",
        fields: &[
            ("bench", Str),
            ("scale", Str),
            ("iters", NUM),
            ("seeds", NUM),
            ("profiles", NUM),
            ("wall_ms", NUM),
            ("faults_injected", Min(1.0)),
            ("passed", NUM),
            ("failed", NUM),
            ("aborts", NUM),
            ("trials", Arr(&REMOTE_TRIALS)),
        ],
        rules: CAMPAIGN_TOTALS,
    },
    // The fenced lease-based fleet campaign over at least eight fault
    // profiles.
    Schema {
        file: "FLEET_REPORT.json",
        id: "halo-fleet-report/1",
        fields: &[
            ("bench", Str),
            ("scale", Str),
            ("iters", NUM),
            ("seeds", NUM),
            ("profiles", Min(8.0)),
            ("executors", NUM),
            ("leg_len", NUM),
            ("wall_ms", NUM),
            ("passed", NUM),
            ("failed", NUM),
            ("aborts", NUM),
            ("trials", Arr(&FLEET_TRIALS)),
        ],
        rules: CAMPAIGN_TOTALS,
    },
];

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

    const ROTATE: &str = "halo-bench-rotate/1";
    const NTT: &str = "halo-bench-ntt/2";
    const RUN_ALL: &str = "halo-bench-run-all/1";
    const SERVE: &str = "halo-bench-serve/1";
    const TUNE: &str = "halo-bench-tune/1";
    const FUZZ: &str = "halo-fuzz-report/1";
    const CRASH: &str = "halo-crash-report/1";
    const REMOTE: &str = "halo-remote-report/1";
    const FLEET: &str = "halo-fleet-report/1";

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
    fn non_ascii_text_round_trips() {
        let doc = obj(vec![("text", Json::Str("é λ \u{1D11E} \\ \"q\" é".into()))]);
        assert_eq!(parse(&doc.pretty()).unwrap(), doc);
        assert_eq!(
            parse("\"caf\\u00e9 λ\u{1D11E}\"").unwrap(),
            Json::Str("café λ\u{1D11E}".into())
        );
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

    fn s(x: &str) -> Json {
        Json::Str(x.into())
    }

    /// `doc` with each dotted path set to its value, or removed where the
    /// value is `None`; numeric segments index arrays.
    fn with(doc: &Json, edits: &[(&str, Option<Json>)]) -> Json {
        let mut doc = doc.clone();
        for (path, value) in edits {
            let (parent, last) = path.rsplit_once('.').map_or(("", *path), |(p, l)| (p, l));
            let mut cur = &mut doc;
            for key in parent.split('.').filter(|k| !k.is_empty()) {
                cur = match cur {
                    Json::Obj(m) => &mut m.iter_mut().find(|(k, _)| k == key).unwrap().1,
                    Json::Arr(v) => &mut v[key.parse::<usize>().unwrap()],
                    _ => panic!("{path}: no '{key}'"),
                };
            }
            let Json::Obj(members) = cur else {
                panic!("{path}: not an object")
            };
            members.retain(|(k, _)| k != last);
            if let Some(v) = value {
                members.push((last.into(), v.clone()));
            }
        }
        doc
    }

    fn rotate() -> Json {
        let counters = |dec: f64| {
            obj(vec![
                ("poly_allocs", num(100.0)),
                ("digit_decomposes", num(dec)),
                ("digit_ntt_rows", num(80.0)),
            ])
        };
        obj(vec![
            ("schema", s(ROTATE)),
            ("n", num(4096.0)),
            ("levels", num(8.0)),
            ("batch", num(8.0)),
            ("reps", num(10.0)),
            ("threads", num(4.0)),
            ("sequential_us", num(800.0)),
            ("hoisted_us", num(400.0)),
            ("speedup", num(2.0)),
            ("sequential", counters(8.0)),
            ("hoisted", counters(1.0)),
        ])
    }

    fn ntt() -> Json {
        obj(vec![
            ("schema", s(NTT)),
            ("n", num(4096.0)),
            ("levels", num(8.0)),
            ("reps", num(50.0)),
            ("threads", num(4.0)),
            ("ntt_ns_per_limb", num(3000.0)),
            ("mult_us", num(1000.0)),
            ("lazy_reductions_skipped", num(1e6)),
        ])
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

    fn tune_row(halo: f64, tuned: f64, evaluated: f64, pruned: f64) -> Json {
        obj(vec![
            ("program", s("fuzz-0")),
            ("seed", num(7.0)),
            ("plan", s("unroll=heur pack=on peel=+0 tune=on")),
            ("halo_us", num(halo)),
            ("tuned_us", num(tuned)),
            ("gap", num(halo / tuned)),
            ("evaluated", num(evaluated)),
            ("pruned", num(pruned)),
            ("space", num(evaluated + pruned)),
        ])
    }

    fn run_all() -> Json {
        let bench_row = obj(vec![
            ("bench", s("linear")),
            ("config", s("Halo")),
            ("bootstraps", num(3.0)),
            ("total_us", num(1000.0)),
            ("bootstrap_us", num(900.0)),
        ]);
        obj(vec![
            ("schema", s(RUN_ALL)),
            ("scale", s("Small")),
            ("iters", num(40.0)),
            ("wall_ms", num(12.5)),
            ("poly_allocs", num(0.0)),
            ("benchmarks", Json::Arr(vec![bench_row])),
            (
                "serving",
                Json::Arr(vec![
                    serving_row(1.0, 0.0, 1.0),
                    serving_row(16.0, 8.0, 15.0),
                ]),
            ),
            ("tuning", Json::Arr(vec![tune_row(1000.0, 900.0, 8.0, 4.0)])),
        ])
    }

    fn serve(rows: Vec<Json>, speedup_at_16: f64) -> Json {
        obj(vec![
            ("schema", s(SERVE)),
            ("bench", s("square_iter")),
            ("scale", s("Small")),
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

    fn serve_green() -> Json {
        serve(
            vec![
                serving_row(1.0, 0.0, 1.0),
                serving_row(4.0, 32.0, 3.9),
                serving_row(16.0, 8.0, 15.2),
                serving_row(64.0, 2.0, 58.0),
            ],
            15.2,
        )
    }

    fn tune(rows: Vec<Json>, improved: f64, geomean_gap: f64) -> Json {
        obj(vec![
            ("schema", s(TUNE)),
            ("tuner", s("branch-bound")),
            ("seeds", num(rows.len() as f64)),
            ("assumed_trips", num(40.0)),
            ("wall_ms", num(1234.0)),
            ("rows", Json::Arr(rows)),
            ("improved", num(improved)),
            ("geomean_gap", num(geomean_gap)),
        ])
    }

    fn tune_green() -> Json {
        tune(
            vec![
                tune_row(1000.0, 800.0, 10.0, 30.0),
                tune_row(500.0, 500.0, 40.0, 0.0),
            ],
            1.0,
            (1000.0f64 / 800.0).sqrt(),
        )
    }

    fn fuzz(failures: Vec<Json>) -> Json {
        obj(vec![
            ("schema", s(FUZZ)),
            ("seeds", num(32.0)),
            ("start_seed", num(0.0)),
            ("ran", num(30.0)),
            ("skipped", num(2.0)),
            ("pass_verify", Json::Bool(true)),
            ("failures", Json::Arr(failures)),
        ])
    }

    fn fuzz_red() -> Json {
        fuzz(vec![obj(vec![
            ("seed", num(17.0)),
            ("stage", s("pass-verify")),
            ("pass", s("peel")),
            ("detail", s("arity mismatch")),
            ("repro", s("cargo run -p halo-fuzz -- --seed 17")),
            ("shrink_steps", num(4.0)),
            ("shrunk_size", num(9.0)),
            ("shrunk_spec", s("ProgramSpec { .. }")),
        ])])
    }

    /// A green campaign report: `header` after the common fields, then
    /// the totals for `trials`, all bit-identical.
    fn campaign(id: &str, header: Vec<(&str, Json)>, trials: Vec<Json>) -> Json {
        let mut fields = vec![
            ("schema", s(id)),
            ("bench", s("linear")),
            ("scale", s("small")),
            ("iters", num(12.0)),
            ("seeds", num(1.0)),
            ("wall_ms", num(700.0)),
        ];
        fields.extend(header);
        fields.extend([
            ("passed", num(trials.len() as f64)),
            ("failed", num(0.0)),
            ("aborts", num(0.0)),
            ("trials", Json::Arr(trials)),
        ]);
        obj(fields)
    }

    fn crash_trial(kind: &str, skipped: f64) -> Json {
        obj(vec![
            ("kind", s(kind)),
            ("seed", num(1.0)),
            ("kill_point", num(4.0)),
            ("generations_at_resume", num(3.0)),
            ("resumes_from_disk", num(1.0)),
            ("corrupt_snapshots_skipped", num(skipped)),
            ("bit_identical", Json::Bool(true)),
        ])
    }

    fn crash(trials: Vec<Json>) -> Json {
        campaign(CRASH, vec![("snapshot_keep", num(3.0))], trials)
    }

    fn crash_green() -> Json {
        crash(vec![crash_trial("kill", 0.0), crash_trial("corrupt", 1.0)])
    }

    /// A remote leg whose six resilience counters all read `engaged`.
    fn remote_trial(kind: &str, engaged: f64) -> Json {
        obj(vec![
            ("profile", s("chaos")),
            ("seed", num(1.0)),
            ("kind", s(kind)),
            ("faults_injected", num(3.0)),
            ("snapshot_writes", num(6.0)),
            ("remote_puts", num(engaged)),
            ("remote_retries", num(engaged)),
            ("remote_backoff_us", num(engaged)),
            ("hedged_reads", num(engaged)),
            ("breaker_opens", num(engaged)),
            ("spilled_snapshots", num(engaged)),
            ("bit_identical", Json::Bool(true)),
        ])
    }

    fn remote(trials: Vec<Json>) -> Json {
        campaign(
            REMOTE,
            vec![("profiles", num(6.0)), ("faults_injected", num(9.0))],
            trials,
        )
    }

    fn remote_green() -> Json {
        remote(vec![
            remote_trial("run", 1.0),
            remote_trial("resume", 1.0),
            remote_trial("resume_prefix", 1.0),
        ])
    }

    /// Two fleet trials: a healthy one, and a drill that engages every
    /// piece of failure machinery once.
    fn fleet_green() -> Json {
        let trial = |profile: &str, engaged: f64| {
            obj(vec![
                ("profile", s(profile)),
                ("seed", num(1.0)),
                ("legs", num(4.0)),
                ("ticks", num(11.0)),
                ("legs_claimed", num(9.0)),
                ("leases_expired", num(engaged)),
                ("zombie_writes_fenced", num(engaged)),
                ("legs_reassigned", num(engaged)),
                ("coordinator_resumes", num(engaged)),
                ("executor_crashes", num(engaged)),
                ("executor_stalls", num(0.0)),
                ("snapshot_writes", num(0.0)),
                ("remote_puts", num(15.0)),
                ("store_faults", num(0.0)),
                ("bit_identical", Json::Bool(true)),
            ])
        };
        campaign(
            FLEET,
            vec![
                ("profiles", num(10.0)),
                ("executors", num(3.0)),
                ("leg_len", num(2.0)),
            ],
            vec![trial("healthy", 0.0), trial("zombie_drill", 1.0)],
        )
    }

    fn id_of(doc: &Json) -> &str {
        doc.get("schema").and_then(Json::as_str).unwrap()
    }

    #[test]
    fn every_artifact_has_one_entry_found_by_file_and_by_id() {
        for (file, doc) in [
            ("BENCH_ROTATE.json", rotate()),
            ("BENCH_NTT.json", ntt()),
            ("BENCH_RUN_ALL.json", run_all()),
            ("BENCH_SERVE.json", serve_green()),
            ("BENCH_TUNE.json", tune_green()),
            ("FUZZ_REPORT.json", fuzz(vec![])),
            ("CRASH_REPORT.json", crash_green()),
            ("REMOTE_REPORT.json", remote_green()),
            ("FLEET_REPORT.json", fleet_green()),
        ] {
            let schema = Schema::by_file(file).unwrap();
            schema.check(&doc).unwrap();
            assert_eq!(Schema::by_id(id_of(&doc)).unwrap().file, file);
        }
        assert_eq!(SCHEMAS.len(), 9);
        assert!(Schema::by_file("UNKNOWN.json").is_none());
        assert!(validate("halo-unknown/1", &rotate()).is_err());
    }

    #[test]
    fn green_documents_validate() {
        for doc in [
            rotate(),
            ntt(),
            run_all(),
            with(&run_all(), &[("serving", None), ("tuning", None)]),
            serve_green(),
            tune_green(),
            fuzz(vec![]),
            fuzz_red(),
            with(
                &fuzz_red(),
                &[
                    ("failures.0.stage", Some(s("mismatch"))),
                    ("failures.0.pass", None),
                ],
            ),
            crash_green(),
            remote_green(),
            fleet_green(),
        ] {
            validate(id_of(&doc), &doc).unwrap_or_else(|e| panic!("{}: {e}", id_of(&doc)));
        }
    }

    fn reject(id: &str, case: &str, doc: &Json) {
        assert!(validate(id, doc).is_err(), "{id}: {case}: must be rejected");
    }

    #[test]
    fn schema_violations_are_rejected() {
        for id in [ROTATE, NTT, SERVE, TUNE] {
            reject(id, "missing keys", &obj(vec![("schema", s(id))]));
        }
        let set = |doc: &Json, path: &str, v: Json| with(doc, &[(path, Some(v))]);

        let hoisted = set(&rotate(), "hoisted.digit_decomposes", num(8.0));
        reject(
            ROTATE,
            "the hoisted path decomposes as often as the sequential one",
            &hoisted,
        );
        let speedup = set(&rotate(), "speedup", num(3.0));
        reject(ROTATE, "speedup differs from the timings", &speedup);

        let lazy = set(&ntt(), "lazy_reductions_skipped", num(0.0));
        reject(NTT, "no reduction was deferred", &lazy);
        reject(NTT, "a zero timing", &set(&ntt(), "mult_us", num(0.0)));
        reject(
            NTT,
            "the v1 schema id",
            &set(&ntt(), "schema", s("halo-bench-ntt/1")),
        );

        let empty = Json::Arr(vec![]);
        let no_rows = set(&run_all(), "benchmarks", empty.clone());
        reject(RUN_ALL, "no benchmark rows", &no_rows);
        let boot = set(&run_all(), "benchmarks.0.bootstrap_us", num(2000.0));
        reject(RUN_ALL, "bootstrap time above the total", &boot);
        let serving = set(&run_all(), "serving", empty.clone());
        reject(RUN_ALL, "an empty serving section", &serving);
        let uncoalesced = Json::Arr(vec![serving_row(16.0, 0.0, 15.0)]);
        let serving = set(&run_all(), "serving", uncoalesced);
        reject(
            RUN_ALL,
            "serving never coalesced and lacks its solo row",
            &serving,
        );
        let tuning = set(&run_all(), "tuning", empty);
        reject(RUN_ALL, "an empty tuning section", &tuning);
        let costlier = Json::Arr(vec![tune_row(100.0, 200.0, 8.0, 0.0)]);
        let tuning = set(&run_all(), "tuning", costlier);
        reject(
            RUN_ALL,
            "a tuning row costlier than the HALO heuristic",
            &tuning,
        );

        let solo = || serving_row(1.0, 0.0, 1.0);
        let slow = serve(vec![solo(), serving_row(16.0, 8.0, 4.0)], 4.0);
        reject(SERVE, "batch 16 below the 10x bar", &slow);
        let uncoalesced = serve(vec![solo(), serving_row(16.0, 0.0, 15.0)], 15.0);
        reject(SERVE, "a batched row that never coalesced", &uncoalesced);
        let headline = set(&serve_green(), "speedup_at_16", num(12.0));
        reject(
            SERVE,
            "the headline differs from the batch-16 row",
            &headline,
        );
        let no_16 = serve(vec![solo(), serving_row(8.0, 8.0, 15.0)], 15.0);
        reject(SERVE, "no batch-16 row", &no_16);
        let no_solo = serve(vec![serving_row(16.0, 8.0, 15.0)], 15.0);
        reject(SERVE, "no solo row", &no_solo);
        let solo_speedup = set(&serve_green(), "rows.0.speedup_vs_solo", num(2.0));
        reject(SERVE, "a solo row whose speedup is not 1", &solo_speedup);
        let p50 = set(&serve_green(), "rows.2.p50_us", num(1e9));
        reject(SERVE, "p50 above p99", &p50);

        let worse = tune(
            vec![tune_row(1000.0, 1100.0, 10.0, 0.0)],
            0.0,
            1000.0 / 1100.0,
        );
        reject(
            TUNE,
            "a tuned plan costlier than the HALO heuristic",
            &worse,
        );
        let flat = tune(vec![tune_row(500.0, 500.0, 10.0, 0.0)], 0.0, 1.0);
        reject(TUNE, "no program strictly improved", &flat);
        let improved = set(&tune_green(), "improved", num(2.0));
        reject(TUNE, "improved differs from the rows", &improved);
        let geomean = set(&tune_green(), "geomean_gap", num(9.0));
        reject(TUNE, "geomean_gap differs from the rows", &geomean);
        let gap = set(&tune_green(), "rows.0.gap", num(2.0));
        reject(TUNE, "a row's gap differs from its costs", &gap);
        let space = set(&tune_green(), "rows.0.space", num(99.0));
        reject(TUNE, "the search does not cover its space", &space);

        let no_pass = with(&fuzz_red(), &[("failures.0.pass", None)]);
        reject(FUZZ, "a pass-verify failure without its pass", &no_pass);
        let no_seed = set(&fuzz_red(), "failures.0.repro", s("cargo run -p halo-fuzz"));
        reject(FUZZ, "a repro line without a seed", &no_seed);
        let ran = set(&fuzz(vec![]), "ran", num(33.0));
        reject(FUZZ, "ran + skipped exceeds seeds", &ran);
        let wrong = set(&fuzz(vec![]), "schema", s("halo-fuzz-report/2"));
        reject(FUZZ, "the wrong schema id", &wrong);
        let flag = set(&fuzz(vec![]), "pass_verify", num(1.0));
        reject(FUZZ, "pass_verify is not a boolean", &flag);

        let no_fallback = set(
            &crash_green(),
            "trials.1.corrupt_snapshots_skipped",
            num(0.0),
        );
        reject(
            CRASH,
            "a corrupt trial that did not fall back",
            &no_fallback,
        );
        let kills_only = crash(vec![crash_trial("kill", 0.0)]);
        reject(CRASH, "no corrupt trial", &kills_only);
        let kind = set(&crash_green(), "trials.0.kind", s("teleport"));
        reject(CRASH, "an unknown trial kind", &kind);
        let keep = set(&crash_green(), "snapshot_keep", num(1.0));
        reject(CRASH, "too few generations kept to fall back", &keep);

        let runs_only = remote(vec![remote_trial("run", 1.0), remote_trial("run", 1.0)]);
        reject(REMOTE, "no resume legs", &runs_only);
        let no_prefix = remote(vec![remote_trial("run", 1.0), remote_trial("resume", 1.0)]);
        reject(REMOTE, "no resume_prefix leg", &no_prefix);
        let tame = set(&remote_green(), "faults_injected", num(0.0));
        reject(REMOTE, "no fault injected", &tame);
        let kind = set(&remote_green(), "trials.0.kind", s("teleport"));
        reject(REMOTE, "an unknown trial kind", &kind);
        let idle = remote(vec![
            remote_trial("run", 0.0),
            remote_trial("resume", 0.0),
            remote_trial("resume_prefix", 0.0),
        ]);
        reject(REMOTE, "the resilience stack never engaged", &idle);

        let profiles = set(&fleet_green(), "profiles", num(7.0));
        reject(FLEET, "fewer than 8 profiles", &profiles);
        let legs = set(&fleet_green(), "trials.0.legs", num(1.0));
        reject(FLEET, "a trial with fewer than 2 legs", &legs);
        let claimed = set(&fleet_green(), "trials.0.legs_claimed", num(0.0));
        reject(FLEET, "a trial with no leg claimed", &claimed);
        for sum in [
            "zombie_writes_fenced",
            "leases_expired",
            "legs_reassigned",
            "executor_crashes",
            "coordinator_resumes",
        ] {
            let idle = set(&fleet_green(), &format!("trials.1.{sum}"), num(0.0));
            reject(FLEET, &format!("{sum} sums to zero"), &idle);
        }

        // The totals rule every campaign report shares.
        for (id, green) in [
            (CRASH, crash_green()),
            (REMOTE, remote_green()),
            (FLEET, fleet_green()),
        ] {
            let trials = items(at(&green, "trials")).len() as f64;
            let diverged = set(&green, "trials.0.bit_identical", Json::Bool(false));
            let uncovered = set(&green, "passed", num(trials + 3.0));
            reject(id, "passed + failed misses the trials", &uncovered);
            reject(id, "passed counts a diverged trial", &diverged);
            let red = with(
                &diverged,
                &[
                    ("passed", Some(num(trials - 1.0))),
                    ("failed", Some(num(1.0))),
                ],
            );
            reject(id, "a diverged trial", &red);
            reject(id, "an abort", &set(&green, "aborts", num(1.0)));
        }
    }
}
