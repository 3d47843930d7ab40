//! Turns what a run measured into the named metrics, the per-row table,
//! the stated predictions and the trace file.

use std::collections::HashMap;

use halo_bench::json::{self, Json};
use halo_core::Pass;

use crate::timed::MNEMONICS;
use crate::trace::Tracer;
use crate::workload::{Kind, PassStat, Workload};
use crate::Measured;

/// One reported number. `kind` is measured, modeled, count or computed.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub kind: &'static str,
}

/// The end-to-end metrics, in report order.
pub const END_TO_END: [(&str, &str, &str); 12] = [
    ("run_s", "s", "measured"),
    ("dacapo_run_s", "s", "measured"),
    ("compile_s", "s", "measured"),
    ("dacapo_compile_s", "s", "measured"),
    ("tune_s", "s", "measured"),
    ("setup_s", "s", "measured"),
    ("peak_rss_mb", "MB", "measured"),
    ("precision_bits", "bits", "measured"),
    ("bootstraps", "count", "count"),
    ("modeled_s", "modeled_s", "modeled"),
    ("tuned_modeled_s", "modeled_s", "modeled"),
    ("code_kb", "KB", "count"),
];

const KERNEL_COUNTERS: [&str; 8] = [
    "ntt_forward_rows",
    "ntt_inverse_rows",
    "digit_decomposes",
    "digit_ntt_rows",
    "keyswitch_calls",
    "poly_allocs",
    "pool_reuses",
    "lazy_reductions_skipped",
];

/// `doc` on one line: `Json::pretty` breaks lines only between tokens
/// (strings escape their newlines), so dropping each line's indentation
/// leaves the same document.
pub fn one_line(doc: &Json) -> String {
    doc.pretty().lines().map(str::trim).collect()
}

/// The 90th percentile (nearest rank): of a run's compile sweeps, and of
/// each program's tune times across the run's passes. On a shared 2-vCPU
/// host the same compile runs in one of two speed states about 1.6× apart
/// that switch within seconds to minutes, and compiles and the tuner feel
/// it more than toy or sim runs; the median lands on either state from
/// one run to the next, while the upper decile reads the common, slower
/// state in nearly every run.
pub fn upper(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (0.9 * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit when run from a git work tree, else "unknown".
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    std::fs::read_to_string(format!(".git/{reference}"))
        .ok()
        .or_else(|| {
            std::fs::read_to_string(".git/packed-refs")
                .ok()
                .and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(reference))
                        .map(|l| l.split(' ').next().unwrap_or("").to_string())
                })
        })
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Every per-layer metric name with its unit and kind, in report order.
pub fn per_layer_spec() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = vec![
        ("ml.trace_s".into(), "s", "measured"),
        ("runtime.reference_s".into(), "s", "measured"),
        ("ir.verify_s".into(), "s", "measured"),
    ];
    for p in Pass::ALL.map(Pass::name) {
        v.push((format!("core.pass.{p}.s"), "s", "measured"));
        v.push((format!("core.pass.{p}.ops_after"), "count", "count"));
    }
    v.push(("core.cost_est.s".into(), "s", "measured"));
    for c in ["evaluated", "pruned", "space"] {
        v.push((format!("core.autotune.{c}"), "count", "count"));
    }
    v.push(("core.autotune.pruned_ratio".into(), "ratio", "computed"));
    for c in ["peeled", "packed", "unrolled", "tuned", "static_bootstraps"] {
        v.push((format!("core.{c}"), "count", "count"));
    }
    v.extend([
        ("runtime.exec.s".into(), "s", "measured"),
        ("runtime.exec.self_s".into(), "s", "measured"),
        ("runtime.exec.ops".into(), "count", "count"),
        ("runtime.exec.self_ns_per_op".into(), "ns", "computed"),
        ("runtime.hoist.batches".into(), "count", "count"),
        ("runtime.hoist.rotations".into(), "count", "count"),
    ]);
    for m in MNEMONICS {
        v.push((format!("ckks.op.{m}.calls"), "count", "count"));
        v.push((format!("ckks.op.{m}.s"), "s", "measured"));
    }
    v.push(("ckks.op.s".into(), "s", "measured"));
    for c in KERNEL_COUNTERS {
        v.push((format!("ckks.kernel.{c}"), "count", "count"));
    }
    v.extend([
        ("ckks.kernel.pool_hit_ratio".into(), "ratio", "computed"),
        ("ckks.kernel.ntt_row_ns".into(), "ns", "measured"),
        ("ckks.kernel.intt_row_ns".into(), "ns", "measured"),
        ("ckks.kernel.encode_ns".into(), "ns", "measured"),
        ("ckks.kernel.decode_ns".into(), "ns", "measured"),
        ("ckks.kernel.ntt_share".into(), "ratio", "computed"),
        ("ckks.kernel.encode_share".into(), "ratio", "computed"),
        ("ckks.backend_new_s".into(), "s", "measured"),
        ("ckks.cold_extra_s".into(), "s", "measured"),
        ("ckks.parallel.speedup".into(), "ratio", "measured"),
        ("traced.run_s".into(), "s", "measured"),
        ("trace.exec_remainder_s".into(), "s", "computed"),
        ("trace.compile_remainder_s".into(), "s", "computed"),
    ]);
    v
}

pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Metric name → why it reads zero or is missing on this workload.
    pub absent: Vec<(String, String)>,
    pub predictions: Vec<String>,
    /// (mnemonic, level, calls, seconds) per traced pass.
    pub op_levels: Vec<(&'static str, u32, f64, f64)>,
}

fn run_pair(p: &PassStat) -> f64 {
    p.run_halo_s + p.run_dacapo_s
}

impl Report {
    pub fn new(wl: &Workload, m: &Measured, tr: &Tracer, traced: bool) -> Report {
        let med = |f: fn(&PassStat) -> f64| median(m.passes.iter().map(f).collect());
        let last = m.passes.last().expect("at least one pass");
        let e2e_values = [
            med(|p| p.run_halo_s),
            med(|p| p.run_dacapo_s),
            upper(
                m.passes
                    .iter()
                    .flat_map(|p| p.compile_sweeps[0].clone())
                    .collect(),
            ),
            upper(
                m.passes
                    .iter()
                    .flat_map(|p| p.compile_sweeps[1].clone())
                    .collect(),
            ),
            (0..wl.programs.len())
                .map(|i| upper(m.passes.iter().map(|p| p.tune_rows[i]).collect()))
                .sum(),
            m.setup_s,
            peak_rss_mb(),
            med(|p| p.bits),
            last.bootstraps as f64,
            last.modeled_us * 1e-6,
            last.tuned_us * 1e-6,
            last.code_bytes as f64 / 1000.0,
        ];
        let end_to_end = END_TO_END
            .iter()
            .zip(e2e_values)
            .map(|(&(name, unit, kind), value)| Metric {
                name: name.into(),
                value,
                unit,
                kind,
            })
            .collect();
        let mut report = Report {
            end_to_end,
            per_layer: Vec::new(),
            absent: Vec::new(),
            predictions: Vec::new(),
            op_levels: Vec::new(),
        };
        if traced {
            report.per_layer(wl, m, tr);
        }
        report
    }

    fn per_layer(&mut self, wl: &Workload, m: &Measured, tr: &Tracer) {
        let l = &m.layers;
        let n = m.passes.len() as f64;
        let ns = |x: u64| x as f64 * 1e-9 / n;
        let per = |x: u64| x as f64 / n;
        let mut val: HashMap<String, f64> = HashMap::new();
        let mut put = |name: &str, v: f64| {
            val.insert(name.to_string(), v);
        };
        put("ml.trace_s", wl.trace_s);
        put("runtime.reference_s", wl.reference_s);
        put("ir.verify_s", ns(l.verify_ns));
        for p in Pass::ALL.map(Pass::name) {
            let (t, ops) = l.pass.get(p).copied().unwrap_or_default();
            put(&format!("core.pass.{p}.s"), ns(t));
            put(&format!("core.pass.{p}.ops_after"), per(ops));
        }
        put("core.cost_est.s", ns(l.cost_est_ns));
        put("core.autotune.evaluated", per(l.evaluated));
        put("core.autotune.pruned", per(l.pruned));
        put("core.autotune.space", per(l.space));
        put(
            "core.autotune.pruned_ratio",
            l.pruned as f64 / l.space.max(1) as f64,
        );
        for (c, v) in ["peeled", "packed", "unrolled", "tuned", "static_bootstraps"]
            .iter()
            .zip(l.halo_counters)
        {
            put(&format!("core.{c}"), per(v));
        }
        let exec_s = ns(l.exec_span_ns);
        let self_s = l.exec_self_ns as f64 * 1e-9 / n;
        put("runtime.exec.s", exec_s);
        put("runtime.exec.self_s", self_s);
        put("runtime.exec.ops", per(l.backend_calls));
        put(
            "runtime.exec.self_ns_per_op",
            l.exec_self_ns as f64 / l.backend_calls.max(1) as f64,
        );
        put("runtime.hoist.batches", per(l.hoist_batches));
        put("runtime.hoist.rotations", per(l.hoist_rotations));
        let mut calls = [0u64; MNEMONICS.len()];
        let mut op_ns = [0u64; MNEMONICS.len()];
        for (&(op, level), &(c, t)) in &l.ops {
            calls[op as usize] += c;
            op_ns[op as usize] += t;
            self.op_levels
                .push((MNEMONICS[op as usize], level, per(c), ns(t)));
        }
        for (i, mn) in MNEMONICS.iter().enumerate() {
            put(&format!("ckks.op.{mn}.calls"), per(calls[i]));
            put(&format!("ckks.op.{mn}.s"), ns(op_ns[i]));
        }
        let op_s = ns(op_ns.iter().sum());
        put("ckks.op.s", op_s);
        let k = &l.kernel;
        let counters = [
            k.ntt_forward_rows,
            k.ntt_inverse_rows,
            k.digit_decomposes,
            k.digit_ntt_rows,
            k.keyswitch_calls,
            k.poly_allocs,
            k.pool_reuses,
            k.lazy_reductions_skipped,
        ];
        for (c, v) in KERNEL_COUNTERS.iter().zip(counters) {
            put(&format!("ckks.kernel.{c}"), per(v));
        }
        put(
            "ckks.kernel.pool_hit_ratio",
            k.pool_reuses as f64 / (k.pool_reuses + k.poly_allocs).max(1) as f64,
        );
        if let Some(t) = &m.toy {
            let calls_of =
                |name: &str| calls[MNEMONICS.iter().position(|m| *m == name).expect("mnemonic")];
            let encodes: u64 = ["encrypt", "addcp", "subcp", "multcp"]
                .iter()
                .map(|m| calls_of(m))
                .sum();
            let ntt_s = (t.units.ntt_row_ns * per(k.ntt_forward_rows)
                + t.units.intt_row_ns * per(k.ntt_inverse_rows))
                * 1e-9;
            put("ckks.kernel.ntt_row_ns", t.units.ntt_row_ns);
            put("ckks.kernel.intt_row_ns", t.units.intt_row_ns);
            put("ckks.kernel.encode_ns", t.units.encode_ns);
            put("ckks.kernel.decode_ns", t.units.decode_ns);
            put("ckks.kernel.ntt_share", ntt_s / op_s);
            put(
                "ckks.kernel.encode_share",
                t.units.encode_ns * per(encodes) * 1e-9 / op_s,
            );
            put("ckks.parallel.speedup", t.speedup);
        }
        put("ckks.backend_new_s", m.backend_new_s);
        if let Some(w) = &m.warm {
            put(
                "ckks.cold_extra_s",
                run_pair(w) - median(m.passes.iter().map(run_pair).collect()),
            );
        }
        put(
            "traced.run_s",
            median(m.passes.iter().map(|p| p.run_halo_s).collect()),
        );
        // Closure: run spans = backend busy + executor self time (self time
        // read from the span tree, busy time from the per-op table), and
        // compile spans = the passes, verifier and cost estimator.
        put(
            "trace.exec_remainder_s",
            (tr.total_s("runtime.exec") - tr.self_s("runtime.exec")) / n - op_s,
        );
        let compile_parts: u64 =
            l.pass.values().map(|p| p.0).sum::<u64>() + l.verify_ns + l.cost_est_ns;
        put(
            "trace.compile_remainder_s",
            (l.compile_span_ns as f64 - compile_parts as f64) * 1e-9 / n,
        );

        let replay_ok = l.replay_mismatches.is_empty();
        if !replay_ok {
            self.absent.push((
                "core.*".into(),
                format!(
                    "the per-pass replay differs from compile(): {}",
                    l.replay_mismatches.join("; ")
                ),
            ));
        }
        for (name, unit, kind) in per_layer_spec() {
            if !replay_ok && name.starts_with("core.") {
                continue;
            }
            let value = val.get(&name).copied().unwrap_or_else(|| {
                let why = if name == "ckks.cold_extra_s" {
                    "no warm-up pass: one compile-bound pass fills the run"
                } else {
                    "no toy backend runs on this workload"
                };
                self.absent.push((name.clone(), why.into()));
                0.0
            });
            self.per_layer.push(Metric {
                name,
                value,
                unit,
                kind,
            });
        }
        self.predict(wl.kind, exec_s, self_s, op_s, &counters);
    }

    /// Checks the traced numbers against the predictions the benchmark
    /// states for this workload.
    fn predict(&mut self, kind: Kind, exec_s: f64, self_s: f64, op_s: f64, counters: &[u64]) {
        let verdict = |held: bool| if held { "held" } else { "FAILED" };
        let self_share = self_s / exec_s;
        match kind {
            Kind::ToyExact => {
                let busy = op_s / exec_s;
                self.predictions.push(format!(
                    "backend time dominates toy-exact (ckks.op.s / runtime.exec.s >= 0.9): {} at {busy:.3}",
                    verdict(busy >= 0.9)
                ));
                self.predictions.push(format!(
                    "executor self time is small on toy-exact (self_s / exec.s <= 0.05): {} at {self_share:.3}",
                    verdict(self_share <= 0.05)
                ));
            }
            Kind::SimPaper | Kind::CompileTune => {
                if kind == Kind::SimPaper {
                    self.predictions.push(format!(
                        "executor self time is large on sim-paper (self_s / exec.s >= 0.2): {} at {self_share:.3}",
                        verdict(self_share >= 0.2)
                    ));
                }
                let max = counters.iter().copied().max().unwrap_or(0);
                self.predictions.push(format!(
                    "no ckks.kernel.* counter is non-zero on {}: {} (largest {max})",
                    kind.name(),
                    verdict(max == 0)
                ));
            }
        }
    }

    /// One line per program × configuration: medians over the timed
    /// passes for times, the last pass for the deterministic columns.
    pub fn rows(&self, wl: &Workload, passes: &[PassStat]) -> Vec<String> {
        let last = passes.last().expect("at least one pass");
        let mut out = Vec::new();
        for (i, p) in wl.programs.iter().enumerate() {
            for (c, config) in ["HALO", "DaCapo"].iter().enumerate() {
                let row = i * 2 + c;
                let r = last.rows[row];
                out.push(format!(
                    "row {:<13} {:<6} compile_s={:.6} run_s={:.6} bootstraps={} modeled_s={:.3} precision_bits={:.2}",
                    p.name,
                    config,
                    median(passes.iter().map(|s| s.rows[row].compile_s).collect()),
                    median(passes.iter().map(|s| s.rows[row].run_s).collect()),
                    r.bootstraps,
                    r.modeled_us * 1e-6,
                    r.bits
                ));
            }
        }
        out
    }

    /// Writes the trace file and returns its path.
    pub fn write_trace(
        &self,
        wl: &Workload,
        seed: u64,
        seconds: f64,
        tr: &Tracer,
    ) -> std::io::Result<String> {
        let metric = |m: &Metric| {
            json::obj(vec![
                ("name", Json::Str(m.name.clone())),
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
                ("kind", Json::Str(m.kind.into())),
            ])
        };
        let toy = wl.kind == Kind::ToyExact;
        let doc = json::obj(vec![
            ("schema", Json::Str("haloperf-trace/1".into())),
            ("workload", Json::Str(wl.kind.name().into())),
            ("seed", json::num(seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("commit", Json::Str(commit())),
            ("rustc", Json::Str(env!("HALOPERF_RUSTC").into())),
            (
                "nproc",
                json::num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
            ),
            ("threads", json::num(1.0)),
            ("ring_degree", json::num(wl.ring_degree as f64)),
            // Row id r of a span is program r / 2 under HALO (even) or
            // DaCapo (odd).
            (
                "rows",
                Json::Arr(
                    wl.programs
                        .iter()
                        .flat_map(|p| {
                            ["HALO", "DaCapo"].map(|c| Json::Str(format!("{}/{c}", p.name)))
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(self.per_layer.iter().map(metric).collect()),
            ),
            (
                "absent",
                Json::Obj(
                    self.absent
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "predictions",
                Json::Arr(
                    self.predictions
                        .iter()
                        .map(|p| Json::Str(p.clone()))
                        .collect(),
                ),
            ),
            (
                "op_levels",
                Json::Arr(
                    self.op_levels
                        .iter()
                        .map(|&(op, level, calls, s)| {
                            json::obj(vec![
                                ("op", Json::Str(op.into())),
                                ("level", json::num(f64::from(level))),
                                ("calls", Json::Num(calls)),
                                ("s", Json::Num(s)),
                                // DESIGN.md §4: the toy bootstrap decrypts
                                // and re-encrypts.
                                ("substituted", Json::Bool(toy && op == "bootstrap")),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("trace", tr.to_json()),
        ]);
        std::fs::create_dir_all(".bench_trace")?;
        let path = format!(".bench_trace/{}-seed{seed}.json", wl.kind.name());
        std::fs::write(&path, one_line(&doc))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn upper_decile_by_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(upper(xs), 18.0);
        assert_eq!(upper(vec![2.0, 1.0]), 2.0);
        assert_eq!(upper(vec![5.0]), 5.0);
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = per_layer_spec()
            .into_iter()
            .map(|(n, u, _)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn one_line_keeps_the_document() {
        let doc = json::obj(vec![
            ("a", json::num(1.5)),
            (
                "b",
                Json::Arr(vec![json::num(2.0), Json::Str("x y\n".into())]),
            ),
        ]);
        let line = one_line(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(json::parse(&line).expect("parses").pretty(), doc.pretty());
    }
}
