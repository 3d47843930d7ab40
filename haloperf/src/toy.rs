//! Traced-run diagnostics that exist only on the exact toy backend: kernel
//! unit costs from direct calls, the thread-scaling ratio, and the
//! decorator fidelity self-test.

use std::hint::black_box;
use std::time::{Duration, Instant};

use halo_ckks::toy::encode::Encoder;
use halo_ckks::toy::RnsContext;
use halo_ckks::{MetricsSnapshot, ScopedCounters, ToyBackend};
use halo_core::CompileResult;
use halo_runtime::Executor;

use crate::timed::Timed;
use crate::trace::{Tracer, NONE};
use crate::workload::{run_halo_rows, Workload, LEVELS, TOY_N};

/// Per-call costs of the toy kernels at the workload's ring degree,
/// averaged over every prime of its chain.
pub struct KernelUnits {
    pub ntt_row_ns: f64,
    pub intt_row_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
}

/// Mean nanoseconds per `call`, over at least 64 calls and 100 ms, under a
/// kernel-probe span.
fn per_call_ns(tr: &mut Tracer, name: &str, mut call: impl FnMut()) -> f64 {
    let span = tr.open(name, NONE);
    call();
    let t = Instant::now();
    let mut calls = 0u64;
    while calls < 64 || t.elapsed() < Duration::from_millis(100) {
        call();
        calls += 1;
    }
    let ns = t.elapsed().as_nanos() as f64 / calls as f64;
    tr.close(span);
    ns
}

pub fn kernel_units(tr: &mut Tracer) -> KernelUnits {
    let ctx = RnsContext::new(TOY_N, LEVELS as usize);
    let rows: Vec<Vec<u64>> = ctx
        .primes
        .iter()
        .map(|&p| (0..TOY_N as u64).map(|i| (i * 0x9E37_79B9) % p).collect())
        .collect();
    let mut work = rows.clone();
    let mut limb = 0;
    let mut next = |work: &mut Vec<Vec<u64>>| {
        limb = (limb + 1) % work.len();
        limb
    };
    let ntt_row_ns = per_call_ns(tr, "ckks.kernel.probe.ntt_forward", || {
        let i = next(&mut work);
        ctx.tables[i].forward(black_box(&mut work[i]));
    });
    let intt_row_ns = per_call_ns(tr, "ckks.kernel.probe.ntt_inverse", || {
        let i = next(&mut work);
        ctx.tables[i].inverse(black_box(&mut work[i]));
    });
    let enc = Encoder::new(TOY_N);
    let values: Vec<f64> = (0..enc.slots()).map(|i| (i as f64 * 0.37).sin()).collect();
    let delta = 2f64.powi(40);
    let encode_ns = per_call_ns(tr, "ckks.kernel.probe.encode", || {
        black_box(enc.encode(black_box(&values), delta));
    });
    let coeffs = enc.encode(&values, delta);
    let decode_ns = per_call_ns(tr, "ckks.kernel.probe.decode", || {
        black_box(enc.decode(black_box(&coeffs), delta));
    });
    KernelUnits {
        ntt_row_ns,
        intt_row_ns,
        encode_ns,
        decode_ns,
    }
}

/// One-thread over all-thread time of one pass's HALO rows. The timed
/// passes pin one thread, so nothing end to end moves with this.
pub fn thread_speedup(
    wl: &Workload,
    backends: &[ToyBackend],
    compiled: &[(CompileResult, CompileResult)],
    nproc: usize,
) -> f64 {
    let one = run_halo_rows(wl, backends, compiled);
    halo_ckks::parallel::set_threads(Some(nproc));
    let all = run_halo_rows(wl, backends, compiled);
    halo_ckks::parallel::set_threads(Some(1));
    one / all
}

/// The kernel counters that describe the work done, leaving out the
/// buffer-pool counters, which depend on what ran before.
fn structural(m: &MetricsSnapshot) -> [u64; 5] {
    [
        m.ntt_forward_rows,
        m.ntt_inverse_rows,
        m.digit_decomposes,
        m.digit_ntt_rows,
        m.keyswitch_calls,
    ]
}

/// Runs `row` (a HALO output) through the timing decorator and bare, each
/// on a fresh `ToyBackend` keyed with `key_seed`: the decrypted outputs
/// must match bit for bit, and so must the kernel work the two runs did.
pub fn decorator_fidelity(
    wl: &Workload,
    compiled: &[(CompileResult, CompileResult)],
    row: usize,
    key_seed: u64,
) -> Result<(), String> {
    let p = &wl.programs[row];
    let f = &compiled[row].0.function;
    let bare = ToyBackend::new(TOY_N, LEVELS, key_seed);
    let scope = ScopedCounters::begin();
    let want = Executor::new(&bare)
        .run(f, &p.inputs)
        .map_err(|e| e.to_string())?;
    let want_work = structural(&scope.finish());
    let fresh = ToyBackend::new(TOY_N, LEVELS, key_seed);
    let timed = Timed::new(&fresh);
    let scope = ScopedCounters::begin();
    let got = Executor::new(&timed)
        .run(f, &p.inputs)
        .map_err(|e| e.to_string())?;
    let got_work = structural(&scope.finish());
    let bits = |o: &[Vec<f64>]| -> Vec<u64> { o.iter().flatten().map(|x| x.to_bits()).collect() };
    if bits(&got.outputs) != bits(&want.outputs) {
        return Err(format!(
            "{}: decorated outputs differ from the bare run",
            p.name
        ));
    }
    if got_work != want_work {
        return Err(format!(
            "{}: kernel work differs (decorated {got_work:?}, bare {want_work:?})",
            p.name
        ));
    }
    Ok(())
}
