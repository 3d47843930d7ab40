//! Loopback-TCP exercise of the real-HTTP [`HttpObjectStore`] — the one
//! integration the `remote-http` feature gets: a miniature in-process
//! HTTP/1.1 object server on `127.0.0.1:0`, driven end to end through
//! the same [`ObjectStore`] surface the simulated remote implements.
//!
//! ```sh
//! cargo test -p halo-runtime --features remote-http --test http_loopback
//! ```
//!
//! Off by default with the feature: plain `cargo test` stays fully
//! offline and never opens a socket.
#![cfg(feature = "remote-http")]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

use halo_ckks::params::CkksParams;
use halo_ckks::sim::SimBackend;
use halo_core::{compile, CompileOptions, CompilerConfig};
use halo_ir::op::TripCount;
use halo_ir::{Function, FunctionBuilder};
use halo_runtime::{
    ExecPolicy, Executor, HttpObjectStore, Inputs, ObjectErrorKind, ObjectStore, RemotePolicy,
    RemoteStore,
};

// ----------------------------------------------------------------------
// The miniature object server: PUT/GET/DELETE /bucket/<key> plus
// `GET /bucket?prefix=` (newline-separated listing), one connection per
// request, `Connection: close` framing — exactly the surface
// `HttpObjectStore` speaks. Two magic keys exercise the status taxonomy:
// `deny` answers 403 (permanent), `boom` answers 500 (transient).
// ----------------------------------------------------------------------

type Objects = Arc<Mutex<BTreeMap<String, Vec<u8>>>>;

const BUCKET: &str = "/snapshots";

fn respond(stream: &mut TcpStream, status: u16, reason: &str, body: &[u8]) {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

fn handle(mut stream: TcpStream, objects: &Objects) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return respond(&mut stream, 400, "Bad Request", b"");
    };
    let (method, target) = (method.to_string(), target.to_string());

    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).is_err() || line.trim_end().is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 && reader.read_exact(&mut body).is_err() {
        return;
    }

    // Listing: GET /bucket?prefix=...
    if let Some(prefix) = target.strip_prefix(&format!("{BUCKET}?prefix=")) {
        let keys: Vec<String> = objects
            .lock()
            .expect("objects lock")
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        return respond(&mut stream, 200, "OK", keys.join("\n").as_bytes());
    }
    let Some(key) = target.strip_prefix(&format!("{BUCKET}/")) else {
        return respond(&mut stream, 400, "Bad Request", b"");
    };
    match key {
        "deny" => return respond(&mut stream, 403, "Forbidden", b""),
        "boom" => return respond(&mut stream, 500, "Internal Server Error", b""),
        _ => {}
    }
    let mut map = objects.lock().expect("objects lock");
    match method.as_str() {
        "PUT" => {
            map.insert(key.to_string(), body);
            respond(&mut stream, 200, "OK", b"");
        }
        "GET" => match map.get(key) {
            Some(bytes) => respond(&mut stream, 200, "OK", &bytes.clone()),
            None => respond(&mut stream, 404, "Not Found", b""),
        },
        "DELETE" => {
            let found = map.remove(key).is_some();
            let (status, reason) = if found {
                (200, "OK")
            } else {
                (404, "Not Found")
            };
            respond(&mut stream, status, reason, b"");
        }
        _ => respond(&mut stream, 405, "Method Not Allowed", b""),
    }
}

/// Starts the server on an ephemeral loopback port; returns the store
/// speaking to it and the shared object map for white-box assertions.
fn loopback_store() -> (HttpObjectStore, Objects) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let authority = listener.local_addr().expect("local addr").to_string();
    let objects: Objects = Arc::new(Mutex::new(BTreeMap::new()));
    let server_view = Arc::clone(&objects);
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            handle(stream, &server_view);
        }
    });
    (HttpObjectStore::new(authority, BUCKET), objects)
}

/// A deadline generous enough that loopback scheduling jitter never
/// masquerades as a remote timeout.
const DEADLINE_US: f64 = 2_000_000.0;

#[test]
fn http_store_round_trips_objects_over_loopback() {
    let (store, objects) = loopback_store();

    store
        .put("snap/0001", b"alpha", DEADLINE_US)
        .expect("put snap/0001");
    store
        .put("snap/0002", b"beta", DEADLINE_US)
        .expect("put snap/0002");
    store
        .put("result/final", b"gamma", DEADLINE_US)
        .expect("put result/final");
    assert_eq!(
        objects.lock().expect("lock").len(),
        3,
        "server holds all puts"
    );

    let got = store.get("snap/0002", DEADLINE_US).expect("get back");
    assert_eq!(got.value, b"beta");

    let listed = store.list("snap/", DEADLINE_US).expect("list snap/");
    assert_eq!(
        listed.value,
        vec!["snap/0001".to_string(), "snap/0002".into()]
    );

    store.delete("snap/0001", DEADLINE_US).expect("delete");
    // Idempotent: deleting a missing key is success, not an error.
    store.delete("snap/0001", DEADLINE_US).expect("re-delete");
    let listed = store.list("snap/", DEADLINE_US).expect("list again");
    assert_eq!(listed.value, vec!["snap/0002".to_string()]);
}

#[test]
fn http_status_taxonomy_maps_to_object_errors() {
    let (store, _objects) = loopback_store();

    let missing = store.get("snap/none", DEADLINE_US).expect_err("404");
    assert!(matches!(missing.kind, ObjectErrorKind::NotFound));

    let denied = store.get("deny", DEADLINE_US).expect_err("403");
    assert!(
        matches!(denied.kind, ObjectErrorKind::Permanent(_)),
        "4xx other than 404 is permanent, got {:?}",
        denied.kind
    );

    let flaky = store.get("boom", DEADLINE_US).expect_err("500");
    assert!(
        matches!(flaky.kind, ObjectErrorKind::Transient(_)),
        "5xx is retryable, got {:?}",
        flaky.kind
    );

    // A dead endpoint (nothing listens on the port any more) is
    // unavailability, not a hang: connect fails fast.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let authority = listener.local_addr().expect("addr").to_string();
    drop(listener);
    let dark = HttpObjectStore::new(authority, BUCKET);
    let err = dark
        .get("snap/0001", DEADLINE_US)
        .expect_err("dead endpoint");
    assert!(matches!(err.kind, ObjectErrorKind::Unavailable));
}

// ----------------------------------------------------------------------
// End to end: the durable executor snapshots through a RemoteStore over
// real loopback HTTP, and a "different machine" resumes from the
// server's objects alone — the same invariant `tests/remote_store.rs`
// proves against the simulated remote.
// ----------------------------------------------------------------------

const N: usize = 32; // 16 slots
const ITERS: u64 = 6;

fn params() -> CkksParams {
    CkksParams {
        poly_degree: N,
        max_level: 8,
        rf_bits: 40,
    }
}

/// `w ← w·x + 0.1` iterated dynamically — the standard durable workload,
/// so snapshots carry real mid-loop ciphertexts and RNG replay state.
fn program() -> Function {
    let mut b = FunctionBuilder::new("http_loop", N / 2);
    let x = b.input_cipher("x");
    let w0 = b.input_cipher("w0");
    let r = b.for_loop(TripCount::dynamic("n"), &[w0], 4, |b, args| {
        let p = b.mul(args[0], x);
        let c = b.const_splat(0.1);
        vec![b.add(p, c)]
    });
    b.ret(&r);
    let src = b.finish();
    compile(&src, CompilerConfig::Halo, &CompileOptions::new(params()))
        .expect("compiles")
        .function
}

fn inputs() -> Inputs {
    Inputs::new()
        .cipher("x", vec![0.8])
        .cipher("w0", vec![1.0])
        .env("n", ITERS)
}

fn bits(outputs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    outputs
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn remote_policy() -> RemotePolicy {
    RemotePolicy {
        op_deadline_us: DEADLINE_US,
        hedge_after_us: DEADLINE_US,
        ..RemotePolicy::default()
    }
}

#[test]
fn durable_run_and_cross_machine_resume_over_loopback_http() {
    let f = program();
    let policy = ExecPolicy::resilient();

    // Uninterrupted baseline on an exact backend.
    let be = SimBackend::exact(params());
    let base = bits(
        &Executor::with_policy(&be, policy.clone())
            .run(&f, &inputs())
            .expect("baseline runs")
            .outputs,
    );

    let (http, objects) = loopback_store();
    let store = RemoteStore::new(http, remote_policy(), 1);
    let be = SimBackend::exact(params());
    let out = Executor::with_policy(&be, policy.clone())
        .run_durable(&f, &inputs(), &store)
        .expect("durable run over loopback HTTP");
    assert_eq!(bits(&out.outputs), base);
    assert_eq!(
        out.stats.remote.puts, ITERS,
        "every snapshot reached the server"
    );
    assert!(
        !objects.lock().expect("lock").is_empty(),
        "snapshot objects live on the HTTP server"
    );

    // "Another machine": a second HTTP server seeded with the first
    // server's objects, a fresh RemoteStore, a fresh backend.
    let (http2, objects2) = loopback_store();
    {
        let src = objects.lock().expect("lock");
        let mut dst = objects2.lock().expect("lock");
        for (k, v) in src.iter() {
            dst.insert(k.clone(), v.clone());
        }
    }
    let other = RemoteStore::new(http2, remote_policy(), 2);
    let be2 = SimBackend::exact(params());
    let resumed = Executor::with_policy(&be2, policy)
        .resume(&f, &inputs(), &other)
        .expect("cross-machine resume over loopback HTTP");
    assert_eq!(bits(&resumed.outputs), base);
    assert_eq!(resumed.stats.resumes_from_disk, 1);
}
