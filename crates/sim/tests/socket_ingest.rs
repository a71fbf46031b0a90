//! Transport determinism: verdicts for socket-delivered traces must be
//! byte-identical to file ingest.
//!
//! The networked ingestion contract: delivering the same recorded trace over
//! TCP or a Unix-domain socket — across daemon crashes and client
//! reconnects — yields the same verdict JSON as reading
//! the file directly, modulo the ledgered `resume`/`conn-*` marker lines the
//! transport records. These tests run the real `TenantServer` accept loop,
//! admitting one producer (`max_clients = 1`), under `serve_tenants` against
//! the real `send_to` client over loopback, and read tenant 1's report.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering;
use std::thread;
use std::time::Duration;

use impress_sim::daemon::{supervise, Checkpoint, DaemonOptions};
use impress_sim::{serve_tenants, Configuration, IngestReport, MultiReport};
use impress_workloads::codec::{DecodeMode, TraceMeta, TraceReader, TraceRecord, TraceWriter};
use impress_workloads::source::{FollowPolicy, SliceSource, TransportEvent};
use impress_workloads::transport::{
    send_to, Endpoint, Listener, MemInput, SendOptions, ServerPoll, TenantLimits, TenantServer,
    TenantSink,
};

const RECORDS: u64 = 50_000;

fn sample_trace() -> Vec<u8> {
    let meta = TraceMeta {
        name: "socket".to_string(),
        cores: 2,
        has_gaps: false,
        instructions_per_miss: vec![40.0, 60.0],
    };
    let mut w = TraceWriter::new(Vec::new(), &meta).unwrap();
    for i in 0..RECORDS {
        w.push(TraceRecord {
            address: i * 64 + ((i % 512) << 26),
            gap: 0,
            core: (i % 2) as u8,
            is_write: i % 5 == 0,
        })
        .unwrap();
    }
    w.finish().unwrap()
}

fn opts(resume_from: Option<Checkpoint>) -> DaemonOptions {
    DaemonOptions {
        window_records: 10_000,
        checkpoint_every: 20_000,
        resume_from,
        resync: true,
        ..DaemonOptions::default()
    }
}

fn policy(idle: Duration) -> FollowPolicy {
    FollowPolicy {
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        idle_limit: idle,
    }
}

/// Unique Unix-socket path per test invocation.
fn unix_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("impress-sock-{}-{tag}.sock", std::process::id()))
}

/// Drops the timing-dependent ledger lines (`resume` markers, `conn-*`
/// transport events and the aggregate `transport` summary block), leaving
/// every deterministic line untouched.
fn modulo_markers(json: &str) -> String {
    json.lines()
        .filter(|l| {
            !l.contains("\"kind\": \"resume\"")
                && !l.contains("\"kind\": \"conn-")
                && !l.contains("\"transport\":")
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

/// A socket server admitting one producer at a time.
fn solo_server(listener: Listener, idle: Duration) -> TenantServer {
    TenantServer::new(
        listener,
        policy(idle),
        TenantLimits {
            max_clients: 1,
            ..TenantLimits::default()
        },
    )
}

/// Tenant 1's report out of a serving run.
fn tenant_one(multi: io::Result<MultiReport>) -> io::Result<IngestReport> {
    let mut multi = multi?;
    let at = multi
        .tenants
        .iter()
        .position(|t| t.tenant == 1)
        .ok_or_else(|| io::Error::other("no producer was admitted"))?;
    multi
        .tenants
        .swap_remove(at)
        .result
        .map_err(io::Error::other)
}

/// A fresh drain flag. Raising it once the producer's FIN is acked ends the
/// serving loop without waiting out its idle limit; a finished tenant gets
/// no drain marker, so the verdict is unchanged.
fn stop_flag() -> &'static AtomicBool {
    Box::leak(Box::new(AtomicBool::new(false)))
}

/// Runs `serve_tenants` over a one-producer server bound to `endpoint` on its
/// own thread, publishing checkpoints to `checkpoint` if given.
fn spawn_daemon(
    endpoint: &Endpoint,
    resume_from: Option<Checkpoint>,
    idle: Duration,
    drain: &'static AtomicBool,
    checkpoint: Option<PathBuf>,
) -> (Endpoint, thread::JoinHandle<io::Result<IngestReport>>) {
    let listener = Listener::bind(endpoint).unwrap();
    let bound = listener.local_endpoint().unwrap();
    let configuration = Configuration::unprotected();
    let handle = thread::spawn(move || {
        let mut server = solo_server(listener, idle).with_drain_flag(drain);
        tenant_one(serve_tenants(
            &mut server,
            &configuration,
            &opts(resume_from),
            checkpoint.as_deref(),
        ))
    });
    (bound, handle)
}

fn send_all(endpoint: &Endpoint, bytes: &[u8], idle: Duration) {
    let mut input = MemInput::new(bytes.to_vec());
    let options = SendOptions {
        policy: policy(idle),
        ..SendOptions::default()
    };
    let outcome = send_to(endpoint, &mut input, &options).expect("delivery must complete");
    assert!(outcome.complete, "FIN must be acked");
    assert_eq!(outcome.acked, bytes.len() as u64);
}

#[test]
fn tcp_and_unix_verdicts_match_file_ingest_at_every_thread_count() {
    let bytes = sample_trace();
    let configuration = Configuration::unprotected();
    let baseline = supervise(
        SliceSource::new(&bytes),
        &configuration,
        &opts(None),
        &mut |_| Ok(()),
    )
    .unwrap()
    .verdict
    .to_json_extended();

    let unix = Endpoint::Unix(unix_path("det"));
    for endpoint in [Endpoint::Tcp("127.0.0.1:0".to_string()), unix] {
        let stop = stop_flag();
        let (bound, daemon) = spawn_daemon(&endpoint, None, Duration::from_secs(5), stop, None);
        send_all(&bound, &bytes, Duration::from_secs(5));
        stop.store(true, Ordering::SeqCst);
        let report = daemon.join().expect("daemon must not panic");
        let verdict = report.unwrap().verdict.to_json_extended();
        assert_eq!(
            modulo_markers(&verdict),
            modulo_markers(&baseline),
            "verdict diverged over {endpoint}"
        );
    }
}

/// A tenant sink that dies on the DATA frame that would bring its committed
/// bytes to `cut_at`, so the stream is never acked past the crash point.
struct DyingSink {
    served: u64,
    cut_at: u64,
    dead: bool,
}

impl TenantSink for DyingSink {
    fn open(&mut self, _tenant: u64) -> io::Result<()> {
        Ok(())
    }

    fn data(&mut self, _tenant: u64, bytes: &[u8]) -> io::Result<()> {
        if self.served + bytes.len() as u64 >= self.cut_at {
            self.dead = true;
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "simulated daemon crash",
            ));
        }
        self.served += bytes.len() as u64;
        Ok(())
    }

    fn event(&mut self, _tenant: u64, _event: TransportEvent) {}

    fn close(&mut self, _tenant: u64) {}

    fn staged(&self, _tenant: u64) -> u64 {
        0
    }
}

/// Serves one producer until `cut_at` canonical bytes are due, then returns
/// `BrokenPipe` and drops the server without a GOODBYE — the daemon dies
/// exactly as if its process were SIGKILLed mid-stream, with the listener
/// torn down.
fn serve_until_crash(listener: Listener, cut_at: u64) -> io::Result<()> {
    let mut server = solo_server(listener, Duration::from_secs(5));
    let mut sink = DyingSink {
        served: 0,
        cut_at,
        dead: false,
    };
    loop {
        let poll = server.poll(&mut sink)?;
        if sink.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "simulated daemon crash",
            ));
        }
        match poll {
            ServerPoll::Done => return Ok(()),
            ServerPoll::Busy => {}
            ServerPoll::Idle => thread::sleep(server.poll_interval()),
        }
    }
}

#[test]
fn kill_daemon_mid_stream_then_reconnect_resumes_from_every_checkpoint() {
    let bytes = sample_trace();
    let configuration = Configuration::unprotected();
    // Checkpoints are a pure function of the stream, so the file ingest
    // publishes exactly the sequence a socket run publishes.
    let mut checkpoints = Vec::new();
    let baseline = supervise(
        SliceSource::new(&bytes),
        &configuration,
        &opts(None),
        &mut |cp| {
            checkpoints.push(*cp);
            Ok(())
        },
    )
    .unwrap()
    .verdict
    .to_json_extended();

    // Uninterrupted socket run; its last published checkpoint must be the
    // file ingest's.
    let path = unix_path("ckpt");
    let endpoint = Endpoint::Unix(path.clone());
    let cp_path = unix_path("ckpt.json");
    let stop = stop_flag();
    let (bound, daemon) = spawn_daemon(
        &endpoint,
        None,
        Duration::from_secs(5),
        stop,
        Some(cp_path.clone()),
    );
    send_all(&bound, &bytes, Duration::from_secs(5));
    stop.store(true, Ordering::SeqCst);
    let report = daemon.join().expect("daemon must not panic");
    report.unwrap();
    assert!(
        !checkpoints.is_empty(),
        "the run must publish at least one checkpoint"
    );
    let published = Checkpoint::parse(&std::fs::read_to_string(&cp_path).unwrap()).unwrap();
    std::fs::remove_file(&cp_path).unwrap();
    assert_eq!(Some(&published), checkpoints.last());

    // Crash the daemon mid-stream, then restart it with --resume semantics
    // from each checkpoint in turn; the retrying client reconnects to the
    // rebound endpoint and the daemon directs it back to byte 0 for
    // deterministic prefix re-execution.
    for cp in checkpoints {
        let listener = Listener::bind(&endpoint).unwrap();
        let crashing = thread::spawn(move || serve_until_crash(listener, cp.source_offset));

        let client_endpoint = endpoint.clone();
        let client_bytes = bytes.clone();
        let client = thread::spawn(move || {
            // Generous downtime budget: the client must ride out the crash
            // and the restart below.
            send_all(&client_endpoint, &client_bytes, Duration::from_secs(15));
        });

        let crashed = crashing.join().expect("crashing daemon must not panic");
        assert!(crashed.is_err(), "the cut source must kill the first run");

        let stop = stop_flag();
        let (_, daemon) = spawn_daemon(&endpoint, Some(cp), Duration::from_secs(5), stop, None);
        client.join().expect("client must not panic");
        stop.store(true, Ordering::SeqCst);
        let report = daemon.join().expect("resumed daemon must not panic");
        let verdict = report.unwrap().verdict.to_json_extended();
        assert!(
            verdict.contains("\"kind\": \"resume\""),
            "the resumed run must record its resume marker"
        );
        assert_eq!(
            modulo_markers(&verdict),
            modulo_markers(&baseline),
            "verdict diverged resuming from the checkpoint at {} records",
            cp.records
        );
    }
}

#[test]
fn graceful_drain_publishes_goodbye_and_conn_drain_marker() {
    let bytes = sample_trace();
    static DRAIN: AtomicBool = AtomicBool::new(false);
    DRAIN.store(false, Ordering::SeqCst);

    let endpoint = Endpoint::Unix(unix_path("drain"));
    let (bound, daemon) = spawn_daemon(&endpoint, None, Duration::from_secs(10), &DRAIN, None);

    // Follow mode: the client delivers everything but never FINs, so the
    // session is still open when the drain lands.
    let client_bytes = bytes.clone();
    let client = thread::spawn(move || {
        let mut input = MemInput::new(client_bytes);
        let options = SendOptions {
            policy: policy(Duration::from_secs(10)),
            follow: true,
            ..SendOptions::default()
        };
        send_to(&bound, &mut input, &options).expect("drain is a graceful end, not an error")
    });

    // Loopback delivery of ~640 KiB takes milliseconds; a generous grace
    // period guarantees the full stream is committed before the drain.
    thread::sleep(Duration::from_millis(1500));
    DRAIN.store(true, Ordering::SeqCst);

    let outcome = client.join().expect("client must not panic");
    assert!(
        outcome.goodbye,
        "the daemon must say goodbye, not just close"
    );
    assert!(!outcome.complete, "no FIN was ever acked");
    assert_eq!(outcome.acked, bytes.len() as u64);

    let report = daemon.join().expect("daemon must not panic");
    let report = report.unwrap();
    assert_eq!(report.records, RECORDS, "every record arrived before drain");
    let verdict = report.verdict.to_json_extended();
    assert!(verdict.contains("\"kind\": \"conn-drain\""));

    // Everything was delivered, so modulo the transport markers the drained
    // verdict matches a clean file ingest.
    let configuration = Configuration::unprotected();
    let baseline = supervise(
        SliceSource::new(&bytes),
        &configuration,
        &opts(None),
        &mut |_| Ok(()),
    )
    .unwrap()
    .verdict
    .to_json_extended();
    assert_eq!(modulo_markers(&verdict), modulo_markers(&baseline));
}

#[test]
fn strict_mode_decode_errors_over_sockets_report_offset_and_frame() {
    let mut bytes = sample_trace();
    // Flip a payload bit deep in the stream: strict decode must fail with the
    // same absolute byte offset and frame index whether the bytes came from a
    // file or a socket.
    let n = bytes.len();
    bytes[n / 2] ^= 0x40;

    let file_err = TraceReader::with_mode(SliceSource::new(&bytes), DecodeMode::Strict)
        .and_then(|mut r| r.read_all())
        .expect_err("corruption must fail a strict decode")
        .to_string();
    assert!(
        file_err.contains("at byte") && file_err.contains("frame"),
        "strict errors carry position context: {file_err}"
    );

    let endpoint = Endpoint::Unix(unix_path("strict"));
    let listener = Listener::bind(&endpoint).unwrap();
    let bound = listener.local_endpoint().unwrap();
    let stop = stop_flag();
    let server = thread::spawn(move || {
        let mut server = solo_server(listener, Duration::from_secs(5)).with_drain_flag(stop);
        let configuration = Configuration::unprotected();
        let strict = DaemonOptions {
            resync: false,
            ..opts(None)
        };
        tenant_one(serve_tenants(&mut server, &configuration, &strict, None))
            .expect_err("corruption must fail a strict decode over the socket")
            .to_string()
    });
    let client_bytes = bytes.clone();
    let client = thread::spawn(move || {
        let mut input = MemInput::new(client_bytes);
        // The server aborts mid-stream on the decode error, so delivery may
        // end in a transport error; only the server-side message matters.
        let options = SendOptions {
            policy: policy(Duration::from_millis(500)),
            retry: false,
            ..SendOptions::default()
        };
        let _ = send_to(&bound, &mut input, &options);
    });
    client.join().expect("client must not panic");
    stop.store(true, Ordering::SeqCst);
    let socket_err = server.join().expect("server must not panic");
    assert_eq!(
        socket_err, file_err,
        "socket-fed strict errors must carry the same absolute position"
    );
}
