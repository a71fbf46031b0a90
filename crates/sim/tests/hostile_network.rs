//! Hostile-network robustness: seeded transport faults against live
//! endpoints.
//!
//! Every run drives the real `TenantServer` accept loop, admitting one
//! producer (`max_clients = 1`), under `serve_tenants` against the real
//! retrying client, with a seeded [`ConnFaultPlan`] wrapping the client's
//! wire in a [`FaultTransport`]; tenant 1's report is the daemon's verdict.
//! The contract under attack:
//!
//! - neither endpoint ever panics, whatever the plan injects;
//! - a retrying client always terminates, delivers a byte-identical stream,
//!   and leaves a clean ledger (transport markers only);
//! - a non-retrying client's damage is bounded by the plan oracle — the
//!   daemon recovers exactly the intact prefix records and its ledger
//!   accounts for at least every in-band-detectable lost record.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use impress_sim::{serve_tenants, supervise, Configuration, DaemonOptions, IngestReport};
use impress_workloads::codec::{TraceMeta, TraceRecord, TraceWriter};
use impress_workloads::source::{FollowPolicy, SliceSource};
use impress_workloads::transport::{
    send_stream, Endpoint, Listener, MemInput, SendOptions, TenantLimits, TenantServer, WireLink,
};
use impress_workloads::{ConnFaultPlan, ConnFaultState, FaultTransport, FrameMap};

/// ~2.1 codec frames: big enough that seeded cuts land mid-stream, small
/// enough that a dozen supervised runs stay CI-friendly.
const RECORDS: u64 = 2 * 8192 + 500;

/// DATA frame payload size for every hostile run — the oracle's coordinate
/// system (`delivered_prefix` rounds to this grain).
const DATA_BYTES: usize = 1024;

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 42];

fn sample_trace() -> Vec<u8> {
    let meta = TraceMeta {
        name: "hostile".to_string(),
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

fn opts() -> DaemonOptions {
    DaemonOptions {
        window_records: 4096,
        checkpoint_every: 0,
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

fn unix_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("impress-hostile-{}-{tag}.sock", std::process::id()))
}

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

/// Serves one producer at a time on its own thread and returns tenant 1's
/// report. Raising `drain` ends the serving loop before its idle limit.
fn spawn_daemon(
    endpoint: &Endpoint,
    idle: Duration,
    drain: &'static AtomicBool,
) -> (Endpoint, thread::JoinHandle<io::Result<IngestReport>>) {
    let listener = Listener::bind(endpoint).unwrap();
    let bound = listener.local_endpoint().unwrap();
    let configuration = Configuration::unprotected();
    let handle = thread::spawn(move || {
        let limits = TenantLimits {
            max_clients: 1,
            ..TenantLimits::default()
        };
        let mut server = TenantServer::new(listener, policy(idle), limits).with_drain_flag(drain);
        let mut multi = serve_tenants(&mut server, &configuration, &opts(), None)?;
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
    });
    (bound, handle)
}

fn stop_flag() -> &'static AtomicBool {
    Box::leak(Box::new(AtomicBool::new(false)))
}

/// Streams `bytes` through a seeded [`FaultTransport`]; the fired-state is
/// shared across reconnects so each op fires exactly once.
fn faulted_send(
    bytes: Vec<u8>,
    endpoint: Endpoint,
    plan: &ConnFaultPlan,
    retry: bool,
    idle: Duration,
) -> thread::JoinHandle<(io::Result<impress_workloads::transport::SendOutcome>, usize)> {
    let state = ConnFaultState::shared(plan);
    thread::spawn(move || {
        let mut input = MemInput::new(bytes);
        let options = SendOptions {
            policy: policy(idle),
            retry,
            data_bytes: DATA_BYTES,
            ..SendOptions::default()
        };
        let dial_state = state.clone();
        let result = send_stream(
            &mut input,
            || WireLink::connect(&endpoint).map(|l| FaultTransport::new(l, dial_state.clone())),
            &options,
        );
        let cuts_fired = state.lock().unwrap().cuts_fired();
        (result, cuts_fired)
    })
}

#[test]
fn retrying_client_survives_every_seeded_plan_with_verdict_identity() {
    let bytes = sample_trace();
    let configuration = Configuration::unprotected();
    let baseline = supervise(
        SliceSource::new(&bytes),
        &configuration,
        &opts(),
        &mut |_| Ok(()),
    )
    .unwrap()
    .verdict
    .to_json_extended();

    for seed in SEEDS {
        let plan = ConnFaultPlan::seeded(seed, bytes.len() as u64);
        let stop = stop_flag();
        let (bound, daemon) = spawn_daemon(
            &Endpoint::Unix(unix_path(&format!("retry{seed}"))),
            Duration::from_secs(2),
            stop,
        );
        let client = faulted_send(bytes.clone(), bound, &plan, true, Duration::from_secs(5));

        let (result, cuts_fired) = client.join().expect("client must not panic (seed {seed})");
        // Delivery is over (the FIN is acked below): end serving now instead
        // of idling out; a finished tenant gets no drain marker.
        stop.store(true, Ordering::SeqCst);
        let outcome = result.expect("retrying client must terminate successfully");
        assert!(outcome.complete, "seed {seed}: FIN must be acked");
        assert_eq!(outcome.acked, bytes.len() as u64, "seed {seed}");
        assert_eq!(
            outcome.sessions,
            1 + cuts_fired as u64,
            "seed {seed}: one reconnect per severed connection"
        );

        let report = daemon
            .join()
            .expect("daemon must not panic")
            .expect("seed {seed}: the supervised run must finish");
        assert_eq!(report.records, RECORDS, "seed {seed}");
        assert!(
            report.verdict.faults.is_clean(),
            "seed {seed}: retry must leave only transport markers: {}",
            report.verdict.to_json_extended()
        );
        assert_eq!(
            modulo_markers(&report.verdict.to_json_extended()),
            modulo_markers(&baseline),
            "seed {seed}: verdict diverged under transport faults"
        );
    }
}

#[test]
fn non_retrying_client_damage_is_bounded_by_the_plan_oracle() {
    let bytes = sample_trace();
    let map = FrameMap::scan(&bytes).unwrap();

    for seed in SEEDS {
        let plan = ConnFaultPlan::seeded(seed, bytes.len() as u64);
        let expect = plan
            .expected_no_retry(&map, DATA_BYTES)
            .expect("the truncation oracle applies to every seeded plan");

        // Short accept-loop idle: once the client dies the daemon must wind
        // down on its own rather than waiting for a reconnect.
        let (bound, daemon) = spawn_daemon(
            &Endpoint::Unix(unix_path(&format!("noretry{seed}"))),
            Duration::from_millis(400),
            stop_flag(),
        );
        let client = faulted_send(bytes.clone(), bound, &plan, false, Duration::from_secs(2));

        let (result, _) = client.join().expect("client must not panic");
        assert_eq!(
            result.is_err(),
            plan.first_cut().is_some(),
            "seed {seed}: a cut kills a non-retrying client, nothing else does"
        );

        let report = daemon
            .join()
            .expect("daemon must not panic")
            .expect("seed {seed}: resync ingest survives a truncated stream");
        let verdict = report.verdict.to_json_extended();
        let lost = report.verdict.faults.records_lost();

        // Recovered records are exactly the intact frames of the delivered
        // prefix; the ledger owns at least every in-band-detectable loss.
        assert_eq!(
            report.records, expect.intact_records,
            "seed {seed}: {verdict}"
        );
        assert!(
            lost >= expect.damaged_records,
            "seed {seed}: ledger lost {lost} < oracle damaged {}",
            expect.damaged_records
        );
        assert!(
            report.records + lost + expect.unaccounted_records >= expect.baseline_records,
            "seed {seed}: recovered + lost must cover the oracle baseline"
        );
        if expect.mid_frame_cut {
            assert!(
                verdict.contains("\"kind\": \"truncated-stream\""),
                "seed {seed}: a mid-frame cut must raise the truncated flag: {verdict}"
            );
        }
    }
}
