//! Multi-tenant ingestion acceptance: concurrent producers, admission
//! control, per-tenant isolation and overload shedding.
//!
//! The contract under test: with several concurrent producers — including a
//! seeded hostile one and a slow-loris — every well-behaved tenant's verdict
//! is byte-identical to a solo file ingest of its stream (modulo the ledgered
//! transport marker lines); over-capacity dials get a typed BUSY; a hostile
//! or stalling tenant is quarantined without taking the daemon down.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use impress_sim::daemon::{supervise, DaemonOptions};
use impress_sim::{serve_tenants, Configuration, MultiReport};
use impress_workloads::codec::{TraceMeta, TraceRecord, TraceWriter};
use impress_workloads::source::{FollowPolicy, SliceSource};
use impress_workloads::transport::{
    send_to, Endpoint, Listener, MemInput, SendOptions, TenantLimits, TenantServer,
};
use impress_workloads::{connect_flood, run_hostile_producer, run_slow_loris};

const RECORDS: u64 = 20_000;

/// A per-tenant trace: distinct workload name and address pattern so tenants
/// are distinguishable end to end.
fn tenant_trace(name: &str, salt: u64) -> Vec<u8> {
    let meta = TraceMeta {
        name: name.to_string(),
        cores: 2,
        has_gaps: false,
        instructions_per_miss: vec![40.0, 60.0],
    };
    let mut w = TraceWriter::new(Vec::new(), &meta).unwrap();
    for i in 0..RECORDS {
        w.push(TraceRecord {
            address: i * 64 + ((i.wrapping_mul(salt * 2 + 7) % 512) << 26),
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
        ..DaemonOptions::listening()
    }
}

fn policy(idle: Duration) -> FollowPolicy {
    FollowPolicy {
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        idle_limit: idle,
    }
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

/// Reference: what a solo file ingest of `bytes` reports.
fn solo_verdict(bytes: &[u8]) -> String {
    supervise(
        SliceSource::new(bytes),
        &Configuration::unprotected(),
        &opts(),
        &mut |_| Ok(()),
    )
    .unwrap()
    .verdict
    .to_json_extended()
}

/// Spawns `serve_tenants` over a fresh loopback TCP listener.
fn spawn_server(
    limits: TenantLimits,
    options: DaemonOptions,
    idle: Duration,
    flag: &'static AtomicBool,
) -> (Endpoint, thread::JoinHandle<std::io::Result<MultiReport>>) {
    let listener = Listener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
    let bound = listener.local_endpoint().unwrap();
    let handle = thread::spawn(move || {
        let mut server = TenantServer::new(listener, policy(idle), limits).with_drain_flag(flag);
        let configuration = Configuration::unprotected();
        serve_tenants(&mut server, &configuration, &options, None)
    });
    (bound, handle)
}

/// Per-test drain flag with the `'static` lifetime the server requires.
fn drain_flag() -> &'static AtomicBool {
    Box::leak(Box::new(AtomicBool::new(false)))
}

fn clean_send(endpoint: &Endpoint, bytes: &[u8]) -> u64 {
    let mut input = MemInput::new(bytes.to_vec());
    let outcome = send_to(
        endpoint,
        &mut input,
        &SendOptions {
            policy: policy(Duration::from_secs(10)),
            ..SendOptions::default()
        },
    )
    .expect("clean delivery must complete");
    assert!(outcome.complete, "FIN must be acked");
    assert_eq!(outcome.acked, bytes.len() as u64);
    outcome.tenant
}

#[test]
fn concurrent_producers_match_solo_ingest_at_every_thread_count() {
    let traces: Vec<(String, Vec<u8>)> = ["alpha", "beta", "gamma"]
        .iter()
        .enumerate()
        .map(|(i, name)| ((*name).to_string(), tenant_trace(name, i as u64)))
        .collect();

    let flag = drain_flag();
    let (bound, server) = spawn_server(
        TenantLimits::default(),
        opts(),
        Duration::from_secs(10),
        flag,
    );

    // Three clean producers plus one seeded-hostile, all concurrent.
    let clean: Vec<_> = traces
        .iter()
        .map(|(name, bytes)| {
            let ep = bound.clone();
            let name = name.clone();
            let bytes = bytes.clone();
            thread::spawn(move || {
                let token = clean_send(&ep, &bytes);
                (name, token, bytes)
            })
        })
        .collect();
    let hostile = {
        let ep = bound.clone();
        let prefix = traces[0].1[..8192].to_vec();
        thread::spawn(move || {
            run_hostile_producer(&ep, 7, &prefix, 16).expect("hostile loop must terminate")
        })
    };

    let clean: Vec<_> = clean.into_iter().map(|h| h.join().unwrap()).collect();
    let hostile_outcome = hostile.join().unwrap();
    assert!(
        hostile_outcome.quarantined,
        "the violating producer must end up quarantined: \
         {hostile_outcome:?}"
    );

    flag.store(true, Ordering::SeqCst);
    let multi = server
        .join()
        .expect("server must not panic")
        .expect("the accept loop must survive a hostile tenant");
    assert_eq!(multi.tenants.len(), 4, "3 clean + 1 hostile");

    for (name, token, bytes) in &clean {
        let report = multi
            .tenant(*token)
            .unwrap_or_else(|| panic!("tenant {token} missing from the report"))
            .result
            .as_ref()
            .expect("a clean tenant's pipeline must succeed");
        assert_eq!(&report.verdict.workload, name);
        assert_eq!(report.records, RECORDS);
        assert!(
            report.verdict.faults.is_clean(),
            "tenant {token}: {}",
            report.verdict.to_json_extended()
        );
        assert_eq!(
            modulo_markers(&report.verdict.to_json_extended()),
            modulo_markers(&solo_verdict(bytes)),
            "tenant {token} ({name}) diverged from solo ingest"
        );
    }

    // The hostile tenant is isolated: either its pipeline died on the
    // truncated stream, or its verdict carries the quarantine outcome.
    let hostile_report = multi
        .tenant(hostile_outcome.tenant)
        .expect("the hostile tenant was admitted before being banned");
    if let Ok(report) = &hostile_report.result {
        assert_eq!(
            report.verdict.outcome(),
            "quarantined",
            "{}",
            report.verdict.to_json_extended()
        );
    }
}

#[test]
fn over_capacity_floods_get_typed_busy_and_the_daemon_keeps_serving() {
    let flag = drain_flag();
    let limits = TenantLimits {
        max_clients: 2,
        max_pending: 4,
        ..TenantLimits::default()
    };
    let (bound, server) = spawn_server(limits, opts(), Duration::from_secs(10), flag);

    let flood = connect_flood(&bound, 12, Duration::from_secs(5));
    assert_eq!(
        flood.admitted + flood.busy + flood.failed,
        12,
        "every dial is classified: {flood:?}"
    );
    assert!(flood.admitted >= 1, "{flood:?}");
    assert!(
        flood.busy >= 1,
        "over-capacity dials must get the typed BUSY reject: {flood:?}"
    );

    // After the flood drains, a clean producer is admitted and served intact.
    let bytes = tenant_trace("after-flood", 3);
    let token = clean_send(&bound, &bytes);

    flag.store(true, Ordering::SeqCst);
    let multi = server
        .join()
        .expect("server must not panic")
        .expect("the accept loop must survive the flood");
    let report = multi
        .tenant(token)
        .expect("the post-flood tenant must be admitted")
        .result
        .as_ref()
        .expect("the post-flood tenant's pipeline must succeed");
    assert_eq!(
        modulo_markers(&report.verdict.to_json_extended()),
        modulo_markers(&solo_verdict(&bytes)),
        "the flood must not disturb a later clean tenant"
    );
}

#[test]
fn slow_loris_is_stall_evicted_into_quarantine_without_disturbing_others() {
    let flag = drain_flag();
    let limits = TenantLimits {
        stall_limit: Duration::from_millis(200),
        quarantine_after: 2,
        ..TenantLimits::default()
    };
    let (bound, server) = spawn_server(limits, opts(), Duration::from_secs(10), flag);

    let loris = {
        let ep = bound.clone();
        thread::spawn(move || {
            run_slow_loris(&ep, 8, Duration::from_secs(3)).expect("loris loop must terminate")
        })
    };
    let bytes = tenant_trace("steady", 11);
    let token = clean_send(&bound, &bytes);
    let loris_outcome = loris.join().unwrap();
    assert!(
        loris_outcome.quarantined,
        "holding a session open without progress must end in quarantine: {loris_outcome:?}"
    );
    assert!(
        loris_outcome.sessions >= 2,
        "eviction, not instant ban: {loris_outcome:?}"
    );

    flag.store(true, Ordering::SeqCst);
    let multi = server
        .join()
        .expect("server must not panic")
        .expect("the accept loop must survive the slow loris");
    let report = multi
        .tenant(token)
        .expect("the steady tenant must be admitted")
        .result
        .as_ref()
        .expect("the steady tenant's pipeline must succeed");
    assert_eq!(report.records, RECORDS);
    assert_eq!(
        modulo_markers(&report.verdict.to_json_extended()),
        modulo_markers(&solo_verdict(&bytes)),
        "the slow loris must not disturb the steady tenant"
    );
}
