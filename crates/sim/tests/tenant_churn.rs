//! Session-churn soak: dozens of seeded connect/disconnect/resume cycles
//! against one multi-tenant daemon, sequential and concurrent.
//!
//! Every producer wraps its wire in a seeded [`ConnFaultPlan`]
//! (disconnects, short writes, stalls, duplicate tails), so each delivery is
//! a churn of severed sessions and offset resumes. The soak asserts the
//! final contract: every tenant's verdict is identical to a solo file ingest
//! (modulo transport markers), nothing is lost, session counts are exactly
//! `1 + cuts`, the ledger stays bounded by the injected cut count — and the
//! whole run is reproducible: a second daemon fed the same seeds produces
//! the same stripped verdicts and the same per-seed session counts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use impress_sim::daemon::{supervise, DaemonOptions};
use impress_sim::{serve_tenants, Configuration, MultiReport};
use impress_workloads::codec::{TraceMeta, TraceRecord, TraceWriter};
use impress_workloads::source::{FollowPolicy, SliceSource};
use impress_workloads::transport::{
    send_stream, Endpoint, Listener, MemInput, SendOptions, TenantLimits, TenantServer, WireLink,
};
use impress_workloads::{ConnFaultPlan, ConnFaultState, FaultTransport};

/// ~1.06 codec frames: cuts land mid-stream, many supervised pipelines stay
/// CI-friendly.
const RECORDS: u64 = 8192 + 500;

const DATA_BYTES: usize = 1024;

/// Total connect/disconnect/resume cycles the soak must reach.
const TARGET_CYCLES: u64 = 50;

fn sample_trace() -> Vec<u8> {
    let meta = TraceMeta {
        name: "churn".to_string(),
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

/// Seeds whose planned cut counts add up to at least [`TARGET_CYCLES`]
/// sessions, paired with each seed's planned `1 + cuts` session count.
fn seed_schedule(payload_len: u64) -> Vec<(u64, u64)> {
    let mut schedule = Vec::new();
    let mut planned = 0u64;
    let mut seed = 1u64;
    while planned < TARGET_CYCLES {
        let plan = ConnFaultPlan::seeded(seed, payload_len);
        let cuts = plan.ops.iter().filter(|op| op.cuts()).count() as u64;
        planned += 1 + cuts;
        schedule.push((seed, 1 + cuts));
        seed += 1;
    }
    schedule
}

/// One churning producer: a seeded fault plan over a retrying sender.
/// Returns `(tenant token, sessions opened)`.
fn churn_send(endpoint: &Endpoint, bytes: &[u8], seed: u64) -> (u64, u64) {
    let plan = ConnFaultPlan::seeded(seed, bytes.len() as u64);
    let state = ConnFaultState::shared(&plan);
    let mut input = MemInput::new(bytes.to_vec());
    let options = SendOptions {
        policy: policy(Duration::from_secs(10)),
        data_bytes: DATA_BYTES,
        ..SendOptions::default()
    };
    let ep = endpoint.clone();
    let outcome = send_stream(
        &mut input,
        || WireLink::connect(&ep).map(|l| FaultTransport::new(l, state.clone())),
        &options,
    )
    .unwrap_or_else(|e| panic!("seed {seed}: retrying delivery must complete: {e}"));
    assert!(outcome.complete, "seed {seed}: FIN must be acked");
    assert_eq!(outcome.acked, bytes.len() as u64, "seed {seed}");
    (outcome.tenant, outcome.sessions)
}

/// One full soak round: sequential producers for the first half of the
/// schedule, concurrent for the second. Returns, per seed in schedule order,
/// `(sessions, stripped verdict, ledger entries)`.
fn churn_round(bytes: &[u8], schedule: &[(u64, u64)]) -> Vec<(u64, String, usize)> {
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let listener = Listener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
    let bound = listener.local_endpoint().unwrap();
    let limits = TenantLimits {
        max_clients: schedule.len().max(8),
        ..TenantLimits::default()
    };
    let server = thread::spawn(move || {
        let mut server = TenantServer::new(listener, policy(Duration::from_secs(10)), limits)
            .with_drain_flag(flag);
        let configuration = Configuration::unprotected();
        serve_tenants(&mut server, &configuration, &opts(), None)
    });

    let split = schedule.len() / 2;
    let mut by_seed: Vec<(u64, u64, u64)> = Vec::new(); // (seed, tenant, sessions)
    for &(seed, _) in &schedule[..split] {
        let (tenant, sessions) = churn_send(&bound, bytes, seed);
        by_seed.push((seed, tenant, sessions));
    }
    let concurrent: Vec<_> = schedule[split..]
        .iter()
        .map(|&(seed, _)| {
            let ep = bound.clone();
            let bytes = bytes.to_vec();
            thread::spawn(move || {
                let (tenant, sessions) = churn_send(&ep, &bytes, seed);
                (seed, tenant, sessions)
            })
        })
        .collect();
    for handle in concurrent {
        by_seed.push(handle.join().expect("producer must not panic"));
    }

    flag.store(true, Ordering::SeqCst);
    let multi: MultiReport = server
        .join()
        .expect("server must not panic")
        .expect("the accept loop must survive the churn");

    by_seed
        .into_iter()
        .map(|(seed, tenant, sessions)| {
            let report = multi
                .tenant(tenant)
                .unwrap_or_else(|| panic!("seed {seed}: tenant {tenant} missing"))
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("seed {seed}: pipeline failed: {e}"));
            assert_eq!(report.records, RECORDS, "seed {seed}");
            assert_eq!(
                report.verdict.faults.records_lost(),
                0,
                "seed {seed}: churn must never lose committed records"
            );
            assert!(
                report.verdict.faults.is_clean(),
                "seed {seed}: only transport markers allowed: {}",
                report.verdict.to_json_extended()
            );
            (
                sessions,
                modulo_markers(&report.verdict.to_json_extended()),
                report.verdict.faults.entries.len(),
            )
        })
        .collect()
}

#[test]
fn fifty_churn_cycles_preserve_verdict_identity_and_reproduce_exactly() {
    let bytes = sample_trace();
    let schedule = seed_schedule(bytes.len() as u64);
    let planned: u64 = schedule.iter().map(|&(_, sessions)| sessions).sum();
    assert!(
        planned >= TARGET_CYCLES,
        "schedule must plan >= {TARGET_CYCLES} cycles, got {planned}"
    );

    let baseline = modulo_markers(
        &supervise(
            SliceSource::new(&bytes),
            &Configuration::unprotected(),
            &opts(),
            &mut |_| Ok(()),
        )
        .unwrap()
        .verdict
        .to_json_extended(),
    );

    let first = churn_round(&bytes, &schedule);
    let total: u64 = first.iter().map(|(sessions, _, _)| sessions).sum();
    assert!(
        total >= TARGET_CYCLES,
        "the soak must drive >= {TARGET_CYCLES} sessions, drove {total}"
    );
    for (i, (sessions, stripped, entries)) in first.iter().enumerate() {
        let (seed, planned_sessions) = schedule[i];
        assert_eq!(
            *sessions, planned_sessions,
            "seed {seed}: one session per planned cut, plus the first"
        );
        assert_eq!(
            stripped, &baseline,
            "seed {seed}: verdict diverged from solo ingest"
        );
        // Each cut ledgers at most a resume, a conn-resume and a
        // duplicates-dropped entry; the drain can add one goodbye marker.
        let cuts = planned_sessions - 1;
        assert!(
            *entries as u64 <= 3 * cuts + 1,
            "seed {seed}: ledger must stay bounded: {entries} entries for {cuts} cuts"
        );
    }

    // Reproducibility: same seeds, fresh daemon -> same stripped verdicts and
    // the same per-seed session counts.
    let second = churn_round(&bytes, &schedule);
    for (i, ((s1, v1, _), (s2, v2, _))) in first.iter().zip(second.iter()).enumerate() {
        let (seed, _) = schedule[i];
        assert_eq!(s1, s2, "seed {seed}: session count must reproduce");
        assert_eq!(v1, v2, "seed {seed}: stripped verdict must reproduce");
    }
}
