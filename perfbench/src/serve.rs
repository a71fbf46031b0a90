//! `serve-tenants`: an in-process multi-tenant daemon on loopback TCP.
//!
//! `serve_tenants` runs a `TenantServer` under Graphene+ImPress-P with the
//! listening defaults of `trace daemon --listen`. The load is a closed loop:
//! one client thread per CPU (see [`client_count`]), each sending a seeded
//! benign trace with `send_to`, one session after another; every session is
//! a new tenant. When the clients stop, the drain flag ends the server, and
//! every tenant's verdict is checked against a solo `supervise` of its bytes
//! computed during set-up.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use impress_sim::daemon::{supervise, DaemonOptions};
use impress_sim::{serve_tenants, Configuration, MultiReport, TraceRunner};
use impress_workloads::codec::TraceReader;
use impress_workloads::source::{FollowPolicy, SliceSource};
use impress_workloads::transport::{
    send_to, Endpoint, Listener, MemInput, SendOptions, SendOutcome, TenantLimits, TenantServer,
};

use crate::ingest::layer_metrics;
use crate::inputs::{tenant_traces, Trace};
use crate::layers::{self, LayerInputs, LayerSample};
use crate::spans::Tracer;
use crate::{median, quantile, Fnv, Metric, Report, Setups};

/// Set-up repetitions; the reported set-up time is their median. The
/// serving run cannot be interleaved with set-ups, so they bracket it:
/// [`SETUP_REPS_BEFORE`] before serving, the rest after.
const SETUP_REPS: usize = 5;

/// Set-up repetitions before the serving run.
const SETUP_REPS_BEFORE: usize = 3;

/// Sessions per run at least, so that ten or more lie beyond p90.
const MIN_SESSIONS: usize = 100;

/// Sessions per second of `--seconds`. A run serves a fixed number of
/// sessions, so every commit serves the same work and holds the same number
/// of finished tenants when the server drains. Two clients on a 2-CPU host
/// finish about four 2 M-record sessions a second, so up to 25 s of
/// `--seconds` a run serves [`MIN_SESSIONS`] and lasts longer than asked.
const SESSIONS_PER_SECOND: f64 = 4.0;

/// Rounds of isolated layer calls per tenant trace in the traced run.
const LAYER_ROUNDS: usize = 3;

struct Inputs {
    traces: Vec<Trace>,
    /// Solo `supervise` verdict of each trace, transport markers removed.
    solo: Vec<String>,
    server: TenantServer,
    endpoint: Endpoint,
    drain: &'static AtomicBool,
    configuration: Configuration,
    options: DaemonOptions,
}

/// Drops the ledger lines a transport adds and a solo ingest never has.
fn modulo_markers(json: &str) -> String {
    json.lines()
        .filter(|l| {
            !l.contains("\"kind\": \"resume\"")
                && !l.contains("\"kind\": \"conn-")
                && !l.contains("\"transport\":")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn solo_verdict(trace: &Trace, configuration: &Configuration, options: &DaemonOptions) -> String {
    let report = supervise(
        SliceSource::new(&trace.bytes),
        configuration,
        options,
        &mut |_| Ok(()),
    )
    .expect("solo supervise of a generated trace");
    modulo_markers(&report.verdict.to_json_extended())
}

fn setup(seed: u64) -> Inputs {
    let configuration = layers::protected_configuration();
    let options = DaemonOptions::listening();
    let traces = tenant_traces(seed);
    let solo = traces
        .iter()
        .map(|t| solo_verdict(t, &configuration, &options))
        .collect();
    let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()))
        .expect("bind a loopback listener");
    let endpoint = listener.local_endpoint().expect("bound endpoint");
    // The server requires a drain flag that outlives it.
    let drain: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let server = TenantServer::new(listener, FollowPolicy::listening(), TenantLimits::default())
        .with_drain_flag(drain);
    Inputs {
        traces,
        solo,
        server,
        endpoint,
        drain,
        configuration,
        options,
    }
}

/// One client session.
struct Session {
    trace: usize,
    /// Whether the session ran inside a span.
    traced: bool,
    start: Instant,
    end: Instant,
    result: io::Result<SendOutcome>,
}

/// One closed-loop serving run.
struct Served {
    sessions: Vec<Session>,
    multi: io::Result<MultiReport>,
    start: Instant,
    last_fin: Instant,
    end: Instant,
}

/// Sessions a run of `seconds` serves.
fn session_count(seconds: f64) -> usize {
    ((seconds * SESSIONS_PER_SECOND).round() as usize).max(MIN_SESSIONS)
}

/// Client threads: one per CPU, capped at half the daemon's default
/// `max_clients`, so that a finished session the server has not yet reaped
/// never pushes a new dial into a BUSY reject.
fn client_count() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    nproc.min(TenantLimits::default().max_clients / 2).max(1)
}

/// Serves `count` sessions with [`client_count`] closed-loop clients. With
/// a tracer, the sessions of every other round through the traces run inside
/// `transport.session` spans, recorded by the client thread as it runs,
/// under one `serve` span that also holds the drain.
fn serve(inputs: &mut Inputs, count: usize, mut tracer: Option<&mut Tracer>) -> Served {
    let clients = client_count();
    let started = AtomicUsize::new(0);
    let root = tracer.as_deref_mut().map(|t| t.open("serve", None, 0));
    let forks: Vec<Option<Tracer>> = (0..clients)
        .map(|_| tracer.as_deref().map(Tracer::fork))
        .collect();
    let start = Instant::now();
    let Inputs {
        traces,
        server,
        endpoint,
        drain,
        configuration,
        options,
        ..
    } = inputs;
    let (traces, endpoint, started) = (&*traces, &*endpoint, &started);
    let (sessions, spans, multi, last_fin) = std::thread::scope(|scope| {
        let server = scope.spawn(move || serve_tenants(server, configuration, options, None));
        let handles: Vec<_> = forks
            .into_iter()
            .map(|mut spans| {
                scope.spawn(move || {
                    let mut sessions = Vec::new();
                    loop {
                        let n = started.fetch_add(1, Ordering::SeqCst);
                        if n >= count {
                            break (sessions, spans);
                        }
                        let trace = n % traces.len();
                        let mut input = MemInput::new(traces[trace].bytes.clone());
                        // No retries: a BUSY reject must surface as a failed
                        // session instead of being retried out of sight.
                        let options = SendOptions {
                            retry: false,
                            ..SendOptions::default()
                        };
                        let mut send = || send_to(endpoint, &mut input, &options);
                        // Alternate by round of traces, so every trace is
                        // sent both traced and untraced.
                        let span = spans.as_mut().filter(|_| (n / traces.len()) % 2 == 1);
                        let traced = span.is_some();
                        let start = Instant::now();
                        let result = match span {
                            Some(t) => t.time("transport.session", None, 1 + n as u64, send).0,
                            None => send(),
                        };
                        sessions.push(Session {
                            trace,
                            traced,
                            start,
                            end: Instant::now(),
                            result,
                        });
                    }
                })
            })
            .collect();
        let (mut sessions, mut spans) = (Vec::new(), Vec::new());
        for h in handles {
            let (s, t) = h.join().expect("client thread panicked");
            sessions.extend(s);
            spans.extend(t);
        }
        let last_fin = sessions
            .iter()
            .map(|s: &Session| s.end)
            .max()
            .unwrap_or(start);
        drain.store(true, Ordering::SeqCst);
        let multi = server.join().expect("server thread panicked");
        (sessions, spans, multi, last_fin)
    });
    let end = Instant::now();
    if let (Some(t), Some(root)) = (tracer, root) {
        for fork in spans {
            t.absorb(fork, root);
        }
        t.record("tenants.drain", Some(root), 0, last_fin, end);
        t.close(root);
    }
    Served {
        sessions,
        multi,
        start,
        last_fin,
        end,
    }
}

/// Output checks of one serving run; returns the records the completed
/// sessions delivered.
fn check(inputs: &Inputs, served: &Served, report: &mut Report) -> u64 {
    let mut records = 0u64;
    let mut by_tenant = std::collections::BTreeMap::new();
    for s in &served.sessions {
        report.attempted += 1;
        let len = inputs.traces[s.trace].bytes.len() as u64;
        match &s.result {
            Ok(o) if o.complete && o.acked == len => {
                by_tenant.insert(o.tenant, s.trace);
            }
            Ok(o) => {
                report.failed += 1;
                report.errors.push(format!(
                    "session incomplete: acked {} of {len} bytes (complete {})",
                    o.acked, o.complete
                ));
            }
            Err(e) => {
                report.failed += 1;
                report.errors.push(format!("session failed: {e}"));
            }
        }
    }
    let multi = match &served.multi {
        Ok(m) => m,
        Err(e) => {
            report.errors.push(format!("serve_tenants failed: {e}"));
            return 0;
        }
    };
    if multi.tenants.len() != by_tenant.len() {
        report.errors.push(format!(
            "{} tenants admitted for {} completed sessions",
            multi.tenants.len(),
            by_tenant.len()
        ));
    }
    for (tenant, trace) in by_tenant {
        let ok = match multi.tenant(tenant).map(|t| &t.result) {
            Some(Ok(r)) => {
                let json = modulo_markers(&r.verdict.to_json_extended());
                r.records == inputs.traces[trace].records.len() as u64
                    && r.verdict.faults.is_clean()
                    && json == inputs.solo[trace]
            }
            _ => false,
        };
        if ok {
            records += inputs.traces[trace].records.len() as u64;
        } else {
            report.failed += 1;
            report.errors.push(format!(
                "tenant {tenant} verdict differs from a solo supervise of its bytes"
            ));
        }
    }
    records
}

fn digest(inputs: &Inputs) -> u64 {
    let mut h = Fnv::default();
    for v in &inputs.solo {
        h.text(v);
    }
    h.finish()
}

fn session_secs(served: &Served) -> Vec<f64> {
    served
        .sessions
        .iter()
        .map(|s| (s.end - s.start).as_secs_f64())
        .collect()
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let count = session_count(seconds);
    println!("clients {}", client_count());
    if !traced {
        let (mut setups, mut inputs) = Setups::first(SETUP_REPS, || setup(seed));
        for _ in 1..SETUP_REPS_BEFORE {
            inputs = setups.rebuild(inputs, || setup(seed));
        }
        let served = serve(&mut inputs, count, None);
        let records = check(&inputs, &served, &mut report);
        report.digest = digest(&inputs);
        drop(inputs);
        setups.rest(|| setup(seed));
        let wall = (served.end - served.start).as_secs_f64();
        report.end_to_end(
            setups.median(),
            &session_secs(&served),
            records as f64,
            wall,
        );
        eprintln!(
            "perfbench: {} sessions, {} records in {wall:.3} s, drain {:.3} s",
            served.sessions.len(),
            records,
            (served.end - served.last_fin).as_secs_f64()
        );
        return report;
    }

    // Traced: one serving run in which every other session is traced, then
    // the isolated layer calls on the tenant traces.
    let mut inputs = setup(seed);
    let mut tracer = Tracer::new();
    let served = serve(&mut inputs, count, Some(&mut tracer));
    check(&inputs, &served, &mut report);
    report.digest = digest(&inputs);

    let sessions = session_secs(&served);
    let kind_secs = |traced: bool| -> Vec<f64> {
        served
            .sessions
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    };
    let outcomes: Vec<&SendOutcome> = served
        .sessions
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .collect();
    let acked: u64 = outcomes.iter().map(|o| o.acked).sum();
    let busy = served
        .sessions
        .iter()
        .filter(|s| {
            s.result
                .as_ref()
                .is_err_and(|e| e.kind() == io::ErrorKind::ConnectionRefused)
        })
        .count();
    let (admitted, tenant_failures) = served.multi.as_ref().map_or((0, 0), |m| {
        (
            m.tenants.len(),
            m.tenants.iter().filter(|t| t.result.is_err()).count(),
        )
    });
    let mut mitigative = 0u64;
    let mut activations = 0u64;
    for t in served.multi.iter().flat_map(|m| &m.tenants) {
        if let Ok(r) = &t.result {
            mitigative += r.memory.banks.mitigative_activations;
            activations += r.memory.banks.activations;
        }
    }
    let n = sessions.len();
    let mut metrics = vec![
        Metric::new(
            "sim.mitigative_acts_per_kact",
            mitigative as f64 * 1e3 / activations.max(1) as f64,
            admitted,
        ),
        Metric::new("transport.session_s_p50", quantile(&sessions, 0.5), n),
        Metric::new("transport.session_s_p90", quantile(&sessions, 0.9), n),
        Metric::new(
            "transport.mb_per_s",
            acked as f64 / 1e6 / sessions.iter().sum::<f64>(),
            n,
        ),
        Metric::new(
            "transport.sessions_per_stream",
            outcomes.iter().map(|o| o.sessions).sum::<u64>() as f64 / outcomes.len().max(1) as f64,
            n,
        ),
        Metric::new(
            "transport.retransmitted_bytes",
            outcomes.iter().map(|o| o.retransmitted).sum::<u64>() as f64,
            n,
        ),
        Metric::new("transport.busy_rejects", busy as f64, n),
        Metric::new("tenants.admitted", admitted as f64, 1),
        Metric::new("tenants.failed", tenant_failures as f64, 1),
        Metric::new(
            "tenants.drain_s",
            (served.end - served.last_fin).as_secs_f64(),
            1,
        ),
        Metric::new(
            "trace.overhead_ratio",
            median(&kind_secs(true)) / median(&kind_secs(false)),
            n,
        ),
    ];
    drop(served);

    // Isolated layers: every tenant trace runs through the pipeline's
    // layers, and through `supervise` and `TraceRunner::ingest` on the same
    // in-memory bytes for the daemon's overhead, `LAYER_ROUNDS` times. One
    // trace's layer inputs are held at a time; a round's sample adds up its
    // four traces.
    let mut parts: Vec<Vec<LayerSample>> = vec![Vec::new(); LAYER_ROUNDS];
    let mut ingest_s = vec![0.0; LAYER_ROUNDS];
    let mut supervise_s = vec![0.0; LAYER_ROUNDS];
    for (t, trace) in inputs.traces.iter().enumerate() {
        let prepared = LayerInputs::prepare(trace);
        for round in 0..LAYER_ROUNDS {
            let op = (1 + n + round * inputs.traces.len() + t) as u64;
            let layers_root = tracer.open("layers", None, op);
            let (_, id) = tracer.time("trace_runner.ingest", Some(layers_root), op, || {
                let reader = TraceReader::new(SliceSource::new(&trace.bytes)).expect("header");
                TraceRunner::new()
                    .ingest(reader, &inputs.configuration)
                    .expect("tenant trace ingests")
            });
            ingest_s[round] += tracer.span(id).secs();
            let (_, id) = tracer.time("daemon.supervise", Some(layers_root), op, || {
                supervise(
                    SliceSource::new(&trace.bytes),
                    &inputs.configuration,
                    &inputs.options,
                    &mut |_| Ok(()),
                )
                .expect("tenant trace supervises")
            });
            supervise_s[round] += tracer.span(id).secs();
            parts[round].push(layers::measure(
                &mut tracer,
                layers_root,
                op,
                trace,
                &prepared,
            ));
            tracer.close(layers_root);
        }
    }
    metrics.push(Metric::new(
        "daemon.overhead_ratio",
        median(&supervise_s) / median(&ingest_s),
        LAYER_ROUNDS,
    ));
    let samples: Vec<(f64, LayerSample)> = ingest_s
        .into_iter()
        .zip(parts)
        .map(|(s, p)| (s, LayerSample::sum(p)))
        .collect();
    metrics.extend(layer_metrics(&samples));
    report.metrics = metrics;
    report.spans = Some(tracer);
    report
}
