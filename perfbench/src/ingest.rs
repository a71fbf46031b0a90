//! `ingest-stream` and `ingest-attack`: `TraceRunner::ingest` of a trace
//! file written during set-up, under Graphene+ImPress-P with default threads.
//!
//! Each operation reads the file and ingests it, as `trace ingest --in FILE`
//! does. The traced run adds the isolated layer calls of [`crate::layers`]
//! on the same records after each traced ingest.

use std::path::{Path, PathBuf};
use std::time::Instant;

use impress_sim::{Configuration, IngestReport, TraceRunner};
use impress_workloads::codec::TraceReader;
use impress_workloads::source::SliceSource;

use crate::inputs::{attack_trace, stream_trace, Trace};
use crate::layers::{self, LayerInputs, LayerSample, TRACKERS};
use crate::spans::Tracer;
use crate::{median, Fnv, Metric, Report, Setups, Stop, WORK_DIR};

/// Set-up repetitions, spread over the run; the reported set-up time is
/// their median. A set-up (trace generation and file write) takes 0.1-0.3 s
/// and swings with the host's disk and memory traffic; 21 repetitions cost a
/// few seconds of a run and steady the median.
const SETUP_REPS: usize = 21;

/// Ingests per run at least.
const MIN_OPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Stream,
    Attack,
}

struct Inputs {
    trace: Trace,
    path: PathBuf,
    configuration: Configuration,
    layers: Option<LayerInputs>,
}

fn setup(kind: Kind, seed: u64, traced: bool) -> Inputs {
    let (trace, name) = match kind {
        Kind::Stream => (stream_trace(seed), "ingest-stream"),
        Kind::Attack => (attack_trace(seed), "ingest-attack"),
    };
    let path = Path::new(WORK_DIR).join(format!("{name}.trace"));
    std::fs::create_dir_all(WORK_DIR).expect("create the benchmark's work directory");
    std::fs::write(&path, &trace.bytes).expect("write the trace file");
    let layers = traced.then(|| LayerInputs::prepare(&trace));
    Inputs {
        trace,
        path,
        configuration: layers::protected_configuration(),
        layers,
    }
}

/// One operation: read the file, ingest it.
fn ingest_file(inputs: &Inputs) -> IngestReport {
    let bytes = std::fs::read(&inputs.path).expect("read the trace file");
    let reader = TraceReader::new(SliceSource::new(&bytes)).expect("trace header");
    TraceRunner::new()
        .ingest(reader, &inputs.configuration)
        .expect("generated trace ingests")
}

/// Output checks for one ingest; returns the verdict digest.
fn check(kind: Kind, expected: u64, report: &IngestReport, errors: &mut Vec<String>) -> u64 {
    if report.records != expected || report.verdict.records != expected {
        errors.push(format!("ingested {} records of {expected}", report.records));
    }
    if !report.verdict.faults.is_clean() {
        errors.push(format!(
            "fault ledger not clean: {}",
            report.verdict.to_json_extended()
        ));
    }
    if kind == Kind::Attack && report.verdict.verdict != "mitigated" {
        errors.push(format!(
            "attack verdict is {:?}, not \"mitigated\"",
            report.verdict.verdict
        ));
    }
    let mut h = Fnv::default();
    h.text(&report.verdict.to_json_extended());
    h.finish()
}

fn mitigative_per_kact(report: &IngestReport) -> f64 {
    let banks = &report.memory.banks;
    banks.mitigative_activations as f64 * 1e3 / banks.activations.max(1) as f64
}

pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Report {
    // The traced run reports no set-up time and sets up once.
    let reps = if traced { 1 } else { SETUP_REPS };
    let (setups, inputs) = Setups::first(reps, || setup(kind, seed, traced));
    let path = inputs.path.clone();
    let report = measure(kind, seed, inputs, setups, seconds, traced);
    // The trace file is tens of MB; leave nothing behind but span dumps.
    let _ = std::fs::remove_file(&path);
    report
}

fn measure(
    kind: Kind,
    seed: u64,
    mut inputs: Inputs,
    mut setups: Setups,
    seconds: f64,
    traced: bool,
) -> Report {
    let stop = Stop::after(seconds, MIN_OPS);
    let mut report = Report::default();
    let records = inputs.trace.records.len() as u64;
    let mut digest: Option<u64> = None;
    let mut account = |r: &IngestReport, report: &mut Report| {
        let before = report.errors.len();
        let d = check(kind, records, r, &mut report.errors);
        if *digest.get_or_insert(d) != d {
            report
                .errors
                .push("verdict differs between runs of the same input".to_string());
        }
        report.attempted += records;
        if report.errors.len() > before {
            report.failed += records;
        }
    };

    if !traced {
        let mut times = Vec::new();
        let mut last = None;
        while !stop.reached(times.len()) {
            let start = Instant::now();
            let r = ingest_file(&inputs);
            times.push(start.elapsed().as_secs_f64());
            account(&r, &mut report);
            last = Some(r);
            inputs = setups.between_ops(&stop, inputs, || setup(kind, seed, false));
        }
        let setup_s = setups.median();
        let last = last.expect("at least one ingest ran");
        eprintln!(
            "perfbench: {} records, verdict {}, {} activations, {} mitigative ACTs ({:.6} per kACT)",
            records,
            last.verdict.verdict,
            last.memory.banks.activations,
            last.memory.banks.mitigative_activations,
            mitigative_per_kact(&last),
        );
        report.digest = digest.expect("an ingest ran");
        report.end_to_end(
            setup_s,
            &times,
            (records * times.len() as u64) as f64,
            times.iter().sum(),
        );
        return report;
    }

    // Traced: alternate an untraced ingest with a traced operation (the
    // ingest inside a span, then every layer alone on the same records).
    let layer_inputs = inputs
        .layers
        .as_ref()
        .expect("traced set-up prepares layer inputs");
    let mut tracer = Tracer::new();
    let mut untraced = Vec::new();
    let mut samples: Vec<(f64, LayerSample)> = Vec::new();
    let mut last = None;
    while !stop.reached(samples.len()) {
        let op = samples.len() as u64;
        let start = Instant::now();
        let r = ingest_file(&inputs);
        untraced.push(start.elapsed().as_secs_f64());
        account(&r, &mut report);

        let root = tracer.open("op", None, op);
        let (r, ingest_id) = tracer.time("trace_runner.ingest", Some(root), op, || {
            ingest_file(&inputs)
        });
        account(&r, &mut report);
        let sample = layers::measure(&mut tracer, root, op, &inputs.trace, layer_inputs);
        tracer.close(root);
        if sample.protected_stats != r.memory {
            report
                .errors
                .push("isolated protected shards disagree with the ingest's statistics".into());
        }
        samples.push((tracer.span(ingest_id).secs(), sample));
        last = Some(r);
    }
    let last = last.expect("a traced ingest ran");
    report.digest = digest.expect("an ingest ran");
    report.metrics = layer_metrics(&samples);
    report.metrics.push(Metric::new(
        "sim.mitigative_acts_per_kact",
        mitigative_per_kact(&last),
        1,
    ));
    let traced_ingest: Vec<f64> = samples.iter().map(|(s, _)| *s).collect();
    report.metrics.push(Metric::new(
        "trace.overhead_ratio",
        median(&traced_ingest) / median(&untraced),
        samples.len(),
    ));
    report.spans = Some(tracer);
    report
}

/// Per-layer metrics from `(ingest seconds, isolated layer sample)` pairs,
/// each time taken as the median over operations.
pub fn layer_metrics(samples: &[(f64, LayerSample)]) -> Vec<Metric> {
    let n = samples.len();
    let med =
        |f: &dyn Fn(&(f64, LayerSample)) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let first = &samples[0].1;
    let records = first.records as f64;
    let activations = first.activations.max(1) as f64;
    let ingest_s = med(&|(s, _)| *s);
    let self_s = med(&|(s, l)| s - l.codec_s - l.mapping_s - l.protected_s);
    let defense_s = med(&|(_, l)| l.protected_s - l.shard_s);
    let protected = &first.protected_stats.banks;
    let unprotected = &first.shard_stats.banks;
    let mut out = vec![
        Metric::new(
            "codec.ns_per_record",
            med(&|(_, l)| l.codec_s) * 1e9 / records,
            n,
        ),
        Metric::new("codec.frames", first.frames as f64, n),
        Metric::new("codec.resync_skips", first.resync_skips as f64, n),
        Metric::new(
            "mapping.ns_per_record",
            med(&|(_, l)| l.mapping_s) * 1e9 / records,
            n,
        ),
        Metric::new(
            "shard.ns_per_access",
            med(&|(_, l)| l.shard_s) * 1e9 / records,
            n,
        ),
        Metric::new("shard.row_hit_ratio", unprotected.row_hit_rate(), n),
        Metric::new("shard.activations", unprotected.activations as f64, n),
        Metric::new("defense.ns_per_access", defense_s * 1e9 / records, n),
        Metric::new(
            "defense.ns_per_activation",
            defense_s * 1e9 / activations,
            n,
        ),
        Metric::new(
            "defense.mitigations_per_kact",
            protected.mitigative_activations as f64 * 1e3 / protected.activations.max(1) as f64,
            n,
        ),
        Metric::new("defense.rfms", protected.rfm_commands as f64, n),
        Metric::new("trace_runner.self_s", self_s, n),
        Metric::new("trace_runner.self_share", self_s / ingest_s, n),
    ];
    for (i, (_, name)) in TRACKERS.iter().enumerate() {
        out.push(Metric::owned(
            format!("{name}.ns_per_record"),
            med(&|(_, l)| l.tracker_s[i]) * 1e9 / activations,
            n,
        ));
        out.push(Metric::owned(
            format!("{name}.mitigations"),
            first.tracker_mitigations[i] as f64,
            n,
        ));
    }
    out
}
