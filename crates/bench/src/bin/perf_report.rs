//! `perf_report`: reproducible wall-clock benchmark of sweep-level parallelism,
//! the epoch loop's issue batching and the tracker eviction engines.
//!
//! Measures and gates:
//!
//! 1. **Sweep-level parallelism** — times the canonical figure sweep (the unprotected
//!    baseline plus every Graphene/PARA defense configuration over the figure
//!    workload set) serially under both eviction engines (`scan` = the PR 4 path,
//!    `summary` = the PR 5 stream-summary) and in parallel under the summary
//!    engine; verifies parallel == serial bit-for-bit and gates the **sweep wall
//!    time**: the summary-engine serial sweep must not exceed the scan-engine
//!    serial sweep by more than [`SWEEP_WALL_TOLERANCE`] (i.e. full-sweep wall
//!    time no worse than PR 4, measured on the same host in the same run).
//! 2. **Adaptive horizon batching** — on the baseline organization, the epoch
//!    loop's mean issues per epoch must be at least [`ADAPTIVE_BATCH_GATE`]× the
//!    fixed `tCAS + tBURST` window's, whose epoch counts are committed in
//!    [`FIXED_WINDOW_EPOCHS`] (the simulation is deterministic, so the gate is
//!    exactly as sensitive as running the fixed window alongside).
//! 3. **Tracker record throughput and the churn gate** — per-tracker records/sec
//!    on the rotating-aggressor *miss-heavy churn* stream (every record evicts)
//!    and a hot-set stream (every record matches), with Graphene/Mithril measured
//!    under both engines plus the threshold-straddling adversarial stream. Hard
//!    gate: the summary engine's churn throughput must be at least
//!    [`CHURN_GATE_RATIO`]× the scan engine's for both trackers.
//! 4. **Observational equivalence and the security bound** — a scan/summary
//!    [`SecurityHarness`] pair replays (a) a single-aggressor stream, whose
//!    reports must match bit for bit (no eviction ⇒ exact lockstep), and (b) the
//!    rotating + straddling churn patterns, where the summary engine's maximum
//!    unmitigated disturbance must not exceed the scan engine's. Both engines are
//!    exercised explicitly, independent of the `IMPRESS_EVICTION` default.
//! 5. **Trace ingestion and replay** — the PR 6 frontend under the PR 8 batched
//!    record kernels. Times the end-to-end open-loop ingest pipeline (frame
//!    decode → checksum → mapping → epoch loop → window telemetry) on an
//!    in-memory recording of a streaming workload and gates the unprotected
//!    scenario at [`TRACE_INGEST_GATE_MRPS`] and the Graphene+ImPress-P
//!    protected scenario at [`PROTECTED_INGEST_GATE_MRPS`] million records/s
//!    (both best-of-[`INGEST_SAMPLES`]); then records a synthetic stream and
//!    gates closed-loop **replay bit-identity** against the in-process run.
//! 6. **Record-batch determinism** — the PR 8 acceptance gate: open-loop ingest
//!    with the bank-batched tracker kernels must produce a byte-identical
//!    verdict JSON (and identical window telemetry and memory statistics) to
//!    the per-record path.
//!
//! Usage:
//!
//! ```text
//! perf_report [--quick] [--out PATH]
//! ```
//!
//! * `--quick`: CI-sized run (shorter simulations, fewer tracker records).
//! * `--out PATH`: where to write the JSON report (default `BENCH_PR8.json`).
//!
//! Exit code is non-zero if any determinism, equivalence, security, batching,
//! churn-throughput, sweep-wall, trace-ingest, replay-identity or record-batch
//! gate fails, so CI uses this binary as a correctness gate as well as a
//! benchmark.

use std::time::Instant;

use impress_attacks::{AttackPattern, RotatingAggressorPattern, ThresholdStraddlingPattern};
use impress_bench::{
    defense_configurations, figure_workloads, named_configuration, record_workload_trace,
};
use impress_core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
use impress_core::security::SecurityHarness;
use impress_core::EvictionEngine;
use impress_dram::DramTimings;
use impress_memctrl::ControllerConfig;
use impress_sim::{
    Configuration, ExperimentRunner, NormalizedResult, RunOutput, System, SystemConfig, TraceRunner,
};
use impress_trackers::graphene::GrapheneConfig;
use impress_trackers::mithril::MithrilConfig;
use impress_trackers::{Eact, Graphene, Mint, Mithril, Para, Prac, RowTracker};
use impress_workloads::codec::{TraceReader, TraceWriter};
use impress_workloads::source::SliceSource;
use impress_workloads::WorkloadMix;

/// Requests per core for the canonical sweep (quick mode shrinks the simulations so
/// the whole report fits in a CI smoke job).
const FULL_REQUESTS_PER_CORE: u64 = 20_000;
const QUICK_REQUESTS_PER_CORE: u64 = 2_000;

/// Activation records per tracker for the throughput measurement. The quick
/// value is sized so the summary-engine churn sample still runs tens of
/// milliseconds (a 400k sample at ~75 M records/s lasts ~5 ms, thin enough for
/// runner noise to threaten the 20x gate; 2M keeps quick mode fast while
/// giving the gated ratio real integration time).
const FULL_TRACKER_RECORDS: u64 = 4_000_000;
const QUICK_TRACKER_RECORDS: u64 = 2_000_000;

/// Records for the *scan-engine* churn measurement (the ~100× slower side of the
/// gate; fewer records keep the report fast without hurting the ratio's
/// stability — the scan side still runs for hundreds of milliseconds).
const FULL_SCAN_CHURN_RECORDS: u64 = 1_000_000;
const QUICK_SCAN_CHURN_RECORDS: u64 = 100_000;

/// The PR 5 churn gate: summary-engine eviction throughput must beat the
/// scan-engine baseline (the PR 4 path, measured in the same run on the same
/// host) by at least this factor, for Graphene and Mithril.
const CHURN_GATE_RATIO: f64 = 20.0;

/// The PR 5 sweep-wall gate: the summary-engine serial sweep must take at most
/// this multiple of the scan-engine serial sweep. Full-mode runs land at or
/// below parity (the committed report measured 0.92 — the simulated workloads
/// rarely fill a table, and the summary's in-place recount fast path keeps the
/// match overhead small); the tolerance absorbs the wall-clock noise of the
/// CI-sized `--quick` sweeps, whose sub-second runs swing ±15% on shared
/// runners.
const SWEEP_WALL_TOLERANCE: f64 = 1.3;

/// Accesses replayed per security-harness A/B pattern.
const FULL_SECURITY_ACCESSES: u64 = 40_000;
const QUICK_SECURITY_ACCESSES: u64 = 10_000;

/// The adaptive-horizon acceptance gate: on the gated stream workloads the epoch
/// loop must batch at least this multiple of the fixed window's issues per epoch.
const ADAPTIVE_BATCH_GATE: f64 = 4.0;

/// `(workload, quick epochs, full epochs)`: the epochs the fixed issue window —
/// `tCAS + tBURST` past each epoch's first issue, the narrowest exact horizon —
/// needs for the gated stream workloads (Graphene+ImPress-P, baseline
/// organization, mix seed `0x5AA5`, [`QUICK_REQUESTS_PER_CORE`] and
/// [`FULL_REQUESTS_PER_CORE`] requests per core). Measured by running that
/// window through the epoch loop; both loops issue the same accesses, so the
/// fixed window's mean issues per epoch is the adaptive run's issue count over
/// these epochs. The simulation is deterministic, so the values are exact.
const FIXED_WINDOW_EPOCHS: [(&str, u64, u64); 2] =
    [("copy", 1_976, 19_818), ("add_triad", 2_181, 22_737)];

/// The PR 6 ingest gate: end-to-end open-loop trace ingestion (decode → route →
/// epoch loop → telemetry) of the streaming-locality recording must sustain at
/// least this many million records per second under the unprotected
/// configuration. The PR 8 snapshot measured ~15 on a single shared-runner CPU
/// (the word-parallel frame checksum removed the codec's byte-serial multiply
/// chain from the critical path).
const TRACE_INGEST_GATE_MRPS: f64 = 10.0;

/// The PR 8 protected-path ingest gate: the same open-loop pipeline under
/// Graphene+ImPress-P — every record funneling through the defense engine —
/// must sustain at least this many million records per second. PR 6 measured
/// ~8.7 here and reported it as ungated data; the bank-batched record kernels
/// (headroom-deferred staging, run-length aggregation, one slot-index probe
/// per run) plus the checksum rewrite close the gap to within ~25% of
/// unprotected on the snapshot host.
const PROTECTED_INGEST_GATE_MRPS: f64 = 11.0;

/// Samples per ingest scenario; the gates take the best. Single-sample
/// throughput swings ±20% on shared 1-core runners, which is far more than the
/// margin either ingest gate carries.
const INGEST_SAMPLES: usize = 3;

/// Records in the ingest-throughput trace (total, across all 8 cores). Quick
/// mode keeps the sample large enough that the timed region runs tens of
/// milliseconds — thin single-digit-ms samples would make the 10 M records/s
/// gate a coin flip on shared runners.
const FULL_TRACE_RECORDS: u64 = 2_000_000;
const QUICK_TRACE_RECORDS: u64 = 800_000;

/// Requests per core for the replay-identity trace (a full protected system
/// simulation, so this stays small).
const FULL_REPLAY_REQUESTS_PER_CORE: u64 = 2_000;
const QUICK_REPLAY_REQUESTS_PER_CORE: u64 = 500;

/// Pins every protected configuration in the sweep to one eviction engine.
fn pin_engine(configurations: &[Configuration], engine: EvictionEngine) -> Vec<Configuration> {
    configurations
        .iter()
        .map(|c| {
            let mut c = c.clone();
            if let Some(p) = c.protection.take() {
                c.protection = Some(p.with_eviction_engine(engine));
            }
            c
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR8.json".to_string());

    let requests_per_core = if quick {
        QUICK_REQUESTS_PER_CORE
    } else {
        FULL_REQUESTS_PER_CORE
    };
    let tracker_records = if quick {
        QUICK_TRACKER_RECORDS
    } else {
        FULL_TRACKER_RECORDS
    };
    let scan_churn_records = if quick {
        QUICK_SCAN_CHURN_RECORDS
    } else {
        FULL_SCAN_CHURN_RECORDS
    };
    let security_accesses = if quick {
        QUICK_SECURITY_ACCESSES
    } else {
        FULL_SECURITY_ACCESSES
    };
    let trace_records = if quick {
        QUICK_TRACE_RECORDS
    } else {
        FULL_TRACE_RECORDS
    };
    let replay_requests_per_core = if quick {
        QUICK_REPLAY_REQUESTS_PER_CORE
    } else {
        FULL_REPLAY_REQUESTS_PER_CORE
    };
    let threads = impress_exec::thread_count();

    // ---- Axis 1: sweep-level parallelism + the eviction-engine wall gate -----
    let runner = ExperimentRunner::new().with_requests_per_core(requests_per_core);
    let baseline = Configuration::unprotected();
    let workloads = figure_workloads();
    let mut configurations = defense_configurations(TrackerChoice::Graphene, 4_000);
    configurations.extend(defense_configurations(TrackerChoice::Para, 4_000));
    let scan_configurations = pin_engine(&configurations, EvictionEngine::Scan);
    let summary_configurations = pin_engine(&configurations, EvictionEngine::Summary);

    let cells = configurations.len() * workloads.len();
    eprintln!(
        "perf_report: {} workloads x {} configurations ({cells} cells + {} baselines), \
         requests/core = {requests_per_core}, parallel workers = {threads}",
        workloads.len(),
        configurations.len(),
        workloads.len(),
    );

    eprintln!("perf_report: serial sweep, scan eviction engine (the PR 4 path)...");
    let scan_serial_start = Instant::now();
    let scan_serial = runner.run_sweep_with_threads(1, &workloads, &baseline, &scan_configurations);
    let scan_serial_ms = scan_serial_start.elapsed().as_secs_f64() * 1e3;

    eprintln!("perf_report: serial sweep, summary eviction engine...");
    let serial_start = Instant::now();
    let serial = runner.run_sweep_with_threads(1, &workloads, &baseline, &summary_configurations);
    let serial_ms = serial_start.elapsed().as_secs_f64() * 1e3;

    eprintln!("perf_report: parallel sweep ({threads} threads, summary engine)...");
    let parallel_start = Instant::now();
    let parallel =
        runner.run_sweep_with_threads(threads, &workloads, &baseline, &summary_configurations);
    let parallel_ms = parallel_start.elapsed().as_secs_f64() * 1e3;

    let sweep_identical = sweeps_identical(&serial, &parallel);
    let sweep_speedup = serial_ms / parallel_ms.max(1e-9);
    // Informational: whether victim tie-breaks ever surfaced in the figure sweep
    // (they rarely do — workload footprints seldom fill a 448-entry table).
    let engines_swept_identical = sweeps_identical(&scan_serial, &serial);
    let sweep_wall_ratio = serial_ms / scan_serial_ms.max(1e-9);
    let sweep_wall_ok = sweep_wall_ratio <= SWEEP_WALL_TOLERANCE;
    eprintln!(
        "perf_report: sweep wall: scan {scan_serial_ms:.0} ms vs summary {serial_ms:.0} ms \
         (ratio {sweep_wall_ratio:.3}, gate <= {SWEEP_WALL_TOLERANCE}); \
         results identical across engines: {engines_swept_identical}"
    );

    // ---- Adaptive batching gate (baseline Table II organization) -------------
    let baseline_system = |workload: &str| {
        let protection = ProtectionConfig::paper_default(
            TrackerChoice::Graphene,
            DefenseKind::impress_p_default(),
        );
        let config = SystemConfig {
            requests_per_core,
            controller: ControllerConfig::baseline().with_protection(protection),
            ..SystemConfig::baseline()
        };
        let mix = WorkloadMix::by_name(workload, 0x5AA5).expect("known workload");
        System::new(config, mix)
    };
    let mut batch_gate_ok = true;
    let mut gate_lines = Vec::new();
    for (workload, quick_epochs, full_epochs) in FIXED_WINDOW_EPOCHS {
        let adaptive = baseline_system(workload).run().epoch_stats;
        let fixed_epochs = if quick { quick_epochs } else { full_epochs };
        let fixed_issues_per_epoch = adaptive.issues as f64 / fixed_epochs as f64;
        let ratio = adaptive.mean_issues_per_epoch() / fixed_issues_per_epoch;
        if ratio < ADAPTIVE_BATCH_GATE {
            batch_gate_ok = false;
        }
        eprintln!(
            "perf_report: adaptive batching {workload} (baseline 2ch): issues/epoch \
             {fixed_issues_per_epoch:.1} (fixed window) -> {:.1} (x{ratio:.1}, need >= \
             {ADAPTIVE_BATCH_GATE}), {:.0} cycles per window",
            adaptive.mean_issues_per_epoch(),
            adaptive.mean_window_cycles(),
        );
        gate_lines.push(format!(
            "      {{ \"workload\": \"{workload}\", \
             \"fixed_issues_per_epoch\": {fixed_issues_per_epoch:.3}, \
             \"adaptive_issues_per_epoch\": {:.3}, \
             \"ratio\": {ratio:.3} }}",
            adaptive.mean_issues_per_epoch(),
        ));
    }

    // ---- Axis 3: tracker record throughput + the churn gate ------------------
    // Miss-heavy churn comes from the rotating-aggressor adversarial pattern
    // (4K distinct rows — larger than any table, so after warm-up every record
    // evicts); the threshold-straddling pattern adds the tie-heavy adversarial
    // shape. The hot stream (128 rows) isolates the O(1) match path.
    let rotating = RotatingAggressorPattern::new(0, 4_096, 1);
    let straddling = ThresholdStraddlingPattern::new(0, 4, 160, 48);
    let eact = Eact::from_f64(1.5, 7);
    let rotating_period: Vec<u32> = (0..4_096u64).map(|i| rotating.round(i).row).collect();
    let straddling_rows: Vec<u32> = (0..tracker_records.max(scan_churn_records))
        .map(|i| straddling.round(i).row)
        .collect();

    /// Monomorphized per-engine measurement (no `dyn` dispatch in the timed
    /// loops — the loop body is the tracker's `record`, nothing else).
    struct EngineNumbers {
        churn_mrps: f64,
        churn_mitigations: u64,
        straddling_mrps: f64,
        hot_mrps: f64,
    }
    fn measure_engine<T: RowTracker>(
        tracker: &mut T,
        rotating_period: &[u32],
        straddling_rows: &[u32],
        eact: Eact,
        churn_records: u64,
        hot_records: u64,
    ) -> EngineNumbers {
        // The row sequences are precomputed (the rotating pattern as one exact
        // period, cycled; the straddling pattern materialized) so the timed
        // loops contain the tracker's `record` and nothing else — in particular
        // no 64-bit modulo, which at summary-engine speeds would be a third of
        // the per-record budget.
        let start = Instant::now();
        let mut churn_mitigations = 0u64;
        let mut j = 0usize;
        for i in 0..churn_records {
            let row = rotating_period[j];
            j += 1;
            if j == rotating_period.len() {
                j = 0;
            }
            if tracker.record(row, eact, i * 128).is_some() {
                churn_mitigations += 1;
            }
        }
        let churn_mrps = churn_records as f64 / start.elapsed().as_secs_f64() / 1e6;
        let start = Instant::now();
        for (i, &row) in straddling_rows[..churn_records as usize].iter().enumerate() {
            let _ = tracker.record(row, eact, i as u64 * 128);
        }
        let straddling_mrps = churn_records as f64 / start.elapsed().as_secs_f64() / 1e6;
        // Reset before the hot stream (as a refresh window would): a
        // churn-saturated spillover would otherwise make every hot match
        // mitigate and thrash the eviction path, measuring the wrong thing.
        tracker.on_refresh_window(u64::MAX - 1);
        let start = Instant::now();
        for i in 0..hot_records {
            let row = (i % 128) as u32;
            let _ = tracker.record(row, eact, i * 128);
        }
        let hot_mrps = hot_records as f64 / start.elapsed().as_secs_f64() / 1e6;
        EngineNumbers {
            churn_mrps,
            churn_mitigations,
            straddling_mrps,
            hot_mrps,
        }
    }

    let mut tracker_lines = Vec::new();
    let mut churn_lines = Vec::new();
    let mut churn_gate_ok = true;
    for tracker_kind in ["graphene", "mithril"] {
        let measure = |engine: EvictionEngine, churn_records: u64| -> EngineNumbers {
            match tracker_kind {
                "graphene" => measure_engine(
                    &mut Graphene::with_engine(GrapheneConfig::for_threshold(4_000), engine),
                    &rotating_period,
                    &straddling_rows,
                    eact,
                    churn_records,
                    tracker_records,
                ),
                _ => measure_engine(
                    &mut Mithril::with_engine(MithrilConfig::for_threshold(4_000), engine),
                    &rotating_period,
                    &straddling_rows,
                    eact,
                    churn_records,
                    tracker_records,
                ),
            }
        };
        // Best of two runs per engine (symmetric, so the gate ratio is not
        // biased either way): single-sample throughput on shared runners swings
        // ~10%, which matters when the ratio sits near the gate.
        let best = |engine: EvictionEngine, records: u64| -> EngineNumbers {
            let a = measure(engine, records);
            let b = measure(engine, records);
            EngineNumbers {
                churn_mrps: a.churn_mrps.max(b.churn_mrps),
                churn_mitigations: a.churn_mitigations,
                straddling_mrps: a.straddling_mrps.max(b.straddling_mrps),
                hot_mrps: a.hot_mrps.max(b.hot_mrps),
            }
        };
        let scan_numbers = best(EvictionEngine::Scan, scan_churn_records);
        let (scan_churn, scan_mits) = (scan_numbers.churn_mrps, scan_numbers.churn_mitigations);
        let scan_straddle = scan_numbers.straddling_mrps;
        let scan_hot = scan_numbers.hot_mrps;
        let summary_numbers = best(EvictionEngine::Summary, tracker_records);
        let (summary_churn, summary_mits) = (
            summary_numbers.churn_mrps,
            summary_numbers.churn_mitigations,
        );
        let summary_straddle = summary_numbers.straddling_mrps;
        let summary_hot = summary_numbers.hot_mrps;
        let ratio = summary_churn / scan_churn.max(1e-9);
        if ratio < CHURN_GATE_RATIO {
            churn_gate_ok = false;
        }
        eprintln!(
            "perf_report: {tracker_kind}: churn scan {scan_churn:.1} -> summary \
             {summary_churn:.1} M records/s (x{ratio:.0}, gate >= {CHURN_GATE_RATIO}); \
             straddling {scan_straddle:.1} -> {summary_straddle:.1}; \
             hot {scan_hot:.1} -> {summary_hot:.1} \
             (mitigations: scan {scan_mits}, summary {summary_mits})"
        );
        churn_lines.push(format!(
            "      {{ \"tracker\": \"{tracker_kind}\", \
             \"scan_churn_mrps\": {scan_churn:.3}, \
             \"summary_churn_mrps\": {summary_churn:.3}, \
             \"ratio\": {ratio:.3}, \
             \"scan_straddling_mrps\": {scan_straddle:.3}, \
             \"summary_straddling_mrps\": {summary_straddle:.3}, \
             \"scan_hot_mrps\": {scan_hot:.3}, \
             \"summary_hot_mrps\": {summary_hot:.3} }}"
        ));
        tracker_lines.push(format!(
            "    {{ \"tracker\": \"{tracker_kind}\", \"records\": {tracker_records}, \
             \"million_records_per_sec\": {summary_churn:.3}, \
             \"million_records_per_sec_hot\": {summary_hot:.3} }}"
        ));
    }
    // The remaining trackers have no table-eviction path; measure them as before.
    let numbers = [
        (
            "para",
            measure_engine(
                &mut Para::for_threshold(4_000),
                &rotating_period,
                &straddling_rows,
                eact,
                tracker_records,
                tracker_records,
            ),
        ),
        (
            "mint",
            measure_engine(
                &mut Mint::paper_default(),
                &rotating_period,
                &straddling_rows,
                eact,
                tracker_records,
                tracker_records,
            ),
        ),
        (
            "prac",
            measure_engine(
                &mut Prac::for_threshold(4_000, 7, 1 << 16),
                &rotating_period,
                &straddling_rows,
                eact,
                tracker_records,
                tracker_records,
            ),
        ),
    ];
    for (name, n) in &numbers {
        eprintln!(
            "perf_report: {name}: churn {:.1} M records/s, hot {:.1} M records/s",
            n.churn_mrps, n.hot_mrps
        );
        tracker_lines.push(format!(
            "    {{ \"tracker\": \"{name}\", \"records\": {tracker_records}, \
             \"million_records_per_sec\": {:.3}, \
             \"million_records_per_sec_hot\": {:.3} }}",
            n.churn_mrps, n.hot_mrps
        ));
    }

    // ---- Observational equivalence + security bound (both engines) -----------
    let timings = DramTimings::ddr5();
    let ab_configs = [
        (
            "graphene+impress-p",
            ProtectionConfig::paper_default(
                TrackerChoice::Graphene,
                DefenseKind::impress_p_default(),
            ),
        ),
        (
            "mithril+impress-p",
            ProtectionConfig::paper_default(
                TrackerChoice::Mithril,
                DefenseKind::impress_p_default(),
            ),
        ),
    ];
    let mut equivalence_ok = true;
    let mut security_lines = Vec::new();
    for (label, config) in &ab_configs {
        // (a) Exact lockstep on an eviction-free stream: reports bit-identical.
        let single: Vec<_> = (0..security_accesses)
            .map(|_| impress_core::AggressorAccess::hammer(1_000))
            .collect();
        let (mut scan_h, mut summary_h) =
            SecurityHarness::eviction_engine_pair(config, 1.0, &timings);
        let a = scan_h.run(single.iter().copied(), u64::MAX);
        let b = summary_h.run(single.iter().copied(), u64::MAX);
        let lockstep =
            a == b && a.max_unmitigated_charge.to_bits() == b.max_unmitigated_charge.to_bits();
        equivalence_ok &= lockstep;
        eprintln!(
            "perf_report: security {label}/single-aggressor: scan max {:.3}, summary max {:.3} \
             (reports bit-identical: {lockstep})",
            a.max_unmitigated_charge, b.max_unmitigated_charge
        );
        security_lines.push(format!(
            "      {{ \"config\": \"{label}\", \"pattern\": \"single-aggressor\", \
             \"scan_max_charge\": {:.6}, \"summary_max_charge\": {:.6}, \
             \"reports_identical\": {lockstep}, \"bound_ok\": {lockstep} }}",
            a.max_unmitigated_charge, b.max_unmitigated_charge
        ));

        // (b) Security bound on the adversarial churn patterns. Reports are
        // *not* expected to be identical here (tied-victim choices legitimately
        // diverge); only the disturbance bound is gated, with the per-stream
        // identity reported as data.
        for (pattern_name, accesses) in [
            (
                "rotating",
                RotatingAggressorPattern::new(2_000, 1_024, 6).accesses(security_accesses),
            ),
            (
                "straddling",
                ThresholdStraddlingPattern::new(10_000, 4, 160, 48).accesses(security_accesses),
            ),
        ] {
            let (mut scan_h, mut summary_h) =
                SecurityHarness::eviction_engine_pair(config, 1.0, &timings);
            let s = scan_h.run(accesses.iter().copied(), u64::MAX);
            let m = summary_h.run(accesses.iter().copied(), u64::MAX);
            let bound_ok = m.max_unmitigated_charge <= s.max_unmitigated_charge + 1e-9;
            let identical = s == m;
            equivalence_ok &= bound_ok;
            eprintln!(
                "perf_report: security {label}/{pattern_name}: scan max {:.3}, summary max {:.3} \
                 (bound ok: {bound_ok}; reports identical: {identical})",
                s.max_unmitigated_charge, m.max_unmitigated_charge
            );
            security_lines.push(format!(
                "      {{ \"config\": \"{label}\", \"pattern\": \"{pattern_name}\", \
                 \"scan_max_charge\": {:.6}, \"summary_max_charge\": {:.6}, \
                 \"reports_identical\": {identical}, \"bound_ok\": {bound_ok} }}",
                s.max_unmitigated_charge, m.max_unmitigated_charge
            ));
        }
    }

    // ---- Axis 4 (PR 6): trace ingestion throughput + replay identity ---------
    // One in-memory recording of the streaming-locality workload, ingested
    // open-loop under both the gated (unprotected) and the protected scenario.
    // The bytes live in memory so the timed region measures the pipeline
    // (codec + checksum + mapping + shards + telemetry), not disk I/O.
    let trace_seed = 0x1A7E_2024u64;
    let ingest_workload = "copy";
    let (ingest_meta, ingest_records) =
        record_workload_trace(ingest_workload, trace_seed, trace_records / 8)
            .expect("known workload");
    let trace_bytes = {
        let mut w = TraceWriter::new(Vec::new(), &ingest_meta).expect("in-memory trace");
        for &r in &ingest_records {
            w.push(r).expect("in-memory trace");
        }
        w.finish().expect("in-memory trace")
    };
    let ingest_runner = TraceRunner::new();
    let mut ingest_gate_ok = true;
    let mut ingest_lines = Vec::new();
    for (scenario, gate_mrps) in [
        ("unprotected", TRACE_INGEST_GATE_MRPS),
        ("graphene-impress-p", PROTECTED_INGEST_GATE_MRPS),
    ] {
        let configuration = named_configuration(scenario).expect("named configuration");
        // Best of INGEST_SAMPLES, like the churn gate: single-sample throughput
        // swings ±20% on shared runners, which matters near the gate.
        let mut mrps = 0.0f64;
        let mut verdict = "";
        for _ in 0..INGEST_SAMPLES {
            let reader = TraceReader::new(SliceSource::new(&trace_bytes)).expect("trace header");
            let start = Instant::now();
            let report = ingest_runner
                .ingest(reader, &configuration)
                .expect("trace ingest");
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(report.records, ingest_records.len() as u64);
            mrps = mrps.max(report.records as f64 / secs.max(1e-9) / 1e6);
            verdict = report.verdict.verdict;
        }
        let passed = mrps >= gate_mrps;
        ingest_gate_ok &= passed;
        eprintln!(
            "perf_report: trace ingest {ingest_workload}/{scenario}: {mrps:.1} M records/s \
             over {} records (verdict {verdict}; gate >= {gate_mrps})",
            ingest_records.len(),
        );
        ingest_lines.push(format!(
            "      {{ \"scenario\": \"{scenario}\", \"gate_mrps\": {gate_mrps}, \
             \"million_records_per_sec\": {mrps:.3}, \"passed\": {passed}, \
             \"verdict\": \"{verdict}\" }}"
        ));
    }

    // ---- Axis 5 (PR 8): record-batch determinism ------------------------------
    // The bank-batched tracker kernels must be observationally invisible: the
    // same trace ingested with batching forced off and on yields a
    // byte-identical verdict JSON and identical window telemetry and memory
    // statistics.
    let batch_configuration = named_configuration("graphene-impress-p").expect("named");
    let run = |batched: bool| {
        let reader = TraceReader::new(SliceSource::new(&trace_bytes)).expect("trace header");
        TraceRunner::new()
            .with_record_batching(batched)
            .ingest(reader, &batch_configuration)
            .expect("trace ingest")
    };
    let per_record = run(false);
    let batched = run(true);
    let record_batch_ok = batched.verdict.to_json() == per_record.verdict.to_json()
        && batched.windows == per_record.windows
        && batched.memory == per_record.memory;
    eprintln!("perf_report: record-batch determinism: batched == per-record: {record_batch_ok}");

    // Closed-loop replay: record the synthetic stream, then the replay must be
    // bit-identical to the in-process run.
    let replay_workload = "mcf";
    let replay_configuration = named_configuration("graphene-impress-p").expect("named");
    let (replay_meta, replay_records) =
        record_workload_trace(replay_workload, trace_seed, replay_requests_per_core)
            .expect("known workload");
    let reference = {
        let mix = WorkloadMix::by_name(replay_workload, trace_seed).expect("known workload");
        let config = SystemConfig {
            requests_per_core: replay_requests_per_core,
            ..SystemConfig::baseline()
        }
        .with_controller(replay_configuration.controller_config());
        System::new(config, mix).run()
    };
    let output = TraceRunner::new().replay(&replay_meta, &replay_records, &replay_configuration);
    let replay_gate_ok = runs_identical(&reference, &output);
    eprintln!(
        "perf_report: trace replay {replay_workload}: {} cycles (bit-identical to in-process \
         run: {replay_gate_ok})",
        output.performance.elapsed_cycles
    );

    let json = format!(
        "{{\n\
         \x20 \"schema_version\": 7,\n\
         \x20 \"pr\": 8,\n\
         \x20 \"binary\": \"perf_report\",\n\
         \x20 \"mode\": \"{mode}\",\n\
         \x20 \"host\": {{ \"available_cpus\": {cpus}, \"threads_used\": {threads} }},\n\
         \x20 \"sweep\": {{\n\
         \x20   \"workloads\": {n_workloads},\n\
         \x20   \"configurations\": {n_configs},\n\
         \x20   \"cells\": {cells},\n\
         \x20   \"requests_per_core\": {requests_per_core},\n\
         \x20   \"serial_scan_ms\": {scan_serial_ms:.1},\n\
         \x20   \"serial_ms\": {serial_ms:.1},\n\
         \x20   \"parallel_ms\": {parallel_ms:.1},\n\
         \x20   \"speedup\": {sweep_speedup:.3},\n\
         \x20   \"parallel_identical_to_serial\": {sweep_identical},\n\
         \x20   \"scan_vs_summary_results_identical\": {engines_swept_identical},\n\
         \x20   \"wall_gate\": {{ \"ratio\": {sweep_wall_ratio:.3}, \
         \"max_ratio\": {SWEEP_WALL_TOLERANCE}, \"passed\": {sweep_wall_ok} }}\n\
         \x20 }},\n\
         \x20 \"adaptive_batch_gate\": {{ \"organization\": \"baseline-2ch\", \
         \"requests_per_core\": {requests_per_core}, \
         \"min_ratio\": {ADAPTIVE_BATCH_GATE}, \"passed\": {batch_gate_ok}, \
         \"workloads\": [\n{gate_json}\n  ] }},\n\
         \x20 \"eviction\": {{\n\
         \x20   \"default_engine\": \"{default_engine}\",\n\
         \x20   \"scan_churn_records\": {scan_churn_records},\n\
         \x20   \"churn_gate\": {{ \"min_ratio\": {CHURN_GATE_RATIO}, \
         \"passed\": {churn_gate_ok}, \"trackers\": [\n{churn_json}\n    ] }},\n\
         \x20   \"equivalence_gate\": {{ \"passed\": {equivalence_ok}, \
         \"security_accesses\": {security_accesses}, \"checks\": [\n{security_json}\n    ] }}\n\
         \x20 }},\n\
         \x20 \"trace\": {{\n\
         \x20   \"workload\": \"{ingest_workload}\",\n\
         \x20   \"records\": {n_trace_records},\n\
         \x20   \"ingest_gate\": {{ \"samples\": {INGEST_SAMPLES}, \
         \"passed\": {ingest_gate_ok}, \"scenarios\": [\n{ingest_json}\n    ] }},\n\
         \x20   \"record_batch_gate\": {{ \"scenario\": \"graphene-impress-p\", \
         \"passed\": {record_batch_ok} }},\n\
         \x20   \"replay_gate\": {{ \"workload\": \"{replay_workload}\", \
         \"requests_per_core\": {replay_requests_per_core}, \
         \"passed\": {replay_gate_ok} }}\n\
         \x20 }},\n\
         \x20 \"tracker_throughput\": [\n{tracker_json}\n  ]\n\
         }}\n",
        mode = if quick { "quick" } else { "full" },
        cpus = std::thread::available_parallelism().map_or(1, usize::from),
        n_workloads = workloads.len(),
        n_configs = configurations.len(),
        default_engine = EvictionEngine::from_env().label(),
        gate_json = gate_lines.join(",\n"),
        churn_json = churn_lines.join(",\n"),
        security_json = security_lines.join(",\n"),
        n_trace_records = ingest_records.len(),
        ingest_json = ingest_lines.join(",\n"),
        tracker_json = tracker_lines.join(",\n"),
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));

    println!(
        "sweep: scan serial {scan_serial_ms:.0} ms, summary serial {serial_ms:.0} ms \
         (wall ratio {sweep_wall_ratio:.2}, gate {sweep_wall_ok}), parallel {parallel_ms:.0} ms \
         on {threads} threads (x{sweep_speedup:.2}, identical: {sweep_identical}); \
         adaptive batch gate: {batch_gate_ok}; churn gate: {churn_gate_ok}; \
         equivalence gate: {equivalence_ok}; trace ingest gate: {ingest_gate_ok}; \
         record-batch gate: {record_batch_ok}; \
         replay identity gate: {replay_gate_ok} -> {out_path}"
    );
    let mut failed = false;
    if !sweep_identical {
        eprintln!("perf_report: ERROR: parallel sweep diverged from serial sweep");
        failed = true;
    }
    if !batch_gate_ok {
        eprintln!(
            "perf_report: ERROR: adaptive horizon batched fewer than \
             {ADAPTIVE_BATCH_GATE}x the fixed-window issues per epoch on a gated \
             stream workload"
        );
        failed = true;
    }
    if !churn_gate_ok {
        eprintln!(
            "perf_report: ERROR: summary-engine churn throughput below \
             {CHURN_GATE_RATIO}x the scan engine's on a counter tracker"
        );
        failed = true;
    }
    if !sweep_wall_ok {
        eprintln!(
            "perf_report: ERROR: summary-engine serial sweep exceeded \
             {SWEEP_WALL_TOLERANCE}x the scan-engine serial sweep wall time"
        );
        failed = true;
    }
    if !equivalence_ok {
        eprintln!(
            "perf_report: ERROR: an observational-equivalence or security-bound \
             check failed across the eviction engines"
        );
        failed = true;
    }
    if !ingest_gate_ok {
        eprintln!(
            "perf_report: ERROR: trace ingest throughput below its gate on some \
             scenario (unprotected >= {TRACE_INGEST_GATE_MRPS}, protected >= \
             {PROTECTED_INGEST_GATE_MRPS} M records/s)"
        );
        failed = true;
    }
    if !record_batch_ok {
        eprintln!(
            "perf_report: ERROR: batched ingest diverged from the per-record \
             path"
        );
        failed = true;
    }
    if !replay_gate_ok {
        eprintln!("perf_report: ERROR: trace replay diverged from the in-process run");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// Bit-for-bit comparison of two run outputs.
fn runs_identical(a: &RunOutput, b: &RunOutput) -> bool {
    a.performance.elapsed_cycles == b.performance.elapsed_cycles
        && a.performance
            .per_core_ipc
            .iter()
            .zip(&b.performance.per_core_ipc)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.memory == b.memory
        && a.energy.total_nj().to_bits() == b.energy.total_nj().to_bits()
}

/// Bit-for-bit comparison of two sweep result sets.
fn sweeps_identical(a: &[Vec<NormalizedResult>], b: &[Vec<NormalizedResult>]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(ca, cb)| {
        ca.len() == cb.len()
            && ca.iter().zip(cb).all(|(ra, rb)| {
                ra.workload == rb.workload
                    && ra.configuration == rb.configuration
                    && ra.normalized_performance.to_bits() == rb.normalized_performance.to_bits()
                    && ra.output.performance.elapsed_cycles == rb.output.performance.elapsed_cycles
                    && ra.output.memory == rb.output.memory
            })
    })
}
