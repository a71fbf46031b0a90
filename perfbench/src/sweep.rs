//! `sweep`: the 80-cell figure sweep through `ExperimentRunner::run_sweep`.
//!
//! Ten figure workloads under Graphene and PARA x {No-RP, ExPress,
//! ImPress-N, ImPress-P}, normalized to the unprotected baseline, on the
//! runner's default sweep threads (one per CPU). The runner seeds its own
//! workload mixes (`0x1A7E_2024`); the benchmark's seed does not reach it.

use std::time::Instant;

use impress_bench::{defense_configurations, figure_workloads};
use impress_core::config::TrackerChoice;
use impress_sim::{geometric_mean, Configuration, ExperimentRunner, NormalizedResult};

use crate::spans::Tracer;
use crate::{median, quantile, Fnv, Metric, Report, Setups, Stop};

struct Inputs {
    runner: ExperimentRunner,
    workloads: Vec<&'static str>,
    baseline: Configuration,
    configurations: Vec<Configuration>,
}

/// Set-up repetitions, spread over the run; the reported set-up time is
/// their median.
const SETUP_REPS: usize = 9;

/// Sweeps per run at least, so the median has three samples.
const MIN_SWEEPS: usize = 3;

/// Untraced/traced sweep pairs of the traced run.
const TRACED_PAIRS: usize = 3;

/// Requests per core of the set-up's warm-up sweep (1/20 of the default run
/// length).
const WARMUP_REQUESTS_PER_CORE: u64 = 2_000;

/// Builds the grid and warms it up with one short sweep over every cell, so
/// the timed sweeps start with the pool, the allocator and the caches warm.
fn setup() -> Inputs {
    let mut configurations = defense_configurations(TrackerChoice::Graphene, 4_000);
    configurations.extend(defense_configurations(TrackerChoice::Para, 4_000));
    let inputs = Inputs {
        runner: ExperimentRunner::new(),
        workloads: figure_workloads(),
        baseline: Configuration::unprotected(),
        configurations,
    };
    std::hint::black_box(
        ExperimentRunner::new()
            .with_requests_per_core(WARMUP_REQUESTS_PER_CORE)
            .run_sweep(&inputs.workloads, &inputs.baseline, &inputs.configurations),
    );
    inputs
}

/// Digest of every simulated statistic of a sweep: per cell, the cycle
/// count, per-core IPC, memory statistics and normalized performance bits.
fn digest(results: &[Vec<NormalizedResult>]) -> u64 {
    let mut h = Fnv::default();
    for row in results {
        for r in row {
            h.text(&r.configuration);
            h.text(&r.workload);
            h.u64(r.normalized_performance.to_bits());
            h.u64(r.output.performance.elapsed_cycles);
            for ipc in &r.output.performance.per_core_ipc {
                h.u64(ipc.to_bits());
            }
            h.text(&format!("{:?}", r.output.memory));
        }
    }
    h.finish()
}

fn requests(results: &[Vec<NormalizedResult>]) -> u64 {
    results
        .iter()
        .flatten()
        .map(|r| r.output.memory.requests)
        .sum()
}

/// Failed cells of one sweep: every cell when its digest differs from the
/// run's first sweep, else the cells whose normalized performance is not a
/// positive finite number or that serviced no requests.
fn failed_cells(results: &[Vec<NormalizedResult>], first: u64, this: u64) -> u64 {
    if first != this {
        return results.iter().map(|r| r.len() as u64).sum();
    }
    results
        .iter()
        .flatten()
        .filter(|r| {
            !(r.normalized_performance.is_finite()
                && r.normalized_performance > 0.0
                && r.output.memory.requests > 0)
        })
        .count() as u64
}

/// Geometric-mean normalized performance of Graphene+ImPress-P.
fn impress_p_norm_perf(inputs: &Inputs, results: &[Vec<NormalizedResult>]) -> f64 {
    let row = inputs
        .configurations
        .iter()
        .position(|c| c.label == "Graphene+ImPress-P")
        .expect("Graphene+ImPress-P is swept");
    geometric_mean(
        &results[row]
            .iter()
            .map(|r| r.normalized_performance)
            .collect::<Vec<_>>(),
    )
}

/// Mitigative activations per thousand demand activations over every
/// protected cell of the sweep.
fn mitigative_per_kact(results: &[Vec<NormalizedResult>]) -> f64 {
    let (mut mit, mut act) = (0u64, 0u64);
    for r in results.iter().flatten() {
        mit += r.output.memory.banks.mitigative_activations;
        act += r.output.memory.banks.activations;
    }
    mit as f64 * 1e3 / act.max(1) as f64
}

pub fn run(seconds: f64, traced: bool) -> Report {
    // The traced run reports no set-up time and sets up once.
    let (mut setups, mut inputs) = Setups::first(if traced { 1 } else { SETUP_REPS }, setup);
    let stop = Stop::after(seconds, MIN_SWEEPS);
    let cells = (inputs.workloads.len() * inputs.configurations.len()) as u64;
    let mut report = Report::default();
    let mut times = Vec::new();
    let mut first_digest = None;
    let mut last = None;
    let run_once = |inputs: &Inputs, report: &mut Report, first: &mut Option<u64>| {
        let start = Instant::now();
        let results =
            inputs
                .runner
                .run_sweep(&inputs.workloads, &inputs.baseline, &inputs.configurations);
        let secs = start.elapsed().as_secs_f64();
        let d = digest(&results);
        let first = *first.get_or_insert(d);
        report.attempted += cells;
        report.failed += failed_cells(&results, first, d);
        (secs, results)
    };

    if !traced {
        while !stop.reached(times.len()) {
            let (secs, results) = run_once(&inputs, &mut report, &mut first_digest);
            times.push(secs);
            last = Some(results);
            inputs = setups.between_ops(&stop, inputs, setup);
        }
        let setup_s = setups.median();
        let results = last.expect("at least one sweep ran");
        let requests = requests(&results) as f64;
        report.digest = first_digest.expect("at least one sweep ran");
        report.end_to_end(
            setup_s,
            &times,
            requests * times.len() as f64,
            times.iter().sum(),
        );
        eprintln!(
            "perfbench: sweep: {cells} cells + {} baselines, {} sweeps; Graphene+ImPress-P \
             gmean normalized performance {:.6}, mitigative ACTs per kACT {:.6}",
            inputs.workloads.len(),
            times.len(),
            impress_p_norm_perf(&inputs, &results),
            mitigative_per_kact(&results),
        );
        return report;
    }

    // Traced: untraced and traced sweeps alternate (each traced one inside
    // a span), then every cell alone through `run_raw`, serially.
    let mut tracer = Tracer::new();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for pair in 0..TRACED_PAIRS {
        let op = pair as u64;
        let (secs, _) = run_once(&inputs, &mut report, &mut first_digest);
        untraced_s.push(secs);
        let root = tracer.open("sweep", None, op);
        let ((secs, results), _) = tracer.time("exec.run_sweep", Some(root), op, || {
            run_once(&inputs, &mut report, &mut first_digest)
        });
        tracer.close(root);
        traced_s.push(secs);
        last = Some(results);
    }
    let results = last.expect("a traced sweep ran");
    let sweep_s = median(&[untraced_s.as_slice(), &traced_s].concat());

    let cells_root = tracer.open("cells", None, TRACED_PAIRS as u64);
    let mut cycles = 0u64;
    let (mut epochs, mut issues) = (0u64, 0u64);
    let mut memory = impress_dram::stats::ChannelStats::default();
    let mut cell_configs: Vec<&Configuration> = vec![&inputs.baseline];
    cell_configs.extend(inputs.configurations.iter());
    for (c, config) in cell_configs.iter().enumerate() {
        for (w, workload) in inputs.workloads.iter().enumerate() {
            let op = (TRACED_PAIRS + 1 + c * inputs.workloads.len() + w) as u64;
            let (output, _) = tracer.time("system.run_raw", Some(cells_root), op, || {
                inputs.runner.run_raw(workload, config)
            });
            if c > 0 && output.memory != results[c - 1][w].output.memory {
                report.failed += 1;
                report.errors.push(format!(
                    "run_raw({workload}, {}) diverged from the sweep cell",
                    config.label
                ));
            }
            cycles += output.performance.elapsed_cycles;
            epochs += output.epoch_stats.epochs;
            issues += output.epoch_stats.issues;
            memory.merge(&output.memory);
        }
    }
    tracer.close(cells_root);
    report.attempted += cell_configs.len() as u64 * inputs.workloads.len() as u64;

    let cell_times = tracer.durations("system.run_raw");
    let total: f64 = cell_times.iter().sum();
    let threads = impress_exec::thread_count();
    let mean = total / cell_times.len() as f64;
    let max = cell_times.iter().copied().fold(0.0, f64::max);
    let n = cell_times.len();
    report.digest = first_digest.expect("a sweep ran");
    report.metrics = vec![
        Metric::new(
            "exec.parallel_efficiency",
            total / (threads as f64 * sweep_s),
            n,
        ),
        Metric::new("exec.imbalance", max / mean, n),
        Metric::new("system.cell_s_p50", quantile(&cell_times, 0.5), n),
        Metric::new("system.cell_s_max", max, n),
        Metric::new("system.sim_mcycles_per_s", cycles as f64 / total / 1e6, n),
        Metric::new("system.epochs", epochs as f64, n),
        Metric::new(
            "system.issues_per_epoch",
            issues as f64 / epochs.max(1) as f64,
            n,
        ),
        Metric::new("shard.row_hit_ratio", memory.banks.row_hit_rate(), n),
        Metric::new("shard.activations", memory.banks.activations as f64, n),
        Metric::new(
            "sim.impress_p_norm_perf",
            impress_p_norm_perf(&inputs, &results),
            1,
        ),
        Metric::new(
            "sim.mitigative_acts_per_kact",
            mitigative_per_kact(&results),
            1,
        ),
        Metric::new(
            "trace.overhead_ratio",
            median(&traced_s) / median(&untraced_s),
            2 * TRACED_PAIRS,
        ),
    ];
    report.spans = Some(tracer);
    report
}
