//! `perfbench`: the ImPress reproduction's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|ingest-stream|ingest-attack|serve-tenants> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed` during
//! set-up; the workload then repeats its operation for `--seconds` seconds,
//! checks every output, and prints each metric by name with its unit and
//! sample count. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. The exit code is
//! non-zero when an output check fails. `perfbench/README.md` defines every
//! metric and workload.

mod ingest;
mod inputs;
mod layers;
mod serve;
mod spans;
mod sweep;

use std::borrow::Cow;
use std::path::Path;
use std::time::Instant;

use spans::Tracer;

/// Scratch directory for trace files and span dumps, relative to the
/// directory the benchmark runs in.
pub const WORK_DIR: &str = ".perfbench";

/// The seed whose simulated outputs are pinned in `reference.txt`.
const DEFAULT_SEED: u64 = 1;

/// Simulated-output digests committed with the benchmark: one line per
/// `workload seed digest`; a seed of `*` means the workload ignores the seed.
const REFERENCE: &str = include_str!("../reference.txt");

/// End-to-end metrics and their units, in report order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, in report order. A workload that does
/// not exercise a layer reports its metrics as 0 with 0 samples.
const PER_LAYER: [(&str, &str); 48] = [
    ("exec.parallel_efficiency", "ratio"),
    ("exec.imbalance", "ratio"),
    ("system.cell_s_p50", "s"),
    ("system.cell_s_max", "s"),
    ("system.sim_mcycles_per_s", "Mcycles/s"),
    ("system.epochs", "count"),
    ("system.issues_per_epoch", "count"),
    ("sim.impress_p_norm_perf", "ratio"),
    ("sim.mitigative_acts_per_kact", "1/kACT"),
    ("codec.ns_per_record", "ns"),
    ("codec.frames", "count"),
    ("codec.resync_skips", "count"),
    ("mapping.ns_per_record", "ns"),
    ("shard.ns_per_access", "ns"),
    ("shard.row_hit_ratio", "ratio"),
    ("shard.activations", "count"),
    ("defense.ns_per_access", "ns"),
    ("defense.ns_per_activation", "ns"),
    ("defense.mitigations_per_kact", "1/kACT"),
    ("defense.rfms", "count"),
    ("trackers.graphene.ns_per_record", "ns"),
    ("trackers.graphene.mitigations", "count"),
    ("trackers.mithril.ns_per_record", "ns"),
    ("trackers.mithril.mitigations", "count"),
    ("trackers.para.ns_per_record", "ns"),
    ("trackers.para.mitigations", "count"),
    ("trackers.mint.ns_per_record", "ns"),
    ("trackers.mint.mitigations", "count"),
    ("trackers.prac.ns_per_record", "ns"),
    ("trackers.prac.mitigations", "count"),
    ("trace_runner.self_s", "s"),
    ("trace_runner.self_share", "ratio"),
    ("daemon.overhead_ratio", "ratio"),
    ("transport.session_s_p50", "s"),
    ("transport.session_s_p90", "s"),
    ("transport.mb_per_s", "MB/s"),
    ("transport.sessions_per_stream", "count"),
    ("transport.retransmitted_bytes", "bytes"),
    ("transport.busy_rejects", "count"),
    ("tenants.admitted", "count"),
    ("tenants.failed", "count"),
    ("tenants.drain_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("host.nproc", "count"),
    ("host.peak_rss_mb", "MB"),
    ("run.attempted", "count"),
    ("run.failed_ratio", "ratio"),
];

/// `IMPRESS_*` knobs change what the program does; the benchmark measures
/// only the defaults users get.
const REFUSED_PREFIX: &str = "IMPRESS_";

/// One reported metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: Cow<'static, str>,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name: Cow::Borrowed(name),
            value,
            samples,
        }
    }

    pub fn owned(name: String, value: f64, samples: usize) -> Self {
        Self {
            name: Cow::Owned(name),
            value,
            samples,
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the run's simulated statistics (`sim_digest`).
    pub digest: u64,
    /// Failed output checks.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub spans: Option<Tracer>,
}

impl Report {
    /// The end-to-end metrics shared by every workload: the median set-up
    /// time, the median operation time, and records processed per second of
    /// operation time.
    pub fn end_to_end(&mut self, setup: (f64, usize), ops: &[f64], records: f64, busy_s: f64) {
        self.metrics.extend([
            Metric::new("setup_s", setup.0, setup.1),
            Metric::new("op_s_p50", median(ops), ops.len()),
            Metric::new("records_per_s", records / busy_s, ops.len()),
        ]);
    }
}

/// When a measuring loop stops: after `seconds` of measuring and at least
/// `min_ops` operations.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    start: Instant,
    seconds: f64,
    min_ops: usize,
}

impl Stop {
    pub fn after(seconds: f64, min_ops: usize) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            min_ops,
        }
    }

    pub fn reached(&self, ops: usize) -> bool {
        ops >= self.min_ops && self.start.elapsed().as_secs_f64() >= self.seconds
    }
}

/// Set-up repetitions spread over a measuring run, so that a change of host
/// speed during the run reaches set-up and operations alike. The first
/// repetition runs before measuring; each later one drops the inputs
/// between two operations and rebuilds them, so two copies never coexist.
/// The reported set-up time is their median.
#[derive(Debug)]
pub struct Setups {
    reps: usize,
    times: Vec<f64>,
}

impl Setups {
    /// Runs the first of `reps` set-ups and returns its inputs.
    pub fn first<T>(reps: usize, setup: impl FnOnce() -> T) -> (Self, T) {
        let start = Instant::now();
        let inputs = setup();
        let times = vec![start.elapsed().as_secs_f64()];
        (Self { reps, times }, inputs)
    }

    /// Drops `inputs` and runs one more set-up, returning its inputs.
    pub fn rebuild<T>(&mut self, inputs: T, setup: impl FnOnce() -> T) -> T {
        drop(inputs);
        let start = Instant::now();
        let inputs = setup();
        self.times.push(start.elapsed().as_secs_f64());
        inputs
    }

    /// Runs the repetitions due by now, the k-th k/`reps` of the way through
    /// `stop`'s measuring time, and returns the inputs to measure on.
    pub fn between_ops<T>(
        &mut self,
        stop: &Stop,
        mut inputs: T,
        mut setup: impl FnMut() -> T,
    ) -> T {
        while self.times.len() < self.reps
            && stop.start.elapsed().as_secs_f64()
                >= self.times.len() as f64 * stop.seconds / self.reps as f64
        {
            inputs = self.rebuild(inputs, &mut setup);
        }
        inputs
    }

    /// Runs the repetitions still missing, once measuring is over.
    pub fn rest<T>(&mut self, mut setup: impl FnMut() -> T) {
        while self.times.len() < self.reps {
            let start = Instant::now();
            let inputs = setup();
            self.times.push(start.elapsed().as_secs_f64());
            drop(inputs);
        }
    }

    /// The median set-up time with its sample count.
    pub fn median(&self) -> (f64, usize) {
        (median(&self.times), self.times.len())
    }
}

/// Linear-interpolated quantile `q` of `values` (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// 64-bit FNV-1a over simulated outputs.
#[derive(Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Hashes a length-prefixed string, so concatenations cannot collide.
    pub fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <sweep|ingest-stream|ingest-attack|serve-tenants> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| usage());
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    args
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The committed digest for `workload` at `seed`, if any.
fn reference_digest(workload: &str, seed: u64) -> Option<u64> {
    REFERENCE.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        let seed_matches = s == "*" || s.parse::<u64>().ok() == Some(seed);
        (w == workload && seed_matches)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let refused: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with(REFUSED_PREFIX))
        .collect();
    if !refused.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark measures the defaults",
            refused.join(", ")
        );
        std::process::exit(2);
    }
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!("nproc {nproc}");
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut report = match args.workload.as_str() {
        "sweep" => sweep::run(args.seconds, args.trace),
        "ingest-stream" => ingest::run(ingest::Kind::Stream, args.seed, args.seconds, args.trace),
        "ingest-attack" => ingest::run(ingest::Kind::Attack, args.seed, args.seconds, args.trace),
        "serve-tenants" => serve::run(args.seed, args.seconds, args.trace),
        _ => usage(),
    };

    println!("sim_digest {:016x}", report.digest);
    match reference_digest(&args.workload, args.seed) {
        Some(d) if d == report.digest => println!("sim_digest matches the committed reference"),
        Some(d) => report.errors.push(format!(
            "sim_digest {:016x} differs from the committed reference {d:016x}",
            report.digest
        )),
        None => println!("sim_digest: no committed reference for seed {}", args.seed),
    }
    if report.failed > 0 {
        report.errors.push(format!(
            "{} of {} operations failed",
            report.failed, report.attempted
        ));
    }

    let peak = peak_rss_mb();
    let catalogue: &[(&str, &str)] = if args.trace {
        if let Some(tracer) = &report.spans {
            let path =
                Path::new(WORK_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
            let written =
                std::fs::create_dir_all(WORK_DIR).and_then(|()| tracer.write_jsonl(&path));
            match written {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => report
                    .errors
                    .push(format!("cannot write {}: {e}", path.display())),
            }
            report
                .metrics
                .push(Metric::new("trace.spans", tracer.len() as f64, 1));
        }
        report.metrics.extend([
            Metric::new("host.nproc", nproc as f64, 1),
            Metric::new("host.peak_rss_mb", peak, 1),
            Metric::new("run.attempted", report.attempted as f64, 1),
            Metric::new(
                "run.failed_ratio",
                report.failed as f64 / report.attempted.max(1) as f64,
                1,
            ),
        ]);
        &PER_LAYER
    } else {
        report.metrics.push(Metric::new("peak_rss_mb", peak, 1));
        &END_TO_END
    };

    let mut fields = Vec::new();
    for (name, unit) in catalogue {
        let metric = report.metrics.iter().find(|m| m.name == *name);
        if metric.is_none() && !args.trace {
            report
                .errors
                .push(format!("end-to-end metric {name} was not measured"));
        }
        let (value, samples) = metric.map_or((0.0, 0), |m| (m.value, m.samples));
        if !value.is_finite() {
            report.errors.push(format!("{name} is not a finite number"));
        }
        println!("metric {name} {value} {unit} samples {samples}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for e in &report.errors {
        println!("check failed: {e}");
    }
    let correct = report.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
