//! `trace`: the impress-trace command-line frontend — record, replay and
//! benchmark physical-address trace streams.
//!
//! Subcommands:
//!
//! ```text
//! trace record --workload W [--seed N] [--requests-per-core N] --out FILE
//!              [--config NAME] [--verdict FILE]
//!     Records a synthetic workload as a framed binary trace. With --verdict,
//!     also runs the same workload in-process (closed loop) under --config and
//!     writes that run's verdict report — the reference a replay must match.
//!
//! trace replay --in FILE [--config NAME] [--verdict FILE]
//!     Closed-loop replay: rebuilds the recording run's core models from the
//!     trace header and reruns the stream through the full system model.
//!     Bit-identical to the in-process run.
//!
//! trace throughput (--in FILE | --workload W) [--config NAME]
//!                  [--records N] [--seed N] [--window N]
//!     Open-loop ingestion benchmark: decode → route → epoch loop → telemetry,
//!     reporting million records/s end to end.
//!
//! trace ingest --in FILE [--config NAME] [--resync] [--follow]
//!              [--window N] [--idle-timeout MS] [--backoff-initial MS]
//!              [--backoff-max MS] [--verdict FILE] [--expect FILE]
//!     Open-loop ingestion with a verdict report. --resync survives stream
//!     corruption (degraded verdict + fault ledger) instead of aborting.
//!     --follow streams a growing file/FIFO under the configurable
//!     backoff/idle policy. --expect byte-compares the verdict against a
//!     reference file and exits with EXIT_VERDICT_MISMATCH on any difference.
//!
//! trace corrupt --in FILE --out FILE [--seed N]
//!     Applies the seeded deterministic fault plan (bit flips, truncation,
//!     frame duplication/reorder) to a recorded trace — the reproducible
//!     adversary for resync/daemon testing.
//!
//! trace daemon (--in FILE | --listen tcp://ADDR|unix://PATH) [--config NAME]
//!              [--resync] [--follow] [--resume] [--checkpoint FILE]
//!              [--checkpoint-every N] [--window N] [--max-lag N]
//!              [--idle-timeout MS] [--backoff-initial MS] [--backoff-max MS]
//!              [--max-clients N] [--stage-budget BYTES]
//!              [--stall-limit MS] [--quarantine-after N] [--verdict FILE]
//!              [--verdict-dir DIR] [--expect FILE]
//!     Supervised ingestion: periodic durable checkpoints, bounded-lag
//!     telemetry shedding, contained shard panics (quarantine). --follow rides
//!     out a slow/stalling source with capped exponential backoff; --resume
//!     restarts after a crash by deterministic prefix re-execution validated
//!     against the last checkpoint. --listen runs the multi-tenant supervisor:
//!     every admitted producer gets its own isolated ingest pipeline (own
//!     simulator state, fault ledger, checkpoint, verdict) under shared
//!     admission (--max-clients) and staging-memory (--stage-budget) budgets;
//!     slow-loris sessions are stall-evicted after --stall-limit, and a tenant
//!     accumulating --quarantine-after protocol violations or stall evictions
//!     is banned for the daemon's lifetime — without disturbing other tenants.
//!     Sessions resume from the daemon's acked offset across reconnects, and
//!     SIGTERM drains every live session gracefully. The first tenant's
//!     verdict goes to --verdict (or stdout); --verdict-dir writes every
//!     tenant's verdict as DIR/tenant-<id>.json. Listen-mode defaults follow
//!     the library's `DaemonOptions::listening()` (bounded lag of 64 windows,
//!     30 s idle). All verdicts use the extended (v2) schema.
//!
//! trace send --in FILE --to tcp://ADDR|unix://PATH [--no-retry] [--follow]
//!            [--chunk-bytes N] [--ack-window N] [--max-sessions N]
//!            [--heartbeat MS] [--idle-limit MS] [--idle-timeout MS]
//!            [--backoff-initial MS] [--backoff-max MS] [--fault-seed N]
//!            [--hostile-seed N]
//!     Streams a recorded trace (or FIFO with --follow) to a listening daemon,
//!     reconnecting with capped backoff and resuming from the daemon's acked
//!     offset unless --no-retry. --heartbeat sets the keepalive cadence and
//!     --idle-limit (synonym --idle-timeout) the per-session reply budget.
//!     --fault-seed injects a seeded connection-fault plan (disconnects,
//!     stalls, short writes, duplicate tails) for hostile-network testing.
//!     --hostile-seed instead runs a deliberately protocol-violating producer
//!     that expects to be quarantined (exits 0 only if the daemon bans it).
//! ```
//!
//! `--config` takes a named configuration (`unprotected`, `graphene-impress-p`,
//! `para-impress-p`, `mithril-impress-p`; default `unprotected`). Verdict
//! reports are canonical JSON derived only from deterministic simulation state,
//! so `diff` works across runs and hosts. `--in -` reads the trace from stdin.
//! A subcommand refuses any flag it does not take (exit [`EXIT_USAGE`]), so a
//! mistyped flag fails instead of being silently ignored.
//!
//! # Exit codes
//!
//! Failure classes get distinct exit codes so CI and operators can branch on
//! them: [`EXIT_OK`] (0), [`EXIT_USAGE`] (2), [`EXIT_IO`] (3, the medium
//! failed), [`EXIT_CORRUPT`] (4, the stream content is damaged — strict-mode
//! decode or mapping errors, or a refused resume), [`EXIT_VERDICT_MISMATCH`]
//! (5, `--expect` diff failed), [`EXIT_PANIC`] (6, internal panic),
//! [`EXIT_TRANSPORT`] (7, `trace send` could not deliver the stream — the
//! connection failed after retries, or the daemon quarantined this producer)
//! and [`EXIT_RESUME_UNSUPPORTED`] (8, the daemon asked a forward-only input
//! — stdin or a FIFO — to rewind to an offset it already consumed; delivery
//! stopped rather than silently skipping or duplicating bytes).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use impress_bench::{named_configuration, record_workload_trace, CONFIGURATION_NAMES};
use impress_sim::daemon::{supervise, write_checkpoint_durable, Checkpoint, DaemonOptions};
use impress_sim::{
    serve_tenants, Configuration, MultiReport, System, SystemConfig, TraceRunner, VerdictReport,
};
use impress_workloads::codec::{DecodeMode, TraceMeta, TraceReader, TraceRecord, TraceWriter};
use impress_workloads::faults::{
    apply_plan, run_hostile_producer, ConnFaultPlan, ConnFaultState, FaultPlan, FaultTransport,
    FrameMap,
};
use impress_workloads::source::{FollowPolicy, FollowSource, ReadSource, SliceSource};
use impress_workloads::transport::{
    send_stream, send_to, Endpoint, FileInput, Listener, ReaderInput, SendInput, SendOptions,
    SendOutcome, TenantLimits, TenantServer, WireLink,
};
use impress_workloads::WorkloadMix;

/// Default seed, matching `ExperimentRunner`'s.
const DEFAULT_SEED: u64 = 0x1A7E_2024;

/// Success.
pub const EXIT_OK: i32 = 0;
/// Bad command line.
pub const EXIT_USAGE: i32 = 2;
/// The I/O medium failed (open/read/write errors other than corruption).
pub const EXIT_IO: i32 = 3;
/// The stream content is damaged: strict-mode decode errors, implausible
/// structures, mapping failures, refused resumes.
pub const EXIT_CORRUPT: i32 = 4;
/// `--expect` comparison failed: the produced verdict differs from the
/// reference.
pub const EXIT_VERDICT_MISMATCH: i32 = 5;
/// An internal panic was caught at the top level.
pub const EXIT_PANIC: i32 = 6;
/// `trace send` could not deliver the stream: the connection failed after
/// retries (or immediately with `--no-retry`), or the daemon quarantined
/// this producer.
pub const EXIT_TRANSPORT: i32 = 7;
/// `trace send` was asked to resume from an offset its forward-only input
/// (stdin or a FIFO) already consumed. Rewinding is impossible, so the send
/// stops with this typed failure instead of silently skipping or duplicating
/// bytes. Restart the producer from a seekable file, or rerun the pipeline
/// that feeds the FIFO.
pub const EXIT_RESUME_UNSUPPORTED: i32 = 8;

fn usage() -> ! {
    eprintln!(
        "usage: trace record --workload W [--seed N] [--requests-per-core N] --out FILE \
         [--config NAME] [--verdict FILE]\n\
         \x20      trace replay --in FILE [--config NAME] [--verdict FILE]\n\
         \x20      trace throughput (--in FILE | --workload W) [--config NAME[,NAME...]|all] \
         [--records N] [--seed N] [--window N]\n\
         \x20      trace ingest --in FILE [--config NAME] [--resync] [--follow] \
         [--window N] [--idle-timeout MS] [--backoff-initial MS] \
         [--backoff-max MS] [--verdict FILE] [--expect FILE]\n\
         \x20      trace corrupt --in FILE --out FILE [--seed N]\n\
         \x20      trace daemon (--in FILE | --listen tcp://ADDR|unix://PATH) [--config NAME] \
         [--resync] [--follow] [--resume] [--checkpoint FILE] [--checkpoint-every N] \
         [--window N] [--max-lag N] [--idle-timeout MS] \
         [--backoff-initial MS] [--backoff-max MS] [--max-clients N] [--stage-budget BYTES] \
         [--stall-limit MS] [--quarantine-after N] [--verdict FILE] [--verdict-dir DIR] \
         [--expect FILE]\n\
         \x20      trace send --in FILE --to tcp://ADDR|unix://PATH [--no-retry] [--follow] \
         [--chunk-bytes N] [--ack-window N] [--max-sessions N] [--heartbeat MS] \
         [--idle-limit MS] [--backoff-initial MS] [--backoff-max MS] [--fault-seed N] \
         [--hostile-seed N]"
    );
    std::process::exit(EXIT_USAGE);
}

/// Minimal flag parser: `--key value` pairs after the subcommand.
struct Args(Vec<String>);

/// The flags `command` accepts: `(flags taking a value, bare flags)`, or
/// `None` for an unknown subcommand.
fn accepted_flags(command: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match command {
        "record" => (
            &[
                "--workload",
                "--seed",
                "--requests-per-core",
                "--out",
                "--config",
                "--verdict",
            ],
            &[],
        ),
        "replay" => (&["--in", "--config", "--verdict"], &[]),
        "throughput" => (
            &[
                "--in",
                "--workload",
                "--config",
                "--records",
                "--seed",
                "--window",
            ],
            &[],
        ),
        "ingest" => (
            &[
                "--in",
                "--config",
                "--window",
                "--idle-limit",
                "--idle-timeout",
                "--backoff-initial",
                "--backoff-max",
                "--verdict",
                "--expect",
            ],
            &["--resync", "--follow"],
        ),
        "corrupt" => (&["--in", "--out", "--seed"], &[]),
        "daemon" => (
            &[
                "--in",
                "--listen",
                "--config",
                "--checkpoint",
                "--checkpoint-every",
                "--window",
                "--max-lag",
                "--idle-limit",
                "--idle-timeout",
                "--backoff-initial",
                "--backoff-max",
                "--max-clients",
                "--stage-budget",
                "--stall-limit",
                "--quarantine-after",
                "--verdict",
                "--verdict-dir",
                "--expect",
            ],
            &["--resync", "--follow", "--resume"],
        ),
        "send" => (
            &[
                "--in",
                "--to",
                "--chunk-bytes",
                "--ack-window",
                "--max-sessions",
                "--heartbeat",
                "--idle-limit",
                "--idle-timeout",
                "--backoff-initial",
                "--backoff-max",
                "--fault-seed",
                "--hostile-seed",
            ],
            &["--no-retry", "--follow"],
        ),
        _ => return None,
    })
}

impl Args {
    /// The first argument that is not a flag `(valued, bare)` accepts (a
    /// valued flag consumes the argument after it), if any.
    fn unknown_argument(&self, valued: &[&str], bare: &[&str]) -> Option<&str> {
        let mut i = 0;
        while let Some(arg) = self.0.get(i).map(String::as_str) {
            if valued.contains(&arg) {
                i += 2;
            } else if bare.contains(&arg) {
                i += 1;
            } else {
                return Some(arg);
            }
        }
        None
    }

    /// Exits with [`EXIT_USAGE`] on an unknown subcommand, or naming the first
    /// argument `command` does not accept.
    fn check(&self, command: &str) {
        let (valued, bare) = accepted_flags(command).unwrap_or_else(|| usage());
        if let Some(arg) = self.unknown_argument(valued, bare) {
            eprintln!("trace {command}: unknown argument {arg:?}");
            usage();
        }
    }

    /// True when a bare boolean flag is present.
    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{key} expects an integer, got {v:?}"))
        })
    }

    fn configuration(&self) -> Configuration {
        let name = self.get("--config").unwrap_or("unprotected");
        named_configuration(name)
            .unwrap_or_else(|| panic!("unknown configuration {name:?} (see --help)"))
    }

    /// Follow/reconnect policy from `--idle-limit` (synonym `--idle-timeout`),
    /// `--backoff-initial` and `--backoff-max` (all in milliseconds),
    /// defaulting to [`FollowPolicy::default`]'s 5 s / 5 ms / 200 ms.
    fn follow_policy(&self) -> FollowPolicy {
        self.follow_policy_over(FollowPolicy::default())
    }

    /// Like [`Args::follow_policy`], but with explicit defaults — the listen
    /// path passes [`FollowPolicy::listening`] so CLI and library defaults
    /// agree by construction.
    fn follow_policy_over(&self, base: FollowPolicy) -> FollowPolicy {
        FollowPolicy {
            initial_backoff: Duration::from_millis(
                self.get_u64("--backoff-initial", base.initial_backoff.as_millis() as u64),
            ),
            max_backoff: Duration::from_millis(
                self.get_u64("--backoff-max", base.max_backoff.as_millis() as u64),
            ),
            idle_limit: Duration::from_millis(self.get_u64(
                "--idle-limit",
                self.get_u64("--idle-timeout", base.idle_limit.as_millis() as u64),
            )),
        }
    }
}

fn write_verdict(path: Option<&str>, verdict: &VerdictReport) -> io::Result<()> {
    write_verdict_json(path, &verdict.to_json())
}

fn write_verdict_json(path: Option<&str>, json: &str) -> io::Result<()> {
    match path {
        Some(p) => std::fs::write(p, json),
        None => io::stdout().write_all(json.as_bytes()),
    }
}

/// Byte-compares the produced verdict against `--expect`'s reference file,
/// exiting with [`EXIT_VERDICT_MISMATCH`] on any difference.
fn check_expected(args: &Args, json: &str) -> io::Result<()> {
    let Some(path) = args.get("--expect") else {
        return Ok(());
    };
    let reference = std::fs::read_to_string(path)?;
    if reference != json {
        eprintln!("trace: verdict differs from reference {path}");
        std::process::exit(EXIT_VERDICT_MISMATCH);
    }
    eprintln!("trace: verdict matches reference {path}");
    Ok(())
}

/// The in-process closed-loop run a recording corresponds to.
fn reference_run(
    workload: &str,
    seed: u64,
    requests_per_core: u64,
    configuration: &Configuration,
) -> impress_sim::RunOutput {
    let mix = WorkloadMix::by_name(workload, seed)
        .unwrap_or_else(|| panic!("unknown workload {workload}"));
    let config = SystemConfig {
        requests_per_core,
        ..SystemConfig::baseline()
    }
    .with_controller(configuration.controller_config());
    System::new(config, mix).run()
}

fn cmd_record(args: &Args) -> io::Result<()> {
    let workload = args.get("--workload").unwrap_or_else(|| usage());
    let seed = args.get_u64("--seed", DEFAULT_SEED);
    let per_core = args.get_u64("--requests-per-core", impress_bench::requests_per_core());
    let out = args.get("--out").unwrap_or_else(|| usage());
    let configuration = args.configuration();

    let (meta, records) = record_workload_trace(workload, seed, per_core)
        .unwrap_or_else(|| panic!("unknown workload {workload}"));
    let mut writer = TraceWriter::new(BufWriter::new(File::create(out)?), &meta)?;
    for &r in &records {
        writer.push(r)?;
    }
    writer.finish()?.flush()?;
    eprintln!(
        "trace: recorded {} records ({} cores x {per_core}) of {workload} -> {out}",
        records.len(),
        meta.cores
    );

    if args.get("--verdict").is_some() {
        let output = reference_run(workload, seed, per_core, &configuration);
        let verdict = VerdictReport::from_run(&output, &configuration);
        write_verdict(args.get("--verdict"), &verdict)?;
    }
    Ok(())
}

fn read_records(path: &str) -> io::Result<(TraceMeta, Vec<TraceRecord>)> {
    let inner: Box<dyn Read> = if path == "-" {
        Box::new(io::stdin().lock())
    } else {
        Box::new(BufReader::new(File::open(path)?))
    };
    let mut reader = TraceReader::new(ReadSource::new(inner))?;
    let meta = reader.meta().clone();
    let records = reader.read_all()?;
    Ok((meta, records))
}

fn cmd_replay(args: &Args) -> io::Result<()> {
    let input = args.get("--in").unwrap_or_else(|| usage());
    let configuration = args.configuration();

    let (meta, records) = read_records(input)?;
    let output = TraceRunner::new().replay(&meta, &records, &configuration);
    let verdict = VerdictReport::from_run(&output, &configuration);
    eprintln!(
        "trace: replayed {} records of {} under {}: {} cycles, verdict {}",
        records.len(),
        meta.name,
        configuration.label,
        output.performance.elapsed_cycles,
        verdict.verdict
    );
    write_verdict(args.get("--verdict"), &verdict)
}

fn cmd_throughput(args: &Args) -> io::Result<()> {
    // `--config` takes a single name, a comma-separated list, or `all`; the
    // same in-memory trace bytes are timed once per configuration.
    let configurations: Vec<Configuration> = match args.get("--config").unwrap_or("unprotected") {
        "all" => CONFIGURATION_NAMES
            .iter()
            .map(|name| named_configuration(name).expect("built-in configuration"))
            .collect(),
        list => list
            .split(',')
            .map(str::trim)
            .filter(|name| !name.is_empty())
            .map(|name| {
                named_configuration(name)
                    .unwrap_or_else(|| panic!("unknown configuration {name:?} (see --help)"))
            })
            .collect(),
    };
    if configurations.is_empty() {
        usage();
    }
    let window = args.get_u64("--window", 1 << 20);

    // Materialize the trace bytes in memory so the timed region measures the
    // ingestion pipeline (codec + mapping + shards + telemetry), not disk I/O.
    let bytes: Vec<u8> = match (args.get("--in"), args.get("--workload")) {
        (Some(path), _) => {
            let mut buf = Vec::new();
            if path == "-" {
                io::stdin().lock().read_to_end(&mut buf)?;
            } else {
                File::open(path)?.read_to_end(&mut buf)?;
            }
            buf
        }
        (None, Some(workload)) => {
            let per_core = args.get_u64("--records", 2_000_000) / 8;
            let (meta, records) =
                record_workload_trace(workload, args.get_u64("--seed", DEFAULT_SEED), per_core)
                    .unwrap_or_else(|| panic!("unknown workload {workload}"));
            let mut w = TraceWriter::new(Vec::new(), &meta)?;
            for &r in &records {
                w.push(r)?;
            }
            w.finish()?
        }
        (None, None) => usage(),
    };

    for configuration in &configurations {
        let runner = TraceRunner::new().with_window_records(window);
        let start = Instant::now();
        let report = runner.ingest(TraceReader::new(SliceSource::new(&bytes))?, configuration)?;
        let secs = start.elapsed().as_secs_f64();
        let mrps = report.records as f64 / secs / 1e6;
        println!(
            "ingest: {} records in {:.3} s = {mrps:.1} M records/s under {} \
             ({} windows, verdict {})",
            report.records,
            secs,
            configuration.label,
            report.windows.len(),
            report.verdict.verdict
        );
    }
    Ok(())
}

fn read_bytes(path: &str) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    if path == "-" {
        io::stdin().lock().read_to_end(&mut buf)?;
    } else {
        File::open(path)?.read_to_end(&mut buf)?;
    }
    Ok(buf)
}

fn cmd_ingest(args: &Args) -> io::Result<()> {
    let input = args.get("--in").unwrap_or_else(|| usage());
    let configuration = args.configuration();
    let window = args.get_u64("--window", 1 << 20);
    let mode = if args.has("--resync") {
        DecodeMode::Resync
    } else {
        DecodeMode::Strict
    };

    let runner = TraceRunner::new().with_window_records(window);
    let report = if args.has("--follow") {
        // Stream a growing file or FIFO, riding out stalls under the
        // CLI-configured backoff/idle policy instead of buffering up front.
        let inner: Box<dyn Read> = if input == "-" {
            Box::new(io::stdin().lock())
        } else {
            Box::new(BufReader::new(File::open(input)?))
        };
        let follow = FollowSource::new(ReadSource::new(inner), args.follow_policy());
        runner.ingest(TraceReader::with_mode(follow, mode)?, &configuration)?
    } else {
        let bytes = read_bytes(input)?;
        runner.ingest(
            TraceReader::with_mode(SliceSource::new(&bytes), mode)?,
            &configuration,
        )?
    };
    eprintln!(
        "trace: ingested {} records of {} under {}: outcome {}, {} fault entries, \
         records_lost <= {}",
        report.records,
        report.verdict.workload,
        configuration.label,
        report.verdict.outcome(),
        report.verdict.faults.entries.len(),
        report.verdict.faults.records_lost()
    );
    let json = report.verdict.to_json();
    write_verdict_json(args.get("--verdict"), &json)?;
    check_expected(args, &json)
}

fn cmd_corrupt(args: &Args) -> io::Result<()> {
    let input = args.get("--in").unwrap_or_else(|| usage());
    let out = args.get("--out").unwrap_or_else(|| usage());
    let seed = args.get_u64("--seed", 1);

    let bytes = read_bytes(input)?;
    let map = FrameMap::scan(&bytes)?;
    let plan = FaultPlan::seeded(seed, &map);
    let corrupted = apply_plan(&bytes, &plan)?;
    std::fs::write(out, &corrupted)?;
    let impact = plan.expected(&map);
    eprintln!(
        "trace: corrupted {input} -> {out} with seed {seed}: {} fault ops over {} frames{}",
        plan.ops.len(),
        map.frames.len(),
        impact.map_or(String::new(), |i| format!(
            " (expect {} intact, >= {} lost{})",
            i.intact_records,
            i.damaged_records,
            if i.mid_frame_cut {
                ", mid-frame cut"
            } else {
                ""
            }
        ))
    );
    Ok(())
}

/// Set by the SIGTERM handler; a listening daemon polls it to drain
/// gracefully (finish the in-flight batch, final checkpoint, verdict,
/// protocol goodbye to the connected producer).
static DRAIN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    DRAIN.store(true, Ordering::SeqCst);
}

/// Binds SIGTERM to the drain flag. Raw `signal(2)` keeps the binary free of
/// new dependencies; the handler only stores to an atomic, and every blocking
/// operation on the drain path uses short poll timeouts, so `SA_RESTART`
/// semantics are irrelevant.
fn install_sigterm_drain() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

/// Reports a multi-tenant serving run: a summary line per tenant, the first
/// tenant's verdict to `--verdict`/stdout (with `--expect` checking), and
/// every tenant's verdict to `--verdict-dir/tenant-<id>.json`.
///
/// Per-tenant pipeline failures are isolated failures the daemon already
/// survived, so they are reported on stderr but do not fail the process.
fn report_tenants(
    args: &Args,
    configuration: &Configuration,
    multi: &MultiReport,
) -> io::Result<()> {
    let verdict_dir = args.get("--verdict-dir");
    if let Some(dir) = verdict_dir {
        std::fs::create_dir_all(dir)?;
    }
    let mut failed = 0usize;
    for tenant in &multi.tenants {
        match &tenant.result {
            Ok(report) => {
                eprintln!(
                    "trace: tenant {}: ingested {} records of {} under {}: outcome {}, \
                     {} fault entries, records_lost <= {}",
                    tenant.tenant,
                    report.records,
                    report.verdict.workload,
                    configuration.label,
                    report.verdict.outcome(),
                    report.verdict.faults.entries.len(),
                    report.verdict.faults.records_lost()
                );
                let json = report.verdict.to_json_extended();
                if let Some(dir) = verdict_dir {
                    std::fs::write(
                        Path::new(dir).join(format!("tenant-{}.json", tenant.tenant)),
                        &json,
                    )?;
                }
                if tenant.tenant == 1 {
                    write_verdict_json(args.get("--verdict"), &json)?;
                    check_expected(args, &json)?;
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!(
                    "trace: tenant {}: pipeline failed (isolated, daemon kept serving): {e}",
                    tenant.tenant
                );
            }
        }
    }
    eprintln!(
        "trace: daemon served {} tenant(s), {failed} failed",
        multi.tenants.len()
    );
    Ok(())
}

fn cmd_daemon(args: &Args) -> io::Result<()> {
    let listen = args.get("--listen");
    let input = match (args.get("--in"), listen) {
        (Some(path), None) => Some(path),
        (None, Some(_)) => None,
        _ => usage(),
    };
    let configuration = args.configuration();
    let checkpoint_path = args.get("--checkpoint").map(str::to_string);

    let resume_from = if args.has("--resume") {
        let path = checkpoint_path.as_deref().unwrap_or_else(|| usage());
        Some(Checkpoint::parse(&std::fs::read_to_string(path)?)?)
    } else {
        None
    };
    // Listen mode inherits the library's listening defaults: a socket
    // producer can outpace the simulator indefinitely, so lag is bounded
    // (shedding telemetry via the watchdog — never records), and the idle
    // limit is a patient 30 s instead of the file follower's 5 s.
    let base = if listen.is_some() {
        DaemonOptions::listening()
    } else {
        DaemonOptions::default()
    };
    let options = DaemonOptions {
        window_records: args.get_u64("--window", 1 << 16),
        checkpoint_every: args.get_u64("--checkpoint-every", 1 << 18),
        max_lag_windows: args.get_u64("--max-lag", base.max_lag_windows as u64) as usize,
        resync: args.has("--resync"),
        resume_from,
        record_batch: None,
    };

    if let Some(listen) = listen {
        let endpoint = Endpoint::parse(listen)?;
        let listener = Listener::bind(&endpoint)?;
        eprintln!("trace: daemon listening on {}", listener.local_endpoint()?);
        install_sigterm_drain();
        let policy = args.follow_policy_over(FollowPolicy::listening());
        let d = TenantLimits::default();
        let limits = TenantLimits {
            max_clients: args.get_u64("--max-clients", d.max_clients as u64) as usize,
            stage_budget: args.get_u64("--stage-budget", d.stage_budget),
            stall_limit: Duration::from_millis(
                args.get_u64("--stall-limit", d.stall_limit.as_millis() as u64),
            ),
            quarantine_after: args.get_u64("--quarantine-after", u64::from(d.quarantine_after))
                as u32,
            ..d
        };
        let mut server = TenantServer::new(listener, policy, limits).with_drain_flag(&DRAIN);
        let multi = serve_tenants(
            &mut server,
            &configuration,
            &options,
            checkpoint_path.as_deref().map(Path::new),
        )?;
        return report_tenants(args, &configuration, &multi);
    }

    let mut on_checkpoint = |cp: &Checkpoint| match checkpoint_path.as_deref() {
        Some(path) => write_checkpoint_durable(Path::new(path), cp),
        None => Ok(()),
    };
    let report = {
        let input = input.expect("checked above");
        let reader: Box<dyn Read> = if input == "-" {
            Box::new(io::stdin().lock())
        } else {
            Box::new(BufReader::new(File::open(input)?))
        };
        if args.has("--follow") {
            let follow = FollowSource::new(ReadSource::new(reader), args.follow_policy());
            supervise(follow, &configuration, &options, &mut on_checkpoint)?
        } else {
            supervise(
                ReadSource::new(reader),
                &configuration,
                &options,
                &mut on_checkpoint,
            )?
        }
    };
    eprintln!(
        "trace: daemon ingested {} records of {} under {}: outcome {}, {} windows retained, \
         {} fault entries, records_lost <= {}{}",
        report.records,
        report.verdict.workload,
        configuration.label,
        report.verdict.outcome(),
        report.windows.len(),
        report.verdict.faults.entries.len(),
        report.verdict.faults.records_lost(),
        if args.has("--resume") {
            " (resumed)"
        } else {
            ""
        }
    );
    // The daemon always reports in the extended schema, so resumed and
    // uninterrupted runs are diffable modulo resume-marker lines.
    let json = report.verdict.to_json_extended();
    write_verdict_json(args.get("--verdict"), &json)?;
    check_expected(args, &json)
}

/// Dials the daemon for each session, with seeded connection faults layered
/// on when `--fault-seed` is given.
fn run_send<I: SendInput>(
    input: &mut I,
    endpoint: &Endpoint,
    options: &SendOptions,
    fault_seed: Option<u64>,
    payload_len: u64,
) -> io::Result<SendOutcome> {
    match fault_seed {
        None => send_to(endpoint, input, options),
        Some(seed) => {
            let plan = ConnFaultPlan::seeded(seed, payload_len);
            eprintln!(
                "trace: injecting {} seeded connection fault(s) (seed {seed})",
                plan.ops.len()
            );
            let state = ConnFaultState::shared(&plan);
            let ep = endpoint.clone();
            send_stream(
                input,
                move || {
                    WireLink::connect(&ep).map(|link| FaultTransport::new(link, Arc::clone(&state)))
                },
                options,
            )
        }
    }
}

/// Runs the deliberately protocol-violating producer behind
/// `trace send --hostile-seed`: streams a clean prefix of the input, then
/// commits seeded offset-gap violations until the daemon quarantines it.
/// Succeeds only if the quarantine actually lands — this mode exists to prove
/// a daemon under test bans hostile tenants without dying.
fn run_hostile(args: &Args, input: &str, endpoint: &Endpoint, seed: u64) -> io::Result<()> {
    let bytes = read_bytes(input)?;
    let prefix_len = bytes.len().min(8192);
    let max_sessions = args.get_u64("--max-sessions", 32);
    let outcome = run_hostile_producer(endpoint, seed, &bytes[..prefix_len], max_sessions)?;
    eprintln!(
        "trace: hostile producer (seed {seed}): tenant {}, {} session(s), {} byte(s) \
         delivered, quarantined: {}",
        outcome.tenant, outcome.sessions, outcome.delivered, outcome.quarantined
    );
    if outcome.quarantined {
        return Ok(());
    }
    eprintln!("trace: hostile producer was NOT quarantined");
    std::process::exit(EXIT_TRANSPORT);
}

fn cmd_send(args: &Args) -> io::Result<()> {
    let input = args.get("--in").unwrap_or_else(|| usage());
    let to = args.get("--to").unwrap_or_else(|| usage());
    let endpoint = Endpoint::parse(to)?;
    if let Some(seed) = args.get("--hostile-seed") {
        let seed = seed
            .parse()
            .unwrap_or_else(|_| panic!("--hostile-seed expects an integer, got {seed:?}"));
        return run_hostile(args, input, &endpoint, seed);
    }
    let defaults = SendOptions::default();
    let options = SendOptions {
        policy: args.follow_policy(),
        retry: !args.has("--no-retry"),
        data_bytes: args.get_u64("--chunk-bytes", defaults.data_bytes as u64) as usize,
        ack_window: args.get_u64("--ack-window", defaults.ack_window),
        follow: args.has("--follow"),
        max_sessions: args.get_u64("--max-sessions", defaults.max_sessions),
        heartbeat: args
            .get("--heartbeat")
            .map(|_| Duration::from_millis(args.get_u64("--heartbeat", 0))),
        tenant: defaults.tenant,
    };
    let fault_seed = args.get("--fault-seed").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--fault-seed expects an integer, got {v:?}"))
    });

    // Input open errors are I/O failures (exit 3); everything after this
    // point that fails is a transport failure (exit 7).
    let result = if input == "-" {
        let mut src = ReaderInput::new(io::stdin().lock());
        run_send(&mut src, &endpoint, &options, fault_seed, 1 << 20)
    } else if std::fs::metadata(input)?.is_file() {
        let payload_len = std::fs::metadata(input)?.len();
        let mut src = FileInput::open(Path::new(input))?;
        run_send(&mut src, &endpoint, &options, fault_seed, payload_len)
    } else {
        // FIFOs and other non-seekable inputs stream forward-only; resume
        // still works as long as the daemon never asks to rewind.
        let mut src = ReaderInput::new(BufReader::new(File::open(input)?));
        run_send(&mut src, &endpoint, &options, fault_seed, 1 << 20)
    };
    match result {
        Ok(outcome) => {
            eprintln!(
                "trace: sent {} byte(s) acked over {} session(s), {} byte(s) retransmitted{}{}",
                outcome.acked,
                outcome.sessions,
                outcome.retransmitted,
                if outcome.goodbye {
                    ", daemon drained (goodbye)"
                } else {
                    ""
                },
                if outcome.complete {
                    ""
                } else {
                    " — stream NOT fully delivered"
                },
            );
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::Unsupported => {
            // The daemon's resume offset is behind what this forward-only
            // input (stdin/FIFO) already consumed; rewinding is impossible
            // and skipping would silently corrupt the stream.
            eprintln!("trace: cannot resume: {e}");
            std::process::exit(EXIT_RESUME_UNSUPPORTED);
        }
        Err(e) => {
            eprintln!("trace: transport error: {e}");
            std::process::exit(EXIT_TRANSPORT);
        }
    }
}

/// Maps an error to its exit code by failure class.
fn exit_code_for(e: &io::Error) -> i32 {
    match e.kind() {
        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof => EXIT_CORRUPT,
        _ => EXIT_IO,
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
    }
    let command = argv.remove(0);
    let args = Args(argv);
    args.check(&command);
    let outcome = std::panic::catch_unwind(move || match command.as_str() {
        "record" => cmd_record(&args),
        "replay" => cmd_replay(&args),
        "throughput" => cmd_throughput(&args),
        "ingest" => cmd_ingest(&args),
        "corrupt" => cmd_corrupt(&args),
        "daemon" => cmd_daemon(&args),
        "send" => cmd_send(&args),
        _ => usage(),
    });
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("trace: error: {e}");
            std::process::exit(exit_code_for(&e));
        }
        Err(_) => {
            // The panic payload was already printed by the default hook.
            eprintln!("trace: internal panic");
            std::process::exit(EXIT_PANIC);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unknown(command: &str, argv: &[&str]) -> Option<String> {
        let (valued, bare) = accepted_flags(command).expect("known subcommand");
        let args = Args(argv.iter().map(|a| a.to_string()).collect());
        args.unknown_argument(valued, bare).map(str::to_string)
    }

    #[test]
    fn every_subcommand_accepts_its_documented_flags() {
        assert_eq!(
            unknown(
                "daemon",
                &[
                    "--in",
                    "-",
                    "--follow",
                    "--checkpoint-every",
                    "16384",
                    "--resume",
                    "--verdict",
                    "/tmp/v.json",
                ],
            ),
            None
        );
        assert_eq!(
            unknown("send", &["--in", "f", "--to", "unix:///s", "--no-retry"]),
            None
        );
        // A value is never read as a flag, even when it looks like one.
        assert_eq!(unknown("record", &["--out", "--verdict"]), None);
        assert!(accepted_flags("bogus").is_none());
    }

    #[test]
    fn unknown_flags_are_named() {
        assert_eq!(
            unknown("daemon", &["--in", "f", "--checkpoint-evry", "5"]).as_deref(),
            Some("--checkpoint-evry")
        );
        // Flags of another subcommand are unknown here.
        assert_eq!(
            unknown("replay", &["--in", "f", "--resync"]).as_deref(),
            Some("--resync")
        );
        assert_eq!(unknown("corrupt", &["stray"]).as_deref(), Some("stray"));
    }
}
