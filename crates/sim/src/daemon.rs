//! Open-loop ingestion and its supervised daemon mode: checkpoints,
//! watchdog, quarantine.
//!
//! One loop decodes, routes, executes and accounts every open-loop stream.
//! [`TraceRunner::ingest`](crate::trace_runner::TraceRunner::ingest) runs it
//! with no checkpoints, no watchdog and no resume; [`supervise`] runs it
//! hardened for long-running service operation:
//!
//! * **Checkpoints** — every [`DaemonOptions::checkpoint_every`] records the
//!   daemon emits a canonical-JSON [`Checkpoint`] (record count, source byte
//!   offset, window/ledger summary) through a caller-supplied sink. After a
//!   crash, [`DaemonOptions::resume_from`] restarts by *deterministic prefix
//!   re-execution*: the stream is re-ingested from byte zero (the simulator's
//!   state cannot be snapshotted cheaply, but re-execution is bit-exact), and
//!   when the record counter reaches the checkpoint the reader's position is
//!   validated against the pinned offset — a mismatch means the source changed
//!   underneath the checkpoint and the resume is refused. The validated resume
//!   is recorded in the fault ledger, so a resumed run's verdict differs from an
//!   uninterrupted run's only in resume-marker lines. Resume therefore requires
//!   a replayable source (a file, not a drained FIFO).
//! * **Bounded-lag watchdog** — per-window telemetry is retained up to
//!   [`DaemonOptions::max_lag_windows`]; beyond that the oldest window's
//!   telemetry is shed (and ledgered) before any record is dropped.
//! * **Quarantine** — a shard-worker panic is contained by the epoch pool
//!   ([`impress_exec::EpochScope::try_run_epoch`]); the loop ledgers the
//!   failed round's records as a quarantined window and keeps serving instead
//!   of crashing (in plain ingest too).
//!
//! Paired with a [`FollowSource`](impress_workloads::FollowSource) for stall
//! tolerance and [`DecodeMode::Resync`] for corruption tolerance, this is the
//! `trace daemon` CLI's engine.

use std::fs::File;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use impress_dram::stats::ChannelStats;
use impress_dram::timing::Cycle;
use impress_memctrl::{ChannelShard, MemoryController};
use impress_workloads::codec::{DecodeMode, TraceReader};
use impress_workloads::source::TraceSource;

use crate::runner::Configuration;
use crate::sharded::{lock_task, make_tasks, QueuedAccess};
use crate::trace_runner::{FaultLedger, IngestReport, LedgerEntry, VerdictReport, WindowTelemetry};

/// Records executed per epoch-pool round during open-loop ingestion (matches the
/// codec's frame size, so one decoded frame is one execute round).
pub(crate) const INGEST_BATCH: usize = 8192;

/// Default inter-arrival gap (DRAM cycles) when a trace carries no gaps: one
/// cache-line transfer per burst slot spread across the baseline's two channels.
pub(crate) const DEFAULT_GAP: u32 = 4;

/// Canonical-JSON snapshot of ingest progress, durable across crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Records ingested when the checkpoint was taken.
    pub records: u64,
    /// Reader position (absolute source bytes) pinned to `records` — resume
    /// validates the re-read stream against this.
    pub source_offset: u64,
    /// Telemetry windows emitted so far (including shed ones).
    pub windows: u64,
    /// Ledger's conservative records-lost bound so far.
    pub records_lost: u64,
    /// Simulated cycle of the last ingested record.
    pub elapsed_cycles: Cycle,
}

impl Checkpoint {
    /// Canonical JSON form (fixed key order, integers only).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"impress-trace-checkpoint-v1\",\n  \"records\": {},\n  \
             \"source_offset\": {},\n  \"windows\": {},\n  \"records_lost\": {},\n  \
             \"elapsed_cycles\": {}\n}}\n",
            self.records, self.source_offset, self.windows, self.records_lost, self.elapsed_cycles,
        )
    }

    /// Parses the canonical JSON form.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the schema marker or a field is missing or
    /// malformed.
    pub fn parse(json: &str) -> io::Result<Self> {
        if !json.contains("\"impress-trace-checkpoint-v1\"") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an impress checkpoint (missing schema marker)",
            ));
        }
        let field = |key: &str| -> io::Result<u64> {
            let pat = format!("\"{key}\":");
            let at = json.find(&pat).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("checkpoint is missing field {key:?}"),
                )
            })?;
            let rest = json[at + pat.len()..].trim_start();
            let digits: &str = &rest[..rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len())];
            digits.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("checkpoint field {key:?} is not an integer"),
                )
            })
        };
        Ok(Self {
            records: field("records")?,
            source_offset: field("source_offset")?,
            windows: field("windows")?,
            records_lost: field("records_lost")?,
            elapsed_cycles: field("elapsed_cycles")?,
        })
    }
}

/// Writes `cp` to `path` durably: the JSON lands in a sibling `.tmp` file
/// which is fsynced *before* the atomic rename, and the parent directory is
/// fsynced *after* — so a host crash at any instant leaves either the previous
/// checkpoint or the new one, never a torn or vanished file.
///
/// # Errors
///
/// Propagates any I/O error; on failure the temp file is removed so retries
/// and crash-recovery never mistake it for a checkpoint.
pub fn write_checkpoint_durable(path: &Path, cp: &Checkpoint) -> io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let write = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(cp.to_json().as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return write;
    }
    // Durability of the rename itself requires syncing the directory entry.
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Knobs for [`supervise`].
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Telemetry window size in records.
    pub window_records: u64,
    /// Records between checkpoints (`0` disables checkpointing).
    pub checkpoint_every: u64,
    /// Maximum telemetry windows retained before the watchdog sheds the oldest
    /// (`0` = unbounded).
    pub max_lag_windows: usize,
    /// Shard worker threads (same meaning as everywhere else; bit-identical
    /// output at any value).
    pub shard_threads: usize,
    /// Decode in resynchronizing mode, surviving stream corruption.
    pub resync: bool,
    /// Resume by re-executing the stream prefix and validating it against this
    /// checkpoint.
    pub resume_from: Option<Checkpoint>,
    /// Whether tracked events stage through the bank-batched record kernels.
    /// `None` defers to the `IMPRESS_RECORD_BATCH` environment variable
    /// (default on); output is bit-identical either way.
    pub record_batch: Option<bool>,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        Self {
            window_records: 1 << 20,
            checkpoint_every: 1 << 22,
            max_lag_windows: 0,
            shard_threads: 1,
            resync: false,
            resume_from: None,
            record_batch: None,
        }
    }
}

/// Telemetry windows a listen-mode daemon retains before the bounded-lag
/// watchdog sheds the oldest. Network producers can outpace the simulator
/// indefinitely, so listen mode must bound lag by default — unlike file
/// ingest, where the stream is finite and `0` (unbounded) is safe.
pub const LISTEN_MAX_LAG: usize = 64;

impl DaemonOptions {
    /// Listen-mode defaults for a network daemon: identical to
    /// [`DaemonOptions::default`] except the bounded-lag watchdog is armed at
    /// [`LISTEN_MAX_LAG`] windows. The `trace daemon --listen` CLI builds its
    /// options from this, so the library defaults and the CLI's documented
    /// defaults agree by construction.
    pub fn listening() -> Self {
        Self {
            max_lag_windows: LISTEN_MAX_LAG,
            ..Self::default()
        }
    }
}

/// Runs supervised daemon-mode ingestion over `source`.
///
/// `on_checkpoint` is invoked with each periodic [`Checkpoint`] plus one final
/// checkpoint at a clean end of stream; a crash (source error) propagates
/// *without* a final checkpoint, leaving the last periodic one as the resume
/// point.
///
/// # Errors
///
/// Propagates source I/O errors, strict-mode codec errors, and a resume
/// validation mismatch (`InvalidData`).
pub fn supervise<S: TraceSource>(
    source: S,
    configuration: &Configuration,
    options: &DaemonOptions,
    on_checkpoint: &mut dyn FnMut(&Checkpoint) -> io::Result<()>,
) -> io::Result<IngestReport> {
    let mode = if options.resync {
        DecodeMode::Resync
    } else {
        DecodeMode::Strict
    };
    let reader = TraceReader::with_mode(source, mode)?;
    ingest_loop(reader, configuration, options, on_checkpoint, |_| {})
}

/// Validates the resume point `cp` once `records` records have been ingested
/// and the reader sits at `position`, ledgering the resume on success.
fn validate_resume(
    cp: &Checkpoint,
    records: u64,
    position: u64,
    ledger: &mut FaultLedger,
) -> io::Result<()> {
    if position != cp.source_offset {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "stream diverged from checkpoint: record {records} is at byte {position}, \
                 checkpoint pinned byte {}",
                cp.source_offset
            ),
        ));
    }
    ledger.push(LedgerEntry::Resume {
        records,
        offset: cp.source_offset,
    });
    Ok(())
}

/// The open-loop ingest loop behind both [`supervise`] and
/// [`TraceRunner::ingest`](crate::trace_runner::TraceRunner::ingest): decode →
/// route → execute → account, with no core feedback. Records advance
/// simulated time by their recorded gaps (or [`DEFAULT_GAP`] for gapless
/// traces) and execute on the channel shards in [`INGEST_BATCH`]-record
/// rounds of the epoch pool. `options.resync` is not read: `reader` is
/// already built. `round_hook` runs on the worker executing shard 0 before
/// each round — the seam the quarantine tests use to inject deterministic
/// panics.
pub(crate) fn ingest_loop<S: TraceSource>(
    mut reader: TraceReader<S>,
    configuration: &Configuration,
    options: &DaemonOptions,
    on_checkpoint: &mut dyn FnMut(&Checkpoint) -> io::Result<()>,
    round_hook: impl Fn(u64) + Sync,
) -> io::Result<IngestReport> {
    let controller = MemoryController::new(configuration.controller_config());
    let (cfg, shards) = controller.into_parts();
    let min_latency = ChannelShard::min_access_latency(&cfg.timings);
    let tasks = make_tasks(shards, min_latency);
    let channels = tasks.len();
    if options
        .record_batch
        .unwrap_or_else(impress_core::engine::record_batching_from_env)
    {
        for i in 0..channels {
            lock_task(&tasks, i).shard.set_record_batching(true);
        }
    }
    let mapping = cfg.mapping;
    let organization = &cfg.organization;
    let has_gaps = reader.meta().has_gaps;
    let workload = reader.meta().name.clone();
    let window_records = options.window_records.max(1);

    // Round counter shared with the hook; only the driver writes it, and only
    // between rounds, so workers read a stable value during execution.
    let round = AtomicU64::new(0);
    let (tasks_ref, round_ref) = (&tasks, &round);

    type LoopOut = (u64, Cycle, Vec<WindowTelemetry>, FaultLedger);
    let result: io::Result<LoopOut> = impress_exec::epoch_scope(
        options.shard_threads.max(1),
        channels,
        move |i| {
            if i == 0 {
                round_hook(round_ref.load(Ordering::Acquire));
            }
            lock_task(tasks_ref, i).execute()
        },
        |scope| {
            let mut queues: Vec<Vec<QueuedAccess>> = (0..channels).map(|_| Vec::new()).collect();
            let mut now: Cycle = 0;
            let mut records: u64 = 0;
            let mut batched: usize = 0;
            let mut windows: Vec<WindowTelemetry> = Vec::new();
            let mut windows_emitted: u64 = 0;
            let mut window_start_records: u64 = 0;
            let mut prev = ChannelStats::default();
            let mut ledger = FaultLedger::default();
            let mut last_checkpoint: u64 = 0;
            let mut resume_from = options.resume_from;

            let snapshot = || {
                ChannelStats::merged((0..channels).map(|i| lock_task(tasks_ref, i).shard.stats()))
            };
            // One epoch-pool round over the batched queues; a contained panic
            // quarantines the round's records instead of crashing the daemon.
            let flush = |queues: &mut Vec<Vec<QueuedAccess>>,
                         batched: &mut usize,
                         ledger: &mut FaultLedger,
                         window: u64| {
                if *batched == 0 {
                    return;
                }
                for (channel, queue) in queues.iter_mut().enumerate() {
                    std::mem::swap(&mut lock_task(tasks_ref, channel).queue, queue);
                }
                round_ref.fetch_add(1, Ordering::Release);
                if scope.try_run_epoch().is_err() {
                    ledger.push(LedgerEntry::QuarantinedWindow {
                        window,
                        records_lost: *batched as u64,
                    });
                }
                for (channel, queue) in queues.iter_mut().enumerate() {
                    std::mem::swap(&mut lock_task(tasks_ref, channel).queue, queue);
                    queue.clear();
                }
                *batched = 0;
            };

            // A 0-record checkpoint (an empty stream's final one) is due
            // before the first record.
            if let Some(cp) = resume_from.take_if(|cp| cp.records == 0) {
                validate_resume(&cp, 0, reader.position(), &mut ledger)?;
            }
            while let Some(record) = reader.next_record()? {
                now += if has_gaps {
                    record.gap as Cycle
                } else {
                    DEFAULT_GAP as Cycle
                };
                let location = mapping
                    .decode(record.to_access().address, organization)
                    .map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("record {records}: {e}"))
                    })?;
                queues[location.channel as usize].push(QueuedAccess {
                    location,
                    is_write: record.is_write,
                    at: now,
                });
                records += 1;
                batched += 1;

                if let Some(cp) = resume_from.take_if(|cp| cp.records == records) {
                    validate_resume(&cp, records, reader.position(), &mut ledger)?;
                }

                if batched == INGEST_BATCH {
                    flush(&mut queues, &mut batched, &mut ledger, windows_emitted);
                    for f in reader.take_faults() {
                        ledger.push(LedgerEntry::Decode(f));
                    }
                    ledger.absorb_transport(reader.take_transport_events());
                    if options.checkpoint_every > 0
                        && records - last_checkpoint >= options.checkpoint_every
                    {
                        on_checkpoint(&Checkpoint {
                            records,
                            source_offset: reader.position(),
                            windows: windows_emitted,
                            records_lost: ledger.records_lost(),
                            elapsed_cycles: now,
                        })?;
                        last_checkpoint = records;
                    }
                }
                if records - window_start_records == window_records {
                    flush(&mut queues, &mut batched, &mut ledger, windows_emitted);
                    let snap = snapshot();
                    windows.push(WindowTelemetry::delta(
                        windows_emitted,
                        records - window_start_records,
                        now,
                        &prev,
                        &snap,
                    ));
                    windows_emitted += 1;
                    prev = snap;
                    window_start_records = records;
                    // Watchdog: shed oldest telemetry before ever shedding a
                    // record.
                    if options.max_lag_windows > 0 && windows.len() > options.max_lag_windows {
                        let shed = windows.remove(0);
                        ledger.push(LedgerEntry::ShedWindow { window: shed.index });
                    }
                }
            }
            flush(&mut queues, &mut batched, &mut ledger, windows_emitted);
            for f in reader.take_faults() {
                ledger.push(LedgerEntry::Decode(f));
            }
            ledger.absorb_transport(reader.take_transport_events());
            if reader.truncated() {
                ledger.push(LedgerEntry::TruncatedStream {
                    offset: reader.byte_offset(),
                });
            }
            if records > window_start_records {
                let snap = snapshot();
                windows.push(WindowTelemetry::delta(
                    windows_emitted,
                    records - window_start_records,
                    now,
                    &prev,
                    &snap,
                ));
                windows_emitted += 1;
            }
            if resume_from.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream ended before reaching the checkpointed record count",
                ));
            }
            // Final checkpoint: the stream ended cleanly, so the resume point
            // is the end of the run.
            if options.checkpoint_every > 0 {
                on_checkpoint(&Checkpoint {
                    records,
                    source_offset: reader.position(),
                    windows: windows_emitted,
                    records_lost: ledger.records_lost(),
                    elapsed_cycles: now,
                })?;
            }
            Ok((records, now, windows, ledger))
        },
    );
    let (records, elapsed_cycles, windows, ledger) = result?;

    let memory = ChannelStats::merged(
        tasks
            .into_iter()
            .map(|t| t.into_inner().unwrap_or_else(|e| e.into_inner()).shard)
            .map(|mut shard| {
                // End-of-run flush: staged spans are mitigation-free, so the
                // stats are already final, but the trackers must land in the
                // same state a per-record run would leave them in.
                shard.flush_staged_records();
                shard.stats()
            }),
    );
    let verdict =
        VerdictReport::from_stats(&workload, configuration, records, elapsed_cycles, &memory)
            .with_faults(ledger);
    Ok(IngestReport {
        records,
        elapsed_cycles,
        memory,
        windows,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_workloads::codec::{TraceMeta, TraceRecord, TraceWriter};
    use impress_workloads::source::SliceSource;
    use impress_workloads::{apply_plan, FaultPlan, FrameMap};

    fn sample_trace(records: u64) -> Vec<u8> {
        let meta = TraceMeta {
            name: "daemon".to_string(),
            cores: 2,
            has_gaps: false,
            instructions_per_miss: vec![40.0, 60.0],
        };
        let mut w = TraceWriter::new(Vec::new(), &meta).unwrap();
        for i in 0..records {
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

    #[test]
    fn durable_checkpoint_roundtrips_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("impress-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daemon.ckpt");
        let cp = Checkpoint {
            records: 123_456,
            source_offset: 7_890,
            windows: 12,
            records_lost: 3,
            elapsed_cycles: 99,
        };
        write_checkpoint_durable(&path, &cp).unwrap();
        // Overwrite with a later checkpoint: rename must replace atomically.
        let cp2 = Checkpoint {
            records: 223_456,
            ..cp
        };
        write_checkpoint_durable(&path, &cp2).unwrap();
        let back = Checkpoint::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.records, 223_456);
        assert_eq!(back.source_offset, 7_890);
        // The staging file must never survive a successful write.
        assert!(!path.with_extension("ckpt.tmp").exists());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("daemon.ckpt")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_checkpoint_failure_removes_temp_file() {
        let dir = std::env::temp_dir().join(format!("impress-ckpt-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Target is a directory: the rename must fail, and the temp file must
        // not be left behind to be mistaken for a checkpoint later.
        let path = dir.join("blocked");
        std::fs::create_dir_all(&path).unwrap();
        let cp = Checkpoint {
            records: 1,
            source_offset: 2,
            windows: 0,
            records_lost: 0,
            elapsed_cycles: 0,
        };
        assert!(write_checkpoint_durable(&path, &cp).is_err());
        assert!(!dir.join("blocked.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn opts() -> DaemonOptions {
        DaemonOptions {
            window_records: 10_000,
            checkpoint_every: 20_000,
            ..DaemonOptions::default()
        }
    }

    #[test]
    fn checkpoint_json_round_trips() {
        let cp = Checkpoint {
            records: 123_456,
            source_offset: 789,
            windows: 12,
            records_lost: 34,
            elapsed_cycles: 567_890,
        };
        assert_eq!(Checkpoint::parse(&cp.to_json()).unwrap(), cp);
        assert!(Checkpoint::parse("{}").is_err());
    }

    #[test]
    fn supervised_clean_run_matches_plain_ingest() {
        let clean = sample_trace(50_000);
        let corrupted = apply_plan(
            &clean,
            &FaultPlan::seeded(7, &FrameMap::scan(&clean).unwrap()),
        )
        .unwrap();
        let configuration = Configuration::unprotected();
        for (label, bytes, resync) in [("clean", &clean, false), ("corrupted", &corrupted, true)] {
            let mut checkpoints = Vec::new();
            let report = supervise(
                SliceSource::new(bytes),
                &configuration,
                &DaemonOptions { resync, ..opts() },
                &mut |cp| {
                    checkpoints.push(*cp);
                    Ok(())
                },
            )
            .unwrap();

            let mode = if resync {
                DecodeMode::Resync
            } else {
                DecodeMode::Strict
            };
            let plain = crate::trace_runner::TraceRunner::new()
                .with_window_records(10_000)
                .ingest(
                    TraceReader::with_mode(SliceSource::new(bytes), mode).unwrap(),
                    &configuration,
                )
                .unwrap();
            assert_eq!(report.records, plain.records, "{label}");
            assert_eq!(report.memory, plain.memory, "{label}");
            assert_eq!(report.windows, plain.windows, "{label}");
            assert_eq!(report.verdict, plain.verdict, "{label}");
            assert_eq!(
                report.verdict.to_json(),
                plain.verdict.to_json(),
                "{label}: decode-fault and truncation ledger order must match"
            );
            if resync {
                assert_ne!(report.verdict.outcome(), "clean", "{label}");
            } else {
                assert_eq!(report.verdict.outcome(), "clean");
                // Periodic checkpoints at the first batch boundaries past 20k
                // and 40k records, plus the final one at end of stream.
                assert_eq!(
                    checkpoints.iter().map(|c| c.records).collect::<Vec<_>>(),
                    vec![28_192, 48_192, 50_000]
                );
            }
        }
    }

    #[test]
    fn resume_reproduces_the_uninterrupted_verdict_modulo_marker() {
        let bytes = sample_trace(60_000);
        let configuration = Configuration::unprotected();
        let mut checkpoints = Vec::new();
        let full = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &opts(),
            &mut |cp| {
                checkpoints.push(*cp);
                Ok(())
            },
        )
        .unwrap();

        // Resume from a mid-run checkpoint, as a crashed daemon would.
        let mid = checkpoints[0];
        let resumed = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &DaemonOptions {
                resume_from: Some(mid),
                ..opts()
            },
            &mut |_| Ok(()),
        )
        .unwrap();
        assert_eq!(resumed.records, full.records);
        assert_eq!(resumed.memory, full.memory);
        assert_eq!(resumed.verdict.outcome(), "clean");
        let strip = |json: &str| {
            json.lines()
                .filter(|l| !l.contains("\"kind\": \"resume\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip(&resumed.verdict.to_json_extended()),
            strip(&full.verdict.to_json_extended())
        );
        assert_ne!(
            resumed.verdict.to_json_extended(),
            full.verdict.to_json_extended(),
            "the resume marker must be visible"
        );
    }

    #[test]
    fn resume_from_an_empty_streams_final_checkpoint() {
        // A header-only stream (e.g. a tenant that sent its header, then FIN)
        // leaves a final checkpoint at 0 records; resuming from it must
        // validate before the first record instead of waiting for one.
        let bytes = sample_trace(0);
        let configuration = Configuration::unprotected();
        let options = DaemonOptions {
            checkpoint_every: 16,
            ..opts()
        };
        let mut checkpoints = Vec::new();
        supervise(
            SliceSource::new(&bytes),
            &configuration,
            &options,
            &mut |cp| {
                checkpoints.push(*cp);
                Ok(())
            },
        )
        .unwrap();
        let last = *checkpoints.last().unwrap();
        assert_eq!(last.records, 0);
        assert_eq!(last.source_offset, bytes.len() as u64);

        let resumed = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &DaemonOptions {
                resume_from: Some(last),
                ..options.clone()
            },
            &mut |_| Ok(()),
        )
        .unwrap();
        assert_eq!(resumed.records, 0);
        assert_eq!(
            resumed.verdict.faults.entries,
            vec![LedgerEntry::Resume {
                records: 0,
                offset: last.source_offset,
            }]
        );

        // A 0-record checkpoint pinned to another offset is still refused.
        let err = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &DaemonOptions {
                resume_from: Some(Checkpoint {
                    source_offset: last.source_offset + 1,
                    ..last
                }),
                ..options
            },
            &mut |_| Ok(()),
        )
        .unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
    }

    #[test]
    fn resume_refuses_a_diverged_stream() {
        let bytes = sample_trace(60_000);
        let configuration = Configuration::unprotected();
        let mut checkpoints = Vec::new();
        supervise(
            SliceSource::new(&bytes),
            &configuration,
            &opts(),
            &mut |cp| {
                checkpoints.push(*cp);
                Ok(())
            },
        )
        .unwrap();
        let mut lying = checkpoints[0];
        lying.source_offset += 16;
        let err = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &DaemonOptions {
                resume_from: Some(lying),
                ..opts()
            },
            &mut |_| Ok(()),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("diverged"));
    }

    #[test]
    fn corrupt_stream_yields_a_degraded_verdict_with_stable_ledger() {
        let bytes = sample_trace(40_000);
        let map = FrameMap::scan(&bytes).unwrap();
        let plan = FaultPlan::seeded(7, &map);
        let corrupted = apply_plan(&bytes, &plan).unwrap();
        let configuration = Configuration::unprotected();
        let run = |threads: usize| {
            supervise(
                SliceSource::new(&corrupted),
                &configuration,
                &DaemonOptions {
                    resync: true,
                    shard_threads: threads,
                    ..opts()
                },
                &mut |_| Ok(()),
            )
            .unwrap()
        };
        let reference = run(1);
        assert_ne!(reference.verdict.outcome(), "clean");
        assert!(!reference.verdict.faults.entries.is_empty());
        for threads in [2usize, 4] {
            let out = run(threads);
            assert_eq!(
                out.verdict.to_json_extended(),
                reference.verdict.to_json_extended(),
                "ledger must be byte-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn shard_panic_is_quarantined_and_the_daemon_keeps_serving() {
        let bytes = sample_trace(40_000);
        let configuration = Configuration::unprotected();
        let run = |threads: usize| {
            ingest_loop(
                TraceReader::new(SliceSource::new(&bytes)).unwrap(),
                &configuration,
                &DaemonOptions {
                    shard_threads: threads,
                    ..opts()
                },
                &mut |_| Ok(()),
                |round| {
                    // Fires before any shard state is touched in the first
                    // round, so the quarantined run stays deterministic.
                    assert!(round != 1, "injected shard fault");
                },
            )
            .unwrap()
        };
        let reference = run(1);
        assert_eq!(reference.records, 40_000);
        assert_eq!(reference.verdict.outcome(), "quarantined");
        let quarantined: Vec<_> = reference
            .verdict
            .faults
            .entries
            .iter()
            .filter(|e| matches!(e, LedgerEntry::QuarantinedWindow { .. }))
            .collect();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].records_lost(), INGEST_BATCH as u64);
        for threads in [2usize, 4] {
            let out = run(threads);
            assert_eq!(
                out.verdict.to_json_extended(),
                reference.verdict.to_json_extended()
            );
        }
    }

    #[test]
    fn watchdog_sheds_telemetry_not_records() {
        let bytes = sample_trace(50_000);
        let configuration = Configuration::unprotected();
        let report = supervise(
            SliceSource::new(&bytes),
            &configuration,
            &DaemonOptions {
                max_lag_windows: 2,
                ..opts()
            },
            &mut |_| Ok(()),
        )
        .unwrap();
        assert_eq!(report.records, 50_000, "no records were shed");
        // 5 windows emitted, only the last 2 full ones + tail retained.
        assert!(report.windows.len() <= 3);
        let shed: Vec<_> = report
            .verdict
            .faults
            .entries
            .iter()
            .filter(|e| matches!(e, LedgerEntry::ShedWindow { .. }))
            .collect();
        assert!(!shed.is_empty());
        assert_eq!(report.verdict.outcome(), "degraded");
        assert_eq!(report.verdict.faults.records_lost(), 0);
    }
}
