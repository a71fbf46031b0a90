//! Trace-driven runner: physical-address streams in, verdicts out.
//!
//! This is the `impress-trace` frontend's engine. It consumes recorded access
//! streams (the `impress_workloads::codec` wire format) in two modes:
//!
//! * **Closed-loop replay** ([`TraceRunner::replay`]): rebuilds the recording
//!   run's core models from the trace header and drives the *identical*
//!   epoch-phased [`System`] loop with a [`ReplaySource`] instead of the
//!   synthetic generators. Because per-core access sequences are recorded
//!   per core and the loop is bit-for-bit deterministic, a replayed run
//!   reproduces the recording run's output exactly.
//! * **Open-loop ingestion** ([`TraceRunner::ingest`]): streams records at
//!   trace-specified (or default) inter-arrival gaps straight into the channel
//!   shards — decode, route, execute, account — with no core feedback. This is the high-throughput path for replaying device traces
//!   (rowhammer-tester, DRAMA-style) and emits per-window disturbance and
//!   mitigation telemetry plus an end-of-run [`VerdictReport`]. It is the
//!   supervised loop of [`crate::daemon`] run without checkpoints, watchdog
//!   or resume, so a file ingest and a `trace daemon` run of the same bytes
//!   agree byte for byte — and, as in the daemon, a shard panic is contained
//!   and ends in a `quarantined` verdict instead of unwinding.

use std::collections::VecDeque;
use std::io;

use impress_dram::stats::ChannelStats;
use impress_dram::timing::Cycle;
use impress_workloads::codec::{IngestFault, TraceMeta, TraceReader, TraceRecord};
use impress_workloads::source::{AccessSource, TraceSource, TransportEvent};
use impress_workloads::MemoryAccess;

use crate::daemon::{ingest_loop, DaemonOptions};
use crate::runner::Configuration;
use crate::system::{RunOutput, System};

/// An [`AccessSource`] that replays recorded per-core access streams.
///
/// Construction partitions the stream by core, so the interleaving the recording
/// happened to serialize does not constrain replay — each core's sequence is
/// what matters, exactly as with the synthetic generators.
#[derive(Debug)]
pub struct ReplaySource {
    name: String,
    instructions_per_miss: Vec<f64>,
    streams: Vec<VecDeque<MemoryAccess>>,
}

impl ReplaySource {
    /// Partitions `records` by core under the trace's metadata.
    pub fn new(meta: &TraceMeta, records: &[TraceRecord]) -> Self {
        let mut streams: Vec<VecDeque<MemoryAccess>> =
            (0..meta.cores as usize).map(|_| VecDeque::new()).collect();
        for r in records {
            streams[r.core as usize].push_back(r.to_access());
        }
        Self {
            name: meta.name.clone(),
            instructions_per_miss: meta.instructions_per_miss.clone(),
            streams,
        }
    }

    /// The shortest per-core stream length — the per-core request quota a replay
    /// run can sustain.
    pub fn min_records_per_core(&self) -> u64 {
        self.streams.iter().map(VecDeque::len).min().unwrap_or(0) as u64
    }
}

impl AccessSource for ReplaySource {
    fn cores(&self) -> usize {
        self.streams.len()
    }

    fn instructions_per_miss(&self, core: usize) -> f64 {
        self.instructions_per_miss[core]
    }

    fn next_access(&mut self, core: usize) -> MemoryAccess {
        self.streams[core]
            .pop_front()
            .expect("replay ran past the end of a core's recorded stream")
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Disturbance/mitigation telemetry over one window of ingested records.
///
/// All counters are deltas over the window (derived from the deterministic
/// simulation state, never from wall-clock), so telemetry is reproducible and
/// diffable across runs and hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowTelemetry {
    /// Window index (0-based).
    pub index: u64,
    /// Records ingested in this window.
    pub records: u64,
    /// Simulated cycle at which the window ended.
    pub end_cycle: Cycle,
    /// Demand activations in the window.
    pub activations: u64,
    /// Row-buffer hits in the window.
    pub row_hits: u64,
    /// Row-buffer misses in the window.
    pub row_misses: u64,
    /// Row-buffer conflicts in the window.
    pub row_conflicts: u64,
    /// Mitigative (victim-refresh) activations in the window.
    pub mitigative_activations: u64,
    /// RFM commands in the window.
    pub rfm_commands: u64,
}

impl WindowTelemetry {
    /// Builds one window's telemetry as the delta between two cumulative
    /// statistics snapshots (`prev` at the window's start, `snap` at its end).
    pub fn delta(
        index: u64,
        records: u64,
        end_cycle: Cycle,
        prev: &ChannelStats,
        snap: &ChannelStats,
    ) -> Self {
        Self {
            index,
            records,
            end_cycle,
            activations: snap.banks.activations - prev.banks.activations,
            row_hits: snap.banks.row_hits - prev.banks.row_hits,
            row_misses: snap.banks.row_misses - prev.banks.row_misses,
            row_conflicts: snap.banks.row_conflicts - prev.banks.row_conflicts,
            mitigative_activations: snap.banks.mitigative_activations
                - prev.banks.mitigative_activations,
            rfm_commands: snap.banks.rfm_commands - prev.banks.rfm_commands,
        }
    }
}

/// One entry in a run's fault ledger.
///
/// Entries derive only from stream content and driver-side events, never from
/// thread scheduling, so a seeded corrupt-ingest run's ledger is byte-identical
/// across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerEntry {
    /// A damaged region the resync decoder skipped.
    Decode(IngestFault),
    /// The stream ended inside a frame (loss beyond the observed bytes is
    /// unknowable in-band; checkpointed record counts bound it out-of-band).
    TruncatedStream {
        /// Byte offset at which the stream ended.
        offset: u64,
    },
    /// The bounded-lag watchdog dropped this window's telemetry (records were
    /// all ingested — telemetry is shed before records).
    ShedWindow {
        /// Index of the shed window.
        window: u64,
    },
    /// A shard-worker panic was contained; the window's records are counted as
    /// lost because their execution cannot be trusted.
    QuarantinedWindow {
        /// Index of the quarantined window.
        window: u64,
        /// Records in the quarantined batch.
        records_lost: u64,
    },
    /// The run resumed from a checkpoint (deterministic prefix re-execution).
    Resume {
        /// Records re-validated against the checkpoint.
        records: u64,
        /// Source byte offset the checkpoint pinned.
        offset: u64,
    },
    /// A transport-layer event from a socket source (reconnect, disconnect,
    /// duplicate delivery, graceful drain, quarantine). Mostly informational:
    /// the protocol's dedup-by-offset and resume guarantee no records are
    /// lost to these, so they never degrade the verdict — but they *are*
    /// timing-dependent, so verdict diffs filter them alongside resume
    /// markers (`grep -v '"kind": "conn-'`). The exception is
    /// [`TransportEvent::Quarantined`], which records that the server banned
    /// the producer for repeated protocol violations and forces the verdict
    /// outcome to `"quarantined"`.
    Transport(TransportEvent),
}

impl LedgerEntry {
    /// Records this entry accounts as lost.
    pub fn records_lost(&self) -> u64 {
        match *self {
            LedgerEntry::Decode(f) => f.records_lost,
            LedgerEntry::QuarantinedWindow { records_lost, .. } => records_lost,
            _ => 0,
        }
    }

    /// Canonical single-line JSON form.
    pub fn to_json_line(&self) -> String {
        match *self {
            LedgerEntry::Decode(f) => format!(
                "{{\"kind\": \"{}\", \"offset\": {}, \"frame_index\": {}, \
                 \"bytes_skipped\": {}, \"records_lost\": {}}}",
                f.kind.label(),
                f.offset,
                f.frame_index,
                f.bytes_skipped,
                f.records_lost
            ),
            LedgerEntry::TruncatedStream { offset } => {
                format!("{{\"kind\": \"truncated-stream\", \"offset\": {offset}}}")
            }
            LedgerEntry::ShedWindow { window } => {
                format!("{{\"kind\": \"shed-window\", \"window\": {window}}}")
            }
            LedgerEntry::QuarantinedWindow {
                window,
                records_lost,
            } => format!(
                "{{\"kind\": \"quarantined-window\", \"window\": {window}, \
                 \"records_lost\": {records_lost}}}"
            ),
            LedgerEntry::Resume { records, offset } => {
                format!("{{\"kind\": \"resume\", \"records\": {records}, \"offset\": {offset}}}")
            }
            LedgerEntry::Transport(event) => match event {
                TransportEvent::SessionResumed { session, offset } => format!(
                    "{{\"kind\": \"conn-resume\", \"session\": {session}, \"offset\": {offset}}}"
                ),
                TransportEvent::Disconnected {
                    session,
                    offset,
                    reason,
                } => format!(
                    "{{\"kind\": \"conn-disconnect\", \"session\": {session}, \
                     \"offset\": {offset}, \"reason\": \"{}\"}}",
                    reason.label()
                ),
                TransportEvent::DuplicateDropped {
                    session,
                    offset,
                    bytes,
                } => format!(
                    "{{\"kind\": \"conn-duplicate\", \"session\": {session}, \
                     \"offset\": {offset}, \"bytes\": {bytes}}}"
                ),
                TransportEvent::Drained { offset } => {
                    format!("{{\"kind\": \"conn-drain\", \"offset\": {offset}}}")
                }
                TransportEvent::Quarantined {
                    session,
                    offset,
                    violations,
                } => format!(
                    "{{\"kind\": \"conn-quarantine\", \"session\": {session}, \
                     \"offset\": {offset}, \"violations\": {violations}}}"
                ),
            },
        }
    }
}

/// The fault ledger of an ingestion run: every deviation from a clean decode
/// and execution, in canonical order (resume markers first, then faults in
/// stream order), so a resumed run's verdict differs from an uninterrupted
/// run's only in resume-marker lines.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultLedger {
    /// Ledger entries.
    pub entries: Vec<LedgerEntry>,
}

impl FaultLedger {
    /// True when nothing degraded the run. Resume markers and most transport
    /// events keep a run clean — a validated resume is not a fault, and
    /// transport events record zero-loss protocol recoveries (the socket
    /// layer's dedup and offset-resume guarantee no records were dropped).
    /// A [`TransportEvent::Quarantined`] entry is the exception: the server
    /// banned the producer, so the stream is untrustworthy past the ban.
    pub fn is_clean(&self) -> bool {
        self.entries.iter().all(|e| match e {
            LedgerEntry::Resume { .. } => true,
            LedgerEntry::Transport(TransportEvent::Quarantined { .. }) => false,
            LedgerEntry::Transport(_) => true,
            _ => false,
        })
    }

    /// Conservative upper bound on records lost across the run.
    pub fn records_lost(&self) -> u64 {
        self.entries.iter().map(LedgerEntry::records_lost).sum()
    }

    /// Run outcome: `"clean"`, `"degraded"` (stream damage survived) or
    /// `"quarantined"` (at least one window's execution was contained, or the
    /// serving daemon banned this producer for protocol violations).
    pub fn outcome(&self) -> &'static str {
        if self.entries.iter().any(|e| {
            matches!(
                e,
                LedgerEntry::QuarantinedWindow { .. }
                    | LedgerEntry::Transport(TransportEvent::Quarantined { .. })
            )
        }) {
            "quarantined"
        } else if self.is_clean() {
            "clean"
        } else {
            "degraded"
        }
    }

    /// Appends an entry, keeping resume markers sorted before faults so the
    /// canonical JSON stays diffable modulo resume lines.
    pub fn push(&mut self, entry: LedgerEntry) {
        if matches!(entry, LedgerEntry::Resume { .. }) {
            let at = self
                .entries
                .iter()
                .take_while(|e| matches!(e, LedgerEntry::Resume { .. }))
                .count();
            self.entries.insert(at, entry);
        } else {
            self.entries.push(entry);
        }
    }

    /// Absorbs transport-layer events drained from a socket source, in
    /// arrival order.
    pub fn absorb_transport(&mut self, events: Vec<TransportEvent>) {
        for event in events {
            self.push(LedgerEntry::Transport(event));
        }
    }

    /// Canonical single-line JSON summary of transport health — session,
    /// disconnect, dedup, drain and quarantine counters aggregated from the
    /// ledger's transport entries. `None` when the run saw no transport
    /// events at all, so file-ingest verdicts carry no transport block and
    /// stay byte-identical to their pre-socket form.
    pub fn transport_summary(&self) -> Option<String> {
        let mut any = false;
        let mut resumed = 0u64;
        let mut disconnects = 0u64;
        let mut duplicates = 0u64;
        let mut dup_bytes = 0u64;
        let mut drains = 0u64;
        let mut quarantines = 0u64;
        for e in &self.entries {
            if let LedgerEntry::Transport(event) = e {
                any = true;
                match *event {
                    TransportEvent::SessionResumed { .. } => resumed += 1,
                    TransportEvent::Disconnected { .. } => disconnects += 1,
                    TransportEvent::DuplicateDropped { bytes, .. } => {
                        duplicates += 1;
                        dup_bytes += bytes;
                    }
                    TransportEvent::Drained { .. } => drains += 1,
                    TransportEvent::Quarantined { .. } => quarantines += 1,
                }
            }
        }
        any.then(|| {
            format!(
                "{{\"sessions\": {}, \"disconnects\": {disconnects}, \
                 \"duplicates_dropped\": {duplicates}, \"bytes_retransmitted\": {dup_bytes}, \
                 \"drains\": {drains}, \"quarantines\": {quarantines}}}",
                1 + resumed,
            )
        })
    }
}

/// The result of an open-loop ingestion run.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Records ingested.
    pub records: u64,
    /// Simulated cycle of the last ingested record.
    pub elapsed_cycles: Cycle,
    /// Aggregate memory statistics over the whole run.
    pub memory: ChannelStats,
    /// Per-window telemetry.
    pub windows: Vec<WindowTelemetry>,
    /// End-of-run verdict.
    pub verdict: VerdictReport,
}

/// The end-of-run verdict: what the stream did to the memory system and whether
/// the configured mitigation engaged.
///
/// Every field derives from deterministic simulation state, so two bit-identical
/// runs produce byte-identical reports ([`VerdictReport::to_json`]) — the
/// property the CI trace-smoke diff relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictReport {
    /// Workload/trace name.
    pub workload: String,
    /// Configuration label the stream ran under.
    pub configuration: String,
    /// One-word verdict: `"mitigated"` (protection configured and it fired),
    /// `"protected-quiet"` (protection configured, nothing to mitigate) or
    /// `"unprotected"`.
    pub verdict: &'static str,
    /// Records (accesses) executed.
    pub records: u64,
    /// Simulated cycles covered.
    pub elapsed_cycles: Cycle,
    /// Demand requests serviced.
    pub requests: u64,
    /// Demand activations.
    pub activations: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses.
    pub row_misses: u64,
    /// Row-buffer conflicts.
    pub row_conflicts: u64,
    /// Mitigative activations issued by the defense.
    pub mitigative_activations: u64,
    /// RFM commands issued.
    pub rfm_commands: u64,
    /// Periodic refreshes executed.
    pub refreshes: u64,
    /// Longest single row-open interval observed (the Row-Press exposure bound).
    pub max_row_open_cycles: Cycle,
    /// Fault ledger of the run (empty for clean strict-mode runs).
    pub faults: FaultLedger,
}

impl VerdictReport {
    fn verdict_for(protected: bool, stats: &ChannelStats) -> &'static str {
        if !protected {
            "unprotected"
        } else if stats.banks.mitigative_activations + stats.banks.rfm_commands > 0 {
            "mitigated"
        } else {
            "protected-quiet"
        }
    }

    /// Builds the verdict from aggregate statistics.
    pub fn from_stats(
        workload: &str,
        configuration: &Configuration,
        records: u64,
        elapsed_cycles: Cycle,
        stats: &ChannelStats,
    ) -> Self {
        Self {
            workload: workload.to_string(),
            configuration: configuration.label.clone(),
            verdict: Self::verdict_for(configuration.protection.is_some(), stats),
            records,
            elapsed_cycles,
            requests: stats.requests,
            activations: stats.banks.activations,
            row_hits: stats.banks.row_hits,
            row_misses: stats.banks.row_misses,
            row_conflicts: stats.banks.row_conflicts,
            mitigative_activations: stats.banks.mitigative_activations,
            rfm_commands: stats.banks.rfm_commands,
            refreshes: stats.banks.refreshes,
            max_row_open_cycles: stats.banks.max_open_cycles,
            faults: FaultLedger::default(),
        }
    }

    /// Attaches a fault ledger to the verdict.
    pub fn with_faults(mut self, faults: FaultLedger) -> Self {
        self.faults = faults;
        self
    }

    /// Run outcome derived from the ledger: `"clean"`, `"degraded"` or
    /// `"quarantined"`.
    pub fn outcome(&self) -> &'static str {
        self.faults.outcome()
    }

    /// Builds the verdict from a closed-loop run's output.
    pub fn from_run(output: &RunOutput, configuration: &Configuration) -> Self {
        Self::from_stats(
            &output.workload,
            configuration,
            output.memory.requests,
            output.performance.elapsed_cycles,
            &output.memory,
        )
    }

    /// Canonical JSON form (fixed key order, no floats), byte-identical for
    /// bit-identical runs.
    ///
    /// A run with an empty fault ledger emits the exact v1 schema (so existing
    /// verdict files and CI diffs are untouched); any ledger entry switches to
    /// the extended v2 form of [`VerdictReport::to_json_extended`].
    pub fn to_json(&self) -> String {
        if self.faults.entries.is_empty() {
            format!(
                "{{\n  \"schema\": \"impress-trace-verdict-v1\",\n{}\n}}\n",
                self.json_core_fields()
            )
        } else {
            self.to_json_extended()
        }
    }

    /// Extended (v2) canonical JSON: v1 fields plus `outcome`, an optional
    /// single-line `transport` health summary (present only when the ledger
    /// holds transport events, so file-ingest verdicts are unchanged) and a
    /// `faults` section. Ledger entries are one per line, resume markers
    /// first, so two runs differing only by a validated resume diff only in
    /// resume lines.
    pub fn to_json_extended(&self) -> String {
        let mut entries = String::new();
        for (i, e) in self.faults.entries.iter().enumerate() {
            let comma = if i + 1 < self.faults.entries.len() {
                ","
            } else {
                ""
            };
            entries.push_str(&format!("      {}{}\n", e.to_json_line(), comma));
        }
        let transport = self
            .faults
            .transport_summary()
            .map(|s| format!("  \"transport\": {s},\n"))
            .unwrap_or_default();
        format!(
            "{{\n  \"schema\": \"impress-trace-verdict-v2\",\n{},\n  \"outcome\": {:?},\n{}  \
             \"faults\": {{\n    \"records_lost\": {},\n    \"entries\": [\n{}    ]\n  }}\n}}\n",
            self.json_core_fields(),
            self.outcome(),
            transport,
            self.faults.records_lost(),
            entries,
        )
    }

    /// The v1 field block shared by both schema versions.
    fn json_core_fields(&self) -> String {
        format!(
            "  \"workload\": {:?},\n  \
             \"configuration\": {:?},\n  \"verdict\": {:?},\n  \"records\": {},\n  \
             \"elapsed_cycles\": {},\n  \"requests\": {},\n  \"activations\": {},\n  \
             \"row_hits\": {},\n  \"row_misses\": {},\n  \"row_conflicts\": {},\n  \
             \"mitigative_activations\": {},\n  \"rfm_commands\": {},\n  \
             \"refreshes\": {},\n  \"max_row_open_cycles\": {}",
            self.workload,
            self.configuration,
            self.verdict,
            self.records,
            self.elapsed_cycles,
            self.requests,
            self.activations,
            self.row_hits,
            self.row_misses,
            self.row_conflicts,
            self.mitigative_activations,
            self.rfm_commands,
            self.refreshes,
            self.max_row_open_cycles,
        )
    }
}

/// Drives recorded traces through the simulator.
#[derive(Debug)]
pub struct TraceRunner {
    system: crate::config::SystemConfig,
    window_records: u64,
    /// Whether ingestion stages tracked events through the bank-batched record
    /// kernels. `None` defers to the `IMPRESS_RECORD_BATCH` environment
    /// variable (default on); the output is bit-identical either way.
    record_batch: Option<bool>,
}

impl Default for TraceRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRunner {
    /// Creates a runner with the paper's baseline system configuration.
    pub fn new() -> Self {
        Self {
            system: crate::config::SystemConfig::baseline(),
            window_records: 1 << 20,
            record_batch: None,
        }
    }

    /// Sets the telemetry window size for [`TraceRunner::ingest`] (in records).
    pub fn with_window_records(mut self, records: u64) -> Self {
        self.window_records = records.max(1);
        self
    }

    /// Forces the ingest record path: `true` stages tracked events through the
    /// bank-batched kernels, `false` records per event. Unset, the
    /// `IMPRESS_RECORD_BATCH` environment variable decides (default batched).
    /// Both paths produce byte-identical verdicts and telemetry.
    pub fn with_record_batching(mut self, on: bool) -> Self {
        self.record_batch = Some(on);
        self
    }

    /// Closed-loop replay: reruns the recorded stream through the full system
    /// model (core pacing, MLP limits, feedback), reproducing the recording
    /// run bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if the trace contains no records for some core.
    pub fn replay(
        &self,
        meta: &TraceMeta,
        records: &[TraceRecord],
        configuration: &Configuration,
    ) -> RunOutput {
        let source = ReplaySource::new(meta, records);
        let quota = source.min_records_per_core();
        assert!(quota > 0, "trace has no records for at least one core");
        let mut config = self.system.clone();
        config.cores = meta.cores as usize;
        config.requests_per_core = quota;
        config = config.with_controller(configuration.controller_config());
        System::new(config, source).run()
    }

    /// Open-loop ingestion: decode → route → execute → account, with no core
    /// feedback. This is the [`supervise`](crate::daemon::supervise) loop with
    /// no checkpoints, no watchdog and no resume; records advance simulated
    /// time by their recorded gaps and execute on the channel shards in
    /// codec-frame-sized rounds.
    ///
    /// Deterministic: routing is a pure function of the stream, and shards
    /// share no state. A shard panic is contained and ledgered as a quarantined
    /// window, as in the daemon.
    ///
    /// # Errors
    ///
    /// Propagates codec errors (corrupt frames, truncation) from the reader.
    pub fn ingest<S: TraceSource>(
        &self,
        reader: TraceReader<S>,
        configuration: &Configuration,
    ) -> io::Result<IngestReport> {
        let options = DaemonOptions {
            window_records: self.window_records,
            checkpoint_every: 0,
            record_batch: self.record_batch,
            ..DaemonOptions::default()
        };
        ingest_loop(reader, configuration, &options, &mut |_| Ok(()), |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_memctrl::MemoryController;
    use impress_workloads::codec::TraceWriter;
    use impress_workloads::source::SliceSource;
    use impress_workloads::WorkloadMix;

    /// Records `per_core` accesses per core from a fresh mix, round-robin.
    fn record_mix(workload: &str, seed: u64, per_core: u64) -> (TraceMeta, Vec<TraceRecord>) {
        let mut mix = WorkloadMix::by_name(workload, seed).unwrap();
        let cores = AccessSource::cores(&mix);
        let meta = TraceMeta {
            name: workload.to_string(),
            cores: cores as u8,
            has_gaps: false,
            instructions_per_miss: (0..cores)
                .map(|c| AccessSource::instructions_per_miss(&mix, c))
                .collect(),
        };
        let mut records = Vec::new();
        for _ in 0..per_core {
            for core in 0..cores {
                records.push(TraceRecord::from_access(
                    AccessSource::next_access(&mut mix, core),
                    0,
                ));
            }
        }
        (meta, records)
    }

    #[test]
    fn replay_reproduces_the_recording_run_bit_for_bit() {
        let (meta, records) = record_mix("mcf", 3, 1_000);
        let configuration = Configuration::unprotected();

        // The in-process run the trace was recorded from.
        let mut config = crate::config::SystemConfig::baseline();
        config.requests_per_core = 1_000;
        config = config.with_controller(configuration.controller_config());
        let mix = WorkloadMix::by_name("mcf", 3).unwrap();
        let reference = System::new(config, mix).run();

        let replayed = TraceRunner::new().replay(&meta, &records, &configuration);
        assert_eq!(
            replayed.performance.elapsed_cycles,
            reference.performance.elapsed_cycles
        );
        assert_eq!(
            replayed.performance.per_core_ipc,
            reference.performance.per_core_ipc
        );
        assert_eq!(replayed.memory, reference.memory);
        assert_eq!(
            VerdictReport::from_run(&replayed, &configuration),
            VerdictReport::from_run(&reference, &configuration)
        );
    }

    #[test]
    fn ingest_is_deterministic_across_thread_counts() {
        let (meta, records) = record_mix("copy", 5, 600);
        let mut bytes = Vec::new();
        let mut w = TraceWriter::new(&mut bytes, &meta).unwrap();
        for &r in &records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        let configuration = Configuration::unprotected();

        let run = || {
            let reader = TraceReader::new(SliceSource::new(&bytes)).unwrap();
            TraceRunner::new()
                .with_window_records(1_000)
                .ingest(reader, &configuration)
                .unwrap()
        };
        let reference = run();
        assert_eq!(reference.records, records.len() as u64);
        assert_eq!(reference.memory.requests, records.len() as u64);
        assert!(!reference.windows.is_empty());
        let window_total: u64 = reference.windows.iter().map(|w| w.records).sum();
        assert_eq!(window_total, reference.records);
        // Oracle: every record through one whole controller, one access at a
        // time, at the cycle the gapless trace gives it.
        let mut controller = MemoryController::new(configuration.controller_config());
        let mut now: Cycle = 0;
        for r in &records {
            now += crate::daemon::DEFAULT_GAP as Cycle;
            let access = r.to_access();
            controller
                .access_physical(access.address, access.is_write, now)
                .unwrap();
        }
        assert_eq!(reference.memory, controller.stats());
        let out = run();
        assert_eq!(out.memory, reference.memory);
        assert_eq!(out.windows, reference.windows);
        assert_eq!(out.verdict, reference.verdict);
    }

    #[test]
    fn batched_ingest_verdict_is_byte_identical_to_per_record() {
        use impress_core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
        let (meta, records) = record_mix("copy", 11, 600);
        let mut bytes = Vec::new();
        let mut w = TraceWriter::new(&mut bytes, &meta).unwrap();
        for &r in &records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        let protected = Configuration::protected(
            "Graphene+ImPress-P",
            ProtectionConfig::paper_default(
                TrackerChoice::Graphene,
                DefenseKind::impress_p_default(),
            ),
        );
        let run = |batched: bool| {
            let reader = TraceReader::new(SliceSource::new(&bytes)).unwrap();
            TraceRunner::new()
                .with_window_records(1_000)
                .with_record_batching(batched)
                .ingest(reader, &protected)
                .unwrap()
        };
        let per = run(false);
        let bat = run(true);
        assert_eq!(bat.verdict.to_json(), per.verdict.to_json());
        assert_eq!(bat.windows, per.windows);
        assert_eq!(bat.memory, per.memory);
    }

    #[test]
    fn verdict_reflects_protection() {
        use impress_core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
        let (meta, records) = record_mix("mcf", 7, 400);
        let unprotected = Configuration::unprotected();
        let protected = Configuration::protected(
            "Graphene+ImPress-P",
            ProtectionConfig::paper_default(
                TrackerChoice::Graphene,
                DefenseKind::impress_p_default(),
            ),
        );
        let runner = TraceRunner::new();
        let a = runner.replay(&meta, &records, &unprotected);
        let va = VerdictReport::from_run(&a, &unprotected);
        assert_eq!(va.verdict, "unprotected");
        let b = runner.replay(&meta, &records, &protected);
        let vb = VerdictReport::from_run(&b, &protected);
        assert!(vb.verdict == "mitigated" || vb.verdict == "protected-quiet");
        // JSON form is stable and parses the key fields back.
        let json = vb.to_json();
        assert!(json.contains("\"schema\": \"impress-trace-verdict-v1\""));
        assert!(json.contains(&format!("\"records\": {}", vb.records)));
    }
}
