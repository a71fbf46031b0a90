//! Isolated calls into each layer of the ingest pipeline, on one trace.
//!
//! `TraceRunner::ingest` runs codec -> mapping -> shard (with the defense and
//! its tracker) in one call. The traced run times each of those layers alone
//! through its public API, on the same records, so the pipeline's time can
//! be split by layer; whatever the isolated calls do not explain is the
//! runner's own share.

use std::hint::black_box;

use impress_core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
use impress_dram::address::DramAddress;
use impress_dram::stats::ChannelStats;
use impress_dram::timing::Cycle;
use impress_memctrl::{ChannelShard, ControllerConfig, RowBufferOutcome};
use impress_sim::Configuration;
use impress_trackers::eact::Eact;
use impress_trackers::RowTracker;
use impress_workloads::codec::TraceReader;
use impress_workloads::source::SliceSource;

use crate::inputs::Trace;
use crate::spans::Tracer;

/// Simulated cycles `TraceRunner::ingest` advances per record of a gapless
/// trace.
const DEFAULT_GAP: Cycle = 4;

/// Trackers timed on the activation stream, in report order, with the span
/// name that also prefixes their metrics.
pub const TRACKERS: [(TrackerChoice, &str); 5] = [
    (TrackerChoice::Graphene, "trackers.graphene"),
    (TrackerChoice::Mithril, "trackers.mithril"),
    (TrackerChoice::Para, "trackers.para"),
    (TrackerChoice::Mint, "trackers.mint"),
    (TrackerChoice::Prac, "trackers.prac"),
];

/// One access as the ingest loop queues it for its channel shard.
#[derive(Debug, Clone, Copy)]
struct Queued {
    location: DramAddress,
    is_write: bool,
    at: Cycle,
}

/// Per-trace inputs of the isolated layer calls, built during set-up.
#[derive(Debug)]
pub struct LayerInputs {
    records: u64,
    /// Accesses per channel, in stream order.
    queues: Vec<Vec<Queued>>,
    /// The activation stream (accesses whose outcome is not a row hit) per
    /// bank of the whole system, in stream order.
    activations: Vec<Vec<(u32, Cycle)>>,
    activation_count: u64,
}

/// What one round of isolated layer calls measured.
#[derive(Debug, Clone)]
pub struct LayerSample {
    pub codec_s: f64,
    pub frames: u64,
    pub resync_skips: u64,
    pub mapping_s: f64,
    pub shard_s: f64,
    pub shard_stats: ChannelStats,
    pub protected_s: f64,
    pub protected_stats: ChannelStats,
    pub tracker_s: [f64; 5],
    pub tracker_mitigations: [u64; 5],
    pub records: u64,
    pub activations: u64,
}

/// Runs every queued access through fresh channel shards, the way the ingest
/// loop does (record batching at its default, staged records flushed at the
/// end), and returns the merged statistics.
fn run_shards(
    config: &ControllerConfig,
    queues: &[Vec<Queued>],
    mut on_outcome: impl FnMut(usize, RowBufferOutcome, &DramAddress, Cycle),
) -> ChannelStats {
    let batching = impress_core::engine::record_batching_from_env();
    ChannelStats::merged(queues.iter().enumerate().map(|(channel, queue)| {
        let mut shard = ChannelShard::new(channel as u8, config);
        shard.set_record_batching(batching);
        for q in queue {
            let outcome = shard.access(q.location, q.is_write, q.at);
            on_outcome(channel, outcome.outcome, &q.location, q.at);
        }
        shard.flush_staged_records();
        shard.stats()
    }))
}

impl LayerInputs {
    /// Decodes and routes `trace` and derives its activation stream with an
    /// unprotected shard pass.
    pub fn prepare(trace: &Trace) -> Self {
        let config = Configuration::unprotected().controller_config();
        let org = &config.organization;
        let mut queues: Vec<Vec<Queued>> = vec![Vec::new(); usize::from(org.channels)];
        let mut now: Cycle = 0;
        for r in &trace.records {
            now += if trace.meta.has_gaps {
                Cycle::from(r.gap)
            } else {
                DEFAULT_GAP
            };
            let location = config
                .mapping
                .decode(r.to_access().address, org)
                .expect("generated addresses lie inside the organization");
            queues[usize::from(location.channel)].push(Queued {
                location,
                is_write: r.is_write,
                at: now,
            });
        }
        let banks_per_channel = org.banks_per_channel();
        let (groups, per_group) = (org.bank_groups, org.banks_per_group);
        let mut activations = vec![Vec::new(); usize::from(org.channels) * banks_per_channel];
        run_shards(&config, &queues, |channel, outcome, location, at| {
            if outcome != RowBufferOutcome::Hit {
                let bank = channel * banks_per_channel + location.flat_bank(per_group, groups);
                activations[bank].push((location.row, at));
            }
        });
        let activation_count = activations.iter().map(|a| a.len() as u64).sum();
        Self {
            records: trace.records.len() as u64,
            queues,
            activations,
            activation_count,
        }
    }
}

/// The protected configuration every workload ingests under.
pub fn protected_configuration() -> Configuration {
    impress_bench::named_configuration("graphene-impress-p").expect("named configuration")
}

/// Times each layer once on `trace`, recording one span per call under
/// `parent`.
pub fn measure(
    tracer: &mut Tracer,
    parent: usize,
    op: u64,
    trace: &Trace,
    inputs: &LayerInputs,
) -> LayerSample {
    let ((frames, resync_skips, decoded), codec_id) =
        tracer.time("codec", Some(parent), op, || {
            let mut reader =
                TraceReader::new(SliceSource::new(&trace.bytes)).expect("generated trace header");
            let mut decoded = 0u64;
            while let Some(r) = reader.next_record().expect("generated trace decodes") {
                black_box(r);
                decoded += 1;
            }
            (
                reader.frames_decoded(),
                reader.faults().len() as u64,
                decoded,
            )
        });
    assert_eq!(decoded, inputs.records, "codec yielded every record");

    let unprotected = Configuration::unprotected().controller_config();
    let (_, mapping_id) = tracer.time("mapping", Some(parent), op, || {
        let org = &unprotected.organization;
        for r in &trace.records {
            black_box(unprotected.mapping.decode(r.to_access().address, org).ok());
        }
    });

    let (shard_stats, shard_id) = tracer.time("shard.unprotected", Some(parent), op, || {
        run_shards(&unprotected, &inputs.queues, |_, o, _, _| {
            black_box(o);
        })
    });
    let protected = protected_configuration().controller_config();
    let (protected_stats, protected_id) = tracer.time("shard.protected", Some(parent), op, || {
        run_shards(&protected, &inputs.queues, |_, o, _, _| {
            black_box(o);
        })
    });

    let timings = &protected.timings;
    let mut tracker_s = [0.0; 5];
    let mut tracker_mitigations = [0u64; 5];
    for (i, (choice, span)) in TRACKERS.iter().enumerate() {
        let config = ProtectionConfig::paper_default(*choice, DefenseKind::impress_p_default());
        let mut trackers: Vec<Box<dyn RowTracker>> = (0..inputs.activations.len())
            .map(|_| config.build_tracker(timings))
            .collect();
        let (mitigations, id) = tracer.time(span, Some(parent), op, || {
            let mut mitigations = 0u64;
            for (tracker, stream) in trackers.iter_mut().zip(&inputs.activations) {
                for &(row, at) in stream {
                    if tracker.record(row, Eact::ONE, at).is_some() {
                        mitigations += 1;
                    }
                }
            }
            mitigations
        });
        tracker_s[i] = tracer.span(id).secs();
        tracker_mitigations[i] = mitigations;
    }

    LayerSample {
        codec_s: tracer.span(codec_id).secs(),
        frames,
        resync_skips,
        mapping_s: tracer.span(mapping_id).secs(),
        shard_s: tracer.span(shard_id).secs(),
        shard_stats,
        protected_s: tracer.span(protected_id).secs(),
        protected_stats,
        tracker_s,
        tracker_mitigations,
        records: inputs.records,
        activations: inputs.activation_count,
    }
}

impl LayerSample {
    /// One sample covering several traces: times, counts and statistics
    /// add up.
    pub fn sum(parts: Vec<LayerSample>) -> LayerSample {
        let mut parts = parts.into_iter();
        let mut total = parts.next().expect("at least one part");
        for p in parts {
            total.codec_s += p.codec_s;
            total.frames += p.frames;
            total.resync_skips += p.resync_skips;
            total.mapping_s += p.mapping_s;
            total.shard_s += p.shard_s;
            total.shard_stats.merge(&p.shard_stats);
            total.protected_s += p.protected_s;
            total.protected_stats.merge(&p.protected_stats);
            for i in 0..TRACKERS.len() {
                total.tracker_s[i] += p.tracker_s[i];
                total.tracker_mitigations[i] += p.tracker_mitigations[i];
            }
            total.records += p.records;
            total.activations += p.activations;
        }
        total
    }
}
