//! End-to-end gate for the trace frontend: a recorded physical-address stream,
//! pushed through the binary codec and replayed by [`TraceRunner`], must
//! reproduce the in-process run bit for bit.
//!
//! Three properties are pinned:
//!
//! 1. **Codec fidelity** — writing a recorded stream through [`TraceWriter`]
//!    and reading it back through [`TraceReader`] returns the same records and
//!    metadata, bit-identical, regardless of the reader's chunk size.
//! 2. **Replay fidelity** — the closed-loop replay of the recording equals the
//!    in-process `System::run` of the same seeded workload under the same
//!    protected configuration: elapsed cycles, per-core IPC (to the bit),
//!    memory-system stats and energy all match.
//! 3. **Verdict stability** — the canonical verdict JSON derived from the
//!    replay equals the one derived from the in-process run, so the CI smoke
//!    job can gate on a plain `diff`.

use impress_repro::core::config::{DefenseKind, ProtectionConfig, TrackerChoice};
use impress_repro::sim::{Configuration, System, SystemConfig, TraceRunner, VerdictReport};
use impress_repro::workloads::codec::{TraceMeta, TraceReader, TraceRecord, TraceWriter};
use impress_repro::workloads::source::{AccessSource, SliceSource};
use impress_repro::workloads::WorkloadMix;

const SEED: u64 = 0x1A7E_2024;
const REQUESTS_PER_CORE: u64 = 600;

/// Records `per_core` accesses per core of a seeded workload, round-robin.
///
/// Per-core generator streams are independent of interleaving, so this is
/// exactly the stream an in-process run with the same seed would issue.
fn record(workload: &str, per_core: u64) -> (TraceMeta, Vec<TraceRecord>) {
    let mut mix = WorkloadMix::by_name(workload, SEED).expect("known workload");
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

fn protected_configuration() -> Configuration {
    Configuration::protected(
        "Graphene+ImPress-P",
        ProtectionConfig::paper_default(TrackerChoice::Graphene, DefenseKind::impress_p_default()),
    )
}

fn reference_run(workload: &str, configuration: &Configuration) -> impress_repro::sim::RunOutput {
    let mix = WorkloadMix::by_name(workload, SEED).expect("known workload");
    let config = SystemConfig {
        requests_per_core: REQUESTS_PER_CORE,
        ..SystemConfig::baseline()
    }
    .with_controller(configuration.controller_config());
    System::new(config, mix).run()
}

fn assert_runs_identical(a: &impress_repro::sim::RunOutput, b: &impress_repro::sim::RunOutput) {
    assert_eq!(a.performance.elapsed_cycles, b.performance.elapsed_cycles);
    assert_eq!(
        a.performance.per_core_ipc.len(),
        b.performance.per_core_ipc.len()
    );
    for (x, y) in a
        .performance
        .per_core_ipc
        .iter()
        .zip(&b.performance.per_core_ipc)
    {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.memory, b.memory);
    assert_eq!(a.energy.total_nj().to_bits(), b.energy.total_nj().to_bits());
}

#[test]
fn codec_round_trips_a_recorded_stream_at_any_chunk_size() {
    let (meta, records) = record("mcf", 200);
    let mut writer = TraceWriter::new(Vec::new(), &meta).unwrap();
    for &r in &records {
        writer.push(r).unwrap();
    }
    let bytes = writer.finish().unwrap();

    // Chunk sizes straddle every structure boundary: single-byte delivery,
    // a prime, and one larger than the whole trace.
    for chunk in [1usize, 997, bytes.len() + 1] {
        let mut reader = TraceReader::new(SliceSource::with_chunk_size(&bytes, chunk)).unwrap();
        assert_eq!(reader.meta(), &meta);
        let decoded = reader.read_all().unwrap();
        assert_eq!(decoded, records);
    }
}

#[test]
fn replay_matches_the_in_process_run_at_every_thread_count() {
    let workload = "mcf";
    let configuration = protected_configuration();
    let (meta, records) = record(workload, REQUESTS_PER_CORE);

    // Round-trip the recording through the codec first: the replay below must
    // consume exactly what a trace file would contain.
    let mut writer = TraceWriter::new(Vec::new(), &meta).unwrap();
    for &r in &records {
        writer.push(r).unwrap();
    }
    let bytes = writer.finish().unwrap();
    let mut reader = TraceReader::new(SliceSource::new(&bytes)).unwrap();
    let meta = reader.meta().clone();
    let records = reader.read_all().unwrap();

    let reference = reference_run(workload, &configuration);
    let reference_verdict = VerdictReport::from_run(&reference, &configuration).to_json();
    let output = TraceRunner::new().replay(&meta, &records, &configuration);
    assert_runs_identical(&reference, &output);
    assert_eq!(
        VerdictReport::from_run(&output, &configuration).to_json(),
        reference_verdict
    );
}

#[test]
fn unprotected_replay_also_reproduces_its_run() {
    let configuration = Configuration::unprotected();
    let (meta, records) = record("copy", REQUESTS_PER_CORE);
    let reference = reference_run("copy", &configuration);
    let output = TraceRunner::new().replay(&meta, &records, &configuration);
    assert_runs_identical(&reference, &output);
    let verdict = VerdictReport::from_run(&output, &configuration);
    assert_eq!(verdict.verdict, "unprotected");
}
