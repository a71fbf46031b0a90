//! Seeded input generation: every trace the workloads ingest or send.
//!
//! The same seed always yields the same bytes. Everything here runs during
//! set-up, never inside a timed region.

use impress_attacks::{AttackPattern, RotatingAggressorPattern};
use impress_bench::record_workload_trace;
use impress_dram::address::DramAddress;
use impress_memctrl::ControllerConfig;
use impress_workloads::codec::{TraceMeta, TraceRecord, TraceWriter};

/// Records per core of the benign STREAM `copy` trace (8 cores, 4 M records,
/// the size of the `trace throughput` runs). At this size an ingest takes
/// about 0.4 s on a 2-CPU host, long enough that one operation spans the
/// host's sub-second speed swings instead of landing in one of them.
pub const STREAM_RECORDS_PER_CORE: u64 = 500_000;

/// Attack rounds (one activation each); a round is 2 records on average.
pub const ATTACK_ROUNDS: u64 = 1_000_000;

/// Records per core of each tenant trace (8 cores, 2 M records).
pub const TENANT_RECORDS_PER_CORE: u64 = 250_000;

/// Benign workloads the tenant traces are recorded from, one trace each:
/// two SPEC-like and two STREAM-like mixes, so every seed draws the same
/// locality blend and only the generator streams change.
pub const TENANT_WORKLOADS: [&str; 4] = ["mcf", "copy", "gcc", "add_triad"];

/// SplitMix64: a small, fast, seedable generator for input shapes.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A trace: its records and their encoded bytes.
#[derive(Debug, Clone)]
pub struct Trace {
    pub meta: TraceMeta,
    pub records: Vec<TraceRecord>,
    pub bytes: Vec<u8>,
}

fn encode(meta: TraceMeta, records: Vec<TraceRecord>) -> Trace {
    let mut w = TraceWriter::new(Vec::new(), &meta).expect("in-memory trace header");
    for &r in &records {
        w.push(r).expect("in-memory trace frame");
    }
    let bytes = w.finish().expect("in-memory trace footer");
    Trace {
        meta,
        records,
        bytes,
    }
}

/// Benign STREAM `copy` trace, as `trace record` would write it.
pub fn stream_trace(seed: u64) -> Trace {
    let (meta, records) =
        record_workload_trace("copy", seed, STREAM_RECORDS_PER_CORE).expect("copy is a workload");
    encode(meta, records)
}

/// Benign tenant traces, one per [`TENANT_WORKLOADS`] entry.
pub fn tenant_traces(seed: u64) -> Vec<Trace> {
    TENANT_WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let (meta, records) = record_workload_trace(
                w,
                seed.wrapping_mul(31).wrapping_add(i as u64),
                TENANT_RECORDS_PER_CORE,
            )
            .expect("tenant workload exists");
            encode(meta, records)
        })
        .collect()
}

/// Seeded RowHammer x RowPress trace over every channel and bank.
///
/// Each bank gets two hot aggressor rows and a rotating decoy set
/// ([`RotatingAggressorPattern`]) larger than the Graphene table (448
/// entries at TRH = 4K), so the tracker churns while the hot rows climb to
/// its threshold. Rounds visit the banks round-robin; a quarter of them are
/// press rounds, realised as 2-8 same-row records separated by gaps, which
/// hold the row open and raise its EACT. Addresses come from
/// [`impress_dram::mapping::AddressMapping::encode`] under the baseline
/// controller's mapping.
pub fn attack_trace(seed: u64) -> Trace {
    let config = ControllerConfig::baseline();
    let org = &config.organization;
    let banks_per_channel = org.banks_per_channel();
    let banks = usize::from(org.channels) * banks_per_channel;
    let mut rng = SplitMix::new(seed ^ 0xA77A_C4ED);

    struct BankPlan {
        hot: [u32; 2],
        decoys: RotatingAggressorPattern,
        next_decoy: u64,
        rounds: u64,
    }
    let mut plans: Vec<BankPlan> = (0..banks)
        .map(|_| {
            let base = 8_192 + rng.below(8_192) as u32;
            BankPlan {
                hot: [
                    1_024 + rng.below(2_048) as u32,
                    4_096 + rng.below(2_048) as u32,
                ],
                decoys: RotatingAggressorPattern::new(base, 512 + rng.below(64) as u32, 2),
                next_decoy: 0,
                rounds: 0,
            }
        })
        .collect();

    let mut records = Vec::with_capacity(2 * ATTACK_ROUNDS as usize + 1024);
    for round in 0..ATTACK_ROUNDS {
        let flat = (round % banks as u64) as usize;
        let plan = &mut plans[flat];
        let row = if rng.below(3) == 0 {
            plan.hot[(plan.rounds % 2) as usize]
        } else {
            let row = plan.decoys.round(plan.next_decoy).row;
            plan.next_decoy += 1;
            row
        };
        plan.rounds += 1;
        let channel = (flat / banks_per_channel) as u8;
        let in_channel = flat % banks_per_channel;
        let per_group = usize::from(org.banks_per_group);
        let presses = if rng.below(4) == 0 {
            2 + rng.below(7)
        } else {
            1
        };
        let first_column = rng.below(u64::from(org.columns_per_row)) as u32;
        for p in 0..presses {
            let location = DramAddress {
                channel,
                rank: 0,
                bank_group: (in_channel / per_group) as u8,
                bank: (in_channel % per_group) as u8,
                row,
                column: (first_column + p as u32) % org.columns_per_row,
            };
            let address = config
                .mapping
                .encode(location, org)
                .expect("attack location lies inside the organization");
            records.push(TraceRecord {
                address: address.as_u64(),
                gap: 8 + rng.below(17) as u32,
                core: 0,
                is_write: false,
            });
        }
    }
    let meta = TraceMeta {
        name: "rowhammer-rowpress".to_string(),
        cores: 1,
        has_gaps: true,
        instructions_per_miss: vec![1.0],
    };
    encode(meta, records)
}
