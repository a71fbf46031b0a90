//! Observational-equivalence property tests for the stream-summary eviction engine.
//!
//! PR 5 replaced the linear-scan eviction path of Graphene/Mithril with the
//! bucketed [`CountSummary`] structure (`EvictionEngine::Summary`). Among *tied*
//! minimum- (or maximum-) count entries the summary may pick a different victim
//! than the seed's table-order scan, so bit-identical selection is deliberately
//! relaxed to an **observational-equivalence contract**, which this suite pins:
//!
//! (a) On any access stream, as long as every victim choice has been
//!     *unambiguous* (exactly one claimable candidate on eviction, a unique
//!     maximum on RFM), the summary engine issues exactly the same mitigation
//!     requests at the same accesses as the scan engine, with identical counter
//!     state — checked access-by-access against an oracle transcription of the
//!     seed algorithm that also reports when a choice was ambiguous.
//!
//! (b) Regardless of ties, both engines satisfy the Misra-Gries/Space-Saving
//!     error bound. The security-relevant half holds on *any* stream: a row's
//!     true recorded weight since its last mitigation never exceeds its tracked
//!     counter (or, if untracked, the spillover count) — the tracker never
//!     undercounts, so every row crossing the internal threshold is caught. The
//!     classical `count_error ≤ N / k` bound on the spillover term is a
//!     *unit-increment* Misra-Gries property and is asserted exactly on
//!     unit-weight streams; weighted EACT streams can legitimately push the
//!     spillover past N/k (a new entry inherits the whole spillover count, so
//!     cheap evictions can re-arm an expensive spill — see
//!     `unit_weight_spillover_bound` for the discussion), and get the per-row
//!     no-undercount bound plus `spillover ≤ N` instead.
//!
//! (c) Decrement/reset round-trips (RFM and mitigation roll-backs, refresh-window
//!     clears) preserve the bucket-list ordering invariants, checked by
//!     [`CountSummary::validate`] against a naive model under randomized
//!     attach/detach/set-count/clear streams.
//!
//! (d) The bucket index behind long position lookups changes no choice: at
//!     Graphene's and Mithril's table sizes, under ImPress-P fractional churn,
//!     the summary picks the same min/max *slots* as a walk-only transcription
//!     of its positioning, operation by operation.

use std::collections::HashMap;

use impress_trackers::eact::{Eact, EactCounter, CANONICAL_FRAC_BITS};
use impress_trackers::graphene::GrapheneConfig;
use impress_trackers::mithril::MithrilConfig;
use impress_trackers::{
    CountSummary, EvictionEngine, Graphene, Mithril, MitigationRequest, RowTracker,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type RowId = u32;
type Cycle = u64;

fn quantize(eact: Eact, frac_bits: u32) -> Eact {
    if frac_bits >= CANONICAL_FRAC_BITS {
        eact
    } else {
        let drop = CANONICAL_FRAC_BITS - frac_bits;
        Eact::from_raw((eact.raw() >> drop) << drop)
    }
}

/// A random activation stream: a weighted hot set (matches, mitigations), a
/// uniform tail (evictions, spillover) and occasional refresh-window resets.
fn stream(seed: u64, len: usize, hot_rows: u32, universe: u32) -> Vec<(RowId, Eact, bool)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let row = if rng.gen_range(0..100u32) < 70 {
                rng.gen_range(0..hot_rows.max(1))
            } else {
                rng.gen_range(0..universe.max(1))
            };
            let eact = match rng.gen_range(0..4u32) {
                0 => Eact::ONE,
                1 => Eact::from_f64(1.5, 7),
                2 => Eact::from_f64(f64::from(rng.gen_range(1..40u32)) / 4.0, 7),
                _ => Eact::from_f64(2.25, 7),
            };
            let reset = rng.gen_range(0..1000u32) == 0;
            (row, eact, reset)
        })
        .collect()
}

#[derive(Clone, Copy)]
struct RefEntry {
    row: RowId,
    count: EactCounter,
    valid: bool,
}

/// Oracle transcription of the seed Graphene: behaves exactly like the scan
/// engine *and* reports whether each decision involved an ambiguous victim
/// choice (more than one claimable entry on an eviction).
struct GrapheneOracle {
    internal_threshold: u64,
    frac_bits: u32,
    table: Vec<RefEntry>,
    spillover: EactCounter,
}

impl GrapheneOracle {
    fn new(config: &GrapheneConfig) -> Self {
        Self {
            internal_threshold: config.internal_threshold,
            frac_bits: config.frac_bits,
            table: vec![
                RefEntry {
                    row: 0,
                    count: EactCounter::ZERO,
                    valid: false,
                };
                config.entries
            ],
            spillover: EactCounter::ZERO,
        }
    }

    /// Replays one record; returns the seed's mitigation decision and whether the
    /// victim choice (if any) was ambiguous.
    fn record(&mut self, row: RowId, eact: Eact, now: Cycle) -> (Option<MitigationRequest>, bool) {
        let eact = quantize(eact, self.frac_bits);
        let mut ambiguous = false;
        let slot = if let Some(i) = self.table.iter().position(|e| e.valid && e.row == row) {
            i
        } else if let Some(i) = self.table.iter().position(|e| !e.valid) {
            self.table[i] = RefEntry {
                row,
                count: self.spillover,
                valid: true,
            };
            i
        } else {
            let claimable = self
                .table
                .iter()
                .filter(|e| e.count.raw() <= self.spillover.raw())
                .count();
            ambiguous = claimable > 1;
            if let Some(i) = self
                .table
                .iter()
                .position(|e| e.count.raw() <= self.spillover.raw())
            {
                self.table[i] = RefEntry {
                    row,
                    count: self.spillover,
                    valid: true,
                };
                i
            } else {
                self.spillover.add(eact);
                return (None, false);
            }
        };
        self.table[slot].count.add(eact);
        if self.table[slot].count.reached(self.internal_threshold) {
            self.table[slot].count = self.spillover;
            (
                Some(MitigationRequest {
                    aggressor: row,
                    identified_at: now,
                }),
                ambiguous,
            )
        } else {
            (None, ambiguous)
        }
    }

    fn on_refresh_window(&mut self) {
        for e in &mut self.table {
            e.valid = false;
            e.count = EactCounter::ZERO;
        }
        self.spillover = EactCounter::ZERO;
    }
}

/// Oracle transcription of the seed Mithril, reporting ambiguity of eviction
/// (tied minima among valid entries) and RFM (tied maxima) choices.
struct MithrilOracle {
    frac_bits: u32,
    table: Vec<RefEntry>,
    spillover: EactCounter,
}

impl MithrilOracle {
    fn new(config: &MithrilConfig) -> Self {
        Self {
            frac_bits: config.frac_bits,
            table: vec![
                RefEntry {
                    row: 0,
                    count: EactCounter::ZERO,
                    valid: false,
                };
                config.entries
            ],
            spillover: EactCounter::ZERO,
        }
    }

    fn record(&mut self, row: RowId, eact: Eact) -> bool {
        let eact = quantize(eact, self.frac_bits);
        if let Some(e) = self.table.iter_mut().find(|e| e.valid && e.row == row) {
            e.count.add(eact);
            return false;
        }
        if let Some(e) = self.table.iter_mut().find(|e| !e.valid) {
            let mut count = self.spillover;
            count.add(eact);
            *e = RefEntry {
                row,
                count,
                valid: true,
            };
            return false;
        }
        let min_raw = self
            .table
            .iter()
            .map(|e| e.count.raw())
            .min()
            .unwrap_or(u64::MAX);
        if min_raw > self.spillover.raw() {
            self.spillover.add(eact);
            return false;
        }
        let ambiguous = self
            .table
            .iter()
            .filter(|e| e.count.raw() == min_raw)
            .count()
            > 1;
        let idx = self
            .table
            .iter()
            .position(|e| e.count.raw() == min_raw)
            .unwrap();
        let mut count = self.spillover;
        count.add(eact);
        self.table[idx] = RefEntry {
            row,
            count,
            valid: true,
        };
        ambiguous
    }

    fn on_rfm(&mut self, now: Cycle) -> (Option<MitigationRequest>, bool) {
        let Some(max_raw) = self
            .table
            .iter()
            .filter(|e| e.valid)
            .map(|e| e.count.raw())
            .max()
        else {
            return (None, false);
        };
        if max_raw == 0 {
            return (None, false);
        }
        let ambiguous = self
            .table
            .iter()
            .filter(|e| e.valid && e.count.raw() == max_raw)
            .count()
            > 1;
        // The seed used `max_by_key`, which returns the *last* maximal element.
        let idx = self
            .table
            .iter()
            .rposition(|e| e.valid && e.count.raw() == max_raw)
            .unwrap();
        let aggressor = self.table[idx].row;
        self.table[idx].count = self.spillover;
        (
            Some(MitigationRequest {
                aggressor,
                identified_at: now,
            }),
            ambiguous,
        )
    }

    fn on_refresh_window(&mut self) {
        for e in &mut self.table {
            e.valid = false;
            e.count = EactCounter::ZERO;
        }
        self.spillover = EactCounter::ZERO;
    }
}

/// Tracks each row's true recorded weight since its last mitigation (or the last
/// refresh-window reset), plus the total — the quantities of the Misra-Gries
/// error bound.
#[derive(Default)]
struct TrueWeights {
    per_row: HashMap<RowId, u64>,
    total: u64,
}

impl TrueWeights {
    fn record(&mut self, row: RowId, quantized: Eact) {
        let raw = u64::from(quantized.raw());
        *self.per_row.entry(row).or_insert(0) += raw;
        self.total += raw;
    }

    fn mitigated(&mut self, row: RowId) {
        self.per_row.insert(row, 0);
    }

    fn reset(&mut self) {
        self.per_row.clear();
        self.total = 0;
    }
}

proptest! {
    /// (a) Scan vs summary Graphene: identical mitigation decisions, counter
    /// state and spillover at every access, for as long as every victim choice
    /// has been unambiguous. (On fully unambiguous streams this is equality of
    /// the whole mitigation sequence — in particular of the mitigation multiset.)
    #[test]
    fn graphene_engines_agree_until_first_ambiguous_choice(
        seed in 0u64..1_000_000,
        entries in 2usize..32,
        internal_threshold in 20u64..300,
        frac_bits in 0u32..=7,
    ) {
        let config = GrapheneConfig {
            threshold: internal_threshold * 3,
            internal_threshold,
            entries,
            frac_bits,
        };
        let mut scan = Graphene::with_engine(config.clone(), EvictionEngine::Scan);
        let mut summary = Graphene::with_engine(config.clone(), EvictionEngine::Summary);
        let mut oracle = GrapheneOracle::new(&config);
        let universe = (entries as u32).saturating_mul(3).max(64);
        let mut clean_prefix = 0u32;
        for (i, (row, eact, reset)) in stream(seed, 2_000, 16, universe).into_iter().enumerate() {
            let now = i as u64 * 128;
            if reset {
                scan.on_refresh_window(now);
                summary.on_refresh_window(now);
                oracle.on_refresh_window();
            }
            let a = scan.record(row, eact, now);
            let b = summary.record(row, eact, now);
            let (expected, ambiguous) = oracle.record(row, eact, now);
            prop_assert!(a == expected, "scan engine diverged from seed at {i}: {a:?} vs {expected:?}");
            prop_assert!(b == expected, "summary engine diverged at {i} (unambiguous): {b:?} vs {expected:?}");
            prop_assert_eq!(scan.spillover_raw(), summary.spillover_raw());
            prop_assert_eq!(scan.tracked_raw(row), summary.tracked_raw(row));
            if ambiguous {
                // From the first ambiguous victim choice on, the engines may
                // legitimately track different rows; only the error bound
                // (tested separately) is guaranteed.
                break;
            }
            clean_prefix += 1;
        }
        // Bookkeeping so a generator regression (never exercising eviction at
        // all) cannot silently hollow the property out.
        prop_assert!(clean_prefix > 0);
    }

    /// (a) Scan vs summary Mithril, including RFM-time maximum selection:
    /// identical records and RFM mitigations until the first ambiguous choice
    /// (tied minimum on eviction or tied maximum on RFM).
    #[test]
    fn mithril_engines_agree_until_first_ambiguous_choice(
        seed in 0u64..1_000_000,
        entries in 2usize..32,
        frac_bits in 0u32..=7,
    ) {
        let config = MithrilConfig {
            threshold: 4_000,
            rfm_threshold: 80,
            entries,
            frac_bits,
        };
        let mut scan = Mithril::with_engine(config.clone(), EvictionEngine::Scan);
        let mut summary = Mithril::with_engine(config.clone(), EvictionEngine::Summary);
        let mut oracle = MithrilOracle::new(&config);
        let universe = (entries as u32).saturating_mul(3).max(64);
        'stream: for (i, (row, eact, reset)) in
            stream(seed, 2_000, 16, universe).into_iter().enumerate()
        {
            let now = i as u64 * 128;
            if reset {
                scan.on_refresh_window(now);
                summary.on_refresh_window(now);
                oracle.on_refresh_window();
            }
            prop_assert_eq!(scan.record(row, eact, now), None);
            prop_assert_eq!(summary.record(row, eact, now), None);
            let ambiguous = oracle.record(row, eact);
            prop_assert_eq!(scan.spillover_raw(), summary.spillover_raw());
            prop_assert_eq!(scan.tracked_raw(row), summary.tracked_raw(row));
            if ambiguous {
                break 'stream;
            }
            if i % 80 == 79 {
                let a = scan.on_rfm(now);
                let b = summary.on_rfm(now);
                let (expected, rfm_ambiguous) = oracle.on_rfm(now);
                prop_assert!(a == expected, "scan RFM diverged from seed at {i}: {a:?} vs {expected:?}");
                if rfm_ambiguous {
                    // A tied maximum: both engines must still mitigate *some*
                    // maximal row now, but may disagree on which.
                    prop_assert_eq!(b.is_some(), expected.is_some());
                    break 'stream;
                }
                prop_assert!(b == expected, "summary RFM diverged at {i} (unambiguous): {b:?} vs {expected:?}");
            }
        }
    }

    /// (b) The Misra-Gries error bound holds for both engines on any stream,
    /// ties included: a row's true weight since its last mitigation never
    /// exceeds its tracked counter (or, if untracked, the spillover count), and
    /// the spillover count never exceeds N/k.
    #[test]
    fn graphene_error_bound_holds_for_both_engines(
        seed in 0u64..1_000_000,
        entries in 1usize..32,
        internal_threshold in 20u64..300,
        frac_bits in 0u32..=7,
    ) {
        let config = GrapheneConfig {
            threshold: internal_threshold * 3,
            internal_threshold,
            entries,
            frac_bits,
        };
        for engine in [EvictionEngine::Scan, EvictionEngine::Summary] {
            let mut tracker = Graphene::with_engine(config.clone(), engine);
            let mut truth = TrueWeights::default();
            let universe = (entries as u32).saturating_mul(4).max(64);
            for (i, (row, eact, reset)) in
                stream(seed, 2_000, 12, universe).into_iter().enumerate()
            {
                let now = i as u64 * 128;
                if reset {
                    tracker.on_refresh_window(now);
                    truth.reset();
                }
                let mitigation = tracker.record(row, eact, now);
                truth.record(row, quantize(eact, frac_bits));
                if mitigation.is_some() {
                    truth.mitigated(row);
                }
                let est = tracker.tracked_raw(row).unwrap_or_else(|| tracker.spillover_raw());
                prop_assert!(
                    truth.per_row[&row] <= est,
                    "{engine}: row {row} true weight {} exceeds estimate {} at {i}",
                    truth.per_row[&row], est
                );
                prop_assert!(
                    tracker.spillover_raw() <= truth.total,
                    "{engine}: spillover {} exceeds total recorded weight {} at {i}",
                    tracker.spillover_raw(), truth.total
                );
            }
            // Final sweep: the bound holds for every row, not just the last touched.
            for (&row, &true_raw) in &truth.per_row {
                let est = tracker.tracked_raw(row).unwrap_or_else(|| tracker.spillover_raw());
                prop_assert!(true_raw <= est, "{engine}: final bound broken for row {row}");
            }
        }
    }

    /// (b) The same error bound for Mithril, with RFM roll-backs in the stream.
    #[test]
    fn mithril_error_bound_holds_for_both_engines(
        seed in 0u64..1_000_000,
        entries in 1usize..32,
        frac_bits in 0u32..=7,
    ) {
        let config = MithrilConfig {
            threshold: 4_000,
            rfm_threshold: 80,
            entries,
            frac_bits,
        };
        for engine in [EvictionEngine::Scan, EvictionEngine::Summary] {
            let mut tracker = Mithril::with_engine(config.clone(), engine);
            let mut truth = TrueWeights::default();
            let universe = (entries as u32).saturating_mul(4).max(64);
            for (i, (row, eact, reset)) in
                stream(seed, 2_000, 12, universe).into_iter().enumerate()
            {
                let now = i as u64 * 128;
                if reset {
                    tracker.on_refresh_window(now);
                    truth.reset();
                }
                prop_assert_eq!(tracker.record(row, eact, now), None);
                truth.record(row, quantize(eact, frac_bits));
                if i % 80 == 79 {
                    if let Some(m) = tracker.on_rfm(now) {
                        truth.mitigated(m.aggressor);
                    }
                }
                let est = tracker.tracked_raw(row).unwrap_or_else(|| tracker.spillover_raw());
                prop_assert!(
                    truth.per_row[&row] <= est,
                    "{engine}: row {row} true weight {} exceeds estimate {} at {i}",
                    truth.per_row[&row], est
                );
                prop_assert!(
                    tracker.spillover_raw() <= truth.total,
                    "{engine}: spillover {} exceeds total recorded weight {} at {i}",
                    tracker.spillover_raw(), truth.total
                );
            }
            for (&row, &true_raw) in &truth.per_row {
                let est = tracker.tracked_raw(row).unwrap_or_else(|| tracker.spillover_raw());
                prop_assert!(true_raw <= est, "{engine}: final bound broken for row {row}");
            }
        }
    }

    /// (b) The classical Misra-Gries bound `count_error ≤ N/k` on the spillover
    /// term, in its home setting: unit-weight increments (plain Rowhammer
    /// accounting, `frac_bits = 0`). With unit weights, raising the spillover by
    /// one unit requires every table entry to be pushed past it first, so the
    /// error term amortizes over `k + 1` counters; weighted streams break this
    /// (a freshly evicted entry inherits the whole spillover count for the price
    /// of its own small weight, re-arming an arbitrarily large spill), which is
    /// why the weighted properties above assert the no-undercount bound instead.
    #[test]
    fn unit_weight_spillover_bound(
        seed in 0u64..1_000_000,
        entries in 1usize..32,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let universe = (entries as u32).saturating_mul(4).max(64);
        let accesses: Vec<RowId> = (0..2_000).map(|_| rng.gen_range(0..universe)).collect();
        for engine in [EvictionEngine::Scan, EvictionEngine::Summary] {
            let graphene_config = GrapheneConfig {
                threshold: 3_000,
                internal_threshold: 1_000,
                entries,
                frac_bits: 0,
            };
            let mut graphene = Graphene::with_engine(graphene_config, engine);
            let mithril_config = MithrilConfig {
                threshold: 4_000,
                rfm_threshold: 80,
                entries,
                frac_bits: 0,
            };
            let mut mithril = Mithril::with_engine(mithril_config, engine);
            let mut total = 0u64;
            for (i, &row) in accesses.iter().enumerate() {
                let now = i as u64 * 128;
                graphene.record(row, Eact::ONE, now);
                mithril.record(row, Eact::ONE, now);
                if i % 80 == 79 {
                    mithril.on_rfm(now);
                }
                total += u64::from(Eact::ONE.raw());
                prop_assert!(
                    graphene.spillover_raw() * entries as u64 <= total,
                    "{engine}: Graphene spillover {} exceeds N/k = {}/{entries} at {i}",
                    graphene.spillover_raw(), total
                );
                prop_assert!(
                    mithril.spillover_raw() * entries as u64 <= total,
                    "{engine}: Mithril spillover {} exceeds N/k = {}/{entries} at {i}",
                    mithril.spillover_raw(), total
                );
            }
        }
    }

    /// (c) Bucket-list ordering invariants survive arbitrary attach / detach /
    /// increment / decrement / clear round-trips: the structure validator passes
    /// after every operation and min/max/count agree with a naive model.
    #[test]
    fn count_summary_matches_naive_model_with_valid_structure(
        seed in 0u64..1_000_000,
        slots in 1usize..24,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut summary = CountSummary::new(slots);
        let mut model: Vec<Option<u64>> = vec![None; slots];
        for step in 0..1_500u32 {
            let slot = rng.gen_range(0..slots as u32) as usize;
            match rng.gen_range(0..100u32) {
                // Attach (if absent) at a possibly-colliding count.
                0..=34 => {
                    if model[slot].is_none() {
                        let count = u64::from(rng.gen_range(0..40u32));
                        summary.attach(slot, count);
                        model[slot] = Some(count);
                    }
                }
                // Detach (if present) — the eviction half of a round-trip.
                35..=54 => {
                    if model[slot].is_some() {
                        summary.detach(slot);
                        model[slot] = None;
                    }
                }
                // Increment by a small delta (activation recorded).
                55..=74 => {
                    if let Some(c) = model[slot] {
                        let next = c + u64::from(rng.gen_range(1..200u32));
                        summary.set_count(slot, next);
                        model[slot] = Some(next);
                    }
                }
                // Decrement toward a spillover-like floor (mitigation roll-back),
                // sometimes to an existing bucket's exact count.
                75..=94 => {
                    if let Some(c) = model[slot] {
                        let floor = rng.gen_range(0..=c);
                        summary.set_count(slot, floor);
                        model[slot] = Some(floor);
                    }
                }
                // Refresh-window clear.
                _ => {
                    summary.clear();
                    model.fill(None);
                }
            }
            summary.validate();
            let attached: Vec<(usize, u64)> = model
                .iter()
                .enumerate()
                .filter_map(|(s, c)| c.map(|c| (s, c)))
                .collect();
            prop_assert!(summary.len() == attached.len(), "step {step}: len mismatch");
            let model_min = attached.iter().map(|&(_, c)| c).min();
            let model_max = attached.iter().map(|&(_, c)| c).max();
            prop_assert_eq!(summary.min().map(|(_, c)| c), model_min);
            prop_assert_eq!(summary.max().map(|(_, c)| c), model_max);
            if let Some((s, c)) = summary.min() {
                prop_assert!(model[s] == Some(c), "min slot holds a different count");
            }
            if let Some((s, c)) = summary.max() {
                prop_assert!(model[s] == Some(c), "max slot holds a different count");
            }
            for (s, c) in attached {
                prop_assert_eq!(summary.count_of(s), Some(c));
            }
        }
    }
}

/// Oracle transcription of the walk-only [`CountSummary`] positioning: the same
/// buckets, links, LIFO member lists, in-place recount and end jumps, but every
/// position lookup walks the bucket list from its hint however far the answer
/// is. The indexed summary must pick the same bucket on every lookup, so slot
/// identities — not just counts — must agree at every step.
struct WalkSummary {
    /// Per-slot `(bucket, prev, next)` links; `bucket == NIL` when detached.
    slots: Vec<(u32, u32, u32)>,
    /// Per-bucket `(count, head, prev, next)`; free nodes chain through `next`.
    buckets: Vec<(u64, u32, u32, u32)>,
    free_head: u32,
    first: u32,
    last: u32,
}

const NIL: u32 = u32::MAX;

impl WalkSummary {
    fn new(slots: usize) -> Self {
        let mut summary = Self {
            slots: vec![(NIL, NIL, NIL); slots],
            buckets: vec![(0, NIL, NIL, NIL); slots],
            free_head: NIL,
            first: NIL,
            last: NIL,
        };
        summary.rebuild_free_chain();
        summary
    }

    fn rebuild_free_chain(&mut self) {
        self.free_head = NIL;
        for b in (0..self.buckets.len() as u32).rev() {
            self.buckets[b as usize].3 = self.free_head;
            self.free_head = b;
        }
    }

    fn count_of(&self, slot: usize) -> Option<u64> {
        let b = self.slots[slot].0;
        (b != NIL).then(|| self.buckets[b as usize].0)
    }

    fn min(&self) -> Option<(usize, u64)> {
        (self.first != NIL).then(|| {
            let (count, head, ..) = self.buckets[self.first as usize];
            (head as usize, count)
        })
    }

    fn max(&self) -> Option<(usize, u64)> {
        (self.last != NIL).then(|| {
            let (count, head, ..) = self.buckets[self.last as usize];
            (head as usize, count)
        })
    }

    /// `hint` is `last` when the new count is at or above the maximum, else NIL.
    fn end_hint(&self, count: u64) -> u32 {
        if self.last != NIL && self.buckets[self.last as usize].0 <= count {
            self.last
        } else {
            NIL
        }
    }

    fn attach(&mut self, slot: usize, count: u64) {
        let anchor = self.anchor(self.end_hint(count), count);
        self.link_slot(anchor, slot, count);
    }

    fn detach(&mut self, slot: usize) {
        let b = self.slots[slot].0;
        self.unlink_slot(b, slot);
    }

    fn set_count(&mut self, slot: usize, count: u64) {
        let b = self.slots[slot].0;
        let (old, head, bprev, bnext) = self.buckets[b as usize];
        if old == count {
            return;
        }
        if head == slot as u32
            && self.slots[slot].2 == NIL
            && (bprev == NIL || self.buckets[bprev as usize].0 < count)
            && (bnext == NIL || self.buckets[bnext as usize].0 > count)
        {
            self.buckets[b as usize].0 = count;
            return;
        }
        let mut hint = self.unlink_slot(b, slot);
        if self.last != NIL && self.buckets[self.last as usize].0 <= count {
            hint = self.last;
        } else if self.first == NIL || self.buckets[self.first as usize].0 > count {
            hint = NIL;
        }
        let anchor = self.anchor(hint, count);
        self.link_slot(anchor, slot, count);
    }

    fn evict_min_if_at_most(&mut self, limit: u64, count: u64) -> Option<usize> {
        let (min, head, ..) = *self.buckets.get(self.first as usize)?;
        if min > limit {
            return None;
        }
        let slot = head as usize;
        let hint = self.unlink_slot(self.first, slot);
        let anchor = if self.last != NIL && self.buckets[self.last as usize].0 <= count {
            self.anchor(self.last, count)
        } else {
            self.anchor(hint, count)
        };
        self.link_slot(anchor, slot, count);
        Some(slot)
    }

    fn clear(&mut self) {
        self.slots.fill((NIL, NIL, NIL));
        self.first = NIL;
        self.last = NIL;
        self.rebuild_free_chain();
    }

    /// The bucket with the largest count ≤ `count` (NIL if none), walking from
    /// `hint` (or `first`) with no step limit.
    fn anchor(&self, hint: u32, count: u64) -> u32 {
        let mut cur = if hint == NIL { self.first } else { hint };
        if cur == NIL {
            return NIL;
        }
        if self.buckets[cur as usize].0 <= count {
            loop {
                let next = self.buckets[cur as usize].3;
                if next == NIL || self.buckets[next as usize].0 > count {
                    return cur;
                }
                cur = next;
            }
        } else {
            loop {
                let prev = self.buckets[cur as usize].2;
                if prev == NIL {
                    return NIL;
                }
                if self.buckets[prev as usize].0 <= count {
                    return prev;
                }
                cur = prev;
            }
        }
    }

    fn link_slot(&mut self, anchor: u32, slot: usize, count: u64) {
        let target = if anchor != NIL && self.buckets[anchor as usize].0 == count {
            anchor
        } else {
            let b = self.free_head;
            self.free_head = self.buckets[b as usize].3;
            let next = if anchor == NIL {
                self.first
            } else {
                self.buckets[anchor as usize].3
            };
            self.buckets[b as usize] = (count, NIL, anchor, next);
            if anchor == NIL {
                self.first = b;
            } else {
                self.buckets[anchor as usize].3 = b;
            }
            if next == NIL {
                self.last = b;
            } else {
                self.buckets[next as usize].2 = b;
            }
            b
        };
        let head = self.buckets[target as usize].1;
        self.slots[slot] = (target, NIL, head);
        if head != NIL {
            self.slots[head as usize].1 = slot as u32;
        }
        self.buckets[target as usize].1 = slot as u32;
    }

    /// Unlinks `slot` from bucket `b`; returns `b` if it survives, else its
    /// predecessor (the re-link hint).
    fn unlink_slot(&mut self, b: u32, slot: usize) -> u32 {
        let (_, prev, next) = self.slots[slot];
        if prev != NIL {
            self.slots[prev as usize].2 = next;
        } else {
            self.buckets[b as usize].1 = next;
        }
        if next != NIL {
            self.slots[next as usize].1 = prev;
        }
        self.slots[slot] = (NIL, NIL, NIL);
        if self.buckets[b as usize].1 != NIL {
            return b;
        }
        let (_, _, bprev, bnext) = self.buckets[b as usize];
        if bprev != NIL {
            self.buckets[bprev as usize].3 = bnext;
        } else {
            self.first = bnext;
        }
        if bnext != NIL {
            self.buckets[bnext as usize].2 = bprev;
        } else {
            self.last = bprev;
        }
        self.buckets[b as usize].3 = self.free_head;
        self.free_head = b;
        bprev
    }
}

/// Drives the indexed [`CountSummary`] and the walk-only oracle in lockstep
/// through a Graphene/Mithril-shaped stream at ImPress-P resolution: EACT
/// increments of 1 to 32 in 1/128 steps (raw 128..=4096), free-slot attaches
/// and spillover growth on misses, min-evictions both as Graphene's
/// `min()` + `set_count` and Mithril's `evict_min_if_at_most`, threshold and
/// RFM roll-backs to the spillover count, the batch kernel's forced
/// detach + attach move, bare detaches and refresh-window clears. After every
/// operation the min/max slot identities and the touched slot's count must
/// agree; every 128 operations the full structure is validated (including the
/// bucket index mirroring the list) and every slot's count compared.
fn lockstep_with_walk_oracle(slots: usize, seed: u64, ops: u32) {
    const THRESHOLD: u64 = 2_000 * 128;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut indexed = CountSummary::new(slots);
    let mut oracle = WalkSummary::new(slots);
    let mut spillover = 0u64;
    for step in 0..ops {
        let eact = rng.gen_range(128..=4096u64);
        let slot = rng.gen_range(0..slots);
        let touched = match rng.gen_range(0..100_000u32) {
            // Miss: claim a free slot at the spillover count, else evict a
            // minimum at or below it, else spill.
            0..=39_999 => {
                if indexed.count_of(slot).is_none() {
                    indexed.attach(slot, spillover + eact);
                    oracle.attach(slot, spillover + eact);
                    Some(slot)
                } else if step % 2 == 0 {
                    let victim = indexed.evict_min_if_at_most(spillover, spillover + eact);
                    assert_eq!(
                        victim,
                        oracle.evict_min_if_at_most(spillover, spillover + eact),
                        "step {step}: evict_min_if_at_most chose a different victim"
                    );
                    if victim.is_none() {
                        spillover += eact;
                    }
                    victim
                } else {
                    match indexed.min() {
                        Some((victim, min)) if min <= spillover => {
                            indexed.set_count(victim, spillover + eact);
                            oracle.set_count(victim, spillover + eact);
                            Some(victim)
                        }
                        _ => {
                            spillover += eact;
                            None
                        }
                    }
                }
            }
            // Match: add the EACT, rolling back to the spillover count when the
            // internal threshold is crossed.
            40_000..=84_999 => indexed.count_of(slot).map(|count| {
                let next = if count + eact >= THRESHOLD {
                    spillover
                } else {
                    count + eact
                };
                indexed.set_count(slot, next);
                oracle.set_count(slot, next);
                slot
            }),
            // RFM: roll the maximum back to the spillover count.
            85_000..=89_999 => indexed.max().map(|(top, _)| {
                indexed.set_count(top, spillover);
                oracle.set_count(top, spillover);
                top
            }),
            // Batch-kernel forced move: detach + re-attach, sometimes at the
            // same count (the slot must still land at its bucket's head).
            90_000..=95_999 => indexed.count_of(slot).map(|count| {
                let next = if rng.gen_bool(0.5) {
                    count
                } else {
                    count + eact
                };
                indexed.detach(slot);
                oracle.detach(slot);
                indexed.attach(slot, next);
                oracle.attach(slot, next);
                slot
            }),
            // Bare detach, freeing the slot.
            96_000..=99_989 => indexed.count_of(slot).map(|_| {
                indexed.detach(slot);
                oracle.detach(slot);
                slot
            }),
            // Refresh-window clear.
            _ => {
                indexed.clear();
                oracle.clear();
                spillover = 0;
                None
            }
        };
        assert_eq!(indexed.min(), oracle.min(), "step {step}: min slot differs");
        assert_eq!(indexed.max(), oracle.max(), "step {step}: max slot differs");
        if let Some(s) = touched {
            assert_eq!(
                indexed.count_of(s),
                oracle.count_of(s),
                "step {step}: slot {s}"
            );
        }
        if step % 128 == 0 {
            indexed.validate();
            for s in 0..slots {
                assert_eq!(
                    indexed.count_of(s),
                    oracle.count_of(s),
                    "step {step}: slot {s}"
                );
            }
        }
    }
    indexed.validate();
}

#[test]
fn indexed_summary_matches_walk_oracle_at_graphene_size() {
    for seed in 0..3 {
        lockstep_with_walk_oracle(448, seed, 60_000);
    }
}

#[test]
fn indexed_summary_matches_walk_oracle_at_mithril_size() {
    for seed in 0..3 {
        lockstep_with_walk_oracle(383, 0x5eed + seed, 60_000);
    }
}
