//! Ordered min/max-count maintenance for Misra-Gries tables: the stream-summary
//! eviction engine.
//!
//! Graphene and Mithril need three ordered queries over their counter tables that
//! the seed answered with linear scans on every *miss*:
//!
//! * Graphene's eviction: "is there an entry whose count does not exceed the
//!   spillover count?" — equivalent to `min ≤ spillover`;
//! * Mithril's eviction: "which entry has the minimum count, and is it at or below
//!   the spillover count?";
//! * Mithril's RFM mitigation: "which entry has the maximum count?".
//!
//! The row→slot index (PR 3) made the *match* path O(1) but left every miss paying
//! an O(entries) scan, a ~100× throughput cliff on eviction-heavy churn streams.
//! [`CountSummary`] removes the scan: it is the classic *stream-summary* structure
//! of Metwally et al.'s Space-Saving algorithm — table slots threaded onto
//! doubly-linked lists, one list per distinct count value ("bucket"), with the
//! buckets themselves on a doubly-linked list ordered by count. The minimum lives
//! at the head of the first bucket and the maximum at the head of the last, so
//! `min()`/`max()` are O(1) and insert / evict-min / mitigate-max /
//! roll-back-to-spillover are pointer splices once the new count's position on
//! the bucket list is known:
//!
//! * no allocation in steady state — bucket nodes come from a preallocated pool
//!   sized at one node per table slot (a bucket is never empty, so the number of
//!   live buckets cannot exceed the number of attached slots);
//! * unit-weight increments (plain Rowhammer accounting, `frac_bits = 0`) move a
//!   slot to an adjacent bucket, the textbook O(1) case, and a single-occupant
//!   bucket whose neighbours are not crossed is re-counted in place without any
//!   splice;
//! * fractional EACT increments must *find* the new position, and the bucket
//!   walk from the slot's old bucket is not O(1) amortized: ImPress-P's 7
//!   fractional bits give nearly every counter a bucket of its own under
//!   RowHammer×RowPress churn, and on such a trace the walk crossed ~115
//!   buckets per position lookup (against ~1 on benign traffic). So the walk is
//!   capped at `WALK_LIMIT` (8) steps; past that, the position comes from a
//!   binary search over a contiguous, count-ordered index of the live buckets,
//!   bounding a lookup at `WALK_LIMIT + ⌈log₂(buckets + 1)⌉` bucket visits (at
//!   most 18 for Graphene's 448 entries). The index is built on the first long
//!   walk, kept in step with one bounded rotate per bucket that dies and is
//!   reborn, and dropped on [`CountSummary::clear`], so trackers whose walks
//!   stay short never allocate or maintain it. It returns exactly the bucket the
//!   walk would (the largest count ≤ the new count is unique), so bucket order
//!   and tie-breaks do not depend on which path answered.
//!
//! Selecting among *tied* minima (or maxima) is where the engine deliberately
//! diverges from the seed's scan: the scan broke ties by table order, the summary
//! by bucket-list order. The Misra-Gries/Space-Saving guarantees do not depend on
//! the tie-break, so the trackers enforce an **observational-equivalence
//! contract** instead of bit-identical selection — see the module docs of
//! [`crate::graphene`]/[`crate::mithril`] and the `summary_equivalence`
//! integration suite.

use std::fmt;

/// Sentinel for "no slot / no bucket".
const NIL: u32 = u32::MAX;

/// Bucket-list steps a position lookup walks from its hint before it falls back
/// to the count-ordered bucket index.
const WALK_LIMIT: u32 = 8;

/// Which eviction implementation a Graphene/Mithril instance uses.
///
/// * [`EvictionEngine::Scan`] — the seed's linear scan over the table on every
///   miss (and, for Mithril, on every RFM). Bit-identical to the original
///   algorithms; kept for A/B comparison in tests and `perf_report`.
/// * [`EvictionEngine::Summary`] — the bucketed [`CountSummary`] structure;
///   observationally equivalent (same mitigation multiset whenever the victim
///   choice is unambiguous, same Misra-Gries error bound always), with O(1)
///   victim selection and a bounded position lookup on the miss path.
///
/// The process-wide default is read from the `IMPRESS_EVICTION` environment
/// variable (`scan` or `summary`, case-insensitive; unset or unrecognized values
/// select `Summary`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionEngine {
    /// Linear-scan eviction (the seed algorithm, bit-identical).
    Scan,
    /// Bucketed stream-summary eviction (O(1) victim selection, observationally
    /// equivalent).
    #[default]
    Summary,
}

/// Environment variable selecting the default [`EvictionEngine`].
pub const EVICTION_ENV: &str = "IMPRESS_EVICTION";

impl EvictionEngine {
    /// The engine selected by the `IMPRESS_EVICTION` environment variable
    /// (`scan`/`summary`, case-insensitive). Unset or unrecognized values select
    /// [`EvictionEngine::Summary`], mirroring how `IMPRESS_THREADS` treats
    /// unparsable input.
    pub fn from_env() -> Self {
        match std::env::var(EVICTION_ENV) {
            Ok(v) if v.trim().eq_ignore_ascii_case("scan") => EvictionEngine::Scan,
            _ => EvictionEngine::Summary,
        }
    }

    /// Short name used in reports (`"scan"` / `"summary"`).
    pub fn label(self) -> &'static str {
        match self {
            EvictionEngine::Scan => "scan",
            EvictionEngine::Summary => "summary",
        }
    }
}

impl fmt::Display for EvictionEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Builds the per-tracker summary-engine scaffolding: the [`CountSummary`] and
/// the invalid-slot free list (claimed before any eviction is considered — the
/// explicit invalid-before-eviction invariant). Under the scan engine both are
/// empty and never maintained.
///
/// Shared by Graphene and Mithril so the free-slot pop order — load-bearing
/// for the lockstep equivalence of invalid claims, see
/// [`restock_free_slots`] — is defined in exactly one place.
pub fn engine_scaffolding(entries: usize, engine: EvictionEngine) -> (CountSummary, Vec<u32>) {
    match engine {
        EvictionEngine::Scan => (CountSummary::new(0), Vec::new()),
        EvictionEngine::Summary => {
            let mut free_slots = Vec::with_capacity(entries);
            restock_free_slots(&mut free_slots, entries);
            (CountSummary::new(entries), free_slots)
        }
    }
}

/// Refills the invalid-slot free list with every slot (a refresh-window reset).
///
/// Slots are stacked in reverse so pops claim slot 0 first — the same order the
/// scan engine's first-invalid search produces. Slot identity is unobservable,
/// but keeping the orders aligned means an invalid claim can never be the point
/// where the engines' table layouts diverge, which makes divergences in the
/// equivalence suites attributable to tied-victim choices alone.
pub fn restock_free_slots(free_slots: &mut Vec<u32>, entries: usize) {
    free_slots.clear();
    free_slots.extend((0..entries as u32).rev());
}

/// One bucket: a non-empty set of slots sharing the same count, on the ordered
/// bucket list.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// The count shared by every slot in this bucket.
    count: u64,
    /// First slot of this bucket's doubly-linked member list.
    head: u32,
    /// Previous bucket on the ordered list (strictly smaller count) or `NIL`.
    prev: u32,
    /// Next bucket on the ordered list (strictly larger count) or `NIL`.
    next: u32,
}

/// Per-slot membership links, kept in one node so a slot touch costs one cache
/// line instead of three parallel-array loads (the record hot path visits these
/// on every activation).
#[derive(Debug, Clone, Copy)]
struct SlotLink {
    /// Bucket id (`NIL` when the slot is not attached).
    bucket: u32,
    /// Previous member in the bucket list (`NIL` at the head).
    prev: u32,
    /// Next member in the bucket list (`NIL` at the tail).
    next: u32,
}

const DETACHED: SlotLink = SlotLink {
    bucket: NIL,
    prev: NIL,
    next: NIL,
};

/// A stream-summary over a fixed set of table slots: every *attached* slot has a
/// count, and the structure answers min/max queries in O(1) and applies count
/// changes in pointer splices, after a position lookup of at most `WALK_LIMIT`
/// bucket-list steps plus, past that, a binary search of the bucket index.
///
/// The summary stores only slot ids and counts; the owning tracker keeps the
/// authoritative `(row, counter)` table and mirrors every change into the summary.
#[derive(Debug, Clone)]
pub struct CountSummary {
    /// Per-slot membership links (`bucket == NIL` when the slot is detached).
    slots: Vec<SlotLink>,
    /// Bucket node pool (capacity = number of slots; a bucket is never empty).
    buckets: Vec<Bucket>,
    /// Head of the intrusive free-bucket chain (threaded through `Bucket::next`).
    free_head: u32,
    /// Bucket holding the minimum count, or `NIL` when empty.
    first: u32,
    /// Bucket holding the maximum count, or `NIL` when empty.
    last: u32,
    /// Number of attached slots.
    len: usize,
    /// Live bucket ids in ascending count order: a contiguous mirror of the
    /// bucket list that position lookups binary-search once a short walk fails.
    /// Empty (walk mode, never maintained) until the first long walk builds it;
    /// [`CountSummary::clear`] empties it again, keeping the capacity.
    index: Vec<u32>,
    /// Position in `index` of a bucket that died in the operation under way,
    /// left in place for the birth that usually follows to reuse (`NIL` when
    /// none; never set between public calls).
    hole: u32,
    /// Position lookups performed (complexity tests only).
    #[cfg(test)]
    lookups: u64,
    /// Bucket nodes and index entries those lookups examined.
    #[cfg(test)]
    visits: u64,
}

impl CountSummary {
    /// Builds an empty summary able to track `slots` table slots.
    pub fn new(slots: usize) -> Self {
        assert!(
            slots < NIL as usize,
            "slot count must fit the u32 id space with a sentinel"
        );
        let mut summary = Self {
            slots: vec![DETACHED; slots],
            buckets: vec![
                Bucket {
                    count: 0,
                    head: NIL,
                    prev: NIL,
                    next: NIL,
                };
                slots
            ],
            free_head: NIL,
            first: NIL,
            last: NIL,
            len: 0,
            index: Vec::new(),
            hole: NIL,
            #[cfg(test)]
            lookups: 0,
            #[cfg(test)]
            visits: 0,
        };
        summary.rebuild_free_chain();
        summary
    }

    /// Threads every bucket node onto the free chain (ascending ids).
    fn rebuild_free_chain(&mut self) {
        self.free_head = NIL;
        for b in (0..self.buckets.len() as u32).rev() {
            self.buckets[b as usize].next = self.free_head;
            self.free_head = b;
        }
    }

    /// Pops a bucket node off the free chain.
    #[inline]
    fn alloc_bucket(&mut self) -> u32 {
        let b = self.free_head;
        debug_assert_ne!(b, NIL, "bucket pool sized at one node per slot");
        self.free_head = self.buckets[b as usize].next;
        b
    }

    /// Pushes a bucket node back onto the free chain.
    #[inline]
    fn free_bucket(&mut self, b: u32) {
        self.buckets[b as usize].next = self.free_head;
        self.free_head = b;
    }

    /// Number of attached slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is attached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `slot` is currently attached.
    pub fn contains(&self, slot: usize) -> bool {
        self.slots[slot].bucket != NIL
    }

    /// The count currently recorded for an attached `slot`.
    pub fn count_of(&self, slot: usize) -> Option<u64> {
        let b = self.slots[slot].bucket;
        (b != NIL).then(|| self.buckets[b as usize].count)
    }

    /// A slot holding the minimum count, with that count. O(1).
    ///
    /// Among tied minima the most recently attached slot is returned (bucket
    /// member lists are LIFO) — a deterministic tie-break, but a different one
    /// from the scan engine's table order.
    #[inline]
    pub fn min(&self) -> Option<(usize, u64)> {
        (self.first != NIL).then(|| {
            let b = &self.buckets[self.first as usize];
            (b.head as usize, b.count)
        })
    }

    /// A slot holding the maximum count, with that count. O(1).
    #[inline]
    pub fn max(&self) -> Option<(usize, u64)> {
        (self.last != NIL).then(|| {
            let b = &self.buckets[self.last as usize];
            (b.head as usize, b.count)
        })
    }

    /// Attaches `slot` with `count`. The slot must not already be attached.
    #[inline]
    pub fn attach(&mut self, slot: usize, count: u64) {
        debug_assert_eq!(self.slots[slot].bucket, NIL, "slot {slot} attached twice");
        // New entries usually land near one end of the count range (evict-and-
        // reinsert at the spillover count near the bottom, RFM roll-backs near
        // wherever spillover sits): start from whichever end is on the right side.
        let hint = if self.last != NIL && self.buckets[self.last as usize].count <= count {
            self.last
        } else {
            NIL
        };
        let (anchor, rank) = self.anchor(hint, count);
        self.link_slot(anchor, rank, slot, count);
        self.len += 1;
    }

    /// Detaches `slot` (which must be attached). Returns a live-bucket hint for a
    /// subsequent re-attach near the old position: the bucket with the largest
    /// count ≤ the slot's old count, or `NIL` if none remains.
    #[inline]
    pub fn detach(&mut self, slot: usize) -> u32 {
        let b = self.slots[slot].bucket;
        debug_assert_ne!(b, NIL, "slot {slot} detached while not attached");
        let hint = self.unlink_slot(b, slot);
        self.close_hole();
        self.len -= 1;
        hint
    }

    /// Changes an attached slot's count, preserving the ordering invariant.
    ///
    /// Handles increases (activation recorded) and decreases (mitigation rolled
    /// the counter back to the spillover value) alike; the position lookup walks
    /// from the slot's current bucket (or an end of the list), for at most
    /// `WALK_LIMIT` steps before the bucket index answers. A slot alone in its
    /// bucket whose neighbours are not crossed is re-counted in place with no
    /// splice at all.
    #[inline]
    pub fn set_count(&mut self, slot: usize, count: u64) {
        let b = self.slots[slot].bucket;
        debug_assert_ne!(b, NIL, "set_count on unattached slot {slot}");
        let bucket = self.buckets[b as usize];
        if bucket.count == count {
            return;
        }
        // Fast path: the slot is its bucket's only member and the new count still
        // fits strictly between the neighbouring buckets.
        if bucket.head == slot as u32
            && self.slots[slot].next == NIL
            && (bucket.prev == NIL || self.buckets[bucket.prev as usize].count < count)
            && (bucket.next == NIL || self.buckets[bucket.next as usize].count > count)
        {
            self.buckets[b as usize].count = count;
            return;
        }
        let mut hint = self.unlink_slot(b, slot);
        // End jumps: a new count at or above the current maximum (the common
        // evict-and-reinsert shape once counts band together) or below the
        // current minimum (deep roll-backs) resolves in O(1) from the ends
        // instead of walking the band.
        if self.last != NIL && self.buckets[self.last as usize].count <= count {
            hint = self.last;
        } else if self.first == NIL || self.buckets[self.first as usize].count > count {
            hint = NIL;
        }
        let (anchor, rank) = self.anchor(hint, count);
        self.link_slot(anchor, rank, slot, count);
    }

    /// Fused evict-and-reinsert for the churn hot path: if the current minimum
    /// count is at most `limit` (the spillover count — the Misra-Gries eviction
    /// condition), moves the minimum slot (the head of the first bucket) to
    /// `count` and returns it; otherwise leaves the structure untouched and
    /// returns `None`. Equivalent to checking `min()` and then
    /// `detach(min); attach(min, count)`, but the head unlink needs no
    /// predecessor handling and the slot's links are written exactly once, so a
    /// churn eviction costs a handful of stores instead of two generic splices.
    ///
    /// `count` must be ≥ the current minimum (it is: evictions reinsert at the
    /// spillover count plus the new row's weight, and `limit` is the spillover).
    #[inline]
    pub fn evict_min_if_at_most(&mut self, limit: u64, count: u64) -> Option<usize> {
        let b = self.first;
        if b == NIL {
            return None;
        }
        let bucket = self.buckets[b as usize];
        if bucket.count > limit {
            return None;
        }
        debug_assert!(bucket.count <= count, "reinsert below the minimum");
        let slot = bucket.head as usize;
        // Unlink the head of the first bucket (no predecessor by definition).
        let next_member = self.slots[slot].next;
        let hint;
        if next_member != NIL {
            self.slots[next_member as usize].prev = NIL;
            self.buckets[b as usize].head = next_member;
            hint = b;
        } else {
            // The minimum bucket dies: its successor becomes the new first.
            self.mark_death(b);
            let bnext = bucket.next;
            self.first = bnext;
            if bnext != NIL {
                self.buckets[bnext as usize].prev = NIL;
            } else {
                self.last = NIL;
            }
            self.free_bucket(b);
            hint = NIL;
        }
        // Re-link at `count`; the common churn shape lands at or above the
        // current maximum, which the end-jump resolves in O(1).
        let (anchor, rank) = if self.last != NIL && self.buckets[self.last as usize].count <= count
        {
            self.anchor(self.last, count)
        } else {
            self.anchor(hint, count)
        };
        self.link_slot(anchor, rank, slot, count);
        Some(slot)
    }

    /// Detaches every slot. Capacity is retained; never allocates.
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        self.slots.fill(DETACHED);
        self.first = NIL;
        self.last = NIL;
        self.len = 0;
        self.index.clear();
        self.rebuild_free_chain();
    }

    /// The bucket with the largest count ≤ `count`, or `NIL` if every live bucket
    /// has a larger count (insertion goes before `first`).
    ///
    /// `hint` is a live bucket id to start from (or `NIL` to start at `first`);
    /// the walk proceeds toward the answer for at most `WALK_LIMIT` steps, after
    /// which the bucket index answers instead. The answer is unique, so both
    /// paths return the same bucket. Returned beside it is the answer's *rank*
    /// when the index answered — the number of index entries with a count
    /// ≤ `count`, saving [`CountSummary::link_slot`] a second search — else `NIL`.
    #[inline]
    fn anchor(&mut self, hint: u32, count: u64) -> (u32, u32) {
        let mut cur = if hint == NIL { self.first } else { hint };
        if cur == NIL {
            return (NIL, NIL);
        }
        #[cfg(test)]
        {
            self.lookups += 1;
        }
        if self.buckets[cur as usize].count <= count {
            // Walk forward while the next bucket still fits under `count`.
            for _ in 0..WALK_LIMIT {
                let next = self.buckets[cur as usize].next;
                #[cfg(test)]
                {
                    self.visits += 1;
                }
                if next == NIL || self.buckets[next as usize].count > count {
                    return (cur, NIL);
                }
                cur = next;
            }
        } else {
            // Walk backward to the first bucket that fits under `count`.
            for _ in 0..WALK_LIMIT {
                let prev = self.buckets[cur as usize].prev;
                #[cfg(test)]
                {
                    self.visits += 1;
                }
                if prev == NIL {
                    return (NIL, NIL);
                }
                if self.buckets[prev as usize].count <= count {
                    return (prev, NIL);
                }
                cur = prev;
            }
        }
        self.indexed_anchor(count)
    }

    /// [`CountSummary::anchor`]'s answer from the bucket index, building the
    /// index first if this is the first long walk since the last `clear`.
    #[inline(never)]
    fn indexed_anchor(&mut self, count: u64) -> (u32, u32) {
        if self.index.is_empty() {
            debug_assert_eq!(self.hole, NIL, "hole in an unbuilt index");
            self.index.reserve_exact(self.buckets.len());
            let mut b = self.first;
            while b != NIL {
                self.index.push(b);
                b = self.buckets[b as usize].next;
            }
        }
        #[cfg(test)]
        {
            self.visits += u64::from(usize::BITS - self.index.len().leading_zeros());
        }
        let buckets = &self.buckets;
        let fits = self
            .index
            .partition_point(|&b| buckets[b as usize].count <= count);
        // A hole's entry still holds its dead bucket's count, but it is never
        // the answer: a lone slot whose new count stays between its neighbours
        // is re-counted in place, and a dead minimum's successor is where the
        // walk starts.
        debug_assert!(
            fits == 0 || (fits - 1) as u32 != self.hole,
            "lookup landed on a dead bucket"
        );
        let anchor = if fits == 0 { NIL } else { self.index[fits - 1] };
        (anchor, fits as u32)
    }

    /// Records in the bucket index (if built) that live bucket `b` is about to
    /// die: its entry becomes the hole. Must run before `b` leaves the list.
    #[inline]
    fn mark_death(&mut self, b: u32) {
        if self.index.is_empty() {
            return;
        }
        debug_assert_eq!(self.hole, NIL, "two bucket deaths in one operation");
        let bucket = self.buckets[b as usize];
        let pos = if bucket.prev == NIL {
            0
        } else if bucket.next == NIL {
            self.index.len() - 1
        } else {
            let buckets = &self.buckets;
            self.index
                .partition_point(|&x| buckets[x as usize].count < bucket.count)
        };
        debug_assert_eq!(self.index[pos], b, "bucket index out of step");
        self.hole = pos as u32;
    }

    /// Drops the hole's entry from the bucket index (a death with no birth).
    #[inline]
    fn close_hole(&mut self) {
        if self.hole != NIL {
            self.index.remove(self.hole as usize);
            self.hole = NIL;
        }
    }

    /// Where a bucket born with `count` after live bucket `anchor` (`NIL` = new
    /// first; `rank` as returned with it) lands in the bucket index once any hole
    /// is filled. Must run before the new node is allocated: the allocation may
    /// recycle the hole's node and overwrite the count a search relies on.
    #[inline]
    fn birth_position(&self, anchor: u32, rank: u32, count: u64) -> usize {
        if anchor == NIL {
            return 0;
        }
        let below = if rank != NIL {
            rank as usize
        } else if self.buckets[anchor as usize].next == NIL {
            self.index.len()
        } else {
            let buckets = &self.buckets;
            self.index
                .partition_point(|&b| buckets[b as usize].count < count)
        };
        below - usize::from(self.hole != NIL && (self.hole as usize) < below)
    }

    /// Puts bucket `b` at position `pos` of the bucket index: one rotate of the
    /// entries between the hole and `pos` when a bucket died in this operation,
    /// else an insertion.
    #[inline]
    fn place_birth(&mut self, pos: usize, b: u32) {
        if self.hole == NIL {
            self.index.insert(pos, b);
            return;
        }
        let hole = self.hole as usize;
        if pos < hole {
            self.index.copy_within(pos..hole, pos + 1);
        } else if pos > hole {
            self.index.copy_within(hole + 1..=pos, hole);
        }
        self.index[pos] = b;
        self.hole = NIL;
    }

    /// Links `slot` with `count` after bucket `anchor` (`NIL` = before `first`),
    /// joining the anchor bucket if its count matches, else splicing in a fresh
    /// bucket node. `rank` is the anchor's index rank from
    /// [`CountSummary::anchor`] (or `NIL`).
    #[inline]
    fn link_slot(&mut self, anchor: u32, rank: u32, slot: usize, count: u64) {
        let target = if anchor != NIL && self.buckets[anchor as usize].count == count {
            self.close_hole();
            anchor
        } else {
            let pos = (!self.index.is_empty()).then(|| self.birth_position(anchor, rank, count));
            let b = self.alloc_bucket();
            let next = if anchor == NIL {
                self.first
            } else {
                self.buckets[anchor as usize].next
            };
            self.buckets[b as usize] = Bucket {
                count,
                head: NIL,
                prev: anchor,
                next,
            };
            if anchor == NIL {
                self.first = b;
            } else {
                self.buckets[anchor as usize].next = b;
            }
            if next == NIL {
                self.last = b;
            } else {
                self.buckets[next as usize].prev = b;
            }
            if let Some(pos) = pos {
                self.place_birth(pos, b);
            }
            b
        };
        // Push the slot at the head of the bucket's member list (LIFO tie-break).
        let head = self.buckets[target as usize].head;
        self.slots[slot] = SlotLink {
            bucket: target,
            prev: NIL,
            next: head,
        };
        if head != NIL {
            self.slots[head as usize].prev = slot as u32;
        }
        self.buckets[target as usize].head = slot as u32;
    }

    /// Unlinks `slot` from bucket `b`, freeing the bucket if it empties. Returns
    /// the hint described in [`CountSummary::detach`].
    #[inline]
    fn unlink_slot(&mut self, b: u32, slot: usize) -> u32 {
        let SlotLink { prev, next, .. } = self.slots[slot];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.buckets[b as usize].head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
        self.slots[slot] = DETACHED;
        if self.buckets[b as usize].head != NIL {
            return b;
        }
        // Bucket emptied: splice it out of the ordered list and recycle the node.
        self.mark_death(b);
        let bprev = self.buckets[b as usize].prev;
        let bnext = self.buckets[b as usize].next;
        if bprev != NIL {
            self.buckets[bprev as usize].next = bnext;
        } else {
            self.first = bnext;
        }
        if bnext != NIL {
            self.buckets[bnext as usize].prev = bprev;
        } else {
            self.last = bprev;
        }
        self.free_bucket(b);
        bprev
    }

    /// Full structural validation: bucket counts strictly increasing along the
    /// list, all links mutually consistent, no empty live bucket, every attached
    /// slot reachable exactly once, the node pool conserved, and a built bucket
    /// index listing exactly the live buckets in list order.
    ///
    /// O(slots); intended for tests and debug assertions, not hot paths.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn validate(&self) {
        let mut seen_slots = vec![false; self.slots.len()];
        let mut seen_buckets = vec![false; self.buckets.len()];
        let mut total = 0usize;
        let mut prev_bucket = NIL;
        let mut prev_count: Option<u64> = None;
        let mut order = Vec::new();
        let mut b = self.first;
        while b != NIL {
            let bucket = &self.buckets[b as usize];
            order.push(b);
            assert!(
                !std::mem::replace(&mut seen_buckets[b as usize], true),
                "bucket {b} appears twice on the ordered list"
            );
            assert_eq!(
                bucket.prev, prev_bucket,
                "bucket {b} has a stale prev pointer"
            );
            if let Some(pc) = prev_count {
                assert!(
                    bucket.count > pc,
                    "bucket counts not strictly increasing ({pc} -> {})",
                    bucket.count
                );
            }
            assert_ne!(bucket.head, NIL, "live bucket {b} is empty");
            let mut member = bucket.head;
            let mut prev_member = NIL;
            while member != NIL {
                let s = member as usize;
                assert!(
                    !std::mem::replace(&mut seen_slots[s], true),
                    "slot {s} appears twice"
                );
                assert_eq!(
                    self.slots[s].bucket, b,
                    "slot {s} points at the wrong bucket"
                );
                assert_eq!(self.slots[s].prev, prev_member, "slot {s} has a stale prev");
                total += 1;
                prev_member = member;
                member = self.slots[s].next;
            }
            prev_count = Some(bucket.count);
            prev_bucket = b;
            b = bucket.next;
        }
        assert_eq!(self.last, prev_bucket, "stale last-bucket pointer");
        assert_eq!(self.hole, NIL, "bucket index hole left between operations");
        if !self.index.is_empty() {
            assert_eq!(self.index, order, "bucket index does not mirror the list");
        }
        assert_eq!(total, self.len, "len does not match attached slots");
        for (s, link) in self.slots.iter().enumerate() {
            assert_eq!(
                link.bucket != NIL,
                seen_slots[s],
                "slot {s} attachment flag inconsistent with list membership"
            );
        }
        let live = seen_buckets.iter().filter(|&&x| x).count();
        let mut free = 0usize;
        let mut f = self.free_head;
        while f != NIL {
            assert!(
                !seen_buckets[f as usize],
                "bucket {f} is both free and on the ordered list"
            );
            assert!(
                free <= self.buckets.len(),
                "free chain longer than the pool (cycle?)"
            );
            free += 1;
            f = self.buckets[f as usize].next;
        }
        assert_eq!(
            live + free,
            self.buckets.len(),
            "bucket node pool not conserved"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_default_is_summary() {
        // Unset (the usual test environment) or unrecognized values select the
        // summary engine; only an explicit "scan" opts out (CI runs suites
        // under both values, so read the variable rather than assuming unset).
        let expected = match std::env::var(EVICTION_ENV) {
            Ok(v) if v.trim().eq_ignore_ascii_case("scan") => EvictionEngine::Scan,
            _ => EvictionEngine::Summary,
        };
        assert_eq!(EvictionEngine::from_env(), expected);
        assert_eq!(EvictionEngine::default(), EvictionEngine::Summary);
        assert_eq!(EvictionEngine::Summary.label(), "summary");
        assert_eq!(EvictionEngine::Scan.to_string(), "scan");
    }

    #[test]
    fn attach_min_max_detach_roundtrip() {
        let mut s = CountSummary::new(8);
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        s.attach(3, 50);
        s.attach(1, 10);
        s.attach(5, 90);
        s.validate();
        assert_eq!(s.len(), 3);
        assert_eq!(s.min(), Some((1, 10)));
        assert_eq!(s.max(), Some((5, 90)));
        assert_eq!(s.count_of(3), Some(50));
        s.detach(1);
        s.validate();
        assert_eq!(s.min(), Some((3, 50)));
        s.detach(5);
        s.validate();
        assert_eq!(s.max(), Some((3, 50)));
        s.detach(3);
        assert!(s.is_empty());
        s.validate();
    }

    #[test]
    fn tied_counts_share_a_bucket() {
        let mut s = CountSummary::new(4);
        s.attach(0, 7);
        s.attach(1, 7);
        s.attach(2, 7);
        s.validate();
        // LIFO within the bucket: the most recent attach is at the head.
        assert_eq!(s.min(), Some((2, 7)));
        assert_eq!(s.max(), Some((2, 7)));
        s.detach(2);
        s.validate();
        assert_eq!(s.min(), Some((1, 7)));
    }

    #[test]
    fn set_count_moves_across_buckets_both_directions() {
        let mut s = CountSummary::new(4);
        s.attach(0, 10);
        s.attach(1, 20);
        s.attach(2, 30);
        s.set_count(0, 25); // up, between existing buckets
        s.validate();
        assert_eq!(s.min(), Some((1, 20)));
        s.set_count(2, 5); // down, below everything
        s.validate();
        assert_eq!(s.min(), Some((2, 5)));
        assert_eq!(s.max(), Some((0, 25)));
        s.set_count(2, 25); // join an existing bucket
        s.validate();
        assert_eq!(s.count_of(2), Some(25));
        assert_eq!(s.min(), Some((1, 20)));
    }

    #[test]
    fn in_place_recount_fast_path_keeps_ordering() {
        let mut s = CountSummary::new(4);
        s.attach(0, 10);
        s.attach(1, 20);
        s.attach(2, 40);
        // Slot 1 is alone in its bucket; 25 still fits between 10 and 40.
        s.set_count(1, 25);
        s.validate();
        assert_eq!(s.count_of(1), Some(25));
        assert_eq!(s.min(), Some((0, 10)));
        assert_eq!(s.max(), Some((2, 40)));
    }

    #[test]
    fn unit_increment_walks_to_adjacent_bucket() {
        let mut s = CountSummary::new(8);
        for slot in 0..8usize {
            s.attach(slot, slot as u64);
        }
        // Increment the min by one: it joins the next bucket (at its LIFO head).
        s.set_count(0, 1);
        s.validate();
        assert_eq!(s.min(), Some((0, 1)));
        assert_eq!(s.count_of(0), Some(1));
        s.detach(0);
        assert_eq!(s.min(), Some((1, 1)));
    }

    #[test]
    fn clear_recycles_everything() {
        let mut s = CountSummary::new(6);
        for slot in 0..6usize {
            s.attach(slot, (slot as u64) * 3);
        }
        s.clear();
        s.validate();
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        for slot in 0..6usize {
            assert!(!s.contains(slot));
            s.attach(slot, 100 - slot as u64);
        }
        s.validate();
        assert_eq!(s.min(), Some((5, 95)));
        assert_eq!(s.max(), Some((0, 100)));
    }

    #[test]
    fn evict_and_reinsert_churn_never_allocates_buckets_beyond_pool() {
        // The Space-Saving churn shape: evict the min, re-attach at a low count.
        let mut s = CountSummary::new(16);
        for slot in 0..16usize {
            s.attach(slot, slot as u64 * 2);
        }
        for round in 0..10_000u64 {
            let (slot, count) = s.min().unwrap();
            s.detach(slot);
            s.attach(slot, count + 3);
            if round % 512 == 0 {
                s.validate();
            }
        }
        s.validate();
        assert_eq!(s.len(), 16);
    }

    #[test]
    fn fractional_churn_lookups_stay_bounded() {
        // Graphene-shaped churn at ImPress-P resolution on a 448-entry table:
        // EACTs of 1 to 32 in 1/128 steps, decoy misses evicting a minimum at
        // or below the spillover count (else spilling), hot-row matches, and
        // threshold roll-backs. Nearly every count gets a bucket of its own, so
        // an uncapped walk crosses on the order of a hundred buckets per lookup.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const SLOTS: usize = 448;
        const THRESHOLD: u64 = 2_000 * 128;
        let mut rng = SmallRng::seed_from_u64(1);
        let mut s = CountSummary::new(SLOTS);
        let mut spillover = 0u64;
        for slot in 0..SLOTS {
            s.attach(slot, rng.gen_range(128..=4096u64));
        }
        for _ in 0..200_000u32 {
            let eact = rng.gen_range(128..=4096u64);
            if rng.gen_range(0..4u32) == 0 {
                let slot = rng.gen_range(0..32usize);
                let count = s.count_of(slot).unwrap() + eact;
                s.set_count(slot, if count >= THRESHOLD { spillover } else { count });
            } else {
                match s.min() {
                    Some((victim, min)) if min <= spillover => {
                        s.set_count(victim, spillover + eact);
                    }
                    _ => spillover += eact,
                }
            }
        }
        s.validate();
        assert!(!s.index.is_empty(), "the stream never took a long walk");
        let mean = s.visits as f64 / s.lookups as f64;
        assert!(mean <= 24.0, "{mean:.1} bucket visits per lookup");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "attached twice")]
    fn double_attach_is_rejected_in_debug() {
        let mut s = CountSummary::new(2);
        s.attach(0, 1);
        s.attach(0, 2);
    }
}
