//! Deterministic fault injection for the trace-ingestion path.
//!
//! Degraded-mode behaviour is only trustworthy if every degraded path is
//! reproducibly testable. This module wraps any [`TraceSource`] in a
//! [`FaultInjector`] that applies a [`FaultPlan`] — a seeded, fully explicit
//! list of byte- and frame-level faults — while the stream is being served:
//!
//! * **Bit flips** ([`FaultOp::FlipBit`]) — single-bit payload/header damage at
//!   an absolute byte offset.
//! * **Truncation / mid-frame EOF** ([`FaultOp::Truncate`]) — the stream ends
//!   early, possibly inside a frame.
//! * **Frame duplication** ([`FaultOp::RepeatRange`]) — a byte range (typically
//!   one frame) is emitted twice back to back.
//! * **Frame reordering** ([`FaultOp::DeferRange`]) — a byte range is withheld
//!   and re-emitted later, so a frame arrives after its successors.
//! * **Stalls** ([`FaultOp::Stall`]) — the source yields empty chunks before
//!   making progress, simulating a slow or bursty producer.
//!
//! [`FaultPlan::seeded`] derives a plan from a seed and a [`FrameMap`] of the
//! clean bytes, and [`FaultPlan::expected`] computes an oracle
//! ([`ExpectedImpact`]) that tests use to check the resync decoder's ledger
//! against ground truth: every record the plan damages must be covered by the
//! ledger's conservative `records_lost` bound.
//!
//! A second family of faults targets the *network* between a `trace send`
//! client and a socket daemon rather than the byte stream itself: a
//! [`ConnFaultPlan`] of [`ConnFaultOp`]s (disconnects, stalls, short writes,
//! duplicate delivery) drives a [`FaultTransport`] wrapping the real
//! [`WireLink`](crate::transport::WireLink). Because the transport protocol
//! dedups by offset and resumes from the server's acked position, a retrying
//! client must deliver the byte-identical stream despite any such plan; for a
//! non-retrying client, [`ConnFaultPlan::expected_no_retry`] reduces the first
//! connection cut to an equivalent [`FaultOp::Truncate`] oracle.
//!
//! A third family targets the *multi-tenant* daemon: a [`ChaosPlan`] assigns
//! each of N concurrent producers a [`ChaosRole`] (clean, flaky, slow-loris,
//! or hostile), and the scripted misbehaving producers
//! ([`run_hostile_producer`], [`run_slow_loris`], [`connect_flood`]) let
//! tests drive a daemon with connect floods, protocol violations, and
//! no-progress stalls while asserting that well-behaved tenants are
//! unaffected.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::codec::{FRAME_MAGIC, FRAME_RECORDS, RECORD_BYTES, TRACE_MAGIC};
use crate::source::{TraceSource, TransportEvent};
use crate::transport::{ClientLink, Endpoint, Handshake, ServerReply, WireLink, DATA_HEADER};

/// Byte layout of one frame region inside an encoded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpan {
    /// Absolute offset of the frame's `IMPC` magic.
    pub offset: u64,
    /// Total encoded length (header + payload + checksum).
    pub len: u64,
    /// Declared record count.
    pub records: u32,
}

impl FrameSpan {
    /// Absolute offset one past the frame's last byte.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Frame-boundary map of an encoded trace, scanned from clean bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameMap {
    /// Length of the stream header (everything before the first frame).
    pub header_len: u64,
    /// Frames in stream order.
    pub frames: Vec<FrameSpan>,
}

impl FrameMap {
    /// Scans a well-formed encoded trace for its frame boundaries.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the bytes are not a structurally valid trace
    /// (checksums are *not* verified — this is a layout scan, not a decode).
    pub fn scan(bytes: &[u8]) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        if bytes.len() < 10 || bytes[..4] != TRACE_MAGIC {
            return Err(bad("not an impress trace"));
        }
        let cores = bytes[8] as usize;
        let name_len = bytes[9] as usize;
        let header_len = 10 + name_len + cores * 8;
        if bytes.len() < header_len {
            return Err(bad("trace header truncated"));
        }
        let mut frames = Vec::new();
        let mut at = header_len;
        while at < bytes.len() {
            if bytes.len() - at < 8 || bytes[at..at + 4] != FRAME_MAGIC {
                return Err(bad("frame boundary scan lost sync"));
            }
            let records = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
            if records as usize > FRAME_RECORDS {
                return Err(bad("implausible frame record count"));
            }
            let len = 8 + records as usize * RECORD_BYTES + 8;
            if bytes.len() - at < len {
                return Err(bad("frame extends past end of stream"));
            }
            frames.push(FrameSpan {
                offset: at as u64,
                len: len as u64,
                records,
            });
            at += len;
        }
        Ok(Self {
            header_len: header_len as u64,
            frames,
        })
    }

    /// Total records declared across all frames.
    pub fn total_records(&self) -> u64 {
        self.frames.iter().map(|f| f.records as u64).sum()
    }
}

/// One injected fault, positioned in *input-stream* byte coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Flips bit `bit` (0–7) of the byte at absolute `offset`.
    FlipBit {
        /// Absolute byte offset in the clean stream.
        offset: u64,
        /// Bit index within the byte.
        bit: u8,
    },
    /// Ends the stream after `at` bytes have been emitted.
    Truncate {
        /// Absolute cut position in the clean stream.
        at: u64,
    },
    /// Emits the byte range `[start, end)` a second time immediately after its
    /// first emission (frame duplication when the range is one frame).
    RepeatRange {
        /// Range start (inclusive).
        start: u64,
        /// Range end (exclusive).
        end: u64,
    },
    /// Withholds `[start, end)` and emits it only once the input position
    /// reaches `until` (frame reordering when both are frame-aligned).
    DeferRange {
        /// Range start (inclusive).
        start: u64,
        /// Range end (exclusive).
        end: u64,
        /// Input position after which the captured range is released.
        until: u64,
    },
    /// Yields `polls` empty chunks once the input position reaches `at`.
    Stall {
        /// Position at which the stall begins.
        at: u64,
        /// Number of empty-chunk polls before progress resumes.
        polls: u32,
    },
}

/// A deterministic, seed-reproducible list of faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Faults to apply, in the order they were planned.
    pub ops: Vec<FaultOp>,
}

/// Ground-truth oracle for a seeded plan over a known [`FrameMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedImpact {
    /// Records a clean decode of the faulted stream would yield if no frame
    /// were damaged: original records, plus duplicated frames' records, minus
    /// frames removed entirely by truncation.
    pub baseline_records: u64,
    /// Records in emitted frame copies left fully intact — the resync decoder
    /// must recover exactly these.
    pub intact_records: u64,
    /// Records in emitted frame copies damaged by flips or a mid-frame cut —
    /// the ledger's `records_lost` must be at least this.
    pub damaged_records: u64,
    /// Records lost to a cut so early in a frame (inside its 8-byte header)
    /// that the declared count never reaches the decoder: only the `truncated`
    /// flag can report them, not `records_lost`.
    pub unaccounted_records: u64,
    /// Whether the plan cuts the stream inside a frame (the decoder must set
    /// its `truncated` flag; a frame-aligned cut is undetectable in-band).
    pub mid_frame_cut: bool,
}

impl FaultPlan {
    /// Derives a deterministic plan from `seed` over the frames of `map`.
    ///
    /// Every seed yields at least one fault. Range ops and truncation are kept
    /// mutually exclusive and frame-aligned so [`FaultPlan::expected`] can
    /// compute an exact oracle; bit flips land inside frame payloads.
    pub fn seeded(seed: u64, map: &FrameMap) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ops = Vec::new();
        let n = map.frames.len();
        if n == 0 {
            return Self { ops };
        }
        // Structural fault: duplicate or reorder one frame (not both, so the
        // oracle stays a simple per-frame-copy count).
        match rng.gen_range(0u32..4) {
            0 if n >= 1 => {
                let f = &map.frames[rng.gen_range(0..n)];
                ops.push(FaultOp::RepeatRange {
                    start: f.offset,
                    end: f.end(),
                });
            }
            1 if n >= 2 => {
                let i = rng.gen_range(0..n - 1);
                let f = &map.frames[i];
                ops.push(FaultOp::DeferRange {
                    start: f.offset,
                    end: f.end(),
                    until: map.frames[i + 1].end(),
                });
            }
            _ => {}
        }
        // Payload damage: flip bits in up to two distinct frames.
        for _ in 0..rng.gen_range(0u32..3) {
            let f = &map.frames[rng.gen_range(0..n)];
            let offset = rng.gen_range(f.offset..f.end());
            ops.push(FaultOp::FlipBit {
                offset,
                bit: rng.gen_range(0u64..8) as u8,
            });
        }
        // Stall somewhere in the middle.
        if rng.gen_bool(0.5) {
            let last = map.frames[n - 1].end();
            ops.push(FaultOp::Stall {
                at: rng.gen_range(0..last),
                polls: rng.gen_range(1u32..4),
            });
        }
        // Truncation (only when no range op is in play, so positions in input
        // coordinates equal positions in output coordinates).
        let structural = ops
            .iter()
            .any(|op| matches!(op, FaultOp::RepeatRange { .. } | FaultOp::DeferRange { .. }));
        if !structural && rng.gen_bool(0.5) {
            let f = &map.frames[rng.gen_range(0..n)];
            // Cut strictly inside the frame: mid-frame EOF.
            let at = rng.gen_range(f.offset + 1..f.end());
            ops.push(FaultOp::Truncate { at });
        }
        if ops.is_empty() {
            // Guarantee at least one fault per seed.
            let f = &map.frames[rng.gen_range(0..n)];
            ops.push(FaultOp::FlipBit {
                offset: rng.gen_range(f.offset..f.end()),
                bit: rng.gen_range(0u64..8) as u8,
            });
        }
        Self { ops }
    }

    /// Computes the ground-truth impact of this plan on the frames of `map`.
    ///
    /// Only defined for plans whose range ops are frame-aligned and that do not
    /// combine range ops with truncation (what [`FaultPlan::seeded`] emits);
    /// returns `None` for exotic hand-built plans.
    pub fn expected(&self, map: &FrameMap) -> Option<ExpectedImpact> {
        let mut copies: Vec<u64> = vec![1; map.frames.len()];
        let mut damaged: Vec<bool> = vec![false; map.frames.len()];
        let mut cut: Option<u64> = None;
        let mut structural = false;
        let frame_at = |offset: u64, end: u64| {
            map.frames
                .iter()
                .position(|f| f.offset == offset && f.end() == end)
        };
        for op in &self.ops {
            match *op {
                FaultOp::FlipBit { offset, .. } => {
                    let hit = map
                        .frames
                        .iter()
                        .position(|f| offset >= f.offset && offset < f.end())?;
                    damaged[hit] = true;
                }
                FaultOp::Truncate { at } => {
                    if cut.replace(at).is_some() {
                        return None; // one cut max
                    }
                }
                FaultOp::RepeatRange { start, end } => {
                    copies[frame_at(start, end)?] += 1; // emitted twice in total
                    structural = true;
                }
                FaultOp::DeferRange { start, end, until } => {
                    frame_at(start, end)?;
                    if !map.frames.iter().any(|f| f.end() == until) {
                        return None;
                    }
                    structural = true;
                }
                FaultOp::Stall { .. } => {}
            }
        }
        if structural && cut.is_some() {
            return None;
        }
        let mut baseline = 0u64;
        let mut intact = 0u64;
        let mut damaged_total = 0u64;
        let mut unaccounted = 0u64;
        let mut mid_frame_cut = false;
        for (i, f) in map.frames.iter().enumerate() {
            let (mut copies_present, mut frame_cut, mut count_lost) = (copies[i], false, false);
            if let Some(at) = cut {
                if at <= f.offset {
                    copies_present = 0; // frame removed entirely
                } else if at < f.end() {
                    frame_cut = true;
                    mid_frame_cut = true;
                    // A cut inside the 8-byte frame header destroys the
                    // declared count, so the decoder cannot bound the loss.
                    count_lost = at < f.offset + 8;
                }
            }
            let recs = f.records as u64 * copies_present;
            baseline += recs;
            if count_lost {
                unaccounted += recs;
            } else if damaged[i] || frame_cut {
                damaged_total += recs;
            } else {
                intact += recs;
            }
        }
        Some(ExpectedImpact {
            baseline_records: baseline,
            intact_records: intact,
            damaged_records: damaged_total,
            unaccounted_records: unaccounted,
            mid_frame_cut,
        })
    }

    /// True when the plan ends the stream early.
    pub fn truncates(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, FaultOp::Truncate { .. }))
    }
}

/// Pending re-emission of a captured byte range.
#[derive(Debug)]
struct Capture {
    bytes: Vec<u8>,
    start: u64,
    end: u64,
    emit_at: u64,
    /// Whether the range is also emitted inline as it streams past
    /// (duplication) or withheld until `emit_at` (reordering).
    inline: bool,
    released: bool,
}

/// A [`TraceSource`] adapter applying a [`FaultPlan`] to the wrapped stream.
///
/// All faults are applied deterministically by absolute input byte position, so
/// the corrupted output is identical regardless of how the inner source chunks
/// its bytes.
#[derive(Debug)]
pub struct FaultInjector<S: TraceSource> {
    inner: S,
    pos: u64,
    flips: Vec<(u64, u8)>,
    truncate_at: Option<u64>,
    stalls: Vec<(u64, u32)>,
    captures: Vec<Capture>,
    out: Vec<u8>,
    done: bool,
}

impl<S: TraceSource> FaultInjector<S> {
    /// Wraps `inner`, applying `plan` as bytes stream through.
    pub fn new(inner: S, plan: &FaultPlan) -> Self {
        let mut flips = Vec::new();
        let mut truncate_at = None;
        let mut stalls = Vec::new();
        let mut captures = Vec::new();
        for op in &plan.ops {
            match *op {
                FaultOp::FlipBit { offset, bit } => flips.push((offset, bit & 7)),
                FaultOp::Truncate { at } => {
                    truncate_at = Some(truncate_at.map_or(at, |t: u64| t.min(at)));
                }
                FaultOp::Stall { at, polls } => stalls.push((at, polls)),
                FaultOp::RepeatRange { start, end } => captures.push(Capture {
                    bytes: Vec::new(),
                    start,
                    end,
                    emit_at: end,
                    inline: true,
                    released: false,
                }),
                FaultOp::DeferRange { start, end, until } => captures.push(Capture {
                    bytes: Vec::new(),
                    start,
                    end,
                    emit_at: until.max(end),
                    inline: false,
                    released: false,
                }),
            }
        }
        flips.sort_unstable();
        stalls.sort_unstable();
        captures.sort_by_key(|c| c.emit_at);
        Self {
            inner,
            pos: 0,
            flips,
            truncate_at,
            stalls,
            captures,
            out: Vec::new(),
            done: false,
        }
    }

    /// Transforms one input chunk into `self.out`.
    fn transform(&mut self, chunk: &[u8]) {
        let mut chunk = chunk;
        if let Some(t) = self.truncate_at {
            let left = t.saturating_sub(self.pos) as usize;
            if chunk.len() >= left {
                chunk = &chunk[..left];
                self.done = true;
            }
        }
        let start = self.pos;
        let end = start + chunk.len() as u64;
        // Apply flips into a scratch copy only when one lands in this chunk.
        let mut scratch;
        let bytes: &[u8] = if self.flips.iter().any(|&(o, _)| o >= start && o < end) {
            scratch = chunk.to_vec();
            for &(o, bit) in &self.flips {
                if o >= start && o < end {
                    scratch[(o - start) as usize] ^= 1 << bit;
                }
            }
            &scratch[..]
        } else {
            chunk
        };
        // Route bytes into capture buffers (a capture's range always ends at or
        // before its emit position, so collecting up front is safe).
        for c in &mut self.captures {
            let lo = c.start.max(start).min(end);
            let hi = c.end.max(start).min(end);
            if lo < hi {
                c.bytes
                    .extend_from_slice(&bytes[(lo - start) as usize..(hi - start) as usize]);
            }
        }
        // Emit in segments split at capture emit positions, so a deferred range
        // re-enters the stream at its exact byte position even when that
        // position falls inside a chunk.
        while self.pos < end {
            let mut seg_end = end;
            for c in &self.captures {
                if !c.released && c.emit_at > self.pos && c.emit_at < seg_end {
                    seg_end = c.emit_at;
                }
            }
            let (seg_lo, seg_hi) = ((self.pos - start) as usize, (seg_end - start) as usize);
            for (i, &b) in bytes[seg_lo..seg_hi].iter().enumerate() {
                let at = start + (seg_lo + i) as u64;
                let suppressed = self
                    .captures
                    .iter()
                    .any(|c| !c.inline && at >= c.start && at < c.end);
                if !suppressed {
                    self.out.push(b);
                }
            }
            self.pos = seg_end;
            self.release_captures();
        }
        self.pos = end;
        self.release_captures();
    }

    /// Appends any captures whose emit position has been reached.
    fn release_captures(&mut self) {
        for i in 0..self.captures.len() {
            if !self.captures[i].released
                && self.pos >= self.captures[i].emit_at
                && self.captures[i].bytes.len() as u64
                    == self.captures[i].end - self.captures[i].start
            {
                self.captures[i].released = true;
                let bytes = std::mem::take(&mut self.captures[i].bytes);
                self.out.extend_from_slice(&bytes);
            }
        }
    }
}

impl<S: TraceSource> TraceSource for FaultInjector<S> {
    fn next_chunk(&mut self) -> io::Result<Option<&[u8]>> {
        self.out.clear();
        // Serve a pending stall with an empty (but not end-of-stream) chunk.
        if let Some(s) = self.stalls.iter_mut().find(|s| s.0 <= self.pos && s.1 > 0) {
            s.1 -= 1;
            return Ok(Some(&[]));
        }
        if self.done {
            return Ok(None);
        }
        match self.inner.next_chunk()? {
            Some(chunk) => {
                // Borrow dance: copy out of the inner borrow before self-mutation.
                let owned = chunk.to_vec();
                self.transform(&owned);
            }
            None => {
                self.done = true;
                // End of stream releases any still-pending full captures.
                self.release_captures();
            }
        }
        if self.out.is_empty() && self.done {
            return Ok(None);
        }
        Ok(Some(&self.out))
    }

    fn take_transport_events(&mut self) -> Vec<TransportEvent> {
        self.inner.take_transport_events()
    }
}

/// Applies `plan` to an in-memory trace, returning the corrupted bytes.
///
/// Convenience wrapper running a [`FaultInjector`] over a
/// [`SliceSource`](crate::source::SliceSource) — the exact code path the
/// streaming adapter uses, so tests and CLI tooling corrupt identically.
///
/// # Errors
///
/// Propagates I/O errors from the source (none for in-memory input).
pub fn apply_plan(bytes: &[u8], plan: &FaultPlan) -> io::Result<Vec<u8>> {
    let mut injector = FaultInjector::new(crate::source::SliceSource::new(bytes), plan);
    let mut out = Vec::with_capacity(bytes.len());
    while let Some(chunk) = injector.next_chunk()? {
        out.extend_from_slice(chunk);
    }
    Ok(out)
}

/// One injected connection-level fault, positioned in *payload* byte
/// coordinates (absolute offsets into the trace stream being sent, not wire
/// bytes). Each op fires at most once — on the first DATA frame whose payload
/// range covers `at` — and the fired state persists across reconnects, so a
/// retrying client faces each fault exactly once per plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFaultOp {
    /// Drops the connection before the covering frame is sent.
    Disconnect {
        /// Payload offset at which the connection dies.
        at: u64,
    },
    /// Sleeps `millis` before sending the covering frame (the connection
    /// survives; the server sees a quiet producer).
    StallConn {
        /// Payload offset at which the stall occurs.
        at: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Writes only the first `keep` wire bytes of the covering frame, then
    /// drops the connection — the server discards the incomplete frame.
    ShortWrite {
        /// Payload offset of the victim frame.
        at: u64,
        /// Wire bytes to emit before cutting (clamped below the frame length).
        keep: u32,
    },
    /// Sends the covering frame twice back to back; the server's
    /// dedup-by-offset must drop the second copy.
    DuplicateTail {
        /// Payload offset of the duplicated frame.
        at: u64,
    },
}

impl ConnFaultOp {
    /// Payload offset at which this op fires.
    pub fn at(&self) -> u64 {
        match *self {
            ConnFaultOp::Disconnect { at }
            | ConnFaultOp::StallConn { at, .. }
            | ConnFaultOp::ShortWrite { at, .. }
            | ConnFaultOp::DuplicateTail { at } => at,
        }
    }

    /// True when the op severs the connection (disconnect or short write).
    pub fn cuts(&self) -> bool {
        matches!(
            self,
            ConnFaultOp::Disconnect { .. } | ConnFaultOp::ShortWrite { .. }
        )
    }
}

/// A deterministic, seed-reproducible list of connection faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConnFaultPlan {
    /// Connection faults, in the order they were planned.
    pub ops: Vec<ConnFaultOp>,
}

impl ConnFaultPlan {
    /// Derives a deterministic plan from `seed` for a stream of `payload_len`
    /// bytes. Every seed yields at least one op; cut positions land past the
    /// first kilobyte (when the stream allows) so the trace header normally
    /// survives, and stalls stay short enough for test-scale idle budgets.
    pub fn seeded(seed: u64, payload_len: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let lo = 1024.min(payload_len.saturating_sub(1)).max(1);
        let hi = payload_len.max(lo + 1);
        let mut ops = Vec::new();
        if rng.gen_bool(0.6) {
            ops.push(ConnFaultOp::DuplicateTail {
                at: rng.gen_range(lo..hi),
            });
        }
        if rng.gen_bool(0.4) {
            ops.push(ConnFaultOp::StallConn {
                at: rng.gen_range(lo..hi),
                millis: rng.gen_range(1..25),
            });
        }
        for _ in 0..rng.gen_range(0u32..3) {
            let at = rng.gen_range(lo..hi);
            if rng.gen_bool(0.5) {
                ops.push(ConnFaultOp::Disconnect { at });
            } else {
                ops.push(ConnFaultOp::ShortWrite {
                    at,
                    keep: rng.gen_range(1..64),
                });
            }
        }
        if ops.is_empty() {
            ops.push(ConnFaultOp::Disconnect {
                at: rng.gen_range(lo..hi),
            });
        }
        Self { ops }
    }

    /// Payload offset of the earliest connection cut, if any op severs the
    /// stream.
    pub fn first_cut(&self) -> Option<u64> {
        self.ops
            .iter()
            .filter(|op| op.cuts())
            .map(|op| op.at())
            .min()
    }

    /// Exact byte prefix a *non-retrying* client delivers when the sender
    /// chunks the stream into `data_bytes`-sized frames from offset zero: the
    /// frame covering the first cut is never committed, so delivery stops at
    /// the preceding frame boundary. `None` means the plan never cuts and the
    /// whole stream arrives.
    pub fn delivered_prefix(&self, data_bytes: usize) -> Option<u64> {
        self.first_cut()
            .map(|cut| cut / data_bytes as u64 * data_bytes as u64)
    }

    /// Ground-truth decode impact for a non-retrying client: the first cut is
    /// equivalent to truncating the trace at the delivered-prefix boundary,
    /// so the on-disk truncation oracle applies verbatim. Without a cut the
    /// full stream arrives (dedup absorbs duplicates; stalls are invisible).
    pub fn expected_no_retry(&self, map: &FrameMap, data_bytes: usize) -> Option<ExpectedImpact> {
        let plan = match self.delivered_prefix(data_bytes) {
            Some(at) => FaultPlan {
                ops: vec![FaultOp::Truncate { at }],
            },
            None => FaultPlan::default(),
        };
        plan.expected(map)
    }
}

/// Fired-state for a [`ConnFaultPlan`], shared across every connection a
/// retrying client dials so each op fires exactly once per plan.
#[derive(Debug)]
pub struct ConnFaultState {
    ops: Vec<(ConnFaultOp, bool)>,
}

impl ConnFaultState {
    /// Builds fresh (nothing fired) state for `plan`.
    pub fn new(plan: &ConnFaultPlan) -> Self {
        Self {
            ops: plan.ops.iter().map(|&op| (op, false)).collect(),
        }
    }

    /// Builds shared state suitable for handing to every [`FaultTransport`]
    /// dialed over the plan's lifetime.
    pub fn shared(plan: &ConnFaultPlan) -> Arc<Mutex<Self>> {
        Arc::new(Mutex::new(Self::new(plan)))
    }

    /// True once every planned op has fired.
    pub fn all_fired(&self) -> bool {
        self.ops.iter().all(|&(_, fired)| fired)
    }

    /// Number of cut ops that have fired so far (each costs one session).
    pub fn cuts_fired(&self) -> usize {
        self.ops
            .iter()
            .filter(|&&(op, fired)| fired && op.cuts())
            .count()
    }
}

/// What `FaultTransport::send_data` decided to do with the current frame.
enum CutAction {
    None,
    Disconnect,
    Short(u32),
}

/// A [`ClientLink`] wrapper injecting a [`ConnFaultPlan`] into a live
/// [`WireLink`]. Ops fire when the DATA frame covering their payload offset is
/// about to be sent; once a cut fires the wrapper reports the connection dead
/// until the client dials a fresh transport (sharing the same
/// [`ConnFaultState`], so already-fired ops stay spent).
#[derive(Debug)]
pub struct FaultTransport {
    inner: WireLink,
    state: Arc<Mutex<ConnFaultState>>,
    dead: bool,
}

impl FaultTransport {
    /// Wraps `inner`, injecting faults from the shared `state`.
    pub fn new(inner: WireLink, state: Arc<Mutex<ConnFaultState>>) -> Self {
        Self {
            inner,
            state,
            dead: false,
        }
    }

    fn dead_err() -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            "injected fault severed the connection",
        )
    }

    /// Decides stall/cut/duplicate actions for the frame `[offset,
    /// offset+len)`, marking chosen ops fired. Ops are considered in payload
    /// order; everything after a chosen cut is left unfired so it can fire in
    /// the next session after the client resumes.
    fn plan_frame(&mut self, offset: u64, len: u64) -> (u64, CutAction, bool) {
        let mut st = self.state.lock().expect("fault state poisoned");
        let mut idx: Vec<usize> = (0..st.ops.len())
            .filter(|&i| {
                let (op, fired) = st.ops[i];
                !fired && op.at() >= offset && op.at() < offset + len
            })
            .collect();
        idx.sort_by_key(|&i| st.ops[i].0.at());
        let mut stall_ms = 0u64;
        let mut cut = CutAction::None;
        let mut duplicate = false;
        for i in idx {
            match st.ops[i].0 {
                ConnFaultOp::StallConn { millis, .. } => {
                    st.ops[i].1 = true;
                    stall_ms += millis;
                }
                ConnFaultOp::DuplicateTail { .. } => {
                    st.ops[i].1 = true;
                    duplicate = true;
                }
                ConnFaultOp::Disconnect { .. } => {
                    st.ops[i].1 = true;
                    cut = CutAction::Disconnect;
                    break;
                }
                ConnFaultOp::ShortWrite { keep, .. } => {
                    st.ops[i].1 = true;
                    cut = CutAction::Short(keep);
                    break;
                }
            }
        }
        (stall_ms, cut, duplicate)
    }
}

impl ClientLink for FaultTransport {
    fn handshake(
        &mut self,
        start_offset: u64,
        tenant: u64,
        timeout: Duration,
    ) -> io::Result<Handshake> {
        if self.dead {
            return Err(Self::dead_err());
        }
        self.inner.handshake(start_offset, tenant, timeout)
    }

    fn send_data(&mut self, offset: u64, payload: &[u8]) -> io::Result<()> {
        if self.dead {
            return Err(Self::dead_err());
        }
        let (stall_ms, cut, duplicate) = self.plan_frame(offset, payload.len() as u64);
        if stall_ms > 0 {
            std::thread::sleep(Duration::from_millis(stall_ms));
        }
        match cut {
            CutAction::Disconnect => {
                self.dead = true;
                // Sever without resetting: frames written before the cut
                // must still reach the server, or the delivered-prefix
                // oracle would be racy instead of exact.
                self.inner.sever();
                Err(Self::dead_err())
            }
            CutAction::Short(keep) => {
                self.dead = true;
                // Keep strictly less than the full frame so the server never
                // commits the victim — the delivered-prefix oracle depends on
                // the cut frame being discarded.
                let keep = (keep as usize).min(DATA_HEADER + payload.len() - 1);
                self.inner.send_data_prefix(offset, payload, keep)
            }
            CutAction::None => {
                self.inner.send_data(offset, payload)?;
                if duplicate {
                    self.inner.send_data(offset, payload)?;
                }
                Ok(())
            }
        }
    }

    fn send_heartbeat(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(Self::dead_err());
        }
        self.inner.send_heartbeat()
    }

    fn send_fin(&mut self, total: u64) -> io::Result<()> {
        if self.dead {
            return Err(Self::dead_err());
        }
        self.inner.send_fin(total)
    }

    fn recv_reply(&mut self, wait: Option<Duration>) -> io::Result<Option<ServerReply>> {
        if self.dead {
            return Err(Self::dead_err());
        }
        self.inner.recv_reply(wait)
    }
}

/// Role a producer plays in a multi-client chaos plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosRole {
    /// Streams its payload cleanly with retry enabled.
    Clean,
    /// Streams through a seeded [`ConnFaultPlan`] (disconnects, stalls,
    /// short writes, duplicate delivery) with retry — flaky but honest, so
    /// its bytes must still arrive intact.
    Flaky {
        /// Seed for [`ConnFaultPlan::seeded`].
        seed: u64,
    },
    /// Opens sessions that start a DATA frame and never finish it, holding
    /// the connection without progress until the server stall-evicts it.
    SlowLoris,
    /// Violates the protocol (offset-gap DATA frames) on every session until
    /// the server quarantines the tenant.
    Hostile {
        /// Seed controlling the violation gap sizes.
        seed: u64,
    },
}

/// A deterministic multi-client chaos plan: one [`ChaosRole`] per concurrent
/// producer — the one-hostile-among-N isolation scenario. Seeded plans mix
/// clean and flaky producers around exactly one hostile client; slow-loris
/// roles are assigned by hand because their eviction time is the server's
/// stall budget, which a test wants to pick explicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Role per producer, in spawn order.
    pub roles: Vec<ChaosRole>,
}

impl ChaosPlan {
    /// Derives a deterministic plan for `clients` producers: with two or
    /// more clients, exactly one is hostile and at least one stays strictly
    /// clean, the rest splitting between clean and flaky by seed. A single
    /// client is always clean.
    pub fn seeded(seed: u64, clients: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut roles = vec![ChaosRole::Clean; clients];
        if clients >= 2 {
            let hostile = rng.gen_range(0..clients);
            for (i, role) in roles.iter_mut().enumerate() {
                if i == hostile {
                    *role = ChaosRole::Hostile {
                        seed: rng.gen_range(0..u64::MAX),
                    };
                } else if rng.gen_bool(0.5) {
                    *role = ChaosRole::Flaky {
                        seed: rng.gen_range(0..u64::MAX),
                    };
                }
            }
            if !roles.contains(&ChaosRole::Clean) {
                roles[(hostile + 1) % clients] = ChaosRole::Clean;
            }
        }
        Self { roles }
    }

    /// Number of hostile roles in the plan.
    pub fn hostiles(&self) -> usize {
        self.roles
            .iter()
            .filter(|r| matches!(r, ChaosRole::Hostile { .. }))
            .count()
    }
}

/// What a scripted misbehaving producer ([`run_hostile_producer`],
/// [`run_slow_loris`]) observed from the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosOutcome {
    /// Tenant token the server assigned (0 if no session was ever admitted).
    pub tenant: u64,
    /// Sessions the server admitted before banning the tenant or the
    /// session budget ran out.
    pub sessions: u64,
    /// Whether a reconnect was refused permanently (quarantined reply).
    pub quarantined: bool,
    /// Clean payload bytes believed delivered before hostilities began
    /// (hostile producers only; always 0 for a slow loris).
    pub delivered: u64,
}

/// Reads replies until the server severs the connection or `budget` elapses.
fn wait_for_cut(link: &mut WireLink, budget: Duration) {
    let deadline = Instant::now() + budget;
    loop {
        match link.recv_reply(Some(Duration::from_millis(20))) {
            Ok(Some(_)) => {}
            Ok(None) if Instant::now() >= deadline => return,
            Ok(None) => {}
            Err(_) => return,
        }
    }
}

/// Drives one hostile producer against a live daemon: each admitted session
/// first streams any not-yet-committed part of `prefix` honestly, then sends
/// a DATA frame whose offset gaps past everything committed — a protocol
/// violation the server must answer by cutting the session. The producer
/// reconnects with its assigned tenant token until the server bans it
/// outright (quarantine) or `max_sessions` sessions have been spent.
///
/// # Errors
///
/// Returns an error only when the endpoint never accepts a connection;
/// violation-triggered cuts are the expected outcome, not errors.
pub fn run_hostile_producer(
    endpoint: &Endpoint,
    seed: u64,
    prefix: &[u8],
    max_sessions: u64,
) -> io::Result<ChaosOutcome> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = ChaosOutcome::default();
    let mut setbacks = 0u32;
    while out.sessions < max_sessions {
        let dialed = match dial_as(endpoint, &mut out, &mut setbacks)? {
            Some(d) => d,
            None => return Ok(out), // quarantined or out of patience
        };
        let Dialed { mut link, hs } = dialed;
        out.tenant = hs.tenant;
        out.sessions += 1;
        let mut at = hs.resume_offset;
        while (at as usize) < prefix.len() {
            let end = prefix.len().min(at as usize + 1024);
            if link.send_data(at, &prefix[at as usize..end]).is_err() {
                break;
            }
            at = end as u64;
        }
        out.delivered = out.delivered.max(at);
        let gap = rng.gen_range(1u64..4096);
        let _ = link.send_data(at + gap, &[0xA5u8; 64]);
        wait_for_cut(&mut link, Duration::from_secs(5));
    }
    Ok(out)
}

/// Drives one slow-loris producer: each admitted session performs a valid
/// handshake, writes the header and first byte of a DATA frame it never
/// finishes, then holds the connection open without progress — the server's
/// stall budget must evict it. The producer reconnects with its assigned
/// token until the server bans the tenant or `max_sessions` sessions have
/// been spent, holding each session at most `hold` past admission.
///
/// # Errors
///
/// Returns an error only when the endpoint never accepts a connection;
/// stall evictions are the expected outcome, not errors.
pub fn run_slow_loris(
    endpoint: &Endpoint,
    max_sessions: u64,
    hold: Duration,
) -> io::Result<ChaosOutcome> {
    let mut out = ChaosOutcome::default();
    let mut setbacks = 0u32;
    while out.sessions < max_sessions {
        let dialed = match dial_as(endpoint, &mut out, &mut setbacks)? {
            Some(d) => d,
            None => return Ok(out),
        };
        let Dialed { mut link, hs } = dialed;
        out.tenant = hs.tenant;
        out.sessions += 1;
        // Start a 4 KiB frame, deliver exactly one payload byte of it, and
        // hold the connection open: the session stays live, commit progress
        // does not — until the server's stall eviction cuts it.
        let payload = [0x5Au8; 4096];
        let _ = link.send_data_stall(hs.resume_offset, &payload, DATA_HEADER + 1);
        wait_for_cut(&mut link, hold);
    }
    Ok(out)
}

/// One admitted connection plus its handshake.
struct Dialed {
    link: WireLink,
    hs: Handshake,
}

/// Dials and handshakes one session for a misbehaving producer, reusing the
/// tenant token in `out`. `Ok(None)` means stop: the tenant was quarantined
/// (recorded in `out`) or transient setbacks exhausted the retry budget.
fn dial_as(
    endpoint: &Endpoint,
    out: &mut ChaosOutcome,
    setbacks: &mut u32,
) -> io::Result<Option<Dialed>> {
    loop {
        let mut link = match WireLink::connect(endpoint) {
            Ok(link) => link,
            Err(e) => {
                *setbacks += 1;
                if *setbacks > 200 {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        match link.handshake(out.delivered, out.tenant, Duration::from_secs(5)) {
            Ok(hs) => return Ok(Some(Dialed { link, hs })),
            Err(e) if e.kind() == io::ErrorKind::PermissionDenied => {
                out.quarantined = true;
                return Ok(None);
            }
            Err(_) => {
                // Busy (admission reject) or a transient cut: back off briefly.
                *setbacks += 1;
                if *setbacks > 200 {
                    return Ok(None);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Classification of a burst of raw connection attempts against a daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FloodReport {
    /// Sessions the server admitted (each closed again with a clean
    /// zero-byte FIN so it never lingers as an idle tenant).
    pub admitted: u64,
    /// Sessions the server refused with the typed busy reply.
    pub busy: u64,
    /// Attempts that failed any other way (connect error, timeout, cut).
    pub failed: u64,
}

/// Connect-flood helper: dials `count` connections up front so they all sit
/// in the daemon's accept/pending queue at once, then completes each
/// handshake and classifies the reply. Admitted sessions are closed with a
/// zero-byte FIN.
pub fn connect_flood(endpoint: &Endpoint, count: usize, timeout: Duration) -> FloodReport {
    let mut report = FloodReport::default();
    let mut links = Vec::new();
    for _ in 0..count {
        match WireLink::connect(endpoint) {
            Ok(link) => links.push(link),
            Err(_) => report.failed += 1,
        }
    }
    for mut link in links {
        match link.handshake(0, 0, timeout) {
            Ok(_) => {
                report.admitted += 1;
                let _ = link.send_fin(0);
                let _ = link.recv_reply(Some(timeout));
            }
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => report.busy += 1,
            Err(_) => report.failed += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{DecodeMode, TraceMeta, TraceReader, TraceRecord, TraceWriter};
    use crate::source::SliceSource;

    fn sample_trace(n: usize) -> Vec<u8> {
        let meta = TraceMeta {
            name: "faulty".to_string(),
            cores: 1,
            has_gaps: false,
            instructions_per_miss: vec![50.0],
        };
        let mut w = TraceWriter::new(Vec::new(), &meta).unwrap();
        for i in 0..n {
            w.push(TraceRecord {
                address: (i as u64) * 64,
                gap: 0,
                core: 0,
                is_write: false,
            })
            .unwrap();
        }
        w.finish().unwrap()
    }

    fn resync_decode(bytes: &[u8]) -> (u64, u64, bool) {
        let mut r =
            TraceReader::with_mode(SliceSource::with_chunk_size(bytes, 97), DecodeMode::Resync)
                .unwrap();
        let records = r.read_all().unwrap().len() as u64;
        (records, r.records_lost(), r.truncated())
    }

    #[test]
    fn frame_map_matches_writer_layout() {
        let bytes = sample_trace(FRAME_RECORDS + 7);
        let map = FrameMap::scan(&bytes).unwrap();
        assert_eq!(map.frames.len(), 2);
        assert_eq!(map.frames[0].records as usize, FRAME_RECORDS);
        assert_eq!(map.frames[1].records, 7);
        assert_eq!(map.total_records(), FRAME_RECORDS as u64 + 7);
        assert_eq!(map.frames[1].end(), bytes.len() as u64);
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let bytes = sample_trace(FRAME_RECORDS + 7);
        let map = FrameMap::scan(&bytes).unwrap();
        for seed in 0..32 {
            let a = FaultPlan::seeded(seed, &map);
            let b = FaultPlan::seeded(seed, &map);
            assert_eq!(a, b);
            assert!(!a.ops.is_empty());
            assert_eq!(
                apply_plan(&bytes, &a).unwrap(),
                apply_plan(&bytes, &b).unwrap()
            );
        }
    }

    #[test]
    fn injector_is_chunking_invariant() {
        let bytes = sample_trace(2 * FRAME_RECORDS + 11);
        let map = FrameMap::scan(&bytes).unwrap();
        let plan = FaultPlan::seeded(42, &map);
        let whole = apply_plan(&bytes, &plan).unwrap();
        for chunk in [1usize, 7, 64, 100_000] {
            let mut inj = FaultInjector::new(SliceSource::with_chunk_size(&bytes, chunk), &plan);
            let mut out = Vec::new();
            while let Some(c) = inj.next_chunk().unwrap() {
                out.extend_from_slice(c);
            }
            assert_eq!(out, whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn flip_bit_damages_exactly_one_frame() {
        let bytes = sample_trace(FRAME_RECORDS + 11);
        let map = FrameMap::scan(&bytes).unwrap();
        let f = &map.frames[0];
        let plan = FaultPlan {
            ops: vec![FaultOp::FlipBit {
                offset: f.offset + 100,
                bit: 3,
            }],
        };
        let corrupted = apply_plan(&bytes, &plan).unwrap();
        let (recovered, lost, truncated) = resync_decode(&corrupted);
        let expect = plan.expected(&map).unwrap();
        assert_eq!(recovered, expect.intact_records);
        assert!(lost >= expect.damaged_records);
        assert!(!truncated);
    }

    #[test]
    fn repeat_range_duplicates_a_frame() {
        let bytes = sample_trace(FRAME_RECORDS + 11);
        let map = FrameMap::scan(&bytes).unwrap();
        let f = map.frames[1];
        let plan = FaultPlan {
            ops: vec![FaultOp::RepeatRange {
                start: f.offset,
                end: f.end(),
            }],
        };
        let corrupted = apply_plan(&bytes, &plan).unwrap();
        let (recovered, lost, _) = resync_decode(&corrupted);
        let expect = plan.expected(&map).unwrap();
        assert_eq!(expect.baseline_records, map.total_records() + 11);
        assert_eq!(recovered, expect.intact_records);
        assert_eq!(lost, 0);
    }

    #[test]
    fn defer_range_reorders_frames() {
        let bytes = sample_trace(2 * FRAME_RECORDS);
        let map = FrameMap::scan(&bytes).unwrap();
        let (a, b) = (map.frames[0], map.frames[1]);
        let plan = FaultPlan {
            ops: vec![FaultOp::DeferRange {
                start: a.offset,
                end: a.end(),
                until: b.end(),
            }],
        };
        let corrupted = apply_plan(&bytes, &plan).unwrap();
        // Same bytes, different frame order: frame B then frame A.
        assert_eq!(corrupted.len(), bytes.len());
        let (recovered, lost, truncated) = resync_decode(&corrupted);
        assert_eq!(recovered, 2 * FRAME_RECORDS as u64);
        assert_eq!(lost, 0);
        assert!(!truncated);
    }

    #[test]
    fn truncate_mid_frame_sets_the_flag() {
        let bytes = sample_trace(FRAME_RECORDS + 11);
        let map = FrameMap::scan(&bytes).unwrap();
        let plan = FaultPlan {
            ops: vec![FaultOp::Truncate {
                at: map.frames[1].offset + 20,
            }],
        };
        let corrupted = apply_plan(&bytes, &plan).unwrap();
        assert_eq!(corrupted.len() as u64, map.frames[1].offset + 20);
        let (recovered, _, truncated) = resync_decode(&corrupted);
        let expect = plan.expected(&map).unwrap();
        assert!(expect.mid_frame_cut);
        assert_eq!(recovered, expect.intact_records);
        assert!(truncated);
    }

    #[test]
    fn stalls_do_not_change_the_bytes() {
        let bytes = sample_trace(FRAME_RECORDS);
        let plan = FaultPlan {
            ops: vec![FaultOp::Stall { at: 100, polls: 3 }],
        };
        assert_eq!(apply_plan(&bytes, &plan).unwrap(), bytes);
    }

    #[test]
    fn every_seeded_plan_satisfies_its_oracle() {
        let bytes = sample_trace(3 * FRAME_RECORDS + 500);
        let map = FrameMap::scan(&bytes).unwrap();
        for seed in 0..64u64 {
            let plan = FaultPlan::seeded(seed, &map);
            let expect = plan
                .expected(&map)
                .expect("seeded plans always have an oracle");
            let corrupted = apply_plan(&bytes, &plan).unwrap();
            let (recovered, lost, truncated) = resync_decode(&corrupted);
            assert_eq!(
                expect.intact_records + expect.damaged_records + expect.unaccounted_records,
                expect.baseline_records,
                "seed {seed}: oracle buckets must partition the baseline"
            );
            assert_eq!(
                recovered, expect.intact_records,
                "seed {seed}: intact frames must decode"
            );
            assert!(
                lost >= expect.damaged_records,
                "seed {seed}: ledger bound {lost} under-counts {}",
                expect.damaged_records
            );
            if expect.mid_frame_cut {
                assert!(truncated, "seed {seed}: mid-frame cut must set the flag");
            }
        }
    }

    // --- connection-level faults ---

    use crate::transport::tests::{serve_until_done, TestSink};
    use crate::transport::{
        send_stream, Endpoint, Listener, MemInput, SendOptions, SocketTuning, TenantLimits,
        TenantServer, WireLink,
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;
    use std::time::Duration;

    fn fast_policy() -> crate::source::FollowPolicy {
        crate::source::FollowPolicy {
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
            idle_limit: Duration::from_secs(2),
        }
    }

    /// Spawns a loopback TCP server draining every canonical byte, returning
    /// the bound endpoint, the server's drain flag and the collector handle.
    /// Raising the flag once the producer's FIN is acked ends the server at
    /// once; left down, the server ends after `idle` without traffic.
    fn byte_server(idle: Duration) -> (Endpoint, &'static AtomicBool, thread::JoinHandle<Vec<u8>>) {
        let drain: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).unwrap();
        let endpoint = listener.local_endpoint().unwrap();
        let policy = crate::source::FollowPolicy {
            idle_limit: idle,
            ..fast_policy()
        };
        let server = TenantServer::new(
            listener,
            policy,
            TenantLimits {
                max_clients: 1,
                ..TenantLimits::default()
            },
        )
        .with_tuning(SocketTuning {
            ack_every: 1024,
            ..SocketTuning::default()
        })
        .with_drain_flag(drain);
        let handle = thread::spawn(move || {
            let mut sink = serve_until_done(server, TestSink::default());
            sink.data.remove(&1).unwrap_or_default()
        });
        (endpoint, drain, handle)
    }

    #[test]
    fn chaos_plans_have_one_hostile_and_one_clean() {
        for seed in 0..32u64 {
            let plan = ChaosPlan::seeded(seed, 6);
            assert_eq!(plan, ChaosPlan::seeded(seed, 6), "seed {seed}");
            assert_eq!(plan.roles.len(), 6);
            assert_eq!(plan.hostiles(), 1, "seed {seed}: exactly one hostile");
            assert!(
                plan.roles.contains(&ChaosRole::Clean),
                "seed {seed}: at least one strictly clean producer"
            );
        }
        assert_eq!(ChaosPlan::seeded(9, 1).roles, vec![ChaosRole::Clean]);
        assert_eq!(ChaosPlan::seeded(9, 0).roles, Vec::<ChaosRole>::new());
    }

    #[test]
    fn conn_plans_are_reproducible_and_nonempty() {
        for seed in 0..32u64 {
            let a = ConnFaultPlan::seeded(seed, 100_000);
            let b = ConnFaultPlan::seeded(seed, 100_000);
            assert_eq!(a, b);
            assert!(!a.ops.is_empty());
            for op in &a.ops {
                assert!(op.at() < 100_000);
                assert!(op.at() >= 1024);
            }
        }
        // Tiny payloads must still yield valid positions.
        let tiny = ConnFaultPlan::seeded(7, 10);
        assert!(tiny.ops.iter().all(|op| op.at() < 10));
    }

    #[test]
    fn no_retry_oracle_buckets_partition_baseline() {
        let bytes = sample_trace(2 * FRAME_RECORDS + 300);
        let map = FrameMap::scan(&bytes).unwrap();
        for seed in 0..64u64 {
            let plan = ConnFaultPlan::seeded(seed, bytes.len() as u64);
            let expect = plan
                .expected_no_retry(&map, 1024)
                .expect("single-truncation oracle always applies");
            assert_eq!(
                expect.intact_records + expect.damaged_records + expect.unaccounted_records,
                expect.baseline_records,
                "seed {seed}: oracle buckets must partition the baseline"
            );
            if let Some(prefix) = plan.delivered_prefix(1024) {
                assert_eq!(prefix % 1024, 0, "prefix must land on a frame boundary");
                assert!(prefix <= plan.first_cut().unwrap());
            } else {
                assert_eq!(expect.intact_records, map.total_records());
            }
        }
    }

    #[test]
    fn fault_transport_with_retry_delivers_byte_identical_stream() {
        let payload = sample_trace(2 * FRAME_RECORDS + 500);
        for seed in [3u64, 11, 19, 42] {
            let plan = ConnFaultPlan::seeded(seed, payload.len() as u64);
            let state = ConnFaultState::shared(&plan);
            let (endpoint, drain, server) = byte_server(Duration::from_secs(2));
            let dial_state = Arc::clone(&state);
            let mut input = MemInput::new(payload.clone());
            let options = SendOptions {
                policy: fast_policy(),
                data_bytes: 1024,
                ..SendOptions::default()
            };
            let outcome = send_stream(
                &mut input,
                move || {
                    WireLink::connect(&endpoint)
                        .map(|link| FaultTransport::new(link, Arc::clone(&dial_state)))
                },
                &options,
            )
            .unwrap_or_else(|e| panic!("seed {seed}: retrying client must deliver: {e}"));
            drain.store(true, Ordering::SeqCst);
            let delivered = server.join().unwrap();
            assert_eq!(
                delivered, payload,
                "seed {seed}: stream must be byte-identical"
            );
            assert!(outcome.complete, "seed {seed}: FIN must be acked");
            assert_eq!(outcome.acked, payload.len() as u64);
            let cuts = plan.ops.iter().filter(|op| op.cuts()).count() as u64;
            assert_eq!(
                outcome.sessions,
                1 + cuts,
                "seed {seed}: each cut costs exactly one extra session"
            );
            assert!(
                state.lock().unwrap().all_fired(),
                "seed {seed}: every planned op must fire"
            );
        }
    }

    #[test]
    fn fault_transport_no_retry_delivers_exact_prefix() {
        let payload = sample_trace(2 * FRAME_RECORDS + 500);
        let plans = [
            ConnFaultPlan {
                ops: vec![ConnFaultOp::Disconnect { at: 3_000 }],
            },
            ConnFaultPlan {
                ops: vec![
                    ConnFaultOp::DuplicateTail { at: 1_500 },
                    ConnFaultOp::ShortWrite {
                        at: 5_000,
                        keep: 10_000, // clamped below the frame length internally
                    },
                ],
            },
        ];
        for plan in plans {
            let state = ConnFaultState::shared(&plan);
            let (endpoint, _, server) = byte_server(Duration::from_millis(300));
            let mut input = MemInput::new(payload.clone());
            let options = SendOptions {
                policy: fast_policy(),
                retry: false,
                data_bytes: 1024,
                ..SendOptions::default()
            };
            let err = send_stream(
                &mut input,
                move || {
                    WireLink::connect(&endpoint)
                        .map(|link| FaultTransport::new(link, Arc::clone(&state)))
                },
                &options,
            )
            .expect_err("a cut without retry must surface a transport error");
            assert!(!err.to_string().is_empty());
            let delivered = server.join().unwrap();
            let prefix = plan.delivered_prefix(1024).unwrap() as usize;
            assert_eq!(
                delivered,
                &payload[..prefix],
                "non-retrying delivery must stop exactly at the frame boundary below the cut"
            );
        }
    }

    #[test]
    fn stalls_and_duplicates_alone_complete_without_reconnect() {
        let payload = sample_trace(FRAME_RECORDS + 100);
        let plan = ConnFaultPlan {
            ops: vec![
                ConnFaultOp::StallConn {
                    at: 2_000,
                    millis: 5,
                },
                ConnFaultOp::DuplicateTail { at: 4_000 },
            ],
        };
        let state = ConnFaultState::shared(&plan);
        let (endpoint, drain, server) = byte_server(Duration::from_secs(2));
        let mut input = MemInput::new(payload.clone());
        let options = SendOptions {
            policy: fast_policy(),
            data_bytes: 1024,
            ..SendOptions::default()
        };
        let dial_state = Arc::clone(&state);
        let outcome = send_stream(
            &mut input,
            move || {
                WireLink::connect(&endpoint)
                    .map(|link| FaultTransport::new(link, Arc::clone(&dial_state)))
            },
            &options,
        )
        .unwrap();
        drain.store(true, Ordering::SeqCst);
        assert_eq!(server.join().unwrap(), payload);
        assert_eq!(outcome.sessions, 1, "no cut means no reconnect");
        assert!(outcome.complete);
        assert!(state.lock().unwrap().all_fired());
    }
}
