//! Retroactive full-fidelity tracing: per-agent ring buffers with
//! trigger-driven hindsight flush (the paper's §6 "benefit of hindsight"
//! direction).
//!
//! A query answers only what it was told to watch *before* the fact. The
//! retro ring closes the gap for the moments that matter: every agent
//! (when enabled) records the raw export set of **every** tracepoint
//! invocation — woven or not — into a bounded ring that continuously
//! overwrites itself. When something interesting happens (an explicit
//! `Trigger` advice op fires, an overload breaker trips, a woven invoke
//! looks like a latency outlier, or a chaos harness injects a fault), the
//! buffered events correlated with the triggering request drain into a
//! [`RetroReport`] and travel to the frontend like any other report —
//! full-fidelity data for a window that ended *before* anyone asked.
//!
//! # Loss accounting
//!
//! Hindsight data is still accounted data: every recorded event ends in
//! exactly one bucket of a [`Ledger`] (the identity and who owns which
//! term: DESIGN.md §5k). The ring owns two of them:
//!
//! - `sampled_out`: overwritten in the ring before any trigger wanted it
//!   (the deliberate, bounded loss that makes the ring affordable);
//! - `shed`: flushed by a trigger but evicted from the bounded pending
//!   queue before the transport drained it.

use std::collections::VecDeque;
use std::sync::Arc;

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_itc::{DecodeError, Decoder, Encoder};
use pivot_model::{codec, Tuple, Value};

use crate::ledger::Ledger;
use crate::tracepoint::names_match;

/// The reserved baggage slot carrying the request's trace id.
///
/// Query ids are allocated from 1 and pack slots from 256, so slot 0 is
/// free for the runtime itself. The id rides the ordinary baggage wire
/// format (one `First(1)` tuple of one `U64`), so every propagation
/// boundary that carries baggage carries the trace id for free.
pub const TRACE_SLOT: QueryId = QueryId(0);

/// Default ring capacity, in events.
pub const DEFAULT_RETRO_CAP: usize = 1024;

/// Default bound on events held in flushed-but-undrained
/// [`RetroReport`]s. Past it the oldest pending report is evicted and
/// its events are tallied as shed.
pub const DEFAULT_PENDING_CAP: usize = 4096;

/// Stamps `trace_id` into the request's baggage (replacing any previous
/// one). Embedding systems call this once at request ingress.
pub fn set_trace(baggage: &mut Baggage, trace_id: u64) {
    baggage.clear_query(TRACE_SLOT);
    baggage.pack(
        TRACE_SLOT,
        &PackMode::First(1),
        [Tuple::from_iter([Value::U64(trace_id)])],
    );
}

/// Reads the request's trace id back out of its baggage, if one was set.
pub fn trace_of(baggage: &mut Baggage) -> Option<u64> {
    match baggage.unpack_view(TRACE_SLOT).first()?.get(0) {
        Value::U64(id) => Some(*id),
        _ => None,
    }
}

/// What caused a retroactive flush.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TriggerKind {
    /// An explicit `Trigger` advice op fired (the query's predicate held).
    Advice,
    /// An overload-governor circuit breaker tripped.
    Breaker,
    /// A woven invoke exceeded the agent's latency-outlier threshold.
    LatencyOutlier,
    /// A fault-injection site (or other embedding-level event) asked for
    /// hindsight explicitly.
    Fault,
}

impl TriggerKind {
    /// Encodes the kind as its one-byte tag.
    #[inline]
    pub(crate) fn encode(self, enc: &mut Encoder) {
        enc.put_u8(match self {
            TriggerKind::Advice => 0,
            TriggerKind::Breaker => 1,
            TriggerKind::LatencyOutlier => 2,
            TriggerKind::Fault => 3,
        });
    }

    /// Decodes a kind from its one-byte tag.
    #[inline]
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<TriggerKind, DecodeError> {
        Ok(match dec.take_u8()? {
            0 => TriggerKind::Advice,
            1 => TriggerKind::Breaker,
            2 => TriggerKind::LatencyOutlier,
            3 => TriggerKind::Fault,
            t => return Err(DecodeError::BadTag("trigger kind", t)),
        })
    }
}

/// One buffered tracepoint invocation: the raw export set, verbatim.
#[derive(Clone, PartialEq, Debug)]
pub struct RetroEvent {
    /// The tracepoint name.
    pub tracepoint: Value,
    /// Invocation time (nanoseconds).
    pub time: u64,
    /// The request's trace id at invocation time (0 = none).
    pub request: u64,
    /// Export names, shared across events of the same tracepoint shape.
    pub names: Arc<[Arc<str>]>,
    /// Export values, position-matched to `names`.
    pub values: Vec<Value>,
}

/// A retroactive flush: the buffered events a trigger drained, plus the
/// loss envelope that keeps hindsight data inside the loss identity.
///
/// Relays forward these opaquely — the originating agent's identity and
/// `seq` survive to the frontend, which dedups on them exactly as it
/// dedups ordinary reports.
#[derive(Clone, PartialEq, Debug)]
pub struct RetroReport {
    /// Originating host.
    pub host: String,
    /// Originating process id.
    pub procid: u64,
    /// Originating agent incarnation (same dedup role as on `Report`).
    pub incarnation: u64,
    /// Trigger time (nanoseconds).
    pub time: u64,
    /// Per-agent retro flush sequence number, starting at 0.
    pub seq: u64,
    /// The query whose advice or breaker triggered the flush
    /// (`QueryId(0)` when the trigger was not query-scoped).
    pub query: QueryId,
    /// What fired.
    pub kind: TriggerKind,
    /// The trace id the flush was correlated on (0 = uncorrelated: the
    /// whole ring was drained).
    pub request: u64,
    /// The drained events, oldest first.
    pub events: Vec<RetroEvent>,
    /// Cumulative events recorded by this agent incarnation, including
    /// the ones in this report.
    pub recorded_cum: u64,
    /// Cumulative events overwritten in the ring before any trigger
    /// claimed them.
    pub sampled_out_cum: u64,
    /// Cumulative flushed events evicted from the bounded pending queue
    /// before the transport drained them.
    pub shed_cum: u64,
}

impl RetroReport {
    /// Encodes the flush as a `Retro` frame carries it.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.host);
        enc.put_varint(self.procid);
        enc.put_varint(self.incarnation);
        enc.put_varint(self.time);
        enc.put_varint(self.seq);
        enc.put_varint(self.query.0);
        self.kind.encode(enc);
        enc.put_varint(self.request);
        enc.put_varint(self.recorded_cum);
        enc.put_varint(self.sampled_out_cum);
        enc.put_varint(self.shed_cum);
        enc.put_varint(self.events.len() as u64);
        for ev in &self.events {
            codec::encode_value(&ev.tracepoint, enc);
            enc.put_varint(ev.time);
            enc.put_varint(ev.request);
            enc.put_varint(ev.names.len() as u64);
            for n in ev.names.iter() {
                enc.put_str(n);
            }
            // Invariant upheld at recording: names and values are
            // position-matched, so one length serves both.
            debug_assert_eq!(ev.names.len(), ev.values.len());
            for v in &ev.values {
                codec::encode_value(v, enc);
            }
        }
    }

    /// Decodes a flush. Events whose export names equal those of an
    /// earlier event in the report share that event's `names`.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<RetroReport, DecodeError> {
        let mut shapes = Vec::new();
        Ok(RetroReport {
            host: dec.take_str()?.to_owned(),
            procid: dec.take_varint()?,
            incarnation: dec.take_varint()?,
            time: dec.take_varint()?,
            seq: dec.take_varint()?,
            query: QueryId(dec.take_varint()?),
            kind: TriggerKind::decode(dec)?,
            request: dec.take_varint()?,
            recorded_cum: dec.take_varint()?,
            sampled_out_cum: dec.take_varint()?,
            shed_cum: dec.take_varint()?,
            events: dec.take_list(1024, |dec| {
                let tracepoint = codec::decode_value(dec)?;
                let time = dec.take_varint()?;
                let request = dec.take_varint()?;
                let w = dec.take_varint()? as usize;
                let names = take_names(dec, w, &mut shapes)?;
                let mut values = Vec::with_capacity(w.min(64));
                for _ in 0..w {
                    values.push(codec::decode_value(dec)?);
                }
                Ok(RetroEvent {
                    tracepoint,
                    time,
                    request,
                    names,
                    values,
                })
            })?,
        })
    }
}

/// How many distinct name lists one [`RetroReport::decode`] remembers.
const SHAPES_SHARED: usize = 8;

/// Reads `w` export names. A list equal to one in `shapes` (the first
/// [`SHAPES_SHARED`] distinct lists this report decoded) is that list,
/// shared; any other is decoded into a new one.
fn take_names(
    dec: &mut Decoder<'_>,
    w: usize,
    shapes: &mut Vec<Arc<[Arc<str>]>>,
) -> Result<Arc<[Arc<str>]>, DecodeError> {
    for shape in shapes.iter().filter(|s| s.len() == w) {
        let mut ahead = dec.clone();
        if shape
            .iter()
            .all(|n| ahead.take_str().is_ok_and(|s| s == &**n))
        {
            *dec = ahead;
            return Ok(Arc::clone(shape));
        }
    }
    let names = (0..w)
        .map(|_| dec.take_str().map(Arc::from))
        .collect::<Result<Arc<[Arc<str>]>, _>>()?;
    if shapes.len() < SHAPES_SHARED {
        shapes.push(Arc::clone(&names));
    }
    Ok(names)
}

/// A snapshot of one ring's cumulative event accounting.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct RetroCounters {
    /// Events recorded into the ring, lifetime.
    pub recorded: u64,
    /// Events drained into [`RetroReport`]s, lifetime.
    pub flushed: u64,
    /// Events overwritten in the ring before any trigger claimed them.
    pub sampled_out: u64,
    /// Flushed events evicted from the bounded pending queue.
    pub shed: u64,
}

impl RetroCounters {
    /// `recorded == flushed + sampled_out + shed + in_ring`: every
    /// recorded event is in exactly one bucket (`in_ring` is
    /// [`RetroRing::buffered`]; events sitting in undrained pending
    /// reports count as `flushed` — their onward fate is the transport's
    /// ledger, not the ring's).
    pub fn balanced_with(&self, in_ring: u64) -> bool {
        // From the ring's side, flushed is delivered (to the transport)
        // and the resident events are what a crash now would lose.
        let held = Ledger {
            delivered: self.flushed,
            crash_lost: in_ring,
            ..Ledger::from(*self)
        };
        held.balance().is_ok()
    }
}

/// The originating agent's identity, stamped onto every report the ring
/// produces.
#[derive(Clone, Debug)]
pub struct RetroIdent {
    /// Host name.
    pub host: String,
    /// Process id.
    pub procid: u64,
    /// Agent incarnation.
    pub incarnation: u64,
}

/// Cached export names for one `(tracepoint, export names)` shape.
struct NameShape {
    /// The tracepoint name, stamped onto flushed events.
    tracepoint: Value,
    names: Arc<[Arc<str>]>,
}

/// One ring slot. Stores a shape *index* instead of the shape's `Arc`s:
/// steady-state recording (push + evict) then moves no reference counts
/// at all; the public [`RetroEvent`] is only materialized for the events
/// a trigger actually claims.
struct Slot {
    shape: u32,
    time: u64,
    request: u64,
    values: Vec<Value>,
}

/// A bounded ring of recent raw tracepoint events with trigger-driven
/// retroactive flush. Owned by one [`Agent`](crate::Agent); all methods
/// run under the agent's retro lock.
pub struct RetroRing {
    ident: RetroIdent,
    cap: usize,
    ring: VecDeque<Slot>,
    /// Recycled `values` allocations from overwritten ring slots, so
    /// steady-state recording allocates only when an export set outgrows
    /// every spare.
    spare: Vec<Vec<Value>>,
    /// Every `(tracepoint, export names)` shape seen, append-only, so a
    /// shape id stays valid for the ring's life.
    shapes: Vec<NameShape>,
    /// Flushed reports awaiting a transport drain, bounded by
    /// `pending_cap` total events.
    pending: Vec<RetroReport>,
    pending_cap: usize,
    pending_events: usize,
    seq: u64,
    recorded_cum: u64,
    flushed_cum: u64,
    sampled_out_cum: u64,
    shed_cum: u64,
}

impl RetroRing {
    /// Creates a ring with the default capacities.
    pub fn new(ident: RetroIdent) -> RetroRing {
        RetroRing {
            ident,
            cap: DEFAULT_RETRO_CAP,
            ring: VecDeque::new(),
            spare: Vec::new(),
            shapes: Vec::new(),
            pending: Vec::new(),
            pending_cap: DEFAULT_PENDING_CAP,
            pending_events: 0,
            seq: 0,
            recorded_cum: 0,
            flushed_cum: 0,
            sampled_out_cum: 0,
            shed_cum: 0,
        }
    }

    /// Sets the ring capacity (minimum 1). Shrinking evicts oldest events
    /// into `sampled_out`, exactly as overwriting would.
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap.max(1);
        while self.ring.len() > self.cap {
            let Some(slot) = self.ring.pop_front() else {
                break;
            };
            self.recycle(slot);
            self.sampled_out_cum += 1;
        }
    }

    /// The ring capacity, in events.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Sets the pending-queue bound (in events, minimum 1).
    pub fn set_pending_cap(&mut self, cap: usize) {
        self.pending_cap = cap.max(1);
        self.evict_pending();
    }

    fn recycle(&mut self, slot: Slot) {
        if self.spare.len() < self.cap {
            let mut v = slot.values;
            v.clear();
            self.spare.push(v);
        }
    }

    /// Looks up (or builds) the shape — tracepoint value plus shared name
    /// list — of this export set. A hit is a short scan validated with
    /// string compares (never a source of wrong names); only a miss — the
    /// first event of a new shape — allocates. A woven site asks once and
    /// keeps the id in its plan (`crate::tracepoint::Layout`); only events
    /// at unwoven tracepoints come here every time.
    pub(crate) fn shape_for(&mut self, tracepoint: &str, exports: &[(&str, Value)]) -> u32 {
        if let Some(i) = self.shapes.iter().position(|s| {
            s.tracepoint.as_str() == Some(tracepoint) && names_match(&s.names, exports)
        }) {
            return i as u32;
        }
        self.shapes.push(NameShape {
            tracepoint: Value::str(tracepoint),
            names: exports.iter().map(|(n, _)| Arc::from(*n)).collect(),
        });
        (self.shapes.len() - 1) as u32
    }

    /// The export names of a shape [`RetroRing::shape_for`] returned.
    pub(crate) fn shape_names(&self, shape: u32) -> &Arc<[Arc<str>]> {
        &self.shapes[shape as usize].names
    }

    /// Materializes the public event for a slot a trigger claimed.
    fn materialize(shapes: &[NameShape], slot: Slot) -> RetroEvent {
        let shape = &shapes[slot.shape as usize];
        RetroEvent {
            tracepoint: shape.tracepoint.clone(),
            time: slot.time,
            request: slot.request,
            names: Arc::clone(&shape.names),
            values: slot.values,
        }
    }

    /// Records one invocation of shape `shape` (from
    /// [`RetroRing::shape_for`], for these export names); `request` is the
    /// trace id (0 = none).
    pub(crate) fn record(
        &mut self,
        shape: u32,
        time: u64,
        request: u64,
        exports: &[(&str, Value)],
    ) {
        self.recorded_cum += 1;
        let oldest = if self.ring.len() >= self.cap {
            self.ring.pop_front()
        } else {
            None
        };
        if let Some(mut slot) = oldest {
            // Steady state: overwrite the oldest slot in place, reusing
            // its `values` allocation — no spare-pool traffic at all.
            slot.values.clear();
            slot.values.extend(exports.iter().map(|(_, v)| v.clone()));
            slot.shape = shape;
            slot.time = time;
            slot.request = request;
            self.ring.push_back(slot);
            self.sampled_out_cum += 1;
            return;
        }
        let mut values = self.spare.pop().unwrap_or_default();
        values.extend(exports.iter().map(|(_, v)| v.clone()));
        self.ring.push_back(Slot {
            shape,
            time,
            request,
            values,
        });
    }

    /// Fires a trigger: drains the buffered events correlated with
    /// `request` (all of them when `request` is 0) into a pending
    /// [`RetroReport`]. Returns `false` (and produces nothing) when no
    /// buffered event matches — a second trigger in the same invocation
    /// finds the ring already drained and is thereby suppressed.
    pub fn trigger(&mut self, kind: TriggerKind, query: QueryId, request: u64, now: u64) -> bool {
        let mut events = Vec::new();
        if request == 0 {
            // Uncorrelated hindsight: take the whole window.
            for slot in self.ring.drain(..) {
                events.push(Self::materialize(&self.shapes, slot));
            }
        } else {
            let mut kept = VecDeque::with_capacity(self.ring.len());
            for slot in self.ring.drain(..) {
                if slot.request == request {
                    events.push(Self::materialize(&self.shapes, slot));
                } else {
                    kept.push_back(slot);
                }
            }
            self.ring = kept;
        }
        if events.is_empty() {
            return false;
        }
        self.flushed_cum += events.len() as u64;
        self.pending_events += events.len();
        let seq = self.seq;
        self.seq += 1;
        self.pending.push(RetroReport {
            host: self.ident.host.clone(),
            procid: self.ident.procid,
            incarnation: self.ident.incarnation,
            time: now,
            seq,
            query,
            kind,
            request,
            events,
            recorded_cum: self.recorded_cum,
            sampled_out_cum: self.sampled_out_cum,
            shed_cum: self.shed_cum,
        });
        self.evict_pending();
        true
    }

    /// Evicts oldest pending reports until the event bound holds; their
    /// events move from `flushed` to `shed`.
    fn evict_pending(&mut self) {
        while self.pending_events > self.pending_cap && self.pending.len() > 1 {
            let victim = self.pending.remove(0);
            let n = victim.events.len();
            self.pending_events -= n;
            self.flushed_cum -= n as u64;
            self.shed_cum += n as u64;
        }
    }

    /// Takes the pending reports (the transport drain). The envelope
    /// counters on later reports supersede earlier ones.
    pub fn drain(&mut self) -> Vec<RetroReport> {
        self.pending_events = 0;
        std::mem::take(&mut self.pending)
    }

    /// Events currently buffered (ring + pending): the amount an abrupt
    /// crash would lose. Crash harnesses fold this into `crash_lost`.
    pub fn unflushed(&self) -> u64 {
        self.ring.len() as u64 + self.pending_events as u64
    }

    /// Graceful end-of-life: remaining ring events were never claimed by
    /// any trigger and become `sampled_out`; pending reports nobody
    /// drained become `shed`. Call [`RetroRing::drain`] first if the
    /// pending reports should still be delivered.
    pub fn seal(&mut self) -> RetroCounters {
        while let Some(slot) = self.ring.pop_front() {
            self.recycle(slot);
            self.sampled_out_cum += 1;
        }
        for report in std::mem::take(&mut self.pending) {
            let n = report.events.len() as u64;
            self.flushed_cum -= n;
            self.shed_cum += n;
        }
        self.pending_events = 0;
        self.counters()
    }

    /// A snapshot of the cumulative accounting.
    pub fn counters(&self) -> RetroCounters {
        RetroCounters {
            recorded: self.recorded_cum,
            flushed: self.flushed_cum,
            sampled_out: self.sampled_out_cum,
            shed: self.shed_cum,
        }
    }

    /// Events currently in the ring (not yet flushed or overwritten).
    pub fn buffered(&self) -> usize {
        self.ring.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(r: &mut RetroRing, tp: &str, time: u64, request: u64, exports: &[(&str, Value)]) {
        let shape = r.shape_for(tp, exports);
        r.record(shape, time, request, exports);
    }

    fn ring() -> RetroRing {
        RetroRing::new(RetroIdent {
            host: "host-A".into(),
            procid: 7,
            incarnation: 1,
        })
    }

    #[test]
    fn trace_id_round_trips_through_baggage() {
        let mut bag = Baggage::new();
        assert_eq!(trace_of(&mut bag), None);
        set_trace(&mut bag, 42);
        assert_eq!(trace_of(&mut bag), Some(42));
        // Survives the wire.
        let bytes = bag.to_bytes();
        let mut back = Baggage::try_from_bytes(&bytes).unwrap();
        assert_eq!(trace_of(&mut back), Some(42));
        // Replacement, not accumulation.
        set_trace(&mut bag, 43);
        assert_eq!(trace_of(&mut bag), Some(43));
    }

    #[test]
    fn wraparound_moves_oldest_to_sampled_out() {
        let mut r = ring();
        r.set_cap(3);
        for i in 0..5 {
            rec(&mut r, "T", i, 1, &[("x", Value::I64(i as i64))]);
        }
        assert_eq!(r.buffered(), 3);
        let c = r.counters();
        assert_eq!(c.recorded, 5);
        assert_eq!(c.sampled_out, 2);
        assert!(c.balanced_with(r.buffered() as u64));
    }

    #[test]
    fn trigger_drains_only_the_matching_request() {
        let mut r = ring();
        rec(&mut r, "T", 0, 1, &[]);
        rec(&mut r, "T", 1, 2, &[]);
        rec(&mut r, "T", 2, 1, &[]);
        assert!(r.trigger(TriggerKind::Advice, QueryId(9), 1, 10));
        let reports = r.drain();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].events.len(), 2);
        assert!(reports[0].events.iter().all(|e| e.request == 1));
        assert_eq!(reports[0].query, QueryId(9));
        // Request 2's event is still buffered.
        assert_eq!(r.buffered(), 1);
        assert!(r.counters().balanced_with(r.buffered() as u64));
    }

    #[test]
    fn second_trigger_on_drained_ring_is_suppressed() {
        let mut r = ring();
        rec(&mut r, "T", 0, 1, &[]);
        assert!(r.trigger(TriggerKind::Advice, QueryId(9), 1, 10));
        assert!(!r.trigger(TriggerKind::Breaker, QueryId(9), 1, 10));
        assert_eq!(r.drain().len(), 1);
    }

    #[test]
    fn uncorrelated_trigger_takes_everything() {
        let mut r = ring();
        rec(&mut r, "T", 0, 1, &[]);
        rec(&mut r, "T", 1, 2, &[]);
        assert!(r.trigger(TriggerKind::Fault, QueryId(0), 0, 10));
        let reports = r.drain();
        assert_eq!(reports[0].events.len(), 2);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn pending_overflow_sheds_oldest_report() {
        let mut r = ring();
        r.set_pending_cap(3);
        for round in 0..3u64 {
            for i in 0..2 {
                rec(&mut r, "T", i, round + 1, &[]);
            }
            assert!(r.trigger(TriggerKind::Advice, QueryId(1), round + 1, 10));
        }
        // 6 flushed events against a 3-event bound: oldest report(s) shed.
        let c = r.counters();
        assert!(c.shed >= 2, "{c:?}");
        assert!(c.balanced_with(r.buffered() as u64), "{c:?}");
        let kept: usize = r.drain().iter().map(|p| p.events.len()).sum();
        assert_eq!(c.flushed, kept as u64);
    }

    #[test]
    fn seal_accounts_every_leftover() {
        let mut r = ring();
        rec(&mut r, "T", 0, 1, &[]);
        rec(&mut r, "T", 1, 2, &[]);
        r.trigger(TriggerKind::Advice, QueryId(1), 1, 5);
        // One event pending, one still in the ring; seal without draining.
        let c = r.seal();
        assert_eq!(c.recorded, 2);
        assert_eq!(c.sampled_out, 1);
        assert_eq!(c.shed, 1);
        assert_eq!(c.flushed, 0);
        assert!(c.balanced_with(0));
    }

    #[test]
    fn name_cache_is_validated_not_trusted() {
        let mut r = ring();
        rec(
            &mut r,
            "T",
            0,
            1,
            &[("a", Value::I64(1)), ("b", Value::I64(2))],
        );
        // Same tracepoint and arity, different names: must not inherit.
        rec(
            &mut r,
            "T",
            1,
            1,
            &[("c", Value::I64(3)), ("d", Value::I64(4))],
        );
        r.trigger(TriggerKind::Advice, QueryId(1), 1, 2);
        let reports = r.drain();
        let evs = &reports[0].events;
        assert_eq!(&*evs[0].names[0], "a");
        assert_eq!(&*evs[1].names[0], "c");
        // Same shape again: shared Arc with the first.
        rec(
            &mut r,
            "T",
            2,
            1,
            &[("a", Value::I64(5)), ("b", Value::I64(6))],
        );
    }

    #[test]
    fn sequence_numbers_are_consecutive() {
        let mut r = ring();
        for i in 0..3u64 {
            rec(&mut r, "T", i, i + 1, &[]);
            r.trigger(TriggerKind::Advice, QueryId(1), i + 1, i);
        }
        let seqs: Vec<u64> = r.drain().iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
