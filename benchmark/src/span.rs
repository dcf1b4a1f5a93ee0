//! Spans around the calls the benchmark makes into each layer.
//!
//! The workload drivers are generic over [`Tracer`]. The untraced run
//! uses [`NoTrace`], whose methods compile to nothing, so end-to-end
//! numbers carry no tracing cost; the traced run uses [`Recorder`], which
//! writes spans into a buffer allocated before the run and analysed after
//! it. A span holds its name, start, end, parent and the id of the
//! request (or round) it belongs to.

use std::time::Instant;

/// Index into [`NAMES`].
pub type NameId = u16;

macro_rules! span_names {
    ($($ident:ident = $text:literal,)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[derive(Clone, Copy)]
        #[repr(u16)]
        enum NameIndex { $($ident,)* }
        $(pub const $ident: NameId = NameIndex::$ident as NameId;)*
        /// Span names, indexed by [`NameId`].
        pub const NAMES: &[&str] = &[$($text,)*];
    };
}

span_names! {
    ROOT = "root",
    SCOPE = "live.scope",
    TP_IDLE = "live.tracepoint_idle",
    SET_TRACE = "core.set_trace",
    INVOKE_CLIENT = "core.invoke_client",
    INVOKE_RECEIVE = "core.invoke_receive",
    INVOKE_SHARD = "core.invoke_shard",
    INVOKE_RESPOND = "core.invoke_respond",
    RETRO_TRIGGER = "core.retro_trigger",
    SERIALIZE = "baggage.serialize",
    DESERIALIZE = "baggage.deserialize",
    SPLIT_JOIN = "baggage.split_join",
    INVOKE_BATCH = "core.invoke_batch",
    AGENT_FLUSH = "live.agent_flush",
    RELAY_PULL = "relay.pull_now",
    RELAY_FLUSH = "relay.flush_now",
    POLL = "live.poll",
    WAIT_VISIBLE = "wait.visible",
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: NameId,
    /// Index of the enclosing span in the same buffer, or `u32::MAX`.
    pub parent: u32,
    /// Request or round id shared by every span under one root.
    pub request: u64,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
}

/// `spanned!(tracer, NAME, expr)`: evaluates `expr` inside a span.
macro_rules! spanned {
    ($tracer:expr, $name:expr, $body:expr) => {{
        let token = $tracer.enter($name);
        let out = $body;
        $tracer.exit(token);
        out
    }};
}
pub(crate) use spanned;

/// What a driver calls at each layer boundary.
pub trait Tracer {
    /// A handle returned by `enter` and consumed by `exit`.
    type Token: Copy;
    /// Sets the id stamped on the spans that follow.
    fn begin_request(&mut self, id: u64);
    fn enter(&mut self, name: NameId) -> Self::Token;
    fn exit(&mut self, token: Self::Token);
    /// `false` once the buffer cannot hold another request's spans; the
    /// traced run ends there.
    fn has_room(&self) -> bool;
}

pub struct NoTrace;

impl Tracer for NoTrace {
    type Token = ();
    #[inline(always)]
    fn begin_request(&mut self, _id: u64) {}
    #[inline(always)]
    fn enter(&mut self, _name: NameId) {}
    #[inline(always)]
    fn exit(&mut self, _token: ()) {}
    #[inline(always)]
    fn has_room(&self) -> bool {
        true
    }
}

/// Spans one request may record; the run stops before the buffer has
/// fewer free slots than this.
const HEADROOM: usize = 256;

pub struct Recorder {
    spans: Vec<Span>,
    open: u32,
    request: u64,
    epoch: Instant,
}

impl Recorder {
    /// Allocates (and touches) room for `capacity` spans, so recording
    /// never allocates or page-faults inside the measured run.
    pub fn with_capacity(capacity: usize, epoch: Instant) -> Recorder {
        let mut spans = vec![
            Span {
                name: ROOT,
                parent: NO_PARENT,
                request: 0,
                start: 0,
                end: 0,
            };
            capacity + HEADROOM
        ];
        spans.clear();
        Recorder {
            spans,
            open: NO_PARENT,
            request: 0,
            epoch,
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

impl Tracer for Recorder {
    type Token = u32;

    fn begin_request(&mut self, id: u64) {
        self.request = id;
    }

    #[inline]
    fn enter(&mut self, name: NameId) -> u32 {
        let idx = self.spans.len() as u32;
        let parent = self.open;
        self.open = idx;
        self.spans.push(Span {
            name,
            parent,
            request: self.request,
            start: self.epoch.elapsed().as_nanos() as u64,
            end: 0,
        });
        idx
    }

    #[inline]
    fn exit(&mut self, token: u32) {
        let end = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[token as usize];
        span.end = end;
        self.open = span.parent;
    }

    fn has_room(&self) -> bool {
        self.spans.capacity() - self.spans.len() >= HEADROOM
    }
}

/// Mean recorded duration of a span with an empty body: what one
/// `enter`/`exit` pair adds to the span it closes. A layer's traced self
/// time overstates its untraced cost by about this much per call.
pub fn empty_span_ns() -> f64 {
    const N: usize = 100_000;
    let mut rec = Recorder::with_capacity(N, Instant::now());
    for _ in 0..N {
        let token = rec.enter(ROOT);
        rec.exit(token);
    }
    let spans = rec.into_spans();
    spans.iter().map(|s| s.end - s.start).sum::<u64>() as f64 / N as f64
}

/// Per-name totals over one thread's spans.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of that interval
/// its children cover. Children may overlap each other and may stick out
/// of the parent; the covered part is the union of the child intervals
/// clipped to the parent.
///
/// `spans` must be in start order within each parent, which is how
/// [`Recorder`] writes them.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    // Right edge of the union of the children seen so far, per parent.
    let mut edge: Vec<u64> = spans.iter().map(|s| s.start).collect();
    for span in spans {
        if span.parent == NO_PARENT {
            continue;
        }
        let p = span.parent as usize;
        let from = span.start.max(edge[p]);
        let to = span.end.min(spans[p].end);
        if to > from {
            covered[p] += to - from;
            edge[p] = to;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end - s.start).saturating_sub(c))
        .collect()
}

/// Sums [`self_times`] and durations by span name.
pub fn totals_by_name(spans: &[Span]) -> Vec<NameTotals> {
    let mut out = vec![NameTotals::default(); NAMES.len()];
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = &mut out[span.name as usize];
        t.count += 1;
        t.total_ns += span.end - span.start;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: NameId, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            request: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(ROOT, NO_PARENT, 0, 100),
            span(SERIALIZE, 0, 10, 30),
            span(INVOKE_SHARD, 0, 40, 90),
            span(SPLIT_JOIN, 2, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span(ROOT, NO_PARENT, 100, 200),
            // Overlap each other on [130, 150].
            span(SERIALIZE, 0, 110, 150),
            span(DESERIALIZE, 0, 130, 170),
            // Sticks out of the parent by 50.
            span(SPLIT_JOIN, 0, 190, 250),
        ];
        // Covered: [110, 170] and [190, 200] = 70 of the root's 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn layer_self_times_sum_to_the_root() {
        let epoch = Instant::now();
        let mut rec = Recorder::with_capacity(64, epoch);
        rec.begin_request(7);
        let root = rec.enter(ROOT);
        let a = rec.enter(INVOKE_CLIENT);
        let b = rec.enter(SCOPE);
        rec.exit(b);
        rec.exit(a);
        let c = rec.enter(SERIALIZE);
        rec.exit(c);
        rec.exit(root);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.request == 7));
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 0);
        let totals = totals_by_name(&spans);
        let self_sum: u64 = totals.iter().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, spans[0].end - spans[0].start);
        assert_eq!(totals[ROOT as usize].count, 1);
    }

    #[test]
    fn recorder_reports_when_it_is_full() {
        let mut rec = Recorder::with_capacity(2, Instant::now());
        assert!(rec.has_room());
        for _ in 0..3 {
            let t = rec.enter(ROOT);
            rec.exit(t);
        }
        assert!(!rec.has_room());
    }
}
