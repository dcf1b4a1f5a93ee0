//! Hierarchical fan-in: the collector/relay tier.
//!
//! The paper's deployment model has every agent report straight to the
//! frontend — a star topology whose frontend-side merge and frame rate
//! scale linearly with the number of processes. This crate inserts an
//! intermediate tier on the existing [`Bus`] trait: a [`Relay`] accepts
//! any number of downstream agent (or relay) connections and maintains
//! one upstream connection, so a tree of relays turns `N` inbound report
//! streams into one.
//!
//! The relay is not a dumb forwarder. Grouped aggregates are partially
//! merged **in flight** per query window, in the [`pivot_query::Groups`]
//! table the agents and the frontend use too — sound because every
//! [`pivot_model::AggState`] merge is associative and commutative (pinned
//! by property tests) — so a flush forwards one re-originated report per
//! query instead of one per downstream source.
//! Raw (streaming) rows are coalesced into batched frames without
//! merging.
//!
//! # Envelope re-origination
//!
//! Loss accounting must keep balancing through the tree: the frontend's
//! per-source view (`LossStats`) and the harness-level [`Ledger`]
//! (DESIGN.md §5k). A relay therefore *re-originates* the envelope:
//! upstream reports carry the relay's own (host, procid, incarnation,
//! seq) identity, and its cumulative counters are sums of
//! **baseline-relative deltas** over the downstream sources it has heard
//! from:
//!
//! - On first contact with a source (first report `r` accepted), the
//!   relay baselines `emitted_cum = r.emitted_cum - r.tuples`,
//!   `shed_cum = r.shed_cum`: the window of emissions this relay
//!   incarnation is answerable for starts at exactly the content of `r`.
//! - Upstream `emitted_cum` is `Σ (latest_emitted - baseline_emitted)`,
//!   `shed_cum` is `Σ (latest_shed - baseline_shed)`; `tuples` is what
//!   this flush actually forwards. The difference the frontend computes
//!   (`emitted - delivered - shed`) is then precisely the tuples known
//!   lost *below* this relay plus whatever is still sitting in the
//!   relay's open window — and the window term vanishes once the relay
//!   flushes, so a settled system accounts downstream loss exactly.
//! - Reports from seqs *before* a source's baseline (in-flight frames
//!   overtaken by a relay restart) are refused and tallied in
//!   [`RelayStats::tuples_stale`]: their tuples left every ledger, and
//!   hiding that would fake the books. Duplicate frames at-or-after the
//!   baseline are suppressed exactly like the frontend suppresses them.
//!
//! A relay crash loses its open window; [`RelayCore::restart`] surfaces that
//! as a [`CrashResidue`] whose [`books`](CrashResidue::books) are the
//! ledger's `crash_lost`, takes a fresh incarnation (so the frontend never
//! confuses the new stream with the old), and re-baselines every source
//! on next contact.
//!
//! The live (TCP) side of this tier — `pivot-relay`, the standalone
//! relay process — lives in [`live`], built on the same [`RelayCore`].

pub mod live;

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pivot_baggage::QueryId;
use pivot_core::{
    Bus, Command, Drained, Ledger, ProcessInfo, Report, ReportRows, RetroReport, Seen, SeqWindow,
    SourceKey, Throttled,
};
use pivot_model::EncodedBlock;
use pivot_query::{Groups, OutputSpec};

/// Incarnation numbers for relays, distinct per restart within a
/// process. Relays have their own counter (agents draw from
/// `pivot-core`'s); uniqueness only matters per (host, procid) identity,
/// which never aliases an agent's.
static NEXT_INCARNATION: AtomicU64 = AtomicU64::new(1);

/// Counters describing one relay's fan-in work, cumulative across
/// restarts of the same [`RelayCore`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct RelayStats {
    /// Downstream reports accepted into merge windows.
    pub reports_in: u64,
    /// Upstream reports emitted (the fan-in ratio is `in / out`).
    pub reports_out: u64,
    /// Tuples accepted from downstream.
    pub tuples_in: u64,
    /// Tuples forwarded upstream.
    pub tuples_out: u64,
    /// Downstream reports suppressed as duplicates (same source, same
    /// seq, at or after the source's baseline).
    pub reports_duplicate: u64,
    /// Downstream reports refused as stale: their seq precedes the
    /// source's baseline, so this relay incarnation cannot account them.
    pub reports_stale: u64,
    /// Tuples carried by first-sighting stale reports — tuples that left
    /// every ledger (the transport did not drop them, but no tier will
    /// ever deliver or account them). Embeddings fold this into their
    /// transport-drop tally.
    pub tuples_stale: u64,
    /// Retroactive-flush reports accepted from downstream. Retro frames
    /// pass through *verbatim* — the originating agent's identity and
    /// ring seq survive so the frontend can dedup end to end — so there
    /// is no retro re-origination, only queueing.
    pub retro_in: u64,
    /// Retroactive-flush reports forwarded upstream.
    pub retro_out: u64,
    /// Retroactive-flush reports suppressed as duplicates of a frame
    /// this relay already queued (same originating agent identity, same
    /// ring seq). Without this a transport duplicate below the relay
    /// could fan out past the hop — and if one copy then died in a
    /// crash residue while the other delivered, the same events would
    /// sit on two ledgers at once.
    pub retro_duplicate: u64,
    /// Buffered events carried by retro reports shed from the bounded
    /// pass-through queue during an upstream outage (ground truth for
    /// the embedding's retro loss books).
    pub retro_events_shed: u64,
}

impl RelayStats {
    /// The relay's terms of the `(tuple, retro)` loss books: tuples it
    /// refused as stale, hindsight events its bounded queue shed.
    pub fn books(&self) -> (Ledger, Ledger) {
        let (mut tuples, mut retro) = (Ledger::default(), Ledger::default());
        tuples.stale = self.tuples_stale;
        retro.shed = self.retro_events_shed;
        (tuples, retro)
    }
}

/// Cap on events queued in a relay's retro pass-through queue; oldest
/// frames shed first under pressure (same bounded-outage discipline as
/// the agent's pending queue).
pub const RETRO_QUEUE_CAP: u64 = 4096;

/// What a relay crash destroys: the tuples absorbed into the open merge
/// window but never flushed upstream. The embedding folds this into its
/// `crash_lost` ground truth, exactly like an agent crash's unflushed
/// buffer.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CrashResidue {
    /// Tuples lost with the open window.
    pub window_tuples: u64,
    /// Buffered events in queued retro reports lost with the crash.
    pub retro_events: u64,
}

impl CrashResidue {
    /// The crash's terms of the `(tuple, retro)` loss books.
    pub fn books(&self) -> (Ledger, Ledger) {
        let (mut tuples, mut retro) = (Ledger::default(), Ledger::default());
        tuples.crash_lost = self.window_tuples;
        retro.crash_lost = self.retro_events;
        (tuples, retro)
    }
}

/// `*sum += n`, saturating: the envelope counters of a downstream frame
/// are whatever `u64`s a peer sent, and the books must not wrap or panic
/// on them.
fn sat(sum: &mut u64, n: u64) {
    *sum = sum.saturating_add(n);
}

/// Per-downstream-source tracking.
struct SourceState {
    /// Opens at the seq this relay incarnation first accepted from the
    /// source; anything earlier is stale (see [`RelayStats::tuples_stale`]).
    window: SeqWindow,
    /// Stale seqs already counted, so a duplicated stale frame is not
    /// double-tallied. Bounded by the frames in flight at a restart.
    stale_seen: BTreeSet<u64>,
    /// Max-latched latest cumulative counters. Initialized to the
    /// source's *baseline*: the counters as of the first accepted report,
    /// with emitted excluding that report's own tuples (they are ours to
    /// account). Deltas against these roll into the window's running
    /// sums, so the baselines themselves need no separate storage.
    emitted_latest: u64,
    shed_latest: u64,
    truncated_latest: u64,
}

/// One query's in-flight merge window plus its upstream stream state.
#[derive(Default)]
struct QueryWindow {
    /// Output shape, learned from the `Install` command passing through:
    /// which kind of body, grouped or streaming, the window takes and
    /// sends upstream.
    spec: Option<Arc<OutputSpec>>,
    /// The partially merged groups of the open window.
    groups: Groups,
    /// Coalesced row blocks of streaming queries, forwarded at the
    /// encoded-bytes level: the relay never decodes them, it just
    /// re-originates the accumulated blocks upstream (row counts come
    /// from the wire-validated block headers).
    raw_blocks: Vec<EncodedBlock>,
    /// Tuples absorbed into the open window (the next report's `tuples`).
    window_tuples: u64,
    /// Circuit-breaker trips heard from below since the last flush; they
    /// all ride the window's one upstream frame.
    throttles: Vec<Throttled>,
    /// Next upstream seq for this query, per relay incarnation.
    seq: u64,
    /// Running baseline-relative sums over `sources` (kept incrementally
    /// so a flush is O(1) in the number of sources).
    cum_emitted: u64,
    cum_shed: u64,
    cum_truncated: u64,
    /// Whether anything (rows or counters) changed since the last flush.
    dirty: bool,
    sources: HashMap<SourceKey, SourceState>,
}

impl QueryWindow {
    /// Which body the query reports in: the spec's kind, or, where the
    /// `Install` did not come this way, the kind of the rows the window
    /// holds; `None` for a window without either.
    fn streaming(&self) -> Option<bool> {
        match &self.spec {
            Some(spec) => Some(spec.streaming),
            None if !self.raw_blocks.is_empty() => Some(true),
            None if !self.groups.is_empty() => Some(false),
            None => None,
        }
    }
}

struct CoreState {
    incarnation: u64,
    windows: HashMap<QueryId, QueryWindow>,
    /// Retro reports queued for upstream, forwarded verbatim.
    retro: VecDeque<RetroReport>,
    /// Events carried by the queued retro reports.
    retro_events: u64,
    /// Ring seqs already absorbed, per originating agent identity.
    /// Deliberately *not* cleared by [`RelayCore::restart`]: a frame the
    /// previous incarnation queued and lost is on the crash-residue
    /// books, so a late transport duplicate of it must stay refused or
    /// its events would be double-counted (once as residue, once as
    /// delivered).
    retro_seen: HashMap<SourceKey, SeqWindow>,
    stats: RelayStats,
}

impl CoreState {
    /// Tuples absorbed but unflushed, across all windows.
    fn window_tuples(&self) -> u64 {
        let open = self.windows.values().map(|w| w.window_tuples);
        open.fold(0, u64::saturating_add)
    }
}

/// The transport-agnostic heart of a relay: absorb downstream reports
/// into per-query merge windows, flush re-originated upstream reports.
/// Thread-safe behind one lock; the sim [`Relay`] and the live
/// [`live::RelayServer`] share it.
pub struct RelayCore {
    info: ProcessInfo,
    state: Mutex<CoreState>,
}

impl RelayCore {
    /// A relay reporting upstream under `info`'s identity, with a fresh
    /// incarnation.
    pub fn new(info: ProcessInfo) -> RelayCore {
        RelayCore {
            info,
            state: Mutex::new(CoreState {
                incarnation: NEXT_INCARNATION.fetch_add(1, Ordering::Relaxed),
                windows: HashMap::new(),
                retro: VecDeque::new(),
                retro_events: 0,
                retro_seen: HashMap::new(),
                stats: RelayStats::default(),
            }),
        }
    }

    /// The relay's upstream reporting identity.
    pub fn info(&self) -> &ProcessInfo {
        &self.info
    }

    /// The current incarnation (bumped by [`RelayCore::restart`]).
    pub fn incarnation(&self) -> u64 {
        self.state.lock().incarnation
    }

    /// Current counters.
    pub fn stats(&self) -> RelayStats {
        self.state.lock().stats
    }

    /// Observes a control-plane command on its way downstream. The relay
    /// only *learns* from it (each query's output shape, for the merge
    /// fold); forwarding is the transport's job.
    pub fn observe(&self, cmd: &Command) {
        if let Command::Install(code) = cmd {
            let mut st = self.state.lock();
            st.windows.entry(code.id).or_default().spec = Some(Arc::clone(&code.output));
        }
    }

    /// Re-learns query shapes from a full installed set (the relay-side
    /// analog of `Agent::sync` during epoch re-sync, and the recovery
    /// path after [`RelayCore::restart`]).
    pub fn sync(&self, installed: &[Arc<pivot_query::CompiledCode>]) {
        for code in installed {
            self.observe(&Command::Install(Arc::clone(code)));
        }
    }

    /// Absorbs one downstream report into its query's merge window.
    /// Duplicate and stale frames are refused (and tallied); everything
    /// else merges, but for a body of the other kind than the window's or
    /// grouped rows of another shape, of which only the envelope counts.
    pub fn absorb(&self, report: Report) {
        let st = &mut *self.state.lock();
        let window = st.windows.entry(report.query).or_default();
        let key = (report.host, report.procid, report.incarnation);
        let src = window.sources.entry(key).or_insert_with(|| SourceState {
            window: SeqWindow::starting_at(report.seq),
            stale_seen: BTreeSet::new(),
            emitted_latest: report.emitted_cum.saturating_sub(report.tuples),
            shed_latest: report.shed_cum,
            truncated_latest: report.truncated_cum,
        });
        match src.window.record(report.seq) {
            Seen::Stale => {
                // Overtaken by a relay restart: this incarnation's books
                // open at the baseline, and tuples from before it can no
                // longer be accounted anywhere. Surface the loss instead
                // of hiding it.
                st.stats.reports_stale += 1;
                if src.stale_seen.insert(report.seq) {
                    sat(&mut st.stats.tuples_stale, report.tuples);
                }
                return;
            }
            Seen::Duplicate => {
                st.stats.reports_duplicate += 1;
                return;
            }
            Seen::Fresh => {}
        }
        // Max-latch the cumulative counters and roll the deltas into the
        // window's running sums (reports can arrive out of order, so a
        // lower counter is old news, not a regression).
        let d_emitted = report.emitted_cum.saturating_sub(src.emitted_latest);
        let d_shed = report.shed_cum.saturating_sub(src.shed_latest);
        let d_trunc = report.truncated_cum.saturating_sub(src.truncated_latest);
        src.emitted_latest += d_emitted;
        src.shed_latest += d_shed;
        src.truncated_latest += d_trunc;
        sat(&mut window.cum_emitted, d_emitted);
        sat(&mut window.cum_shed, d_shed);
        sat(&mut window.cum_truncated, d_trunc);
        window.throttles.extend(report.throttled);
        let accepted = match report.rows {
            ReportRows::RawEncoded(blocks) if window.streaming() != Some(false) => {
                window.raw_blocks.extend(blocks);
                report.tuples
            }
            ReportRows::Grouped(groups)
                if window.streaming() != Some(true) && window.groups.fits(&groups) =>
            {
                window.groups.absorb(groups);
                report.tuples
            }
            // One kind and one shape per window: a body of the other kind,
            // or a partial of another shape, is discarded whole. Its
            // envelope still counts, so upstream its tuples are emitted
            // and never delivered — `tuples_dropped`.
            _ => 0,
        };
        sat(&mut window.window_tuples, accepted);
        window.dirty = true;
        st.stats.reports_in += 1;
        sat(&mut st.stats.tuples_in, accepted);
    }

    /// Flushes every dirty window: one re-originated upstream report per
    /// query, in query-id order for determinism.
    pub fn flush(&self, now: u64) -> Vec<Report> {
        let st = &mut *self.state.lock();
        let mut out = Vec::new();
        let mut qids: Vec<QueryId> = st.windows.keys().copied().collect();
        qids.sort_unstable_by_key(|q| q.0);
        for qid in qids {
            let Some(window) = st.windows.get_mut(&qid).filter(|w| w.dirty) else {
                continue;
            };
            let rows = if window.streaming() == Some(true) {
                ReportRows::RawEncoded(std::mem::take(&mut window.raw_blocks))
            } else {
                // Frame content in key order, whatever order the window
                // was filled in; the window keeps its room for the next.
                ReportRows::Grouped(window.groups.take_sorted())
            };
            let report = Report {
                query: qid,
                host: self.info.host.clone(),
                procid: self.info.procid,
                incarnation: st.incarnation,
                time: now,
                seq: window.seq,
                tuples: std::mem::take(&mut window.window_tuples),
                emitted_cum: window.cum_emitted,
                shed_cum: window.cum_shed,
                truncated_cum: window.cum_truncated,
                throttled: std::mem::take(&mut window.throttles),
                rows,
            };
            window.seq += 1;
            window.dirty = false;
            st.stats.reports_out += 1;
            sat(&mut st.stats.tuples_out, report.tuples);
            out.push(report);
        }
        out
    }

    /// Queues one downstream retro report for upstream, verbatim: the
    /// originating agent's (host, procid, incarnation, seq) identity
    /// survives the hop so the frontend's dedup works end to end. The
    /// queue is bounded by [`RETRO_QUEUE_CAP`] events; the oldest frames
    /// shed first, tallied in [`RelayStats::retro_events_shed`].
    /// Exact `(source, ring seq)` repeats — transport duplicates below
    /// this hop — are suppressed and tallied in
    /// [`RelayStats::retro_duplicate`]; the suppression ledger survives
    /// [`RelayCore::restart`] (see `CoreState::retro_seen`).
    pub fn absorb_retro(&self, report: RetroReport) {
        let st = &mut *self.state.lock();
        let key = (report.host.clone(), report.procid, report.incarnation);
        if st.retro_seen.entry(key).or_default().record(report.seq) != Seen::Fresh {
            st.stats.retro_duplicate += 1;
            return;
        }
        st.retro_events += report.events.len() as u64;
        st.retro.push_back(report);
        st.stats.retro_in += 1;
        while st.retro_events > RETRO_QUEUE_CAP && st.retro.len() > 1 {
            let Some(shed) = st.retro.pop_front() else {
                break;
            };
            let n = shed.events.len() as u64;
            st.retro_events -= n;
            st.stats.retro_events_shed += n;
        }
    }

    /// Absorbs one downstream [`Bus::drain`], both lanes.
    pub fn absorb_all(&self, drained: Drained) {
        for r in drained.reports {
            self.absorb(r);
        }
        for r in drained.retro {
            self.absorb_retro(r);
        }
    }

    /// Drains the retro pass-through queue for upstream forwarding.
    pub fn flush_retro(&self) -> Vec<RetroReport> {
        let st = &mut *self.state.lock();
        st.retro_events = 0;
        let out: Vec<RetroReport> = st.retro.drain(..).collect();
        st.stats.retro_out += out.len() as u64;
        out
    }

    /// Public for integration tests.
    ///
    /// Events currently queued in retro reports awaiting upstream (what
    /// a crash right now would destroy).
    pub fn buffered_retro_events(&self) -> u64 {
        self.state.lock().retro_events
    }

    /// Tuples currently absorbed but unflushed, across all windows (what
    /// a crash right now would destroy).
    pub fn buffered_tuples(&self) -> u64 {
        self.state.lock().window_tuples()
    }

    /// Simulates a relay crash + restart: the open windows (and their
    /// unflushed tuples) are destroyed and returned as [`CrashResidue`],
    /// every source track is dropped (sources re-baseline on next
    /// contact), the upstream seq space restarts at 0 under a fresh
    /// incarnation. Learned query shapes are dropped too — recovery
    /// re-learns them via [`RelayCore::sync`], mirroring an agent's
    /// post-crash epoch re-sync.
    pub fn restart(&self) -> CrashResidue {
        let st = &mut *self.state.lock();
        let window_tuples = st.window_tuples();
        st.windows.clear();
        let retro_events = st.retro_events;
        st.retro.clear();
        st.retro_events = 0;
        st.incarnation = NEXT_INCARNATION.fetch_add(1, Ordering::Relaxed);
        CrashResidue {
            window_tuples,
            retro_events,
        }
    }
}

/// A simulated relay node: a [`RelayCore`] fronting any downstream
/// [`Bus`]. Composes into trees — `Relay` over `ChaosBus` over `Relay`
/// over `LocalBus` gives two relay hops with faults on the inter-tier
/// links — and the whole tree is itself a `Bus` the frontend drains.
pub struct Relay<B> {
    core: RelayCore,
    inner: B,
}

impl<B: Bus> Relay<B> {
    /// Wraps `inner` (the downstream side) in a relay reporting upstream
    /// as `info`.
    pub fn new(inner: B, info: ProcessInfo) -> Relay<B> {
        Relay {
            core: RelayCore::new(info),
            inner,
        }
    }

    /// The relay's accounting core.
    pub fn core(&self) -> &RelayCore {
        &self.core
    }

    /// The downstream bus.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Pulls downstream reports into the merge windows and retro frames
    /// into the pass-through queue *without* flushing upstream — the
    /// mid-window, mid-queue state a crash test needs (what is pulled dies
    /// in the [`CrashResidue`]).
    pub fn pull(&self, now: u64) {
        self.core.absorb_all(self.inner.drain(now));
    }
}

impl<B: Bus> Bus for Relay<B> {
    /// Control plane is proxied transparently: the relay learns what it
    /// needs and the command continues to every downstream agent.
    fn broadcast(&self, cmd: &Command) {
        self.core.observe(cmd);
        self.inner.broadcast(cmd);
    }

    /// One upstream drain = absorb everything downstream produced, then
    /// flush the merged windows; retro frames pass through verbatim (no
    /// re-origination; see [`RelayCore::absorb_retro`]).
    fn drain(&self, now: u64) -> Drained {
        self.pull(now);
        Drained {
            reports: self.core.flush(now),
            retro: self.core.flush_retro(),
        }
    }
}

/// Fan-in plumbing: one bus over many independent subtrees. Broadcasts
/// reach every child; drains concatenate in child order.
pub struct FanIn<B> {
    children: Vec<B>,
}

impl<B: Bus> FanIn<B> {
    /// A fan-in over `children`.
    pub fn new(children: Vec<B>) -> FanIn<B> {
        FanIn { children }
    }

    /// The subtrees.
    pub fn children(&self) -> &[B] {
        &self.children
    }
}

impl<B: Bus> Bus for FanIn<B> {
    fn broadcast(&self, cmd: &Command) {
        for c in &self.children {
            c.broadcast(cmd);
        }
    }
    fn drain(&self, now: u64) -> Drained {
        let mut out = Drained::default();
        for c in &self.children {
            let Drained { reports, retro } = c.drain(now);
            out.reports.extend(reports);
            out.retro.extend(retro);
        }
        out
    }
}
