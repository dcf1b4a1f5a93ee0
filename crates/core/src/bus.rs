//! Message-bus types connecting the frontend and the agents.
//!
//! The paper's prototype uses a central pub/sub server (Figure 2). This
//! crate defines the messages; delivery is owned by the embedding system —
//! the simulated cluster delivers them over its simulated network, while
//! [`LocalBus`] delivers instantly for tests, examples, and benches.
//!
//! Delivery *policy* is factored out of delivery *mechanics*: a
//! [`Scheduler`] decides the fate ([`Verdict`]) of every frame crossing a
//! [`SchedBus`], which owns the one shared implementation of holding,
//! releasing, duplicating, and dropping frames. Plain FIFO delivery
//! ([`FifoScheduler`]), the chaos injector's seeded fault PRF, and the
//! interleaving explorer's exhaustive schedule enumeration are all just
//! `Scheduler` implementations over the same mechanics.

use parking_lot::Mutex;
use std::sync::Arc;

use pivot_baggage::QueryId;
use pivot_itc::{DecodeError, Decoder, Encoder};
use pivot_model::EncodedBlock;
use pivot_query::{CompiledCode, Groups};

use crate::retro::RetroReport;

/// A transport between the frontend and the per-process agents (the
/// paper's Figure 2 pub/sub server).
///
/// Implementations decide *how* [`Command`]s reach agents and how
/// [`Report`]s travel back: [`LocalBus`] delivers both synchronously inside
/// one process, the simulated cluster delivers over its virtual network,
/// and `pivot-live`'s TCP bus carries the same messages over real sockets
/// between real processes. The frontend-facing code is identical across
/// all three.
pub trait Bus {
    /// Broadcasts a frontend command to every connected agent.
    fn broadcast(&self, cmd: &Command);

    /// Collects what is currently addressed to the frontend, both lanes.
    ///
    /// `now` is the flush timestamp for transports that flush agents on
    /// demand; transports whose agents self-report on their own clocks
    /// (e.g. over TCP) ignore it.
    fn drain(&self, now: u64) -> Drained;

    /// Drains both lanes into `frontend`.
    fn pump_into(&self, now: u64, frontend: &mut crate::Frontend) {
        let Drained { reports, retro } = self.drain(now);
        for report in reports {
            frontend.accept(report);
        }
        for retro in retro {
            frontend.accept_retro(retro);
        }
    }
}

/// One [`Bus::drain`]: the report lane and the retroactive-flush lane. A
/// transport that carries no hindsight leaves `retro` empty.
#[derive(Default, Debug)]
pub struct Drained {
    /// Reports, in delivery order.
    pub reports: Vec<Report>,
    /// Retroactive-flush reports, in delivery order.
    pub retro: Vec<RetroReport>,
}

// Handles forward to the underlying bus: embeddings that hand out
// `Rc<Cluster>` / `Arc<TcpBusServer>` can still be wrapped by bus
// middleware such as `pivot-chaos`'s fault injector, and `Box<dyn Bus>`
// makes heterogeneous topologies expressible (the relay tier's fan-in
// over subtrees that mix plain, scheduled and chaos-wrapped links).
impl<P: std::ops::Deref> Bus for P
where
    P::Target: Bus,
{
    fn broadcast(&self, cmd: &Command) {
        (**self).broadcast(cmd);
    }
    fn drain(&self, now: u64) -> Drained {
        (**self).drain(now)
    }
}

/// A frontend → agents control message.
///
/// `Install` carries the *lowered* bytecode ([`CompiledCode`]), not the
/// advice-op tree: agents execute exactly the artifact the frontend
/// verified, and the wire protocol serializes flat instructions and the
/// result's shape — no expression tree crosses it.
#[derive(Clone, Debug)]
pub enum Command {
    /// Weave this query's lowered advice bytecode.
    Install(Arc<CompiledCode>),
    /// Unweave every program owned by this query.
    Uninstall(QueryId),
    /// Set (or replace) the overload-governor budget for a query.
    SetBudget(QueryId, crate::governor::QueryBudget),
}

/// Partial results of one query from one process over one interval.
///
/// Besides the rows themselves, every report carries the loss-accounting
/// envelope the frontend needs to detect faults on the report path:
/// `seq` (a per-agent, per-query flush counter) exposes duplicated and
/// missing reports, and `tuples` / `emitted_cum` let the frontend balance
/// `tuples_dropped + delivered == emitted` even when whole reports vanish.
#[derive(Clone, PartialEq, Debug)]
pub struct Report {
    /// The query.
    pub query: QueryId,
    /// Reporting host.
    pub host: String,
    /// Reporting process id (with `host`, the agent's stable identity).
    pub procid: u64,
    /// Agent incarnation: distinguishes a restarted agent (whose `seq`
    /// restarts at 0) from duplicated frames of the previous life.
    pub incarnation: u64,
    /// Report timestamp (nanoseconds).
    pub time: u64,
    /// Per-(agent, query) flush sequence number, starting at 0. Consecutive
    /// on the sender; gaps or repeats on the receiver are transport faults.
    pub seq: u64,
    /// Tuples folded into this report (the delta since the previous flush).
    pub tuples: u64,
    /// Cumulative tuples emitted for this query by this agent incarnation,
    /// including the ones in this report.
    pub emitted_cum: u64,
    /// Cumulative tuples this incarnation's governor shed from bounded
    /// buffers (emitted but intentionally never delivered; extends the
    /// loss identity with a `governor_shed` term).
    pub shed_cum: u64,
    /// Cumulative tuples truncated by the baggage `All`-cap for this query
    /// on this incarnation (never emitted; informational, so the frontend
    /// can distinguish governor truncation from transport drops).
    pub truncated_cum: u64,
    /// Circuit-breaker trips since the previous flush: at most one from
    /// an agent, every one a relay heard in the window it re-originates.
    pub throttled: Vec<crate::governor::Throttled>,
    /// The partial rows.
    pub rows: ReportRows,
}

impl Report {
    /// Encodes the report as a `Report` frame carries it: the envelope,
    /// the trips, then the body after a tag byte — 1 grouped, 2 blocks.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.query.0);
        enc.put_str(&self.host);
        enc.put_varint(self.procid);
        enc.put_varint(self.incarnation);
        enc.put_varint(self.time);
        enc.put_varint(self.seq);
        enc.put_varint(self.tuples);
        enc.put_varint(self.emitted_cum);
        enc.put_varint(self.shed_cum);
        enc.put_varint(self.truncated_cum);
        enc.put_varint(self.throttled.len() as u64);
        for t in &self.throttled {
            t.encode(enc);
        }
        match &self.rows {
            ReportRows::Grouped(groups) => {
                enc.put_u8(1);
                groups.encode(enc);
            }
            ReportRows::RawEncoded(blocks) => {
                // The blocks' encoded bytes go on the wire as-is — this is
                // the zero-copy path relays exercise on every re-origination.
                enc.put_u8(2);
                enc.put_varint(blocks.len() as u64);
                for b in blocks {
                    b.write_wire(enc);
                }
            }
        }
    }

    /// Decodes a report. Body tag 0, version 7's row-by-row body, is
    /// retired, not reused.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Report, DecodeError> {
        Ok(Report {
            query: QueryId(dec.take_varint()?),
            host: dec.take_str()?.to_owned(),
            procid: dec.take_varint()?,
            incarnation: dec.take_varint()?,
            time: dec.take_varint()?,
            seq: dec.take_varint()?,
            tuples: dec.take_varint()?,
            emitted_cum: dec.take_varint()?,
            shed_cum: dec.take_varint()?,
            truncated_cum: dec.take_varint()?,
            throttled: dec.take_list(64, crate::governor::Throttled::decode)?,
            rows: match dec.take_u8()? {
                1 => ReportRows::Grouped(Groups::decode(dec)?),
                // `read_wire` validates the row-count header (which the
                // receiver trusts for loss accounting) but keeps the
                // payload opaque — relays forward it without a per-value
                // parse; the frontend validates when it decodes.
                2 => ReportRows::RawEncoded(dec.take_list(4096, EncodedBlock::read_wire)?),
                t => return Err(DecodeError::BadTag("report rows", t)),
            },
        })
    }
}

/// Rows inside a report.
#[derive(Clone, PartialEq, Debug)]
pub enum ReportRows {
    /// Partially aggregated groups, in first-seen order from an agent and
    /// in key order from a relay.
    Grouped(Groups),
    /// Raw rows of a streaming (non-aggregating) query, as encoded
    /// blocks ([`pivot_model::EncodedBlock`]: column-major for a uniform
    /// batch, row-major for a single row or a ragged one).
    ///
    /// Agents flush streaming rows in this form so the wire layer ships
    /// (and relays re-originate) the encoded bytes without re-encoding —
    /// or, on the relay path, without decoding at all. Only the frontend
    /// materializes tuples. Each block's row count is trusted for
    /// accounting (it is validated at wire decode); the payload is
    /// validated when the frontend decodes it.
    RawEncoded(Vec<EncodedBlock>),
}

impl ReportRows {
    /// Number of rows carried.
    pub fn len(&self) -> usize {
        match self {
            ReportRows::Grouped(g) => g.len(),
            ReportRows::RawEncoded(blocks) => blocks.iter().map(EncodedBlock::rows).sum(),
        }
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An instant-delivery bus for single-process embeddings.
///
/// Registers agents, broadcasts commands synchronously, and pumps agent
/// flushes straight into the frontend.
#[derive(Default)]
pub struct LocalBus {
    agents: Vec<Arc<crate::Agent>>,
}

impl LocalBus {
    /// Creates an empty bus.
    pub fn new() -> LocalBus {
        LocalBus::default()
    }

    /// Registers an agent.
    pub fn register(&mut self, agent: Arc<crate::Agent>) {
        self.agents.push(agent);
    }

    /// Removes an agent (by identity), e.g. when a chaos harness crashes a
    /// simulated process. Unflushed tuples die with it, exactly as a real
    /// process crash would lose them.
    pub fn unregister(&mut self, agent: &Arc<crate::Agent>) {
        self.agents.retain(|a| !Arc::ptr_eq(a, agent));
    }

    /// Returns the registered agents.
    pub fn agents(&self) -> &[Arc<crate::Agent>] {
        &self.agents
    }

    /// Broadcasts a command to every agent.
    pub fn broadcast(&self, cmd: &Command) {
        Bus::broadcast(self, cmd);
    }

    /// Public for integration tests.
    ///
    /// Flushes every agent and delivers the reports to `frontend`.
    pub fn pump(&self, now: u64, frontend: &mut crate::Frontend) {
        self.pump_into(now, frontend);
    }
}

impl Bus for LocalBus {
    fn broadcast(&self, cmd: &Command) {
        for a in &self.agents {
            a.apply(cmd);
        }
    }

    fn drain(&self, now: u64) -> Drained {
        Drained {
            reports: self.agents.iter().flat_map(|a| a.flush(now)).collect(),
            retro: self.agents.iter().flat_map(|a| a.drain_retro()).collect(),
        }
    }
}

/// The fate of one frame crossing a [`SchedBus`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Deliver normally.
    Deliver,
    /// Silently discard (tallied in [`LaneStats`]).
    Drop,
    /// Deliver two copies.
    Duplicate,
    /// Hold for this many nanoseconds, then deliver.
    Delay(u64),
}

/// Delivery policy for a [`SchedBus`]: decides the [`Verdict`] of every
/// command and report frame crossing the bus.
///
/// Implementations are consulted under the bus's internal lock and must
/// be pure functions of their own state plus the frame identity — the
/// chaos injector's seeded PRF and the interleaving explorer's
/// hold-everything policy both satisfy this trivially.
pub trait Scheduler {
    /// The fate of the `index`-th broadcast command frame (`index` counts
    /// admissions on this bus, starting at 0).
    fn command_verdict(&self, index: u64, cmd: &Command) -> Verdict;

    /// The fate of one report frame admitted at `now`.
    fn report_verdict(&self, report: &Report, now: u64) -> Verdict;

    /// The fate of one retroactive-flush report frame admitted at `now`.
    /// Defaults to normal delivery so pre-retro schedulers need no change.
    fn retro_verdict(&self, report: &RetroReport, now: u64) -> Verdict {
        let _ = (report, now);
        Verdict::Deliver
    }
}

/// The trivial policy: deliver everything immediately, in admission
/// order. `SchedBus<B, FifoScheduler>` behaves exactly like `B` while
/// still tallying [`DeliveryStats`].
#[derive(Clone, Copy, Default, Debug)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn command_verdict(&self, _index: u64, _cmd: &Command) -> Verdict {
        Verdict::Deliver
    }
    fn report_verdict(&self, _report: &Report, _now: u64) -> Verdict {
        Verdict::Deliver
    }
}

/// What happened to the frames of one lane of a [`SchedBus`], cumulatively.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct LaneStats {
    /// Frames that crossed the lane.
    pub seen: u64,
    /// Frames discarded.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames held for later delivery.
    pub delayed: u64,
    /// What the dropped frames carried — tuples on the report lane,
    /// buffered events on the retro lane, nothing on the command lane:
    /// the link-side ground truth for a [`Ledger`](crate::Ledger)'s
    /// `dropped` term.
    pub payload_dropped: u64,
}

impl LaneStats {
    /// The one place a [`Verdict`] is applied: tallies it and says what
    /// to do with the frame — `(copies to deliver now, hold for)`. On a
    /// severed link nothing can be delivered now, so deliveries and
    /// duplicates become holds that release after restore.
    fn tally(&mut self, verdict: Verdict, severed: bool, payload: u64) -> (usize, Option<u64>) {
        self.seen += 1;
        let verdict = match verdict {
            Verdict::Deliver | Verdict::Duplicate if severed => Verdict::Delay(0),
            v => v,
        };
        match verdict {
            Verdict::Deliver => (1, None),
            Verdict::Drop => {
                self.dropped += 1;
                self.payload_dropped += payload;
                (0, None)
            }
            Verdict::Duplicate => {
                self.duplicated += 1;
                (2, None)
            }
            Verdict::Delay(d) => {
                self.delayed += 1;
                (0, Some(d))
            }
        }
    }
}

/// What a [`SchedBus`] did to the frames that crossed it, per lane.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct DeliveryStats {
    /// Report frames (payload: tuples).
    pub reports: LaneStats,
    /// Retroactive-flush report frames (payload: buffered events).
    pub retro: LaneStats,
    /// Command frames (no payload).
    pub commands: LaneStats,
}

/// A frame currently held by a [`SchedBus`], exposed to
/// [`SchedBus::release_where`] predicates.
pub enum HeldFrame<'a> {
    /// A held command, identified by its admission index on this bus.
    Command {
        /// The admission index [`Scheduler::command_verdict`] saw.
        index: u64,
        /// The command itself.
        cmd: &'a Command,
    },
    /// A held report.
    Report(&'a Report),
    /// A held retroactive-flush report.
    Retro(&'a RetroReport),
}

/// What a [`Lane`] needs to know about the frames it carries.
trait Frame: Clone {
    /// What a drop of this frame destroys.
    fn payload(&self) -> u64;
    fn verdict(&self, sched: &impl Scheduler, now: u64) -> Verdict;
}

impl Frame for Report {
    fn payload(&self) -> u64 {
        self.tuples
    }
    fn verdict(&self, sched: &impl Scheduler, now: u64) -> Verdict {
        sched.report_verdict(self, now)
    }
}

impl Frame for RetroReport {
    fn payload(&self) -> u64 {
        self.events.len() as u64
    }
    fn verdict(&self, sched: &impl Scheduler, now: u64) -> Verdict {
        sched.retro_verdict(self, now)
    }
}

/// One direction-of-travel through a [`SchedBus`]: the frames it holds
/// (with release deadlines) and its tallies. Reports and retro reports
/// each ride one.
struct Lane<T> {
    held: Vec<(u64, T)>,
    stats: LaneStats,
}

impl<T> Default for Lane<T> {
    fn default() -> Lane<T> {
        Lane {
            held: Vec::new(),
            stats: LaneStats::default(),
        }
    }
}

impl<T: Frame> Lane<T> {
    /// Admits one frame at `now`: immediately deliverable copies go to
    /// `out`, a delayed frame is held.
    fn admit(
        &mut self,
        frame: T,
        sched: &impl Scheduler,
        severed: bool,
        now: u64,
        out: &mut Vec<T>,
    ) {
        if severed && crate::mutation::silent_reader_exit() {
            // Seeded mutation (PR 4's silent reader-exit bug): the link is
            // down and the frame vanishes with no loss tally anywhere —
            // exactly the unaccounted loss the explorer's identity check
            // must catch. Compiled out without the `mutations` feature.
            self.stats.seen += 1;
            return;
        }
        let verdict = frame.verdict(sched, now);
        match self.stats.tally(verdict, severed, frame.payload()) {
            (_, Some(d)) => self.held.push((now.saturating_add(d), frame)),
            (copies, None) => out.extend(std::iter::repeat_n(frame, copies)),
        }
    }

    /// One drain at `now`: held frames that are due (none while severed),
    /// then `fresh` ones — admitted, or passed straight through while the
    /// bus is disabled.
    fn drain(
        &mut self,
        fresh: Vec<T>,
        sched: &impl Scheduler,
        (disabled, severed): (bool, bool),
        now: u64,
    ) -> Vec<T> {
        let mut out = Vec::new();
        if !severed {
            let mut i = 0;
            while i < self.held.len() {
                if self.held[i].0 <= now {
                    out.push(self.held.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
        }
        if disabled {
            out.extend(fresh);
        } else {
            for frame in fresh {
                self.admit(frame, sched, severed, now, &mut out);
            }
        }
        out
    }

    /// Marks held frames matching `pred` due immediately; returns how
    /// many matched.
    fn release_where(&mut self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let mut n = 0;
        for (release, frame) in &mut self.held {
            if pred(frame) {
                *release = 0;
                n += 1;
            }
        }
        n
    }
}

struct PendingCommand {
    index: u64,
    delay: u64,
    /// Set on the first drain after the broadcast (the bus has no clock of
    /// its own; commands age relative to the next observed `now`).
    release: Option<u64>,
    cmd: Command,
}

#[derive(Default)]
struct SchedShared {
    reports: Lane<Report>,
    retro: Lane<RetroReport>,
    pending_cmds: Vec<PendingCommand>,
    commands: LaneStats,
    cmd_index: u64,
    disabled: bool,
    severed: bool,
}

/// Bus middleware routing every frame through a [`Scheduler`].
///
/// Owns the delivery mechanics every scheduled transport shares: pending
/// frames with release deadlines, duplicate and drop tallies, an on/off
/// switch, and a severed-link state modelling a dead connection. Works
/// over any transport — [`LocalBus`], the simulated cluster's
/// `Rc<Cluster>`, or a live `Arc<TcpBusServer>` — because it only touches
/// the [`Bus`] trait surface.
pub struct SchedBus<B, S> {
    inner: B,
    sched: S,
    shared: Mutex<SchedShared>,
}

impl<B, S> SchedBus<B, S> {
    /// Wraps `inner`, routing every frame through `sched`.
    pub fn new(inner: B, sched: S) -> SchedBus<B, S> {
        SchedBus {
            inner,
            sched,
            shared: Mutex::new(SchedShared::default()),
        }
    }

    /// The wrapped bus.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The wrapped bus, mutably (e.g. to register/unregister agents on a
    /// [`LocalBus`] when a harness crashes and restarts them).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// The delivery policy.
    pub fn scheduler(&self) -> &S {
        &self.sched
    }

    /// A snapshot of the delivery tallies.
    pub fn stats(&self) -> DeliveryStats {
        let sh = self.shared.lock();
        DeliveryStats {
            reports: sh.reports.stats,
            retro: sh.retro.stats,
            commands: sh.commands,
        }
    }

    /// Turns scheduling on or off. While disabled the bus is a transparent
    /// pass-through (pending frames still release on drain).
    pub fn set_enabled(&self, enabled: bool) {
        self.shared.lock().disabled = !enabled;
    }

    /// Marks every held frame due immediately, so the next drain delivers
    /// it regardless of the clock.
    pub fn release_pending(&self) {
        self.release_where(|_| true);
    }

    /// Marks the held frames matching `pred` due immediately; returns how
    /// many matched. The interleaving explorer uses this to deliver one
    /// chosen frame per transition.
    pub fn release_where(&self, mut pred: impl FnMut(&HeldFrame) -> bool) -> usize {
        let mut sh = self.shared.lock();
        let mut n = sh.reports.release_where(|r| pred(&HeldFrame::Report(r)));
        n += sh.retro.release_where(|r| pred(&HeldFrame::Retro(r)));
        for p in &mut sh.pending_cmds {
            if pred(&HeldFrame::Command {
                index: p.index,
                cmd: &p.cmd,
            }) {
                p.release = Some(0);
                n += 1;
            }
        }
        n
    }

    /// Frames currently held for later delivery (reports + retro reports,
    /// commands).
    pub fn pending(&self) -> (usize, usize) {
        let sh = self.shared.lock();
        (
            sh.reports.held.len() + sh.retro.held.len(),
            sh.pending_cmds.len(),
        )
    }

    /// Severs the link: the connection between this bus and its frontend
    /// is down. Frames admitted while severed are held regardless of
    /// their verdict (outage buffering — they deliver after
    /// [`SchedBus::restore`]), and nothing releases on drain.
    pub fn sever(&self) {
        self.shared.lock().severed = true;
    }

    /// Restores a severed link; held frames release again per their
    /// deadlines.
    pub fn restore(&self) {
        self.shared.lock().severed = false;
    }

    /// Whether the link is currently severed.
    pub fn is_severed(&self) -> bool {
        self.shared.lock().severed
    }
}

impl<B, S: Scheduler> SchedBus<B, S> {
    /// Admits one externally produced report through the scheduler, as if
    /// the inner bus had drained it at `now`. Returns any immediately
    /// deliverable copies. Harnesses that flush agents themselves (the
    /// interleaving explorer) use this instead of routing flushes through
    /// [`Bus::drain`].
    pub fn offer_report(&self, report: Report, now: u64) -> Vec<Report> {
        let mut out = Vec::new();
        let mut sh = self.shared.lock();
        if sh.disabled {
            out.push(report);
        } else {
            let severed = sh.severed;
            sh.reports
                .admit(report, &self.sched, severed, now, &mut out);
        }
        out
    }
}

impl<B: Bus, S: Scheduler> SchedBus<B, S> {
    /// End-of-run convergence: stop scheduling, release every held frame,
    /// and pump the final reports into `frontend`. After this, everything
    /// the policy did not *drop* has been delivered.
    pub fn settle_into(&self, now: u64, frontend: &mut crate::Frontend) {
        self.set_enabled(false);
        self.restore();
        self.release_pending();
        self.pump_into(now, frontend);
    }
}

impl<B: Bus, S: Scheduler> Bus for SchedBus<B, S> {
    fn broadcast(&self, cmd: &Command) {
        let mut sh = self.shared.lock();
        let copies = if sh.disabled {
            1
        } else {
            let index = sh.cmd_index;
            sh.cmd_index += 1;
            let verdict = self.sched.command_verdict(index, cmd);
            let severed = sh.severed;
            match sh.commands.tally(verdict, severed, 0) {
                (copies, None) => copies,
                (_, Some(delay)) => {
                    sh.pending_cmds.push(PendingCommand {
                        index,
                        delay,
                        release: None,
                        cmd: cmd.clone(),
                    });
                    0
                }
            }
        };
        drop(sh);
        for _ in 0..copies {
            self.inner.broadcast(cmd);
        }
    }

    fn drain(&self, now: u64) -> Drained {
        let mut sh = self.shared.lock();
        if !sh.severed {
            // Release due commands before draining, so a late install
            // weaves before this round's flush rather than after it.
            let mut due_cmds = Vec::new();
            sh.pending_cmds.retain_mut(|p| {
                let rel = *p.release.get_or_insert_with(|| now.saturating_add(p.delay));
                if rel <= now {
                    due_cmds.push(p.cmd.clone());
                    false
                } else {
                    true
                }
            });
            for cmd in &due_cmds {
                self.inner.broadcast(cmd);
            }
        }
        let fresh = self.inner.drain(now);
        let mode = (sh.disabled, sh.severed);
        Drained {
            reports: sh.reports.drain(fresh.reports, &self.sched, mode, now),
            retro: sh.retro.drain(fresh.retro, &self.sched, mode, now),
        }
    }
}
