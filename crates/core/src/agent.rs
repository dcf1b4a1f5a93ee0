//! The per-process Pivot Tracing agent.
//!
//! One [`Agent`] lives in every Pivot Tracing-enabled process (paper §5).
//! It owns the process's weave [`Registry`], runs woven advice bytecode on
//! every tracepoint invocation, accumulates emitted tuples with
//! process-local aggregation, and publishes partial query results at a
//! configurable interval (by default one second of simulated time).
//!
//! # Hot path
//!
//! What an event needs to know about its tracepoint was settled when the
//! advice was woven: [`Agent::invoke`] — a batch of one through
//! [`Agent::invoke_batch`] — makes one registry lookup for the site's
//! plan (`crate::tracepoint::SitePlan`: per program the run shape, where
//! each `Observe` column comes from, and the index of the query's state
//! slot) and runs each program through a thread-local [`Vm`] whose
//! scratch persists across invocations. No export set is assembled: the
//! VM asks for the columns a program observes and gets the agent's
//! default exports or the caller's, by position and by reference.
//! Emitted rows go straight into the aggregation buffers through an
//! [`EmitSink`] under one lock per invocation; a grouped row's key is
//! read where the caller keeps it and cloned only when its group is
//! born, into a [`Groups`] table where a birth is a push. A woven event
//! therefore allocates only for the data it actually produces — a key too
//! long to sit in its values, a table outgrowing its vectors, a packed
//! tuple's retirement — which `tests/invoke_allocs.rs` pins at zero for
//! the five queries of the benchmark's `svc_5q_retro` shard site.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use pivot_baggage::{Baggage, QueryId};
use pivot_model::value::NULL;
use pivot_model::{colblock, intern, AggState, Cols, EncodedBlock, Tuple, Value};
use pivot_query::{AdviceByteCode, CompiledCode, EmitSink, Exports, Groups, OutputSpec, Vm};

use crate::bus::{Command, Report, ReportRows};
use crate::governor::{
    QueryBudget, ThrottleReason, ThrottleStats, Throttled, NOMINAL_BYTES_PER_VALUE,
};
use crate::retro::{trace_of, RetroCounters, RetroIdent, RetroReport, RetroRing, TriggerKind};
use crate::tracepoint::{names_match, Col, Layout, Planned, Registry, SitePlan};

/// Default per-query cap on rows buffered between flushes (and therefore
/// on outage-time buffering while a live agent is reconnecting). Past the
/// cap the buffer sheds deterministically — oldest row first for
/// streaming queries, newest group refused for grouped queries — and the
/// shed count rides the loss envelope as `shed_cum`.
pub const DEFAULT_ROW_CAP: usize = 65_536;

/// Identity of the process an agent runs in.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProcessInfo {
    /// Host name, e.g. `"host-A"`.
    pub host: String,
    /// Process id.
    pub procid: u64,
    /// Process name, e.g. `"DataNode"` or `"MRsort10g"`.
    pub procname: String,
}

/// Cumulative counters (drives the paper's overhead ablations).
#[derive(Clone, Copy, Default, Debug)]
pub struct AgentStats {
    /// Tracepoint invocations that found no woven advice.
    pub idle_invocations: u64,
    /// Tracepoint invocations that ran at least one advice program.
    pub advised_invocations: u64,
    /// Tuples packed into baggage by this process.
    pub tuples_packed: u64,
    /// Tuples emitted to the local aggregator.
    pub tuples_emitted: u64,
    /// Result rows sent to the frontend (after local aggregation).
    pub rows_reported: u64,
}

/// Rows accumulated for one query between flushes.
enum Rows {
    Grouped(Groups),
    /// A ring, so shedding the oldest row at the cap is O(1).
    Streaming(VecDeque<Tuple>),
}

/// Per-query local aggregation buffer.
///
/// The buffer outlives individual flushes: `seq` and `emitted_cum` are the
/// loss-accounting envelope every [`Report`] carries, so they must keep
/// counting across reporting intervals (a flush only takes the rows and
/// the since-flush tuple delta).
struct Buffer {
    spec: Arc<OutputSpec>,
    rows: Rows,
    /// Next flush sequence number for this query.
    seq: u64,
    /// Tuples folded in since the last flush.
    tuples_since_flush: u64,
    /// Tuples emitted for this query over the agent's lifetime.
    emitted_cum: u64,
    /// Tuples shed by the row cap over the agent's lifetime (emitted but
    /// never delivered; see [`DEFAULT_ROW_CAP`]).
    shed_cum: u64,
    /// `truncated_cum` value last shipped in a report, so a truncation
    /// with no accompanying rows still forces a report out.
    truncated_sent: u64,
    /// Set when loss counters changed since the last report; forces a
    /// (possibly row-less) report so the envelope reaches the frontend.
    dirty: bool,
}

impl Buffer {
    fn new(spec: &Arc<OutputSpec>) -> Buffer {
        let rows = if spec.streaming {
            Rows::Streaming(VecDeque::new())
        } else {
            Rows::Grouped(Groups::default())
        };
        Buffer {
            spec: Arc::clone(spec),
            rows,
            seq: 0,
            tuples_since_flush: 0,
            emitted_cum: 0,
            shed_cum: 0,
            truncated_sent: 0,
            dirty: false,
        }
    }

    /// Counts `rows` emitted rows of group `key` and hands `fold` the
    /// accumulators they fold into, unless the row cap sheds them.
    ///
    /// Grouped buffers shed by refusing *new* groups past the cap (a
    /// group-key explosion); updates to existing groups fold into
    /// fixed-size aggregation state and are never shed. A folded delivery
    /// is decided as a whole — every row of a refused new group is shed —
    /// which is what row-by-row delivery does too, since groups arrive in
    /// first-seen order either way. A new group whose key is of another
    /// width than the table's — which only an `Emit` built outside the
    /// compiler writes — is refused and shed the same way.
    ///
    /// One probe with the key as the VM reads it; the key is cloned into
    /// the table only when its group is born.
    fn group(
        &mut self,
        key: &dyn Cols,
        rows: u64,
        row_cap: usize,
        fold: impl FnOnce(&mut [AggState]),
    ) {
        let Rows::Grouped(groups) = &mut self.rows else {
            return;
        };
        self.emitted_cum += rows;
        let Some(states) = groups.fold(key, row_cap, &self.spec.aggs) else {
            self.shed_cum += rows;
            self.dirty = true;
            return;
        };
        fold(states);
        self.tuples_since_flush += rows;
    }
}

/// Per-query governor state: the budget, the current window's charges,
/// the breaker, and the retained advice programs for re-arm.
#[derive(Default)]
struct GovernorState {
    budget: QueryBudget,
    /// The query's advice, retained so a tripped breaker can re-weave it.
    programs: Vec<Arc<AdviceByteCode>>,
    /// The query's output spec, so a throttle can be reported even when
    /// the query never emitted here.
    spec: Option<Arc<OutputSpec>>,
    /// Start of the current accounting window.
    window_start: u64,
    /// Charges accumulated in the current window.
    tuples: u64,
    ops: u64,
    bytes: u64,
    /// `Some(deadline)` while the breaker is open (advice unwoven).
    open_until: Option<u64>,
    /// Lifetime trip count (drives the capped exponential backoff).
    trips: u32,
    /// A trip awaiting its ride on the next flush.
    pending: Option<Throttled>,
    /// Lifetime tuples truncated by the baggage `All`-cap, attributed to
    /// this query's advice.
    truncated_cum: u64,
}

/// Charges one advice program's work to its query and trips the breaker
/// when a budget dimension is exhausted. Returns `true` on trip (the
/// caller unweaves outside the VM loop).
fn charge_governor(
    g: &mut GovernorState,
    query: QueryId,
    now: u64,
    tuples: u64,
    ops: u64,
    bytes: u64,
    truncated: u64,
) -> bool {
    g.truncated_cum += truncated;
    if g.budget.is_unlimited() || g.open_until.is_some() {
        return false;
    }
    if now.saturating_sub(g.window_start) >= g.budget.window_ns {
        g.window_start = now;
        g.tuples = 0;
        g.ops = 0;
        g.bytes = 0;
    }
    g.tuples += tuples;
    g.ops += ops;
    g.bytes += bytes;
    let reason = if g.tuples > g.budget.tuples_per_window {
        ThrottleReason::Tuples
    } else if g.ops > g.budget.ops_per_window {
        ThrottleReason::Ops
    } else if g.bytes > g.budget.bytes_per_window {
        ThrottleReason::Bytes
    } else {
        return false;
    };
    g.trips += 1;
    g.open_until = Some(now.saturating_add(g.budget.backoff_ns(g.trips)));
    g.pending = Some(Throttled {
        query,
        reason,
        stats: ThrottleStats {
            tuples: g.tuples,
            ops: g.ops,
            bytes: g.bytes,
            trips: g.trips,
        },
    });
    true
}

thread_local! {
    /// Reusable VM scratch (registers, tuple buffers) shared by every agent
    /// on this thread. Advice runs to completion within one `invoke`, so a
    /// single VM per thread suffices.
    static VM: RefCell<Vm> = RefCell::new(Vm::new());
}

/// What the agent keeps for one query id it has been told about: the
/// aggregation buffer and the governor entry.
struct QuerySlot {
    query: QueryId,
    buffer: Option<Buffer>,
    gov: Option<GovernorState>,
}

/// Every query's slot, in first-seen order. Slots are appended and never
/// removed (uninstalling clears `gov`; a buffer keeps its loss envelope
/// for good), so the index a woven program's plan carries is a handle
/// that no later weave, unweave or re-sync can invalidate.
#[derive(Default)]
struct Queries(Vec<QuerySlot>);

impl Queries {
    /// `query`'s slot index, appended on first sight. A scan: weave-time
    /// and getter paths only, over as many queries as were ever installed.
    fn slot(&mut self, query: QueryId) -> usize {
        self.0
            .iter()
            .position(|s| s.query == query)
            .unwrap_or_else(|| {
                self.0.push(QuerySlot {
                    query,
                    buffer: None,
                    gov: None,
                });
                self.0.len() - 1
            })
    }

    fn buffer(&self, query: QueryId) -> Option<&Buffer> {
        self.0.iter().find(|s| s.query == query)?.buffer.as_ref()
    }

    fn gov(&self, query: QueryId) -> Option<&GovernorState> {
        self.0.iter().find(|s| s.query == query)?.gov.as_ref()
    }

    /// Drops the governor entry of every query `keep` rejects.
    fn retain_govs(&mut self, keep: impl Fn(QueryId) -> bool) {
        for s in self.0.iter_mut().filter(|s| !keep(s.query)) {
            s.gov = None;
        }
    }
}

/// Streams VM emits into the agent's aggregation buffers.
///
/// The query-state lock is taken at most once per invocation: up front
/// when a governor has to meter the run, otherwise lazily on the first
/// emitted row, so advice that only packs (or drops everything) never
/// touches it.
struct AgentSink<'a> {
    queries: &'a Mutex<Queries>,
    guard: Option<MutexGuard<'a, Queries>>,
    /// The running program's state slot, from its plan.
    slot: usize,
    /// Per-query bound on buffered rows (see [`DEFAULT_ROW_CAP`]).
    row_cap: usize,
    /// Queries whose `Trigger` advice fired during this VM pass. The
    /// agent drains them after the VM loop (outside the state lock) and
    /// fires the retro ring once per query.
    triggers: Vec<QueryId>,
}

impl AgentSink<'_> {
    fn buf(&mut self, query: QueryId, spec: &Arc<OutputSpec>) -> &mut Buffer {
        let queries = self.queries;
        let guard = self.guard.get_or_insert_with(|| queries.lock());
        // A program emits for the query that owns it; one that names
        // another query's id finds that query's slot the slow way.
        let slot = if guard.0[self.slot].query == query {
            self.slot
        } else {
            guard.slot(query)
        };
        guard.0[slot]
            .buffer
            .get_or_insert_with(|| Buffer::new(spec))
    }
}

impl EmitSink for AgentSink<'_> {
    fn streaming_row(&mut self, query: QueryId, spec: &Arc<OutputSpec>, row: Tuple) {
        let row_cap = self.row_cap;
        let buf = self.buf(query, spec);
        if let Rows::Streaming(rows) = &mut buf.rows {
            buf.emitted_cum += 1;
            buf.tuples_since_flush += 1;
            rows.push_back(row);
            if rows.len() > row_cap {
                // Shed oldest first: under overload (or a long outage on a
                // live agent) the freshest rows are the useful ones. The
                // shed tuple leaves the in-flight delta and joins the
                // cumulative shed count, keeping
                // `emitted_cum == delivered + in-flight + shed_cum` exact.
                rows.pop_front();
                buf.tuples_since_flush -= 1;
                buf.shed_cum += 1;
                buf.dirty = true;
            }
        }
    }

    fn grouped_row(
        &mut self,
        query: QueryId,
        spec: &Arc<OutputSpec>,
        key: &dyn Cols,
        args: &dyn Cols,
    ) {
        let row_cap = self.row_cap;
        self.buf(query, spec).group(key, 1, row_cap, |states| {
            for (st, i) in states.iter_mut().zip(0..args.width()) {
                st.update(&args.col(i));
            }
        });
    }

    fn folds_grouped(&self) -> bool {
        true
    }

    fn trigger(&mut self, query: QueryId) {
        // At most one firing per query per pass (the VM fires once per
        // invocation of a batch, deduped here at no extra cost for the
        // common case).
        if !self.triggers.contains(&query) {
            self.triggers.push(query);
        }
    }

    fn grouped_fold(
        &mut self,
        query: QueryId,
        spec: &Arc<OutputSpec>,
        key: &dyn Cols,
        states: &[AggState],
        rows: u64,
    ) {
        let row_cap = self.row_cap;
        self.buf(query, spec).group(key, rows, row_cap, |into| {
            for (st, partial) in into.iter_mut().zip(states) {
                st.merge(partial);
            }
        });
    }
}

/// One woven program's view of the events of an invocation: the column
/// source its `Observe` reads, answering from what the site's plan
/// resolved instead of from an assembled export list.
struct SiteExports<'a> {
    agent: &'a Agent,
    site: &'a SitePlan,
    program: &'a Planned,
    events: &'a [(u64, &'a [(&'a str, Value)])],
    /// Where the program's columns sit in the caller's list, when every
    /// event matches the site's remembered layout.
    pos: Option<&'a [usize]>,
}

impl Exports for SiteExports<'_> {
    fn invocations(&self) -> usize {
        self.events.len()
    }

    fn get(&self, inv: usize, col: usize, name: &str) -> Cow<'_, Value> {
        let (now, exports) = self.events[inv];
        Cow::Borrowed(match self.program.cols[col] {
            Col::Host => &self.agent.host_value,
            Col::Timestamp => return Cow::Owned(Value::U64(now)),
            Col::Procid => return Cow::Owned(Value::U64(self.agent.info.procid)),
            Col::Procname => &self.agent.procname_value,
            Col::Tracepoint => &self.site.name,
            Col::Caller => match self.pos {
                Some(pos) => exports.get(pos[col]).map_or(&NULL, |(_, v)| v),
                None => pivot_query::bytecode::lookup(exports, name),
            },
        })
    }
}

/// [`AgentStats`] as the invoke path advances it: relaxed counters, so
/// an event takes no lock for them.
#[derive(Default)]
struct Counters {
    idle_invocations: AtomicU64,
    advised_invocations: AtomicU64,
    tuples_packed: AtomicU64,
    tuples_emitted: AtomicU64,
    rows_reported: AtomicU64,
}

/// Adds `n` to a statistic; most events leave most of them alone.
fn bump(counter: &AtomicU64, n: u64) {
    if n > 0 {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Process-wide incarnation counter: every [`Agent`] gets a distinct
/// incarnation number, so a restarted agent (same host/procid, fresh
/// `seq` space) is distinguishable from duplicated reports of its
/// previous life.
static NEXT_INCARNATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// The per-process agent.
pub struct Agent {
    info: ProcessInfo,
    /// `info.host` as an interned `Value`, built once.
    host_value: Value,
    /// `info.procname` as an interned `Value`, built once.
    procname_value: Value,
    incarnation: u64,
    registry: Registry,
    /// Aggregation buffers and overload-governor state, one slot per
    /// query. Lock order: `queries` before the registry's map (a flush
    /// re-arms by weaving); an invocation releases the registry before it
    /// takes this.
    queries: Mutex<Queries>,
    /// `true` iff any governor entry has a finite budget; lets ungoverned
    /// invocations leave `queries` alone until their first emitted row.
    governed: AtomicBool,
    /// Per-query bound on buffered rows between flushes.
    row_cap: AtomicUsize,
    stats: Counters,
    enabled: std::sync::atomic::AtomicBool,
    /// The hindsight ring (see [`crate::retro`]). Lock order: taken alone,
    /// never while holding `queries`.
    retro: Mutex<RetroRing>,
    /// Gate on the whole retro path: when `false` (the default), invoke
    /// pays exactly one relaxed load and records nothing.
    retro_enabled: AtomicBool,
    /// Latency-outlier trigger threshold in nanoseconds (0 = off): a woven
    /// invocation exporting `latency_ns` above it fires a retro flush.
    retro_latency_ns: AtomicU64,
}

impl Agent {
    /// Creates an agent for the given process identity.
    pub fn new(info: ProcessInfo) -> Agent {
        let incarnation = NEXT_INCARNATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let retro = RetroRing::new(RetroIdent {
            host: info.host.clone(),
            procid: info.procid,
            incarnation,
        });
        Agent {
            host_value: intern(&info.host).into(),
            procname_value: intern(&info.procname).into(),
            info,
            incarnation,
            registry: Registry::new(),
            queries: Mutex::new(Queries::default()),
            governed: AtomicBool::new(false),
            row_cap: AtomicUsize::new(DEFAULT_ROW_CAP),
            stats: Counters::default(),
            enabled: std::sync::atomic::AtomicBool::new(true),
            retro: Mutex::new(retro),
            retro_enabled: AtomicBool::new(false),
            retro_latency_ns: AtomicU64::new(0),
        }
    }

    /// Returns this agent's incarnation number (unique per `Agent` within
    /// the process; carried on every [`Report`]).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Turns the whole agent on or off. A disabled agent's
    /// [`Agent::invoke`] returns before even consulting the registry —
    /// the "unmodified system" baseline of the paper's Table 5.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled
            .store(enabled, std::sync::atomic::Ordering::Relaxed);
    }

    /// Returns the process identity.
    pub fn info(&self) -> &ProcessInfo {
        &self.info
    }

    /// Returns the weave registry (exposed for tests and benches).
    #[inline]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Returns a snapshot of the counters.
    pub fn stats(&self) -> AgentStats {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        AgentStats {
            idle_invocations: read(&self.stats.idle_invocations),
            advised_invocations: read(&self.stats.advised_invocations),
            tuples_packed: read(&self.stats.tuples_packed),
            tuples_emitted: read(&self.stats.tuples_emitted),
            rows_reported: read(&self.stats.rows_reported),
        }
    }

    /// Applies a frontend command (weave / unweave / budget).
    pub fn apply(&self, cmd: &Command) {
        match cmd {
            Command::Install(code) => self.install(code),
            Command::Uninstall(id) => {
                self.registry.unweave(*id);
                let mut queries = self.queries.lock();
                queries.retain_govs(|q| q != *id);
                self.recompute_governed(&queries);
            }
            Command::SetBudget(id, budget) => self.set_budget(*id, *budget),
        }
    }

    /// Weaves every bytecode program of `code` into the local registry and
    /// pre-creates the query's aggregation buffer so the first emit does
    /// not pay for it.
    ///
    /// Idempotent: a query that is already woven is left untouched, so
    /// re-shipped bytecode (a duplicated install frame, or an epoch
    /// re-sync after reconnect) can never weave the same advice twice and
    /// double-count emissions. A query whose breaker is currently open is
    /// likewise left unwoven — a duplicated install or an epoch re-sync
    /// must not undo a trip before its backoff elapses.
    pub fn install(&self, code: &CompiledCode) {
        // A query carrying `Trigger` advice needs the hindsight ring
        // recording *before* the trigger ever fires; installing one
        // switches retro on (uninstall leaves it on — turning recording
        // off is an explicit operator decision, see [`Agent::set_retro`]).
        if code.programs.iter().any(|p| p.triggers()) {
            self.retro_enabled.store(true, Ordering::Relaxed);
        }
        let slot = {
            let mut queries = self.queries.lock();
            let slot = queries.slot(code.id);
            let state = &mut queries.0[slot];
            if let Some(g) = &mut state.gov {
                g.programs = code.programs.clone();
                g.spec = Some(Arc::clone(&code.output));
                if g.open_until.is_some() && !crate::mutation::sync_unthrottle() {
                    return;
                }
            }
            // A no-op for a query that is already woven: it got its
            // buffer when it first was.
            if code.programs.iter().any(|p| p.emits()) {
                state
                    .buffer
                    .get_or_insert_with(|| Buffer::new(&code.output));
            }
            slot
        };
        if self.registry.has_query(code.id) {
            return;
        }
        for program in &code.programs {
            self.registry.weave(code.id, slot, program);
        }
    }

    /// Sets (or replaces) the overload budget for `query`. The governor
    /// captures the query's currently woven programs so a later trip can
    /// re-weave exactly what it unwove.
    pub fn set_budget(&self, query: QueryId, budget: QueryBudget) {
        let mut queries = self.queries.lock();
        self.budget(&mut queries, query, budget);
        self.recompute_governed(&queries);
    }

    /// Replaces the whole budget set (the epoch re-sync path, alongside
    /// [`Agent::sync`]). Queries absent from `budgets` lose their governor
    /// entry; an open breaker for a still-budgeted query stays open.
    pub fn sync_budgets(&self, budgets: &[(QueryId, QueryBudget)]) {
        let mut queries = self.queries.lock();
        queries.retain_govs(|q| budgets.iter().any(|(bq, _)| *bq == q));
        for (query, budget) in budgets {
            self.budget(&mut queries, *query, *budget);
        }
        self.recompute_governed(&queries);
    }

    fn budget(&self, queries: &mut Queries, query: QueryId, budget: QueryBudget) {
        let slot = queries.slot(query);
        let state = &mut queries.0[slot];
        let g = state.gov.get_or_insert_with(GovernorState::default);
        g.budget = budget;
        if g.programs.is_empty() {
            g.programs = self.registry.programs_for(query);
        }
        if g.spec.is_none() {
            g.spec = state.buffer.as_ref().map(|b| Arc::clone(&b.spec));
        }
    }

    fn recompute_governed(&self, queries: &Queries) {
        let any = queries
            .0
            .iter()
            .any(|s| s.gov.as_ref().is_some_and(|g| !g.budget.is_unlimited()));
        self.governed.store(any, Ordering::Relaxed);
    }

    /// Returns the budget currently set for `query`, if any.
    pub fn budget_for(&self, query: QueryId) -> Option<QueryBudget> {
        self.queries.lock().gov(query).map(|g| g.budget)
    }

    /// Returns `true` while `query`'s circuit breaker is open (advice
    /// unwoven, awaiting its backoff deadline).
    pub fn is_tripped(&self, query: QueryId) -> bool {
        let queries = self.queries.lock();
        queries.gov(query).is_some_and(|g| g.open_until.is_some())
    }

    /// Lifetime breaker trips for `query` on this agent.
    pub fn trips_for(&self, query: QueryId) -> u32 {
        self.queries.lock().gov(query).map_or(0, |g| g.trips)
    }

    /// Cumulative tuples shed from `query`'s bounded buffer (emitted but
    /// never delivered).
    pub fn shed_for(&self, query: QueryId) -> u64 {
        self.queries.lock().buffer(query).map_or(0, |b| b.shed_cum)
    }

    /// Cumulative tuples truncated by the baggage `All`-cap while running
    /// `query`'s advice on this agent.
    pub fn truncated_for(&self, query: QueryId) -> u64 {
        let queries = self.queries.lock();
        queries.gov(query).map_or(0, |g| g.truncated_cum)
    }

    /// Rows currently buffered for `query` (bounded by the row cap).
    pub fn buffered_rows(&self, query: QueryId) -> usize {
        let queries = self.queries.lock();
        queries.buffer(query).map_or(0, |b| match &b.rows {
            Rows::Streaming(rows) => rows.len(),
            Rows::Grouped(groups) => groups.len(),
        })
    }

    /// Overrides the per-query buffered-row cap (minimum 1).
    pub fn set_row_cap(&self, cap: usize) {
        self.row_cap.store(cap.max(1), Ordering::Relaxed);
    }

    /// The per-query buffered-row cap currently in force.
    pub fn row_cap(&self) -> usize {
        self.row_cap.load(Ordering::Relaxed)
    }

    /// Switches hindsight recording on or off (see [`crate::retro`]).
    /// Off (the default) costs one relaxed load per invocation;
    /// installing a query with `Trigger` advice switches it on
    /// automatically.
    pub fn set_retro(&self, enabled: bool) {
        self.retro_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether hindsight recording is currently on.
    #[inline]
    pub fn retro_on(&self) -> bool {
        self.retro_enabled.load(Ordering::Relaxed)
    }

    /// Sets the hindsight ring capacity, in events (minimum 1).
    pub fn set_retro_cap(&self, cap: usize) {
        self.retro.lock().set_cap(cap);
    }

    /// Sets the bound on flushed-but-undrained hindsight events.
    pub fn set_retro_pending_cap(&self, cap: usize) {
        self.retro.lock().set_pending_cap(cap);
    }

    /// Sets the latency-outlier trigger threshold (nanoseconds; 0 = off).
    /// A woven invocation exporting `latency_ns` above the threshold
    /// fires a retroactive flush of its request's buffered events.
    pub fn set_retro_latency_threshold(&self, ns: u64) {
        self.retro_latency_ns.store(ns, Ordering::Relaxed);
    }

    /// Fires a hindsight trigger explicitly — the hook chaos harnesses
    /// call at fault-injection sites ([`TriggerKind::Fault`]). `request`
    /// correlates the flush to one trace id; 0 drains the whole ring.
    /// Returns `false` when nothing was buffered (or retro is off).
    pub fn trigger_retro(&self, kind: TriggerKind, request: u64, now: u64) -> bool {
        if !self.retro_enabled.load(Ordering::Relaxed) {
            return false;
        }
        self.retro.lock().trigger(kind, QueryId(0), request, now)
    }

    /// Takes the pending [`RetroReport`]s (the transport drain).
    pub fn drain_retro(&self) -> Vec<RetroReport> {
        self.retro.lock().drain()
    }

    /// A snapshot of the hindsight ring's cumulative event accounting.
    pub fn retro_counters(&self) -> RetroCounters {
        self.retro.lock().counters()
    }

    /// Hindsight events an abrupt crash would lose right now (ring +
    /// pending); crash harnesses fold this into `crash_lost`.
    pub fn retro_unflushed(&self) -> u64 {
        self.retro.lock().unflushed()
    }

    /// Events currently in the ring (recorded, not yet flushed or
    /// overwritten).
    pub fn retro_buffered(&self) -> usize {
        self.retro.lock().buffered()
    }

    /// Graceful end-of-life for the hindsight ring: leftover ring events
    /// become `sampled_out`, undrained pending reports become `shed`.
    /// Call [`Agent::drain_retro`] first to deliver what is deliverable.
    pub fn retro_seal(&self) -> RetroCounters {
        self.retro.lock().seal()
    }

    /// A canonical digest of this agent's protocol-visible state, for the
    /// interleaving explorer's state cache: weave registry, aggregation
    /// buffers, and governor state.
    ///
    /// Deliberately excludes the incarnation number (drawn from a
    /// process-global counter, so not stable across re-executions of the
    /// same schedule) and the observational [`AgentStats`] counters
    /// (which never influence future behaviour).
    pub fn state_digest(&self) -> u64 {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(256);
        let mut woven = self.registry.woven_queries();
        woven.sort_unstable_by_key(|q| q.0);
        for q in woven {
            let _ = write!(s, "w{}:{};", q.0, self.registry.programs_for(q).len());
        }
        {
            let queries = self.queries.lock();
            let mut slots: Vec<&QuerySlot> = queries.0.iter().collect();
            slots.sort_unstable_by_key(|slot| slot.query.0);
            for (q, g) in slots
                .iter()
                .filter_map(|t| Some((t.query, t.gov.as_ref()?)))
            {
                let _ = write!(
                    s,
                    "g{}:{:?}|{}|{}|{}|{}|{:?}|{}|{:?}|{}|{};",
                    q.0,
                    g.budget,
                    g.window_start,
                    g.tuples,
                    g.ops,
                    g.bytes,
                    g.open_until,
                    g.trips,
                    g.pending,
                    g.truncated_cum,
                    g.programs.len(),
                );
            }
            for (q, b) in slots
                .iter()
                .filter_map(|t| Some((t.query, t.buffer.as_ref()?)))
            {
                let _ = write!(
                    s,
                    "b{}:{}|{}|{}|{}|{}|{};",
                    q.0,
                    b.seq,
                    b.tuples_since_flush,
                    b.emitted_cum,
                    b.shed_cum,
                    b.truncated_sent,
                    b.dirty,
                );
                match &b.rows {
                    Rows::Streaming(rows) => {
                        for t in rows {
                            let _ = write!(s, "r{t:?};");
                        }
                    }
                    Rows::Grouped(groups) => crate::write_groups(&mut s, groups),
                }
            }
        }
        let _ = write!(
            s,
            "c{}|e{}",
            self.row_cap.load(Ordering::Relaxed),
            self.enabled.load(std::sync::atomic::Ordering::Relaxed),
        );
        {
            let retro = self.retro.lock();
            let c = retro.counters();
            let _ = write!(
                s,
                "R{}|{}|{}|{}|{}|{}|{};",
                self.retro_enabled.load(Ordering::Relaxed),
                c.recorded,
                c.flushed,
                c.sampled_out,
                c.shed,
                retro.buffered(),
                retro.unflushed(),
            );
        }
        crate::fnv64(s.as_bytes())
    }

    /// Reconciles the registry with the frontend's full installed-query
    /// set (the epoch re-sync path): weaves queries the agent is missing
    /// and unweaves queries the frontend no longer has. Used when an agent
    /// reconnects after a crash, restart, or partition during which it may
    /// have missed any number of install/uninstall commands.
    pub fn sync(&self, installed: &[Arc<CompiledCode>]) {
        let keep: std::collections::HashSet<QueryId> = installed.iter().map(|c| c.id).collect();
        for stale in self
            .registry
            .woven_queries()
            .into_iter()
            .filter(|q| !keep.contains(q))
        {
            self.registry.unweave(stale);
        }
        {
            let mut queries = self.queries.lock();
            queries.retain_govs(|q| keep.contains(&q));
            self.recompute_governed(&queries);
        }
        for code in installed {
            self.install(code);
        }
    }

    /// Cumulative tuples emitted for `query` by this agent (the ground
    /// truth the frontend's loss accounting reconciles against).
    pub fn emitted_for(&self, query: QueryId) -> u64 {
        let queries = self.queries.lock();
        queries.buffer(query).map_or(0, |b| b.emitted_cum)
    }

    /// Invokes `tracepoint` with `exports`, running any woven advice: a
    /// batch of one.
    ///
    /// `now` is the current time in nanoseconds (virtual time under the
    /// simulator); it supplies the default `timestamp` export. Returns
    /// after three relaxed loads when nothing is woven and hindsight is
    /// off.
    pub fn invoke(
        &self,
        tracepoint: &str,
        baggage: &mut Baggage,
        now: u64,
        exports: &[(&str, Value)],
    ) {
        self.invoke_at(tracepoint, baggage, || now, exports);
    }

    /// [`Agent::invoke`] for a caller whose clock costs something to read:
    /// `clock` is called — once — only when this event has a use for the
    /// time, which is when hindsight records it, a governor's window is
    /// charged, or advice woven here observes `timestamp`. An unwoven
    /// tracepoint, or one whose programs never look at the time, leaves
    /// the clock alone.
    pub fn invoke_at(
        &self,
        tracepoint: &str,
        baggage: &mut Baggage,
        clock: impl FnOnce() -> u64,
        exports: &[(&str, Value)],
    ) {
        let Some((site, governed, retro)) = self.enter(tracepoint) else {
            return;
        };
        let timed = retro || site.as_deref().is_some_and(|s| governed || s.stamped);
        let now = if timed { clock() } else { 0 };
        self.run(
            tracepoint,
            site,
            governed,
            retro,
            baggage,
            &[(now, exports)],
        );
    }

    /// Invokes `tracepoint` once per `(now, exports)` event in `events`,
    /// all sharing `baggage` — semantically identical to calling
    /// [`Agent::invoke`] for each event in order, but each woven program
    /// runs once over the whole batch
    /// ([`pivot_query::Vm::run_planned`]), paying interpreter dispatch
    /// and baggage bookkeeping once per instruction instead of once per
    /// event × instruction.
    ///
    /// Embedding systems use this where invocations naturally arrive in
    /// bursts against one request context (e.g. a scan loop emitting one
    /// event per record). Governed queries receive one summed charge per
    /// batch, stamped at the last event's time, so a breaker can trip at
    /// batch granularity rather than mid-batch.
    pub fn invoke_batch(
        &self,
        tracepoint: &str,
        baggage: &mut Baggage,
        events: &[(u64, &[(&str, Value)])],
    ) {
        if events.is_empty() {
            return;
        }
        if let Some((site, governed, retro)) = self.enter(tracepoint) {
            self.run(tracepoint, site, governed, retro, baggage, events);
        }
    }

    /// The enabled gate, then what decides the rest of an event, each read
    /// once: the site's plan (one registry lookup), whether some governor
    /// meters the run, whether hindsight is recording.
    fn enter(&self, tracepoint: &str) -> Option<(Option<Arc<SitePlan>>, bool, bool)> {
        self.enabled.load(Ordering::Relaxed).then(|| {
            (
                self.registry.lookup(tracepoint),
                self.governed.load(Ordering::Relaxed),
                self.retro_enabled.load(Ordering::Relaxed),
            )
        })
    }

    /// What every entry does with its (non-empty) events once it is in.
    /// In order: the hindsight record of every event — woven or not, so a
    /// later trigger can reconstruct the full stream; then, where advice
    /// is woven, each program over the batch, the governor charges, the
    /// unweave of what tripped, the hindsight triggers and the counters.
    fn run(
        &self,
        tracepoint: &str,
        site: Option<Arc<SitePlan>>,
        governed: bool,
        retro: bool,
        baggage: &mut Baggage,
        events: &[(u64, &[(&str, Value)])],
    ) {
        let (Some(&(_, first)), Some(&(now, _))) = (events.first(), events.last()) else {
            return;
        };
        // The first event under a plan teaches it the caller's export
        // list; one check per later event then stands in for a name
        // search per observed column.
        let layout = site.as_deref().and_then(|site| {
            let layout = site.layout.get_or_init(|| {
                let mut ring = self.retro.lock();
                let shape = ring.shape_for(tracepoint, first);
                Layout::new(site, Arc::clone(ring.shape_names(shape)), shape)
            });
            let known = |(_, e): &(u64, &[(&str, Value)])| names_match(&layout.names, e);
            events.iter().all(known).then_some(layout)
        });
        let retro = retro.then(|| {
            let request = trace_of(baggage).unwrap_or(0);
            let mut ring = self.retro.lock();
            for (time, exports) in events {
                let shape = match layout {
                    Some(layout) => layout.shape,
                    None => ring.shape_for(tracepoint, exports),
                };
                ring.record(shape, *time, request, exports);
            }
            request
        });
        let Some(site) = site.as_deref() else {
            if !self.registry.is_idle() {
                bump(&self.stats.idle_invocations, events.len() as u64);
            }
            return;
        };

        let mut sink = AgentSink {
            queries: &self.queries,
            // Governed: the lock is held across the VM loop, which charges
            // after every program.
            guard: governed.then(|| self.queries.lock()),
            slot: 0,
            row_cap: self.row_cap.load(Ordering::Relaxed),
            triggers: Vec::new(),
        };
        let mut packed = 0u64;
        let mut emitted = 0u64;
        // `tripped` stays empty (no allocation) until a breaker actually
        // fires, which only a governed program can do.
        let mut tripped: Vec<QueryId> = Vec::new();
        VM.with(|vm| {
            let mut vm = vm.borrow_mut();
            for (i, program) in site.programs.iter().enumerate() {
                sink.slot = program.slot;
                let batch = SiteExports {
                    agent: self,
                    site,
                    program,
                    events,
                    pos: layout.map(|l| &l.pos[i][..]),
                };
                let (ops0, m0) = (vm.ops(), baggage.meter());
                let s = vm.run_planned(&program.run, &batch, baggage, &mut sink);
                packed += s.packed as u64;
                emitted += s.emitted as u64;
                // Programs with no governor entry skip the meter.
                let slots = sink.guard.as_mut().filter(|_| governed);
                let Some(g) = slots.and_then(|q| q.0[program.slot].gov.as_mut()) else {
                    continue;
                };
                let m1 = baggage.meter();
                let work = (s.emitted + s.packed) as u64;
                let bytes = (m1.values - m0.values).saturating_mul(NOMINAL_BYTES_PER_VALUE);
                if charge_governor(
                    g,
                    program.query,
                    now,
                    work,
                    vm.ops() - ops0,
                    bytes,
                    m1.truncated - m0.truncated,
                ) {
                    tripped.push(program.query);
                }
            }
        });
        let fired = std::mem::take(&mut sink.triggers);
        drop(sink);
        for query in &tripped {
            self.registry.unweave(*query);
        }
        if let Some(request) = retro {
            let outlier = events.iter().any(|(_, e)| self.retro_outlier(e));
            self.fire_retro(&fired, &tripped, outlier, request, now);
        }
        bump(&self.stats.advised_invocations, events.len() as u64);
        bump(&self.stats.tuples_packed, packed);
        bump(&self.stats.tuples_emitted, emitted);
    }

    /// Whether `exports` crosses the latency-outlier trigger threshold.
    fn retro_outlier(&self, exports: &[(&str, Value)]) -> bool {
        match self.retro_latency_ns.load(Ordering::Relaxed) {
            0 => false,
            thr => exports.iter().any(|(n, v)| {
                *n == "latency_ns"
                    && match v {
                        Value::U64(x) => *x > thr,
                        Value::I64(x) => u64::try_from(*x).is_ok_and(|x| x > thr),
                        _ => false,
                    }
            }),
        }
    }

    /// Fires the retro ring for every trigger source one woven invocation
    /// produced: `Trigger` advice ops, breaker trips, and the
    /// latency-outlier threshold. Runs outside the governor/buffer locks.
    fn fire_retro(
        &self,
        fired: &[QueryId],
        tripped: &[QueryId],
        outlier: bool,
        request: u64,
        now: u64,
    ) {
        if fired.is_empty() && tripped.is_empty() && !outlier {
            return;
        }
        let mut ring = self.retro.lock();
        for query in fired {
            ring.trigger(TriggerKind::Advice, *query, request, now);
        }
        for query in tripped {
            ring.trigger(TriggerKind::Breaker, *query, request, now);
        }
        if outlier {
            ring.trigger(TriggerKind::LatencyOutlier, QueryId(0), request, now);
        }
    }

    /// Publishes and clears the local partial results (paper Figure 2, Æ).
    ///
    /// The embedding system calls this once per reporting interval; the
    /// returned reports are addressed to the frontend. The flush also runs
    /// the governor's slow work: breakers whose backoff has elapsed re-arm
    /// (their retained advice is re-woven), and pending [`Throttled`]
    /// frames plus updated truncation counts ride out on the reports —
    /// forcing a row-less report when necessary so the frontend always
    /// hears about a trip or a truncation.
    pub fn flush(&self, now: u64) -> Vec<Report> {
        let mut out = Vec::new();
        let mut queries = self.queries.lock();
        for (slot, state) in queries.0.iter_mut().enumerate() {
            let mut throttled = None;
            let mut truncated_cum = None;
            if let Some(g) = &mut state.gov {
                if g.open_until.is_some_and(|until| now >= until) {
                    // Re-arm: fresh window, advice re-woven. `trips` is
                    // kept so a re-trip backs off longer.
                    g.open_until = None;
                    g.window_start = now;
                    g.tuples = 0;
                    g.ops = 0;
                    g.bytes = 0;
                    for program in &g.programs {
                        self.registry.weave(state.query, slot, program);
                    }
                }
                throttled = g.pending.take();
                if let (Some(_), None, Some(spec)) = (&throttled, &state.buffer, &g.spec) {
                    // A throttled query that never emitted here still
                    // needs a buffer to carry the trip's envelope out.
                    state.buffer = Some(Buffer::new(spec));
                }
                truncated_cum = Some(g.truncated_cum).filter(|n| *n > 0);
            }
            let Some(buf) = &mut state.buffer else {
                continue;
            };
            let truncated_cum = truncated_cum.unwrap_or(buf.truncated_sent);
            let has_rows = match &buf.rows {
                Rows::Streaming(rows) => !rows.is_empty(),
                Rows::Grouped(groups) => !groups.is_empty(),
            };
            // Skip only when there is truly nothing to say: no rows, no
            // new shed/truncation counts, no trip to report.
            if !has_rows && !buf.dirty && truncated_cum == buf.truncated_sent && throttled.is_none()
            {
                continue;
            }
            let rows = match &mut buf.rows {
                Rows::Streaming(rows) => {
                    // Streaming rows leave as encoded blocks (none for an
                    // empty buffer), so the wire layer ships bytes and
                    // relays coalesce without decoding. Clearing (not
                    // taking) the buffer keeps its capacity for the next
                    // interval, so steady state stops growing.
                    let blocks = rows
                        .make_contiguous()
                        .chunks(colblock::MAX_BLOCK_ROWS)
                        .map(EncodedBlock::encode)
                        .collect();
                    rows.clear();
                    ReportRows::RawEncoded(blocks)
                }
                // The groups leave whole; the table keeps its index and
                // as much room for the next interval.
                Rows::Grouped(groups) => ReportRows::Grouped(groups.take()),
            };
            // Sequence numbers are only consumed by reports that actually
            // exist, so a receiver-side gap always means a lost report,
            // never an idle interval.
            let seq = buf.seq;
            buf.seq += 1;
            buf.dirty = false;
            buf.truncated_sent = truncated_cum;
            bump(&self.stats.rows_reported, rows.len() as u64);
            out.push(Report {
                query: state.query,
                host: self.info.host.clone(),
                procid: self.info.procid,
                incarnation: self.incarnation,
                time: now,
                seq,
                tuples: std::mem::take(&mut buf.tuples_since_flush),
                emitted_cum: buf.emitted_cum,
                shed_cum: buf.shed_cum,
                truncated_cum,
                throttled: throttled.into_iter().collect(),
                rows,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_baggage::PackMode;
    use pivot_model::{AggFunc, Expr, Schema};
    use pivot_query::advice::ColumnRef;
    use pivot_query::{AdviceOp, AdviceProgram, CompiledQuery};

    fn agent() -> Agent {
        Agent::new(ProcessInfo {
            host: "host-A".into(),
            procid: 7,
            procname: "DataNode".into(),
        })
    }

    fn q2_like() -> CompiledQuery {
        let slot = QueryId(256 + 1);
        let spec = Arc::new(OutputSpec {
            key_names: vec!["cl.procName".into()],
            aggs: vec![AggFunc::Sum],
            agg_names: vec!["SUM(incr.delta)".into()],
            columns: vec![ColumnRef::Key(0), ColumnRef::Agg(0)],
            streaming: false,
            ..OutputSpec::default()
        });
        CompiledQuery {
            id: QueryId(1),
            name: "q2".into(),
            text: String::new(),
            output: Arc::clone(&spec),
            advice: vec![
                AdviceProgram {
                    tracepoints: vec!["ClientProtocols".into()],
                    ops: vec![
                        AdviceOp::Observe {
                            alias: "cl".into(),
                            fields: vec!["procname".into()],
                        },
                        AdviceOp::Pack {
                            slot,
                            mode: PackMode::First(1),
                            exprs: vec![Expr::field("cl.procname")],
                            names: vec!["cl.procName".into()],
                        },
                    ],
                },
                AdviceProgram {
                    tracepoints: vec!["DataNodeMetrics.incrBytesRead".into()],
                    ops: vec![
                        AdviceOp::Observe {
                            alias: "incr".into(),
                            fields: vec!["delta".into()],
                        },
                        AdviceOp::Unpack {
                            slot,
                            schema: Schema::new(["cl.procName"]),
                            post_filter: None,
                        },
                        AdviceOp::Emit {
                            query: QueryId(1),
                            spec,
                            keys: vec![Expr::field("cl.procName")],
                            aggs: vec![Expr::field("incr.delta")],
                        },
                    ],
                },
            ],
        }
    }

    fn q2_code() -> Arc<CompiledCode> {
        let (code, notes) = CompiledCode::lower(&q2_like());
        assert!(notes.is_empty(), "unexpected lowering notes: {notes:?}");
        Arc::new(code)
    }

    #[test]
    fn unwoven_invocation_is_cheap_noop() {
        let a = agent();
        let mut bag = Baggage::new();
        a.invoke("anything", &mut bag, 0, &[]);
        assert_eq!(a.stats().advised_invocations, 0);
        assert!(bag.is_empty());
    }

    #[test]
    fn end_to_end_q2_through_one_agent() {
        let a = agent();
        a.apply(&Command::Install(q2_code()));

        // A client invocation packs the process name...
        let mut bag = Baggage::new();
        a.invoke("ClientProtocols", &mut bag, 10, &[]);
        // ...then two DataNode reads emit deltas joined to it.
        a.invoke(
            "DataNodeMetrics.incrBytesRead",
            &mut bag,
            20,
            &[("delta", Value::I64(100))],
        );
        a.invoke(
            "DataNodeMetrics.incrBytesRead",
            &mut bag,
            30,
            &[("delta", Value::I64(50))],
        );

        let reports = a.flush(1_000_000_000);
        assert_eq!(reports.len(), 1);
        match &reports[0].rows {
            ReportRows::Grouped(rows) => {
                assert_eq!(rows.len(), 1);
                let (key, states) = rows.iter().next().expect("one group");
                assert_eq!(key, [Value::str("DataNode")]);
                assert_eq!(states[0].finish(), Value::I64(150));
            }
            _ => panic!("expected grouped"),
        }
        // Local aggregation: two emits became one reported row.
        assert_eq!(a.stats().tuples_emitted, 2);
        assert_eq!(a.stats().rows_reported, 1);

        // Flush drains.
        assert!(a.flush(2_000_000_000).is_empty());
    }

    #[test]
    fn streaming_ring_sheds_oldest_and_keeps_the_newest_cap_in_order() {
        let query = QueryId(2);
        let spec = Arc::new(OutputSpec {
            key_names: vec!["e.n".into()],
            columns: vec![ColumnRef::Key(0)],
            streaming: true,
            ..OutputSpec::default()
        });
        let (code, notes) = CompiledCode::lower(&CompiledQuery {
            id: query,
            name: "stream".into(),
            text: String::new(),
            output: Arc::clone(&spec),
            advice: vec![AdviceProgram {
                tracepoints: vec!["tp".into()],
                ops: vec![
                    AdviceOp::Observe {
                        alias: "e".into(),
                        fields: vec!["n".into()],
                    },
                    AdviceOp::Emit {
                        query,
                        spec,
                        keys: vec![Expr::field("e.n")],
                        aggs: vec![],
                    },
                ],
            }],
        });
        assert!(notes.is_empty(), "unexpected lowering notes: {notes:?}");

        // Either ring wraps ten times over and flushes, through the block
        // encoder, in ring order.
        for cap in [8u64, 40] {
            let a = agent();
            a.set_row_cap(cap as usize);
            a.install(&code);
            let pushed = 10 * cap;
            let mut bag = Baggage::new();
            for n in 0..pushed {
                a.invoke("tp", &mut bag, n, &[("n", Value::U64(n))]);
            }
            assert_eq!(a.buffered_rows(query), cap as usize);

            let reports = a.flush(1_000);
            assert_eq!(reports.len(), 1);
            let r = &reports[0];
            // The books balance: emitted == delivered here + shed.
            assert_eq!(
                (r.tuples, r.shed_cum, r.emitted_cum),
                (cap, pushed - cap, pushed)
            );
            let ReportRows::RawEncoded(blocks) = &r.rows else {
                panic!("a streaming query reports raw rows");
            };
            let rows: Vec<Tuple> = blocks
                .iter()
                .flat_map(|b| b.decode().expect("own block decodes"))
                .collect();
            let kept: Vec<Value> = rows.iter().map(|t| t.get(0).clone()).collect();
            let newest: Vec<Value> = (pushed - cap..pushed).map(Value::U64).collect();
            assert_eq!(kept, newest, "the newest {cap} rows survive, oldest first");
        }
    }

    #[test]
    fn uninstall_stops_advice() {
        let a = agent();
        a.install(&q2_code());
        a.apply(&Command::Uninstall(QueryId(1)));
        let mut bag = Baggage::new();
        a.invoke("ClientProtocols", &mut bag, 0, &[]);
        assert!(bag.is_empty());
        assert!(a.registry().is_idle());
    }
}
