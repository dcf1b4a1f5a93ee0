//! The Pivot Tracing frontend: query installation and result collection.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::{fmt, mem};

use pivot_analyze::{Analyzer, Compiled, Diagnostic};
use pivot_baggage::QueryId;
use pivot_itc::{Decoder, Encoder};
use pivot_model::{AggState, EncodedBlock, Tuple, Value};
use pivot_query::advice::ColumnRef;
use pivot_query::{
    compile, parse, plan_query, CompileError, CompiledCode, CompiledQuery, Groups, Options,
    OutputSpec, Query, Resolver,
};

use crate::bus::{Command, Report, ReportRows};
use crate::governor::{QueryBudget, Throttled};
use crate::ledger::{Seen, SeqWindow, SourceKey};
use crate::retro::RetroReport;
use crate::tracepoint::TracepointDef;

/// A handle to an installed query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryHandle {
    /// The query's identity.
    pub id: QueryId,
    /// The query's name (auto-assigned `Q<n>` unless given).
    pub name: String,
}

/// One output row of a query, laid out in `Select` order.
#[derive(Clone, PartialEq, Debug)]
pub struct ResultRow {
    /// Report timestamp (nanoseconds); 0 for cumulative snapshots.
    pub time: u64,
    /// Values in `Select` order.
    pub values: Vec<Value>,
}

/// Per-query loss accounting, aggregated over every reporting agent.
///
/// A faulty transport can drop, duplicate, or reorder reports; these
/// counters make the damage visible instead of silently wrong:
/// duplicates are suppressed before merging (so aggregates never double
/// count), gaps in the per-agent sequence space are surfaced as
/// `reports_missed`, and the tuple counters balance as
/// `tuples_delivered + tuples_shed + tuples_dropped == tuples_emitted`
/// (where `tuples_emitted` is the frontend's latest view of each agent's
/// cumulative emission counter, and `tuples_shed` is what the agents'
/// overload governor intentionally discarded from bounded buffers —
/// distinguishable from `tuples_dropped`, the transport's losses).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct LossStats {
    /// Reports merged into the results.
    pub reports_accepted: u64,
    /// Reports suppressed as duplicates (same agent, same sequence number).
    pub reports_duplicate: u64,
    /// Sequence-number gaps: reports known to exist but never received.
    pub reports_missed: u64,
    /// Tuples carried by accepted reports.
    pub tuples_delivered: u64,
    /// Tuples the agents report having emitted (max cumulative counter per
    /// agent incarnation, summed).
    pub tuples_emitted: u64,
    /// Tuples the agents' governor shed from bounded buffers (emitted but
    /// intentionally never delivered — accounted, not lost).
    pub tuples_shed: u64,
    /// Tuples the agents' baggage `All`-cap truncated before emission
    /// (informational: these never count toward `tuples_emitted`).
    pub tuples_truncated: u64,
    /// Tuples lost on the report path
    /// (`tuples_emitted - tuples_delivered - tuples_shed`).
    pub tuples_dropped: u64,
}

impl LossStats {
    /// Public for integration tests (core, relay, chaos).
    ///
    /// Returns `true` when any report or tuple is known to be lost: the
    /// accumulated results are a lower bound, not the full picture.
    pub fn is_degraded(&self) -> bool {
        self.reports_missed > 0 || self.tuples_dropped > 0
    }
}

/// Loss tracking for one reporting agent incarnation.
#[derive(Clone, Default, Debug)]
struct SourceTrack {
    window: SeqWindow,
    duplicates: u64,
    delivered_tuples: u64,
    emitted_cum: u64,
    shed_cum: u64,
    truncated_cum: u64,
}

/// Retro-flush loss accounting, aggregated over every reporting agent
/// (see [`Frontend::retro_loss`]).
///
/// The retro identity mirrors the tuple identity: per agent ring,
/// `recorded == delivered + sampled_out + shed + outstanding`, where
/// `outstanding` covers events still buffered in a live ring, lost in a
/// crash, or dropped by the transport — the embedding harness (e.g. the
/// chaos simulator) distinguishes those three with its own ground truth.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct RetroLossStats {
    /// Retro reports merged into the results.
    pub reports_accepted: u64,
    /// Retro reports suppressed as duplicates (same agent incarnation,
    /// same ring sequence number).
    pub reports_duplicate: u64,
    /// Buffered events carried by accepted retro reports.
    pub events_delivered: u64,
    /// Events the agents report having recorded into their rings (max
    /// cumulative counter per agent incarnation, summed).
    pub events_recorded: u64,
    /// Events overwritten in the ring before any trigger fired (max
    /// cumulative counter per incarnation, summed).
    pub events_sampled_out: u64,
    /// Events shed from the bounded pending-report queue (max cumulative
    /// counter per incarnation, summed).
    pub events_shed: u64,
    /// `recorded - delivered - sampled_out - shed`: events still in
    /// flight, still ring-resident, crash-lost, or transport-dropped.
    pub events_outstanding: u64,
}

/// Retro dedup + cumulative-counter tracking for one agent incarnation.
/// Ring sequence numbers are per-agent (not per-query), so this lives on
/// the frontend rather than inside one query's results.
#[derive(Clone, Default, Debug)]
struct RetroTrack {
    window: SeqWindow,
    duplicates: u64,
    delivered_events: u64,
    recorded_cum: u64,
    sampled_out_cum: u64,
    shed_cum: u64,
}

/// Accumulated results for one query.
///
/// What arrives each interval is kept in the encoding it came in —
/// streaming rows as their blocks, grouped partials as
/// [`Groups::encode`] writes them — and decoded when it is read; only the
/// totals are a live table.
#[derive(Clone, Debug)]
pub struct QueryResults {
    /// The query's output shape (shared with the compiled query).
    pub spec: Arc<OutputSpec>,
    /// Merged-over-all-time groups.
    cumulative: Groups,
    /// Per report interval, its partials encoded end to end in arrival
    /// order.
    intervals: BTreeMap<u64, Vec<u8>>,
    /// Blocks of streaming rows as received, with report timestamps;
    /// each decoded once, at accept, to be let in.
    raw: Vec<(u64, EncodedBlock)>,
    /// Rows the blocks in `raw` hold.
    raw_len: usize,
    /// Where a block is decoded at accept, and a partial encoded: emptied
    /// after each, kept for its room.
    scratch_rows: Vec<Tuple>,
    scratch_bytes: Vec<u8>,
    /// Per-agent-incarnation sequence tracking and loss accounting.
    sources: HashMap<SourceKey, SourceTrack>,
    /// Circuit-breaker trips reported by agents, in arrival order.
    throttles: Vec<Throttled>,
    /// Retroactive-flush reports whose trigger named this query, in
    /// arrival order (deduplicated at the frontend before routing).
    retro: Vec<RetroReport>,
}

impl QueryResults {
    fn new(spec: Arc<OutputSpec>) -> QueryResults {
        QueryResults {
            spec,
            cumulative: Groups::default(),
            intervals: BTreeMap::new(),
            raw: Vec::new(),
            raw_len: 0,
            scratch_rows: Vec::new(),
            scratch_bytes: Vec::new(),
            sources: HashMap::new(),
            throttles: Vec::new(),
            retro: Vec::new(),
        }
    }

    fn absorb(&mut self, report: Report) {
        let track = self
            .sources
            .entry((report.host, report.procid, report.incarnation))
            .or_default();
        if track.window.record(report.seq) != Seen::Fresh {
            // A duplicated report frame: merging it again would double
            // count every aggregate, so it is suppressed here.
            track.duplicates += 1;
            return;
        }
        track.emitted_cum = track.emitted_cum.max(report.emitted_cum);
        track.shed_cum = track.shed_cum.max(report.shed_cum);
        track.truncated_cum = track.truncated_cum.max(report.truncated_cum);
        self.throttles.extend(report.throttled);
        let shape = (self.spec.key_names.len(), self.spec.aggs.len());
        let delivered = match report.rows {
            ReportRows::RawEncoded(blocks) if self.spec.streaming => {
                let mut delivered = report.tuples;
                for block in blocks {
                    // Relayed without ever being decoded in between, a
                    // block is decoded here once, to be checked. One that
                    // fails is dropped whole and the rows its header
                    // claimed leave `delivered`, so they fall into
                    // `tuples_dropped`: corruption shows up as a degraded
                    // query, not a panic and not a silently short result.
                    let valid = block.decode_into(&mut self.scratch_rows).is_ok();
                    self.scratch_rows.clear();
                    if valid {
                        self.raw_len += block.rows();
                        self.raw.push((report.time, block));
                    } else {
                        delivered = delivered.saturating_sub(block.rows() as u64);
                    }
                }
                delivered
            }
            ReportRows::Grouped(groups)
                if !self.spec.streaming
                    && (groups.is_empty() || (groups.key_width(), groups.width()) == shape) =>
            {
                self.cumulative.merge(&groups);
                let mut enc = Encoder::reusing(mem::take(&mut self.scratch_bytes));
                groups.encode(&mut enc);
                let bytes = enc.finish();
                match self.intervals.entry(report.time) {
                    // One allocation, the encoding's size.
                    Entry::Vacant(interval) => _ = interval.insert(bytes.to_vec()),
                    Entry::Occupied(mut interval) => interval.get_mut().extend_from_slice(&bytes),
                }
                self.scratch_bytes = bytes;
                report.tuples
            }
            // A body of the other kind than the query's, or a partial of
            // another shape — key width or accumulator count — is
            // discarded whole; the tuples its envelope claimed are
            // `dropped`.
            _ => 0,
        };
        sat(&mut track.delivered_tuples, delivered);
    }

    /// Returns the query's loss accounting, aggregated over all reporting
    /// agents. When [`LossStats::is_degraded`] is set, [`Self::rows`] is a
    /// lower bound on the true results.
    pub fn loss(&self) -> LossStats {
        let mut loss = LossStats::default();
        for track in self.sources.values() {
            sat(&mut loss.reports_accepted, track.window.accepted());
            sat(&mut loss.reports_duplicate, track.duplicates);
            sat(&mut loss.reports_missed, track.window.missed());
            sat(&mut loss.tuples_delivered, track.delivered_tuples);
            sat(&mut loss.tuples_emitted, track.emitted_cum);
            sat(&mut loss.tuples_shed, track.shed_cum);
            sat(&mut loss.tuples_truncated, track.truncated_cum);
        }
        loss.tuples_dropped = loss
            .tuples_emitted
            .saturating_sub(loss.tuples_delivered)
            .saturating_sub(loss.tuples_shed);
        loss
    }

    /// Circuit-breaker trips reported by agents for this query, sorted
    /// (by query, reason, stats) for deterministic inspection.
    pub fn throttles(&self) -> Vec<Throttled> {
        let mut out = self.throttles.clone();
        out.sort_unstable();
        out
    }

    /// Returns the merged-over-all-time rows in `Select` order, sorted by
    /// key for determinism.
    pub fn rows(&self) -> Vec<ResultRow> {
        sorted_rows(&self.spec, &self.cumulative, 0)
    }

    /// Returns per-interval rows: `(time, rows)` in time order.
    pub fn series(&self) -> Vec<(u64, Vec<ResultRow>)> {
        self.intervals
            .iter()
            .map(|(t, partials)| (*t, sorted_rows(&self.spec, &merged(partials), *t)))
            .collect()
    }

    /// Returns raw streaming rows with their report timestamps, in arrival
    /// order.
    pub fn raw_rows(&self) -> Vec<(u64, Tuple)> {
        let mut rows = Vec::with_capacity(self.raw_len);
        let mut block_rows = Vec::new();
        for (t, block) in &self.raw {
            block
                .decode_into(&mut block_rows)
                .expect("a kept block decoded when it was let in");
            rows.extend(block_rows.drain(..).map(|row| (*t, row)));
        }
        rows
    }

    /// Retroactive-flush reports whose trigger named this query, in
    /// arrival order: the full-fidelity event windows that preceded each
    /// trigger firing (breaker trip, latency outlier, fault, or an
    /// explicit `Trigger` advice op).
    pub fn retro(&self) -> &[RetroReport] {
        &self.retro
    }

    /// Returns the total number of accumulated result rows.
    pub fn len(&self) -> usize {
        self.cumulative.len() + self.raw_len
    }

    /// Returns `true` when no results have arrived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn layout(spec: &OutputSpec, key: &[Value], states: &[AggState]) -> Vec<Value> {
    spec.columns
        .iter()
        .map(|c| match c {
            ColumnRef::Key(i) => key[*i].clone(),
            ColumnRef::Agg(i) => states.get(*i).map(AggState::finish).unwrap_or(Value::Null),
        })
        .collect()
}

/// One interval's partials, merged into an empty table in arrival order:
/// the rows, first-seen order and float rounding of merging them as they
/// came.
fn merged(partials: &[u8]) -> Groups {
    let mut dec = Decoder::new(partials);
    let mut groups = Groups::default();
    while !dec.is_empty() {
        let partial = Groups::decode(&mut dec).expect("the frontend decodes what it encoded");
        groups.merge(&partial);
    }
    groups
}

/// `*sum += n`, saturating: the envelope counters of a decoded frame are
/// whatever `u64`s a peer sent, and the books must neither wrap nor panic.
fn sat(sum: &mut u64, n: u64) {
    *sum = sum.saturating_add(n);
}

/// One group table as output rows stamped `time`, in the value order
/// (DESIGN.md §5) of their `Select` columns.
fn sorted_rows(spec: &OutputSpec, groups: &Groups, time: u64) -> Vec<ResultRow> {
    let mut rows: Vec<ResultRow> = groups
        .iter()
        .map(|(key, states)| ResultRow {
            time,
            values: layout(spec, key, states),
        })
        .collect();
    rows.sort_unstable_by(|a, b| a.values.cmp(&b.values));
    rows
}

/// Errors surfaced by [`Frontend::install`].
#[derive(Clone, PartialEq, Debug)]
pub enum InstallError {
    /// Compilation failed.
    Compile(CompileError),
    /// A query with this name already exists.
    DuplicateName(String),
    /// The static verifier rejected the query; at least one diagnostic is
    /// error-severity (warnings ride along for context).
    Rejected(Vec<Diagnostic>),
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::Compile(e) => write!(f, "{e}"),
            InstallError::DuplicateName(n) => {
                write!(f, "a query named `{n}` is already installed")
            }
            InstallError::Rejected(diags) => {
                write!(f, "query rejected by the static verifier:")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for InstallError {}

struct Installed {
    handle: QueryHandle,
    ast: Query,
    compiled: Arc<CompiledQuery>,
    code: Arc<CompiledCode>,
    /// The budget currently in force on the agents, if any was pushed.
    budget: Option<QueryBudget>,
}

/// The query frontend (paper Figure 2's "Pivot Tracing frontend").
///
/// Owns the tracepoint vocabulary, compiles and registers queries, emits
/// weave/unweave [`Command`]s for the embedding system to broadcast, and
/// merges the partial [`Report`]s streaming back from agents.
#[derive(Default)]
pub struct Frontend {
    tracepoints: HashMap<String, TracepointDef>,
    queries: Vec<Installed>,
    results: HashMap<QueryId, QueryResults>,
    /// Per-agent-incarnation retro dedup and cumulative retro counters.
    retro_sources: HashMap<SourceKey, RetroTrack>,
    /// Accepted retro reports whose trigger query is not installed here —
    /// breaker/latency/fault triggers fire with `QueryId(0)` when no
    /// specific query is implicated, and uninstalls can race a flush.
    retro_orphans: Vec<RetroReport>,
    commands: Vec<Command>,
    next_id: u64,
    epoch: u64,
    optimize: bool,
    /// When set, every install also pushes the statically-derived
    /// [`QueryBudget`] to the agents (off by default).
    enforce_budgets: bool,
}

impl Frontend {
    /// Creates a frontend with the optimizer enabled.
    pub fn new() -> Frontend {
        Frontend {
            optimize: true,
            next_id: 1,
            ..Frontend::default()
        }
    }

    /// Creates a frontend that compiles queries *without* the Table 3
    /// rewrites (the unoptimized baseline for the ablation benches).
    pub fn new_unoptimized() -> Frontend {
        Frontend {
            optimize: false,
            ..Frontend::new()
        }
    }

    /// Defines a tracepoint (the query vocabulary, paper Figure 2 À).
    pub fn define_tracepoint(&mut self, def: TracepointDef) {
        self.tracepoints.insert(def.name.clone(), def);
    }

    /// Convenience: define a tracepoint by name and export list.
    pub fn define(&mut self, name: &str, exports: impl IntoIterator<Item = impl Into<String>>) {
        self.define_tracepoint(TracepointDef::new(name, exports));
    }

    /// Installs a query under an auto-assigned name (`Q<id>`).
    pub fn install(&mut self, text: &str) -> Result<QueryHandle, InstallError> {
        let name = format!("Q{}", self.next_id);
        self.install_named(&name, text)
    }

    /// Installs a query under `name`, compiling it to advice and queueing a
    /// weave command. Later queries may reference `name` as a source.
    pub fn install_named(&mut self, name: &str, text: &str) -> Result<QueryHandle, InstallError> {
        if self.queries.iter().any(|q| q.handle.name == name) {
            return Err(InstallError::DuplicateName(name.to_owned()));
        }
        let id = QueryId(self.next_id);
        let options = Options {
            optimize: self.optimize,
        };
        // Each step runs once; what the verifier checks below is what
        // ships.
        let ast =
            parse(text).map_err(|e| InstallError::Compile(CompileError::Parse(e.to_string())))?;
        let plan = plan_query(&ast, &*self, options).map_err(InstallError::Compile)?;
        let compiled = Arc::new(compile::lower(&plan, name, text, id));
        // Bytecode is the one executable artifact: shipped to agents and
        // checked by the verifier ("verify what you execute"). Lowering is
        // total; notes record degradations such as fields that can never
        // resolve (the verifier's PT008).
        let (code, notes) = CompiledCode::lower(&compiled);
        let code = Arc::new(code);
        // The static verifier (paper §5: advice must be safe to weave
        // into a live system). The compiler catches hard structural
        // defects above; the verifier additionally rejects type-incoherent
        // expressions and dataflow defects, with spans.
        let analysis = Analyzer::new(&*self).verify(&Compiled {
            ast: &ast,
            options,
            plan: &plan,
            advice: &compiled,
            code: &code,
            notes: &notes,
        });
        if analysis.has_errors() {
            return Err(InstallError::Rejected(analysis.diagnostics));
        }
        // Derive a default overload budget from the static baggage bound
        // of the plan this frontend executes.
        let static_bound = if self.optimize {
            analysis.optimized_cost
        } else {
            analysis.unoptimized_cost
        }
        .and_then(|c| c.total_bytes.as_finite());
        let derived_budget = QueryBudget::from_static_bound(static_bound);
        self.next_id += 1;
        let handle = QueryHandle {
            id,
            name: name.to_owned(),
        };
        self.results
            .insert(id, QueryResults::new(Arc::clone(&compiled.output)));
        self.epoch += 1;
        self.commands.push(Command::Install(Arc::clone(&code)));
        let budget = if self.enforce_budgets && !derived_budget.is_unlimited() {
            self.commands.push(Command::SetBudget(id, derived_budget));
            Some(derived_budget)
        } else {
            None
        };
        self.queries.push(Installed {
            handle: handle.clone(),
            ast,
            compiled,
            code,
            budget,
        });
        Ok(handle)
    }

    /// Enables pushing statically-derived [`QueryBudget`]s to the agents
    /// on every install (off by default: budgets are opt-in, so the
    /// governor is invisible until asked for).
    pub fn set_enforce_budgets(&mut self, on: bool) {
        self.enforce_budgets = on;
    }

    /// Explicitly sets (or replaces) the overload budget for an installed
    /// query, queueing a [`Command::SetBudget`] broadcast. Does not bump
    /// the epoch — the epoch tracks the weave set, and budgets re-ship
    /// alongside it on re-sync via [`Frontend::budgets`].
    pub fn set_budget(&mut self, handle: &QueryHandle, budget: QueryBudget) {
        if let Some(q) = self.queries.iter_mut().find(|q| q.handle == *handle) {
            q.budget = Some(budget);
            self.commands.push(Command::SetBudget(handle.id, budget));
        }
    }

    /// Every installed query's budget currently in force, for transports
    /// that re-ship budgets when an agent re-syncs after a crash or
    /// partition (the budget analogue of [`Frontend::installed`]).
    pub fn budgets(&self) -> Vec<(QueryId, QueryBudget)> {
        self.queries
            .iter()
            .filter_map(|q| q.budget.map(|b| (q.handle.id, b)))
            .collect()
    }

    /// Uninstalls a query, queueing an unweave command. Accumulated results
    /// remain readable.
    pub fn uninstall(&mut self, handle: &QueryHandle) {
        self.queries.retain(|q| q.handle != *handle);
        self.epoch += 1;
        self.commands.push(Command::Uninstall(handle.id));
    }

    /// The install epoch: bumped on every install and uninstall. Agents
    /// that re-sync against [`Frontend::installed`] are up to date exactly
    /// when they have observed this epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drains the pending weave/unweave commands for broadcast.
    pub fn drain_commands(&mut self) -> Vec<Command> {
        std::mem::take(&mut self.commands)
    }

    /// Merges one agent report (paper Figure 2 Ç).
    pub fn accept(&mut self, report: Report) {
        if let Some(res) = self.results.get_mut(&report.query) {
            res.absorb(report);
        }
    }

    /// Merges one retroactive-flush report: deduplicates on the agent's
    /// ring sequence number (relays forward retro frames verbatim, so a
    /// duplicated frame carries the same identity), latches the ring's
    /// cumulative counters, and routes the report to the triggering
    /// query's results (or the orphan pool when that query is unknown —
    /// breaker/latency/fault triggers use `QueryId(0)`).
    pub fn accept_retro(&mut self, report: RetroReport) {
        let track = self
            .retro_sources
            .entry((report.host.clone(), report.procid, report.incarnation))
            .or_default();
        track.recorded_cum = track.recorded_cum.max(report.recorded_cum);
        track.sampled_out_cum = track.sampled_out_cum.max(report.sampled_out_cum);
        track.shed_cum = track.shed_cum.max(report.shed_cum);
        if track.window.record(report.seq) != Seen::Fresh {
            track.duplicates += 1;
            return;
        }
        track.delivered_events += report.events.len() as u64;
        match self.results.get_mut(&report.query) {
            Some(res) => res.retro.push(report),
            None => self.retro_orphans.push(report),
        }
    }

    /// Accepted retro reports whose trigger query is not installed here.
    pub fn retro_orphans(&self) -> &[RetroReport] {
        &self.retro_orphans
    }

    /// Retro-flush loss accounting aggregated over every agent
    /// incarnation that has reported: the frontend's side of the
    /// extended identity `recorded == delivered + sampled_out + shed +
    /// outstanding`.
    pub fn retro_loss(&self) -> RetroLossStats {
        let mut loss = RetroLossStats::default();
        for track in self.retro_sources.values() {
            sat(&mut loss.reports_accepted, track.window.accepted());
            sat(&mut loss.reports_duplicate, track.duplicates);
            sat(&mut loss.events_delivered, track.delivered_events);
            sat(&mut loss.events_recorded, track.recorded_cum);
            sat(&mut loss.events_sampled_out, track.sampled_out_cum);
            sat(&mut loss.events_shed, track.shed_cum);
        }
        loss.events_outstanding = loss
            .events_recorded
            .saturating_sub(loss.events_delivered)
            .saturating_sub(loss.events_sampled_out)
            .saturating_sub(loss.events_shed);
        loss
    }

    /// Returns the accumulated results for a query.
    pub fn results(&self, handle: &QueryHandle) -> &QueryResults {
        &self.results[&handle.id]
    }

    /// Returns every currently installed query's lowered bytecode (used to
    /// weave advice into processes that join after installation).
    pub fn installed(&self) -> Vec<Arc<CompiledCode>> {
        self.queries.iter().map(|q| Arc::clone(&q.code)).collect()
    }

    /// Returns the compiled (advice-op) form of an installed query.
    pub fn compiled(&self, handle: &QueryHandle) -> Option<Arc<CompiledQuery>> {
        self.queries
            .iter()
            .find(|q| q.handle == *handle)
            .map(|q| Arc::clone(&q.compiled))
    }

    /// Returns the lowered bytecode of an installed query.
    pub fn code(&self, handle: &QueryHandle) -> Option<Arc<CompiledCode>> {
        self.queries
            .iter()
            .find(|q| q.handle == *handle)
            .map(|q| Arc::clone(&q.code))
    }

    /// A canonical digest of the frontend's protocol-visible state, for
    /// the interleaving explorer's state cache: epoch, installed set,
    /// budgets, pending commands, and — per query — merged results,
    /// per-source sequence tracking, and throttle arrivals.
    ///
    /// `remap_incarnation` maps raw agent incarnation numbers (drawn from
    /// a process-global counter, so not stable across re-executions of
    /// the same schedule) to caller-stable identifiers such as
    /// `(slot, generation)` codes.
    pub fn state_digest(&self, remap_incarnation: &mut dyn FnMut(u64) -> u64) -> u64 {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        let _ = write!(s, "e{}|c{};", self.epoch, self.commands.len());
        for q in &self.queries {
            let _ = write!(s, "q{}:{}|{:?};", q.handle.id.0, q.handle.name, q.budget);
        }
        let mut ids: Vec<QueryId> = self.results.keys().copied().collect();
        ids.sort_unstable_by_key(|q| q.0);
        for id in ids {
            let res = &self.results[&id];
            let _ = write!(s, "R{}:", id.0);
            crate::write_groups(&mut s, &res.cumulative);
            for (t, row) in res.raw_rows() {
                let _ = write!(s, "w{t}:{row:?};");
            }
            for (t, partials) in &res.intervals {
                let _ = write!(s, "i{t}:");
                crate::write_groups(&mut s, &merged(partials));
            }
            write_tracks(&mut s, 's', &res.sources, remap_incarnation);
            let _ = write!(s, "t{:?};", res.throttles());
            // A source's ring seq names a retro report once (the dedup
            // above), so this order has no ties.
            let mut retro: Vec<(&str, u64, u64, &RetroReport)> = res
                .retro
                .iter()
                .map(|r| (&*r.host, r.procid, remap_incarnation(r.incarnation), r))
                .collect();
            retro.sort_unstable_by_key(|&(host, procid, inc, r)| (host, procid, inc, r.seq));
            for (host, procid, inc, r) in retro {
                let _ = write!(
                    s,
                    "x{host}/{procid}/{inc}:{}:{:?}:{}:{};",
                    r.seq,
                    r.kind,
                    r.request,
                    r.events.len(),
                );
            }
        }
        write_tracks(&mut s, 'X', &self.retro_sources, remap_incarnation);
        let _ = write!(s, "O{};", self.retro_orphans.len());
        crate::fnv64(s.as_bytes())
    }
}

/// Writes one digest line per source, in `(host, procid, remapped
/// incarnation)` order.
fn write_tracks<T: fmt::Debug>(
    s: &mut String,
    tag: char,
    sources: &HashMap<SourceKey, T>,
    remap_incarnation: &mut dyn FnMut(u64) -> u64,
) {
    use std::fmt::Write as _;
    let mut tracks: Vec<(&str, u64, u64, &T)> = sources
        .iter()
        .map(|((host, procid, inc), t)| (&**host, *procid, remap_incarnation(*inc), t))
        .collect();
    tracks.sort_unstable_by_key(|&(host, procid, inc, _)| (host, procid, inc));
    for (host, procid, inc, t) in tracks {
        let _ = write!(s, "{tag}{host}/{procid}/{inc}:{t:?};");
    }
}

impl Resolver for Frontend {
    fn tracepoint_exports(&self, name: &str) -> Option<Vec<String>> {
        self.tracepoints.get(name).map(TracepointDef::all_exports)
    }

    fn query_ast(&self, name: &str) -> Option<Query> {
        self.queries
            .iter()
            .find(|q| q.handle.name == name)
            .map(|q| q.ast.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, ProcessInfo};
    use crate::bus::LocalBus;

    fn setup() -> (Frontend, LocalBus) {
        let mut fe = Frontend::new();
        fe.define("ClientProtocols", ["procName"]);
        fe.define("DataNodeMetrics.incrBytesRead", ["delta"]);
        let mut bus = LocalBus::new();
        for (host, proc_) in [("host-A", "FSread4m"), ("host-B", "DataNode")] {
            bus.register(Arc::new(Agent::new(ProcessInfo {
                host: host.into(),
                procid: 1,
                procname: proc_.into(),
            })));
        }
        (fe, bus)
    }

    #[test]
    fn q2_end_to_end_over_local_bus() {
        let (mut fe, bus) = setup();
        let handle = fe
            .install(
                "From incr In DataNodeMetrics.incrBytesRead
                 Join cl In First(ClientProtocols) On cl -> incr
                 GroupBy cl.procName
                 Select cl.procName, SUM(incr.delta)",
            )
            .unwrap();
        for cmd in fe.drain_commands() {
            bus.broadcast(&cmd);
        }
        let client = &bus.agents()[0];
        let datanode = &bus.agents()[1];

        // Two requests from the same client process.
        for delta in [100i64, 400] {
            let mut bag = pivot_baggage::Baggage::new();
            client.invoke(
                "ClientProtocols",
                &mut bag,
                5,
                &[("procName", Value::str("FSread4m"))],
            );
            // "RPC" to the datanode: serialize and deserialize baggage.
            let bytes = bag.to_bytes();
            let mut remote = pivot_baggage::Baggage::try_from_bytes(&bytes).unwrap();
            datanode.invoke(
                "DataNodeMetrics.incrBytesRead",
                &mut remote,
                9,
                &[("delta", Value::I64(delta))],
            );
        }
        bus.pump(1_000_000_000, &mut fe);

        let rows = fe.results(&handle).rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[0], Value::str("FSread4m"));
        assert_eq!(rows[0].values[1], Value::I64(500));
    }

    #[test]
    fn intervals_keep_per_flush_results() {
        let (mut fe, bus) = setup();
        let handle = fe
            .install(
                "From incr In DataNodeMetrics.incrBytesRead
                 GroupBy incr.host
                 Select incr.host, SUM(incr.delta)",
            )
            .unwrap();
        for cmd in fe.drain_commands() {
            bus.broadcast(&cmd);
        }
        let dn = &bus.agents()[1];
        let mut bag = pivot_baggage::Baggage::new();
        dn.invoke(
            "DataNodeMetrics.incrBytesRead",
            &mut bag,
            1,
            &[("delta", Value::I64(10))],
        );
        bus.pump(1_000_000_000, &mut fe);
        dn.invoke(
            "DataNodeMetrics.incrBytesRead",
            &mut bag,
            2,
            &[("delta", Value::I64(30))],
        );
        bus.pump(2_000_000_000, &mut fe);

        let res = fe.results(&handle);
        let series = res.series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1[0].values[1], Value::I64(10));
        assert_eq!(series[1].1[0].values[1], Value::I64(30));
        // Cumulative merges both intervals.
        assert_eq!(res.rows()[0].values[1], Value::I64(40));
    }

    #[test]
    fn duplicate_names_rejected_and_unknown_tracepoints_error() {
        let (mut fe, _) = setup();
        fe.install_named("X", "From e In ClientProtocols Select COUNT")
            .unwrap();
        assert!(matches!(
            fe.install_named("X", "From e In ClientProtocols Select COUNT"),
            Err(InstallError::DuplicateName(_))
        ));
        assert!(matches!(
            fe.install("From e In Nope Select COUNT"),
            Err(InstallError::Compile(_))
        ));
    }

    #[test]
    fn ill_typed_query_rejected_with_span() {
        let (mut fe, _) = setup();
        // Compiles fine (the compiler is untyped) but can never evaluate:
        // `&&` over a number.
        let err = fe
            .install(
                "From e In ClientProtocols
                 Where e.procName && 5
                 Select COUNT",
            )
            .unwrap_err();
        let InstallError::Rejected(diags) = err else {
            panic!("expected Rejected, got {err:?}");
        };
        assert!(diags
            .iter()
            .any(|d| { d.code == pivot_analyze::Code::TypeError && d.span.is_some() }));
    }

    #[test]
    fn query_reference_resolves_installed_query() {
        let mut fe = Frontend::new();
        fe.define("SendResponse", ["time"]);
        fe.define("ReceiveRequest", ["time"]);
        fe.define("JobComplete", ["id"]);
        fe.install_named(
            "Q8",
            "From response In SendResponse
             Join request In MostRecent(ReceiveRequest)
               On request -> response
             Select response.time - request.time",
        )
        .unwrap();
        let q9 = fe.install_named(
            "Q9",
            "From job In JobComplete
             Join lat In Q8 On lat -> job
             Select job.id, AVERAGE(lat)",
        );
        assert!(q9.is_ok(), "{q9:?}");
    }
}
