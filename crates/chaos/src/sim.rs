//! A deterministic, scripted KV-store workload for chaos testing.
//!
//! [`run_kv`] drives the repo's canonical two-process KV scenario — a
//! client packs a request tuple into baggage, a shard executes it and
//! emits — over a [`crate::ChaosBus`]-wrapped `LocalBus`, on a virtual
//! step clock (no wall time anywhere). The shard agent can crash at flush
//! boundaries per the plan's crash schedule; the harness restarts it and
//! re-syncs the installed-query set through [`pivot_core::Agent::sync`],
//! exactly mirroring the live runtime's epoch re-sync after reconnect.
//!
//! Every run returns an outcome holding the run's [`Ledger`] — agents'
//! ground-truth counters over every incarnation, the frontend's
//! deliveries, the injector's drops, and what died unflushed in each
//! crash ([`Ledger::bury`]) — and `books.balance()` must hold exactly
//! (the identity and its terms: DESIGN.md §5k). [`run_kv_overload`] adds
//! tracepoint storms and group-key explosions under tight
//! [`QueryBudget`]s and small row caps, which exercises the `shed` term;
//! [`run_kv_retro`] keeps a second ledger for hindsight events.

use std::sync::Arc;

use pivot_baggage::{Baggage, QueryId};
use pivot_core::{
    set_trace, Agent, Bus, Frontend, Ledger, LocalBus, LossStats, ProcessInfo, QueryBudget,
    QueryHandle, ResultRow, RetroLossStats, Throttled, TriggerKind,
};
use pivot_model::Value;

use crate::bus::{source_key, ChaosBus, ChaosStats, PlanScheduler};
use crate::plan::{FaultConfig, FaultPlan};

/// The workload query: per-request execution counts and bytes, joined
/// across the client → shard causal edge (a Q2-shaped query from the
/// paper, grouped by a per-request key so differential runs can be joined
/// on surviving request ids).
pub const KV_QUERY: &str = "From exec In KvShard.execute \
     Join req In First(KvClient.issueRequest) On req -> exec \
     GroupBy req.key \
     Select req.key, COUNT, SUM(exec.bytes)";

/// Virtual nanoseconds between requests.
pub const STEP_NS: u64 = 1_000_000;

/// Requests per flush interval (a flush boundary is also a crash
/// opportunity).
pub const FLUSH_EVERY: u64 = 16;

/// The fault-schedule source keys of the harness's two processes
/// `(client, shard)` — exposed so tests can fingerprint plans over the
/// exact sources the workload uses.
pub fn kv_sources() -> (u64, u64) {
    (source_key("kv-client", 1), source_key("kv-server", 2))
}

fn shard_info() -> ProcessInfo {
    ProcessInfo {
        host: "kv-server".into(),
        procid: 2,
        procname: "KvShard".into(),
    }
}

/// The shard-side export set of the `k`-th execute event.
fn put(k: u64) -> [(&'static str, Value); 3] {
    [
        ("shard", Value::U64(k % 4)),
        ("op", Value::str("put")),
        ("bytes", Value::I64((k % 97) as i64 + 1)),
    ]
}

/// The "RPC" to the shard: baggage crosses the process boundary by
/// serialization, as it would on a real wire.
fn rpc(bag: &mut Baggage) -> Baggage {
    Baggage::from_bytes(&bag.to_bytes())
}

/// The two-process scenario every harness drives — frontend, client and
/// shard agents, one fault-injecting bus — and the run's books.
struct Stage {
    fe: Frontend,
    client: Arc<Agent>,
    shard: Arc<Agent>,
    chaos: ChaosBus<LocalBus>,
    handles: Vec<QueryHandle>,
    queries: Vec<QueryId>,
    /// Harness tuning (row caps, ring sizes), re-applied to every fresh
    /// incarnation the way a supervisor would.
    tune: fn(&Agent),
    books: Ledger,
    retro_books: Ledger,
    crashes: u64,
}

impl Stage {
    /// Installs `queries` (the first `budgets.len()` of them budgeted),
    /// registers both agents and broadcasts the commands through the
    /// fault schedule `(seed, cfg)`.
    fn new(
        seed: u64,
        cfg: FaultConfig,
        queries: &[&str],
        budgets: &[QueryBudget],
        tune: fn(&Agent),
    ) -> Stage {
        let mut fe = Frontend::new();
        fe.define("KvClient.issueRequest", ["client", "op", "key"]);
        fe.define("KvShard.execute", ["shard", "op", "bytes"]);
        let handles: Vec<QueryHandle> = queries
            .iter()
            .map(|q| fe.install(q).expect("harness query compiles"))
            .collect();
        for (handle, budget) in handles.iter().zip(budgets) {
            fe.set_budget(handle, *budget);
        }
        let client = Arc::new(Agent::new(ProcessInfo {
            host: "kv-client".into(),
            procid: 1,
            procname: "KvClient".into(),
        }));
        let shard = Arc::new(Agent::new(shard_info()));
        let mut bus = LocalBus::new();
        for agent in [&client, &shard] {
            tune(agent);
            bus.register(Arc::clone(agent));
        }
        let plan = FaultPlan::new(seed, cfg);
        let chaos = ChaosBus::new(bus, PlanScheduler::new(plan));
        for cmd in fe.drain_commands() {
            Bus::broadcast(&chaos, &cmd);
        }
        Stage {
            fe,
            client,
            shard,
            chaos,
            queries: handles.iter().map(|h| h.id).collect(),
            handles,
            tune,
            books: Ledger::default(),
            retro_books: Ledger::default(),
            crashes: 0,
        }
    }

    fn plan(&self) -> &FaultPlan {
        self.chaos.scheduler().plan()
    }

    /// The client tracepoint of request `key`, packing into `bag`.
    fn issue(&self, bag: &mut Baggage, now: u64, key: &str) {
        self.client.invoke(
            "KvClient.issueRequest",
            bag,
            now,
            &[
                ("client", Value::str("client-0")),
                ("op", Value::str("put")),
                ("key", Value::str(key)),
            ],
        );
    }

    /// Ends request `i`. At a flush boundary the schedule may kill the
    /// shard mid-interval — `last_words` runs on the dying incarnation,
    /// then it is buried: its counters are its last word and whatever it
    /// had not flushed is lost for good. The replacement (same process
    /// identity, fresh incarnation) re-syncs the installed queries and
    /// budgets from the frontend, mirroring the live epoch re-sync.
    fn end_request(&mut self, i: u64, now: u64, last_words: impl FnOnce(&Agent)) {
        if !(i + 1).is_multiple_of(FLUSH_EVERY) {
            return;
        }
        if self
            .plan()
            .should_crash(kv_sources().1, (i + 1) / FLUSH_EVERY)
        {
            self.crashes += 1;
            last_words(&self.shard);
            let (tuples, retro) = Ledger::bury(&self.shard, &self.queries, now);
            self.books += &tuples;
            self.retro_books += &retro;
            self.chaos.inner_mut().unregister(&self.shard);
            let fresh = Arc::new(Agent::new(shard_info()));
            (self.tune)(&fresh);
            fresh.sync(&self.fe.installed());
            fresh.sync_budgets(&self.fe.budgets());
            self.chaos.inner_mut().register(Arc::clone(&fresh));
            self.shard = fresh;
        }
        self.chaos.pump_into(now, &mut self.fe);
    }

    /// Convergence — stop injecting, release held frames, final flush —
    /// then closes both books: the survivors' counters (sealing their
    /// rings: unclaimed events become `sampled_out`), the injector's
    /// drops and the frontend's deliveries join the buried incarnations'.
    /// Returns the per-query loss views and the injector's tallies.
    fn settle(&mut self, requests: u64) -> (Vec<LossStats>, ChaosStats) {
        self.chaos
            .settle_into((requests + 2) * STEP_NS, &mut self.fe);
        for agent in [&self.shard, &self.client] {
            self.books += &Ledger::of_agent(agent, &self.queries);
            self.retro_books += &Ledger::from(agent.retro_seal());
        }
        let stats = self.chaos.stats();
        self.books += &Ledger::from(stats.reports);
        self.retro_books += &Ledger::from(stats.retro);
        let loss: Vec<LossStats> = self
            .handles
            .iter()
            .map(|h| self.fe.results(h).loss())
            .collect();
        for l in &loss {
            self.books += &Ledger::from(*l);
        }
        self.retro_books += &Ledger::from(self.fe.retro_loss());
        (loss, stats)
    }
}

/// Everything observable about one harness run. Two runs of the same
/// `(seed, config, requests)` must compare equal — the determinism
/// regression test relies on `PartialEq` here.
#[derive(Clone, PartialEq, Debug)]
pub struct RunOutcome {
    /// Final cumulative result rows (sorted by key).
    pub rows: Vec<ResultRow>,
    /// The frontend's per-query loss accounting.
    pub loss: LossStats,
    /// The injector's tallies.
    pub chaos: ChaosStats,
    /// The run's tuple books, ground truth on the `produced` side.
    pub books: Ledger,
    /// Agent crash/restart cycles the schedule triggered.
    pub crashes: u64,
}

/// Runs `requests` KV operations under the fault schedule `(seed, cfg)`
/// and returns the converged outcome. Deterministic: no wall clock, no
/// stateful RNG, no thread interleaving.
pub fn run_kv(seed: u64, cfg: FaultConfig, requests: u64) -> RunOutcome {
    run_kv_burst(seed, cfg, requests, 1, false)
}

/// Like [`run_kv`], but each request's shard-side work is a burst of
/// `burst` execute events sharing that request's baggage — handed to the
/// agent through [`Agent::invoke_batch`] when `batched` is true, or the
/// equivalent per-event `invoke` loop when false. The loss identity and
/// the converged outcome must be identical either way (pinned by
/// `tests/batch_loss.rs`): batching changes how advice executes and
/// flushes, never what is emitted, delivered, dropped, or lost.
pub fn run_kv_burst(
    seed: u64,
    cfg: FaultConfig,
    requests: u64,
    burst: u64,
    batched: bool,
) -> RunOutcome {
    let mut st = Stage::new(seed, cfg, &[KV_QUERY], &[], |_| {});
    for i in 0..requests {
        let now = (i + 1) * STEP_NS;
        let mut bag = Baggage::new();
        st.issue(&mut bag, now, &format!("req-{i:05}"));
        let mut remote = rpc(&mut bag);
        let events: Vec<_> = (0..burst).map(|j| put(i * burst + j)).collect();
        if batched {
            let ev: Vec<(u64, &[(&str, Value)])> =
                events.iter().map(|e| (now, e.as_slice())).collect();
            st.shard.invoke_batch("KvShard.execute", &mut remote, &ev);
        } else {
            for e in &events {
                st.shard.invoke("KvShard.execute", &mut remote, now, e);
            }
        }
        st.end_request(i, now, |_| {});
    }
    let (loss, chaos) = st.settle(requests);
    RunOutcome {
        rows: st.fe.results(&st.handles[0]).rows(),
        loss: loss[0],
        chaos,
        books: st.books,
        crashes: st.crashes,
    }
}

/// Streaming companion query for the overload harness: an unaggregated
/// all-packs join, so tracepoint storms exercise the `PackMode::All` hard
/// cap on the baggage side and the streaming row cap on the buffer side.
pub const KV_STREAM_QUERY: &str = "From exec In KvShard.execute \
     Join req In KvClient.issueRequest On req -> exec \
     Select req.key, exec.bytes";

/// Row cap installed on the overload harness's agents — small enough
/// that group-key explosions and storm floods hit it within one flush
/// interval.
pub const OVERLOAD_ROW_CAP: usize = 64;

/// Everything observable about one overload-harness run. Derives
/// `PartialEq` so determinism tests can compare two replays of the same
/// `(seed, config, requests)` structurally, trip sequence included.
#[derive(Clone, PartialEq, Debug)]
pub struct OverloadOutcome {
    /// Final grouped-query result rows (sorted by key).
    pub grouped_rows: Vec<ResultRow>,
    /// Per-query loss accounting: `(grouped, streaming)`.
    pub loss: (LossStats, LossStats),
    /// Throttle notifications that reached the frontend: `(grouped,
    /// streaming)`. Ground-truth trips are in [`OverloadOutcome::trips`];
    /// these are only the ones whose report frames survived the chaos.
    pub throttles: (Vec<Throttled>, Vec<Throttled>),
    /// The injector's tallies.
    pub chaos: ChaosStats,
    /// The run's tuple books over both queries, ground truth on the
    /// `produced` side; `shed` is what the governor's row caps discarded.
    pub books: Ledger,
    /// Packed tuples dropped by the `PackMode::All` hard cap.
    pub truncated: u64,
    /// Circuit-breaker trips, ground truth summed over agents, queries,
    /// and incarnations.
    pub trips: u64,
    /// Agent crash/restart cycles the schedule triggered.
    pub crashes: u64,
    /// Largest per-query row buffer observed on the shard at any step —
    /// bounded-buffering means this never exceeds [`OVERLOAD_ROW_CAP`].
    pub max_buffered: usize,
}

/// Runs `requests` steps of the overload workload — tracepoint storms,
/// group-key explosions, tight explicit budgets, small row caps — under
/// the fault schedule `(seed, cfg)` and returns the converged outcome.
/// Pair with [`FaultConfig::overload_for_seed`] for a schedule that
/// actually storms; with [`FaultConfig::off`] the run is a plain (if
/// tightly budgeted) KV workload.
pub fn run_kv_overload(seed: u64, cfg: FaultConfig, requests: u64) -> OverloadOutcome {
    // Tight explicit budgets, windowed at a quarter of the flush
    // interval so trip → backoff → re-arm cycles complete within a run:
    // the grouped query trips on tuple floods (group-key explosions),
    // the streaming one on storm bursts. Ops/bytes rails are set high —
    // they are exercised by unit tests; here tuples are the story.
    let budget = |tuples: u64, rail: u64| QueryBudget {
        tuples_per_window: tuples,
        ops_per_window: rail,
        bytes_per_window: rail,
        window_ns: 4 * STEP_NS,
        backoff_base_windows: 1,
        max_backoff_doublings: 3,
    };
    let mut st = Stage::new(
        seed,
        cfg,
        &[KV_QUERY, KV_STREAM_QUERY],
        &[budget(24, 1_000_000), budget(400, 4_000_000)],
        |agent| agent.set_row_cap(OVERLOAD_ROW_CAP),
    );
    let queries = st.queries.clone();
    let (_, shard_src) = kv_sources();
    // Governor tallies outside the ledger; a dying incarnation's are its
    // last word too.
    let (mut truncated, mut trips) = (0u64, 0u64);
    let mut tally = |agent: &Agent| {
        for &q in &queries {
            truncated += agent.truncated_for(q);
            trips += u64::from(agent.trips_for(q));
        }
    };
    let mut max_buffered = 0usize;

    for i in 0..requests {
        let now = (i + 1) * STEP_NS;
        let burst = st.plan().storm_burst(shard_src, i);
        if st.plan().explodes(shard_src, i) {
            // Group-key explosion: a flood of one-shot requests with
            // distinct keys. The floor keeps every explosion wider than
            // [`OVERLOAD_ROW_CAP`], so each one both trips the grouped
            // budget and forces the grouped buffer to refuse new groups.
            for j in 0..u64::from(burst.max(80)) {
                let mut bag = Baggage::new();
                st.issue(&mut bag, now, &format!("xk-{i:05}-{j:03}"));
                st.shard
                    .invoke("KvShard.execute", &mut rpc(&mut bag), now, &put(j));
            }
        } else {
            // Ordinary request — or a tracepoint storm when `burst > 1`:
            // the client tracepoint fires `burst` times on one request,
            // every firing packing into the same baggage, so the
            // `PackMode::All` hard cap engages past its limit.
            let mut bag = Baggage::new();
            for _ in 0..burst {
                st.issue(&mut bag, now, &format!("req-{i:05}"));
            }
            st.shard
                .invoke("KvShard.execute", &mut rpc(&mut bag), now, &put(i));
        }
        for &q in &queries {
            max_buffered = max_buffered.max(st.shard.buffered_rows(q));
        }
        st.end_request(i, now, &mut tally);
    }

    let (loss, chaos) = st.settle(requests);
    tally(&st.shard);
    tally(&st.client);
    let gres = st.fe.results(&st.handles[0]);
    let sres = st.fe.results(&st.handles[1]);
    OverloadOutcome {
        grouped_rows: gres.rows(),
        loss: (loss[0], loss[1]),
        throttles: (gres.throttles(), sres.throttles()),
        chaos,
        books: st.books,
        truncated,
        trips,
        crashes: st.crashes,
        max_buffered,
    }
}

/// Hindsight companion query for the retro harness: large writes fire an
/// explicit `Trigger` advice op, draining the triggering request's
/// buffered raw events into a [`pivot_core::RetroReport`] routed to this
/// query's results.
pub const KV_TRIGGER_QUERY: &str = "From exec In KvShard.execute \
     Where exec.bytes > 90 \
     Trigger \
     Select exec.shard, exec.bytes";

/// Ring capacity installed on the retro harness's agents — small enough
/// that steady recording wraps the ring within a couple of flush
/// intervals, so `sampled_out` is exercised on every run.
pub const RETRO_RING_CAP: usize = 32;

/// Latency-outlier threshold for the retro harness (virtual ns). The
/// scripted workload exports `latency_ns` above it on a fixed cadence,
/// so every run also exercises the uncorrelated-orphan trigger path.
pub const RETRO_LATENCY_THRESHOLD: u64 = 1_000_000;

/// Everything observable about one retro-harness run. Derives `PartialEq`
/// so determinism tests can compare two replays of the same
/// `(seed, config, requests)` structurally, hindsight ledger included.
#[derive(Clone, PartialEq, Debug)]
pub struct RetroOutcome {
    /// Final grouped-query result rows (sorted by key).
    pub rows: Vec<ResultRow>,
    /// Per-query tuple loss accounting: `(grouped, trigger)`.
    pub loss: (LossStats, LossStats),
    /// The frontend's retro-flush loss accounting.
    pub retro: RetroLossStats,
    /// The injector's tallies (retro frames included).
    pub chaos: ChaosStats,
    /// The run's tuple books over both queries, ground truth on the
    /// `produced` side.
    pub books: Ledger,
    /// The run's hindsight books: every raw event recorded into any ring
    /// was delivered inside a retro report, dropped in transit,
    /// overwritten (or sealed) before a trigger wanted it, shed from a
    /// bounded pending queue, or died — ring-resident or
    /// flushed-but-undrained — with a crashing incarnation.
    pub retro_books: Ledger,
    /// Agent crash/restart cycles the schedule triggered.
    pub crashes: u64,
    /// Retro reports that reached the trigger query's results.
    pub advice_reports: usize,
    /// Retro reports from non-query triggers (latency outliers, fault
    /// sites) that landed in the frontend's orphan pool.
    pub orphan_reports: usize,
    /// Largest ring occupancy observed on any agent at any step —
    /// bounded recording means this never exceeds [`RETRO_RING_CAP`].
    pub max_ring: usize,
}

/// Runs `requests` KV operations with hindsight recording on — a
/// `Trigger`-bearing query woven on the shard, a latency-outlier
/// threshold armed, and a fault-site trigger fired at every scheduled
/// crash — under the fault schedule `(seed, cfg)`, and returns the
/// converged outcome. Deterministic, like [`run_kv`].
///
/// The crash choreography is deliberately adversarial to the retro path:
/// the harness fires the fault trigger first and *then* kills the shard,
/// so the flushed report dies in the pending queue and its events must
/// come back out of the retro books' `crash_lost`, not vanish.
pub fn run_kv_retro(seed: u64, cfg: FaultConfig, requests: u64) -> RetroOutcome {
    // Installing KV_TRIGGER_QUERY switches retro on; the rings are
    // tightened so wraparound (`sampled_out`) happens within a run.
    let mut st = Stage::new(seed, cfg, &[KV_QUERY, KV_TRIGGER_QUERY], &[], |agent| {
        agent.set_retro_cap(RETRO_RING_CAP);
        agent.set_retro_latency_threshold(RETRO_LATENCY_THRESHOLD);
    });
    let mut max_ring = 0usize;

    for i in 0..requests {
        let now = (i + 1) * STEP_NS;
        let mut bag = Baggage::new();
        // Request ingress: stamp the trace id the rings correlate on.
        set_trace(&mut bag, i + 1);
        st.issue(&mut bag, now, &format!("req-{i:05}"));
        // A fixed cadence of latency spikes drives the outlier trigger;
        // bytes > 90 (seven residues mod 97) drives the advice trigger.
        let latency = if i % 29 == 11 {
            4 * RETRO_LATENCY_THRESHOLD
        } else {
            RETRO_LATENCY_THRESHOLD / 100
        };
        let mut exports = put(i).to_vec();
        exports.push(("latency_ns", Value::U64(latency)));
        st.shard
            .invoke("KvShard.execute", &mut rpc(&mut bag), now, &exports);
        max_ring = max_ring
            .max(st.shard.retro_buffered())
            .max(st.client.retro_buffered());
        // The fault site asks for hindsight, then the process dies before
        // the report drains: those events are crash loss.
        st.end_request(i, now, |dying| {
            dying.trigger_retro(TriggerKind::Fault, 0, now);
        });
    }

    let (loss, chaos) = st.settle(requests);
    RetroOutcome {
        rows: st.fe.results(&st.handles[0]).rows(),
        loss: (loss[0], loss[1]),
        retro: st.fe.retro_loss(),
        chaos,
        books: st.books,
        retro_books: st.retro_books,
        crashes: st.crashes,
        advice_reports: st.fe.results(&st.handles[1]).retro().len(),
        orphan_reports: st.fe.retro_orphans().len(),
        max_ring,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_is_exact() {
        let out = run_kv(0, FaultConfig::off(), 128);
        assert_eq!(out.rows.len(), 128);
        assert_eq!(out.books.produced, 128);
        assert_eq!(out.loss.tuples_delivered, 128);
        assert_eq!(out.loss.tuples_dropped, 0);
        assert_eq!(out.loss.reports_missed, 0);
        assert_eq!(out.crashes, 0);
        assert_eq!(out.books.balance(), Ok(()));
        // COUNT == 1 and SUM(bytes) == the scripted value for each request.
        for (i, row) in out.rows.iter().enumerate() {
            assert_eq!(row.values[0], Value::str(format!("req-{i:05}")));
            assert_eq!(row.values[1], Value::U64(1));
            assert_eq!(row.values[2], Value::I64((i as i64 % 97) + 1));
        }
    }

    #[test]
    fn overload_off_run_is_exact_and_bounded() {
        let out = run_kv_overload(0, FaultConfig::off(), 128);
        assert_eq!(out.books.balance(), Ok(()), "{out:?}");
        // No storms, no explosions, no crashes: one request per step
        // never reaches a budget rail or a row cap, so the governor is
        // pure observation and the run is exact.
        assert_eq!(out.crashes, 0);
        assert_eq!(out.books.crash_lost, 0);
        assert_eq!(out.books.dropped, 0);
        assert_eq!(out.trips, 0);
        assert_eq!(out.truncated, 0);
        assert_eq!(out.books.shed, 0);
        // One grouped + one streaming tuple per request.
        assert_eq!(out.books.produced, 256);
        assert_eq!(out.grouped_rows.len(), 128);
        // Buffers drain every flush, so at most one interval's rows are
        // ever resident — far below the cap without a storm.
        assert_eq!(out.max_buffered, FLUSH_EVERY as usize);
        assert_eq!(out.loss.0.tuples_shed, 0);
        assert_eq!(out.loss.0.tuples_delivered, 128);
        assert_eq!(out.loss.1.tuples_shed, 0);
        assert_eq!(out.loss.1.tuples_delivered, 128);
        assert!(out.throttles.0.is_empty() && out.throttles.1.is_empty());
    }

    #[test]
    fn retro_fault_free_run_is_exact() {
        let out = run_kv_retro(0, FaultConfig::off(), 256);
        assert_eq!(out.books.balance(), Ok(()), "tuples: {out:?}");
        assert_eq!(out.retro_books.balance(), Ok(()), "retro: {out:?}");
        assert_eq!(out.crashes, 0);
        assert_eq!(out.retro_books.crash_lost, 0);
        assert_eq!(out.retro_books.dropped, 0);
        // Two agents, one recorded raw event each per request.
        assert_eq!(out.retro_books.produced, 2 * 256);
        // Both trigger families fired and their reports arrived: advice
        // triggers route to the trigger query, latency outliers are
        // query-unscoped and land in the orphan pool.
        assert!(out.advice_reports > 0, "{out:?}");
        assert!(out.orphan_reports > 0, "{out:?}");
        assert!(out.retro.events_delivered > 0);
        assert_eq!(out.retro.reports_duplicate, 0);
        // Bounded recording: the ring never outgrew its cap, and the
        // overwritten remainder is accounted as sampled_out, not lost.
        assert!(out.max_ring <= RETRO_RING_CAP, "{out:?}");
        assert!(out.retro_books.sampled_out > 0);
    }

    #[test]
    fn retro_chaotic_run_balances() {
        let out = run_kv_retro(7, FaultConfig::for_seed(7), 256);
        assert_eq!(out.books.balance(), Ok(()), "tuples: {out:?}");
        assert_eq!(out.retro_books.balance(), Ok(()), "retro: {out:?}");
        assert!(out.max_ring <= RETRO_RING_CAP);
    }

    #[test]
    fn chaotic_run_balances_and_is_a_subset() {
        let baseline = run_kv(11, FaultConfig::off(), 256);
        let out = run_kv(11, FaultConfig::for_seed(11), 256);
        assert_eq!(out.books.balance(), Ok(()), "{out:?}");
        for row in &out.rows {
            assert!(
                baseline.rows.contains(row),
                "row {row:?} not in fault-free baseline"
            );
        }
    }
}
