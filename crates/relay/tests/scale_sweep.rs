//! The 1000-agent simulated sweep: a two-hop relay tree (1000 agents →
//! 10 leaf relays → 1 root relay → frontend) with seeded chaos on every
//! link, relay crashes mid-window at both tiers, and governor-style shed
//! at the leaves. The acceptance bar is the *exact* ground-truth loss
//! identity across the whole run: a [`Ledger`] fed by every agent
//! (produced, shed), every link (dropped), every relay (stale, crash
//! residue) and the frontend (delivered) must `balance()`, and so must
//! its hindsight twin.
//!
//! Every tuple an agent ever emitted lands in exactly one bucket; nothing
//! leaks through the tree even when relays die with open windows and the
//! fault injector drops, duplicates, delays, and partitions around them.
//!
//! Crash discipline: before restarting a relay we quiesce the links
//! *below* it (release held frames, pull them into the window) so a
//! chaos-duplicated frame cannot have one copy die in the window while
//! the other is re-accepted by the next incarnation as a fresh baseline —
//! which would count the same tuples in both `residue` and `delivered`.
//! Frames held *above* the crashed relay are safe without quiescing:
//! they carry the old incarnation, so the upstream keeps deduplicating
//! them against the old source state. DESIGN.md §5h spells this out.

use std::sync::Arc;

use pivot_baggage::Baggage;
use pivot_chaos::{ChaosBus, FaultConfig, FaultPlan, PlanScheduler};
use pivot_core::{Agent, Bus, Frontend, Ledger, LocalBus, ProcessInfo, QueryHandle, TriggerKind};
use pivot_model::Value;
use pivot_relay::{CrashResidue, FanIn, Relay};

const MS: u64 = 1_000_000;
const LEAVES: usize = 10;
const AGENTS_PER_LEAF: usize = 100;
const ROUNDS: u64 = 10;
/// Rounds step the clock past the injector's largest delay (320ms) so
/// held frames actually release mid-run and reorder, not just at settle.
const ROUND_NS: u64 = 400 * MS;

const GROUPED: &str = "From e In Exec GroupBy e.k Select e.k, SUM(e.v)";
const STREAMING: &str = "From e In Exec Select e.k, e.v";

/// Leaves whose agents run with hindsight rings armed: the shed leaf
/// (0) and both leaf-crash victims (2 and 6), so retro frames are in
/// flight through every adversity the sweep stages.
const RETRO_LEAVES: [usize; 3] = [0, 2, 6];
/// Tiny rings so steady recording wraps between staggered triggers and
/// the `sampled_out` term is exercised at scale.
const RETRO_RING_CAP: usize = 8;

type LeafRelay = Relay<ChaosBus<LocalBus>>;
type Tree = Relay<FanIn<ChaosBus<LeafRelay>>>;

fn agent_info(slot: u64) -> ProcessInfo {
    ProcessInfo {
        host: format!("host-{slot}"),
        procid: slot,
        procname: "worker".into(),
    }
}

fn relay_info(slot: u64) -> ProcessInfo {
    ProcessInfo {
        host: format!("relay-{slot}"),
        procid: slot,
        procname: "pivot-relay".into(),
    }
}

/// Builds the two-hop tree. Each leaf has chaos on its agent-facing link
/// and on its upstream link, every link drawing an independent schedule
/// from the one root seed via `FaultPlan::derive`.
fn build_tree(seed: u64, agents: &mut Vec<Arc<Agent>>) -> Tree {
    let root_plan = FaultPlan::new(seed, FaultConfig::for_seed(seed));
    let mut leaves = Vec::new();
    for li in 0..LEAVES {
        let mut bus = LocalBus::new();
        for ai in 0..AGENTS_PER_LEAF {
            let slot = (li * AGENTS_PER_LEAF + ai) as u64;
            let agent = Arc::new(Agent::new(agent_info(slot)));
            agents.push(Arc::clone(&agent));
            bus.register(agent);
        }
        let below = ChaosBus::new(bus, PlanScheduler::new(root_plan.derive(li as u64)));
        let leaf = Relay::new(below, relay_info(li as u64));
        let above = PlanScheduler::new(root_plan.derive(1_000 + li as u64));
        leaves.push(ChaosBus::new(leaf, above));
    }
    Relay::new(FanIn::new(leaves), relay_info(99))
}

fn invoke(agent: &Agent, now: u64, key: &str, v: i64) {
    let mut bag = Baggage::new();
    agent.invoke(
        "Exec",
        &mut bag,
        now,
        &[("k", Value::str(key)), ("v", Value::I64(v))],
    );
}

/// The same five events as one `invoke_batch` call — half the fleet runs
/// batched so the sweep's loss identity covers batch flushing too.
fn invoke_round_batched(agent: &Agent, now: u64, gkey: &str) {
    let mut bag = Baggage::new();
    let events: Vec<[(&str, Value); 2]> = (0..5)
        .map(|j| {
            let k = if j < 2 { gkey } else { "s" };
            [("k", Value::str(k)), ("v", Value::I64(1))]
        })
        .collect();
    let ev: Vec<(u64, &[(&str, Value)])> = events.iter().map(|e| (now, e.as_slice())).collect();
    agent.invoke_batch("Exec", &mut bag, &ev);
}

/// One full pull through the tree into the frontend; returns how many
/// frames the frontend actually received (the fan-in numerator).
fn drain_into(root: &Tree, fe: &mut Frontend, t: u64) -> u64 {
    let drained = root.drain(t);
    let n = drained.reports.len() as u64;
    for r in drained.reports {
        fe.accept(r);
    }
    for r in drained.retro {
        fe.accept_retro(r);
    }
    n
}

/// Marks every held frame on every link due immediately (both tiers).
fn release_all(root: &Tree) {
    for child in root.inner().children() {
        child.release_pending();
        child.inner().inner().release_pending();
    }
}

/// Quiesce-then-crash for a leaf: settle the agent-facing link into the
/// open window (and the retro queue), then kill the relay. Returns what
/// the crash destroyed.
fn crash_leaf(root: &Tree, li: usize, t: u64) -> CrashResidue {
    let leaf = root.inner().children()[li].inner();
    leaf.inner().release_pending();
    leaf.pull(t);
    leaf.core().restart()
}

/// Quiesce-then-crash for the root: settle every leaf-facing link into
/// the root window (and the retro queue), then kill it.
fn crash_root(root: &Tree, t: u64) -> CrashResidue {
    for child in root.inner().children() {
        child.release_pending();
    }
    root.pull(t);
    root.core().restart()
}

struct SweepOutcome {
    /// Tuple books, ground truth (agent counters) on the `produced` side.
    books: Ledger,
    /// Hindsight books, ground truth (`recorded` from agent seals) on the
    /// `produced` side.
    retro: Ledger,
    frames_fe: u64,
    agent_frames: u64,
}

fn run_sweep(seed: u64) -> SweepOutcome {
    let mut fe = Frontend::new();
    fe.define("Exec", ["k", "v"]);
    let gq: QueryHandle = fe.install_named("QG", GROUPED).expect("grouped installs");
    let sq: QueryHandle = fe
        .install_named("QS", STREAMING)
        .expect("streaming installs");

    let mut agents: Vec<Arc<Agent>> = Vec::with_capacity(LEAVES * AGENTS_PER_LEAF);
    let root = build_tree(seed, &mut agents);
    assert_eq!(agents.len(), 1_000, "the sweep is a 1000-agent run");

    // A tight row cap on leaf 0's agents forces real shed (the governor's
    // bounded-buffer family), so the identity's shed term is exercised.
    for agent in &agents[..AGENTS_PER_LEAF] {
        agent.set_row_cap(2);
    }

    // Hindsight rings on three leaves' worth of agents (shed leaf + both
    // leaf-crash victims), tiny so wraparound is routine.
    let retro_agents: Vec<&Arc<Agent>> = RETRO_LEAVES
        .iter()
        .flat_map(|&li| &agents[li * AGENTS_PER_LEAF..(li + 1) * AGENTS_PER_LEAF])
        .collect();
    for agent in &retro_agents {
        agent.set_retro(true);
        agent.set_retro_cap(RETRO_RING_CAP);
    }

    // Installs flow down through both chaos tiers. Commands are never
    // dropped, but each tier can hold them independently — release and
    // drain twice so a frame re-delayed at the lower tier still lands.
    let mut t = MS;
    for cmd in fe.drain_commands() {
        root.broadcast(&cmd);
    }
    let mut frames_fe = 0;
    for _ in 0..2 {
        release_all(&root);
        frames_fe += drain_into(&root, &mut fe, t);
        t += ROUND_NS;
    }
    for agent in &agents {
        assert!(
            agent.registry().has_query(gq.id),
            "install reached every agent"
        );
        assert!(agent.registry().has_query(sq.id));
    }

    let mut books = Ledger::default();
    let mut retro = Ledger::default();
    let mut bury = |residue: CrashResidue| {
        let (tuples, events) = residue.books();
        books += &tuples;
        retro += &events;
    };
    for round in 0..ROUNDS {
        for (i, agent) in agents.iter().enumerate() {
            let gkey = if i % 2 == 0 { "g0" } else { "g1" };
            // Both queries watch the same tracepoint, so every invoke
            // feeds both; v stays 1 so the grouped SUM equals the
            // delivered tuple count. Odd agents run the identical five
            // events per-call, even agents as one batched call — the
            // identity must hold with both execution paths in the fleet.
            if i % 2 == 0 {
                invoke_round_batched(agent, t, gkey);
            } else {
                for _ in 0..2 {
                    invoke(agent, t, gkey, 1);
                }
                for _ in 0..3 {
                    invoke(agent, t, "s", 1);
                }
            }
        }
        // Staggered fault-site triggers: each hindsight agent drains its
        // ring every third round, so retro frames are in flight at every
        // crash and across every partition window the schedule stages.
        for (ri, agent) in retro_agents.iter().enumerate() {
            if round % 3 == (ri % 3) as u64 {
                agent.trigger_retro(TriggerKind::Fault, 0, t);
            }
        }
        // Mid-window crashes at both tiers: the invokes above are pulled
        // into the victim's window (quiesce) and then destroyed with it —
        // retro frames included, so the hindsight residue term is real.
        if round == 3 {
            let lost = crash_leaf(&root, 2, t);
            assert!(
                lost.window_tuples > 0,
                "leaf crash destroyed an open window"
            );
            assert!(
                lost.retro_events > 0,
                "leaf crash destroyed queued retro frames"
            );
            bury(lost);
        }
        if round == 5 {
            let lost = crash_root(&root, t);
            assert!(
                lost.window_tuples > 0,
                "root crash destroyed an open window"
            );
            bury(lost);
        }
        if round == 7 {
            let lost = crash_leaf(&root, 6, t);
            assert!(
                lost.window_tuples > 0,
                "second leaf crash destroyed an open window"
            );
            bury(lost);
        }
        frames_fe += drain_into(&root, &mut fe, t);
        t += ROUND_NS;
    }

    // End-of-run convergence: stop injecting, release every held frame,
    // and pump until the tree is empty. Two passes move a frame released
    // at the lower tier through the upper one; the third is slack.
    for child in root.inner().children() {
        child.set_enabled(false);
        child.inner().inner().set_enabled(false);
    }
    for _ in 0..3 {
        release_all(&root);
        frames_fe += drain_into(&root, &mut fe, t);
        t += ROUND_NS;
    }
    for child in root.inner().children() {
        assert_eq!(child.pending(), (0, 0), "upper link fully settled");
        assert_eq!(
            child.inner().inner().pending(),
            (0, 0),
            "lower link fully settled"
        );
        assert_eq!(
            child.inner().core().buffered_tuples(),
            0,
            "leaf window flushed"
        );
    }
    assert_eq!(root.core().buffered_tuples(), 0, "root window flushed");

    // Every relay's refusals and sheds, every link's drops.
    let mut agent_frames = 0u64;
    let leaves = root.inner().children().iter().map(|c| c.inner().core());
    for core in leaves.chain([root.core()]) {
        let (tuples, events) = core.stats().books();
        books += &tuples;
        retro += &events;
    }
    for child in root.inner().children() {
        for link in [child.stats(), child.inner().inner().stats()] {
            books += &Ledger::from(link.reports);
            retro += &Ledger::from(link.retro);
        }
        agent_frames += child.inner().core().stats().reports_in;
    }

    // Graceful end-of-life for the hindsight rings: everything
    // deliverable drained above; sealing accounts the leftovers
    // (unclaimed ring events become `sampled_out`).
    for agent in &retro_agents {
        retro += &Ledger::from(agent.retro_seal());
    }
    for agent in &agents {
        books += &Ledger::of_agent(agent, &[gq.id, sq.id]);
    }

    let loss_g = fe.results(&gq).loss();
    let loss_s = fe.results(&sq).loss();

    // Per-query spot checks: the grouped SUM over v=1 tuples equals the
    // delivered count, and every delivered streaming row is visible.
    let sum_g: i64 = fe
        .results(&gq)
        .rows()
        .iter()
        .map(|r| match r.values[1] {
            Value::I64(n) => n,
            ref v => panic!("SUM column is not an integer: {v:?}"),
        })
        .sum();
    assert_eq!(sum_g as u64, loss_g.tuples_delivered, "merged SUM is exact");
    assert_eq!(
        fe.results(&sq).len() as u64,
        loss_s.tuples_delivered,
        "every delivered raw row survives the hops"
    );

    books += &Ledger::from(loss_g);
    books += &Ledger::from(loss_s);
    retro += &Ledger::from(fe.retro_loss());
    SweepOutcome {
        books,
        retro,
        frames_fe,
        agent_frames,
    }
}

/// The headline acceptance test: three seeded 1000-agent runs, each
/// balancing the ground-truth identity exactly — through two relay hops,
/// per-link fault schedules, three mid-window relay crashes, and forced
/// shed — while the frontend sees at least 5× fewer frames than the
/// agents emitted.
#[test]
fn thousand_agent_sweep_balances_exactly() {
    let mut total_dropped = 0u64;
    let mut total_retro_dropped = 0u64;
    for seed in [0x51ee9, 0xb0b5, 0x7a11] {
        let o = run_sweep(seed);
        assert_eq!(o.books.balance(), Ok(()), "seed {seed:#x}: tuples");
        // The extended hindsight identity through both relay hops: every
        // raw event recorded into any ring lands in exactly one bucket.
        assert_eq!(o.retro.balance(), Ok(()), "seed {seed:#x}: retro");
        assert!(
            o.books.crash_lost > 0,
            "seed {seed:#x}: crashes hit open windows"
        );
        assert!(
            o.books.shed > 0,
            "seed {seed:#x}: the shed term is exercised"
        );
        assert!(
            o.retro.delivered > 0,
            "seed {seed:#x}: hindsight data reached the frontend"
        );
        assert!(
            o.retro.sampled_out > 0,
            "seed {seed:#x}: ring wraparound is exercised at scale"
        );
        assert!(
            o.retro.crash_lost > 0,
            "seed {seed:#x}: relay crashes destroyed queued retro frames"
        );
        assert!(
            o.frames_fe * 5 <= o.agent_frames,
            "seed {seed:#x}: fan-in collapsed {} agent frames to {} at the frontend",
            o.agent_frames,
            o.frames_fe
        );
        total_dropped += o.books.dropped;
        total_retro_dropped += o.retro.dropped;
    }
    assert!(total_dropped > 0, "the sweep exercised real transport loss");
    assert!(
        total_retro_dropped > 0,
        "the sweep exercised real retro-frame transport loss"
    );
}
