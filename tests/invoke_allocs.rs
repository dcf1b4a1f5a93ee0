//! Allocation counts of a woven invocation.
//!
//! What an event needs to know about its tracepoint is resolved when the
//! advice is woven (`pivot_core::tracepoint::SitePlan`, DESIGN.md §5d), so
//! `Agent::invoke` assembles no export set and looks nothing up by name:
//! in steady state it allocates only for the data it produces. This
//! binary pins that with the counting allocator of
//! `support/counting_alloc.rs`, on the shapes `benchmark/src/svc.rs` and
//! `benchmark/src/fanin.rs` drive.

use pivot_tracing::baggage::Baggage;
use pivot_tracing::core::{set_trace, Agent, Frontend, ProcessInfo, QueryBudget};
use pivot_tracing::live::{ctx, tracepoint};
use pivot_tracing::model::{Tuple, Value};
use pivot_tracing::query::bytecode::Inst;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const CLIENTS: usize = 16;

const Q1: &str = "From exec In KvShard.execute \
    Join req In First(KvClient.issueRequest) On req -> exec \
    GroupBy req.client Select req.client, COUNT, SUM(exec.bytes)";

/// The five queries of the benchmark's `svc_5q_retro` workload.
const FIVE: &[&str] = &[
    Q1,
    "From exec In KvShard.execute GroupBy exec.shard Select exec.shard, COUNT, SUM(exec.bytes)",
    "From exec In KvShard.execute GroupBy exec.op Select exec.op, COUNT, MAX(exec.bytes)",
    "From exec In KvShard.execute Select COUNT, SUM(exec.bytes)",
    "From exec In KvShard.execute Where exec.bytes == 0 GroupBy exec.shard Select exec.shard, COUNT",
];

fn agent() -> Agent {
    Agent::new(ProcessInfo {
        host: "host-A".into(),
        procid: 7,
        procname: "kvserver".into(),
    })
}

/// An agent with the five queries woven as `svc_5q_retro` has them: every
/// query under a finite budget far above the load, hindsight on. The ring
/// is small so the warm-up below fills it and recording reaches its
/// steady state (overwrite in place).
fn five_query_agent() -> (Agent, Frontend) {
    let mut fe = Frontend::new();
    fe.define("KvClient.issueRequest", ["client", "op", "key"]);
    fe.define("KvShard.execute", ["shard", "op", "bytes", "hit"]);
    let agent = agent();
    for text in FIVE {
        let handle = fe.install(text).expect("the benchmark's queries install");
        agent.install(&fe.code(&handle).expect("installed queries have code"));
        agent.set_budget(
            handle.id,
            QueryBudget {
                tuples_per_window: 1 << 40,
                ops_per_window: 1 << 44,
                bytes_per_window: 1 << 44,
                ..QueryBudget::unlimited()
            },
        );
    }
    agent.set_retro(true);
    agent.set_retro_cap(32);
    (agent, fe)
}

/// The names the service formats once, as `benchmark/src/svc.rs` does.
fn client_names() -> Vec<String> {
    (0..CLIENTS).map(|c| format!("client-{c:02}")).collect()
}

/// Every string here fits in its `Value` (`pivot_model::text::INLINE`),
/// so building the exports is part of what the pins below count.
fn client_exports(client: &str) -> [(&'static str, Value); 3] {
    [
        ("client", Value::str(client)),
        ("op", Value::str("get")),
        ("key", Value::str("key-0001")),
    ]
}

/// The four export sets the benchmark's shard probe cycles through.
fn shard_exports(i: u64) -> [(&'static str, Value); 4] {
    let i = i % 4;
    [
        ("shard", Value::U64(i % 2)),
        ("op", Value::str(if i < 3 { "get" } else { "put" })),
        ("bytes", Value::U64(if i == 0 { 0 } else { 64 * i })),
        ("hit", Value::Bool(i != 0)),
    ]
}

#[test]
fn five_governed_queries_with_hindsight_on_allocate_nothing_at_the_shard_site() {
    let (agent, _fe) = five_query_agent();
    // One baggage per client, in the state a request's baggage has at the
    // shard: traced and packed at the client, serialized, strictly
    // deserialized, split and joined into a fresh scope.
    let mut bags: Vec<Baggage> = client_names()
        .iter()
        .enumerate()
        .map(|(c, name)| {
            let mut bag = Baggage::new();
            set_trace(&mut bag, c as u64 + 1);
            agent.invoke("KvClient.issueRequest", &mut bag, 1, &client_exports(name));
            let mut arrived = Baggage::try_from_bytes(&bag.to_bytes()).expect("own bytes decode");
            let mut scoped = Baggage::new();
            scoped.join(arrived.split());
            scoped
        })
        .collect();
    // Warm-up: every group exists, the ring has wrapped, scratch is sized.
    for round in 0..8 {
        for (c, bag) in bags.iter_mut().enumerate() {
            let exports = shard_exports(c as u64 + round);
            agent.invoke("KvShard.execute", bag, round, &exports);
        }
    }
    let before = agent.stats();
    for round in 0..4 {
        for (c, bag) in bags.iter_mut().enumerate() {
            // The exports are the event's: built, read and dropped inside
            // the count.
            let (n, ()) = allocations(|| {
                let exports = shard_exports(c as u64 + round);
                agent.invoke("KvShard.execute", bag, 100, &exports)
            });
            assert_eq!(
                n, 0,
                "client {c}, round {round}: a steady-state invoke allocated"
            );
        }
    }
    // All five programs ran on every one of those events.
    let after = agent.stats();
    let events = 4 * CLIENTS as u64;
    assert_eq!(
        after.advised_invocations - before.advised_invocations,
        events
    );
    assert!(after.tuples_emitted - before.tuples_emitted >= 4 * events);
    assert_eq!(agent.retro_buffered(), 32, "the ring records every event");
}

#[test]
fn the_q1_client_site_allocates_exactly_what_the_pack_allocates() {
    let (agent, fe) = five_query_agent();
    // What Q1's client-side program packs, and how.
    let code = fe.installed().into_iter().next().expect("Q1 is installed");
    let (slot, mode) = code
        .programs
        .iter()
        .flat_map(|p| p.insts.iter())
        .find_map(|inst| match inst {
            Inst::Pack { slot, mode, .. } => Some((*slot, mode.clone())),
            _ => None,
        })
        .expect("Q1 packs at the client");
    let exports = client_exports("client-03");
    let traced = || {
        let mut bag = Baggage::new();
        set_trace(&mut bag, 9);
        bag
    };
    for _ in 0..64 {
        agent.invoke("KvClient.issueRequest", &mut traced(), 1, &exports);
    }

    let mut bag = traced();
    let tuple = Tuple::from_iter([exports[0].1.clone()]);
    let (pack, ()) = allocations(|| bag.pack(slot, &mode, [tuple]));
    let mut bag = traced();
    let (invoke, ()) = allocations(|| {
        let exports = client_exports("client-03");
        agent.invoke("KvClient.issueRequest", &mut bag, 2, &exports)
    });
    assert_eq!(invoke, pack, "the invoke allocated beyond its pack");
    // The number itself: the new entry's tuple vector. (Its place in the
    // instance's entry map is free here — the trace id already paid for
    // the map's node.)
    assert_eq!(pack, 1);
}

#[test]
fn an_unwoven_request_never_calls_the_allocator() {
    // One request of `benchmark/src/svc.rs` on `svc_unwoven`, call for
    // call: ten exports (six of them strings), four tracepoints on an
    // agent with nothing woven, the request and response header edges,
    // the channel edge into the shard's scope and back.
    let names = client_names();
    let agent = agent();
    let request = |client: &str| {
        let client_scope = ctx::attach(Baggage::new());
        let exports = client_exports(client);
        tracepoint(&agent, "KvClient.issueRequest", &exports);
        let header = ctx::snapshot_bytes();

        let bag = Baggage::try_from_bytes(&header).expect("own bytes decode");
        let server_scope = ctx::attach(bag);
        let exports = [
            ("op", Value::str("get")),
            ("key", Value::str("key-0001")),
            ("shard", Value::U64(1)),
        ];
        tracepoint(&agent, "KvServer.receiveRequest", &exports);

        let branch = ctx::branch();
        let shard_scope = ctx::attach(Baggage::new());
        ctx::merge(branch);
        tracepoint(&agent, "KvShard.execute", &shard_exports(1));
        let reply = ctx::branch();
        drop(shard_scope);
        ctx::merge(reply);

        tracepoint(
            &agent,
            "KvServer.sendResponse",
            &[("bytes", Value::U64(64))],
        );
        let header = server_scope.detach().to_bytes();
        ctx::merge(Baggage::try_from_bytes(&header).expect("own bytes decode"));
        drop(client_scope);
    };
    // The thread's current baggage and its shared empty header exist
    // after the first request.
    request(&names[0]);
    for name in &names {
        let (n, ()) = allocations(|| request(name));
        assert_eq!(n, 0, "{name}: an unwoven request allocated");
    }
}

#[test]
fn a_row_of_short_strings_is_cloned_without_allocating() {
    // What `Unpack` does per produced row and a hindsight record per
    // event; `tuple.rs::clone_owns_each_value_once_in_either_representation`
    // witnesses the same clone on long strings by reference count.
    let row = Tuple::from_iter(client_exports("client-03").map(|(_, v)| v));
    for _ in 0..4 {
        let (n, copy) = allocations(|| row.clone());
        assert_eq!(n, 0, "cloning an inline row of inline strings allocated");
        assert_eq!(copy, row);
    }
}

#[test]
fn a_batch_allocates_nothing_per_new_group_whatever_its_length() {
    let mut fe = Frontend::new();
    fe.define("Fanin.event", ["key", "val", "tag"]);
    let handle = fe
        .install("From e In Fanin.event GroupBy e.key Select e.key, COUNT, SUM(e.val), MAX(e.val)")
        .expect("installs");
    let agent = agent();
    agent.install(&fe.code(&handle).expect("code"));

    let keys: Vec<Value> = (0..64).map(|k| Value::str(format!("key-{k:04}"))).collect();
    // `len` events spread over the first `groups` keys.
    let batch = |len: usize, groups: usize| -> Vec<[(&'static str, Value); 3]> {
        (0..len)
            .map(|i| {
                [
                    ("key", keys[i % groups].clone()),
                    ("val", Value::U64(i as u64)),
                    ("tag", Value::U64(i as u64 % 7)),
                ]
            })
            .collect()
    };
    let run = |exports: &[[(&'static str, Value); 3]]| {
        let events: Vec<(u64, &[(&str, Value)])> =
            exports.iter().map(|e| (1, e.as_slice())).collect();
        let mut bag = Baggage::new();
        allocations(|| agent.invoke_batch("Fanin.event", &mut bag, &events)).0
    };

    // Warm-up with the longest batch and every key, then drain: the group
    // table keeps its index, the VM its scratch.
    run(&batch(512, 64));
    agent.flush(1);

    let fresh_256 = run(&batch(256, 16));
    let onto_existing = run(&batch(256, 16));
    agent.flush(2);
    let fresh_512 = run(&batch(512, 16));
    agent.flush(3);
    let fresh_512_more_groups = run(&batch(512, 40));

    // The constant is zero: nothing is assembled per call or per event.
    assert_eq!(onto_existing, 0);
    // Nor per group born. A short key is copied into its group, not shared
    // with the export, so no reference count can witness the birth
    // (`vm_differential.rs` does that on long keys); its accumulators are
    // pushed onto the table's one vector, which the last flush left as
    // large as the groups it took.
    assert_eq!(fresh_256, 0, "a birth is a push");
    assert_eq!(fresh_512, 0, "twice the events, the same groups");
    // More groups than the last interval's grow the two vectors, 16 → 64
    // keys and 48 → 192 accumulators, by doubling: four, not forty.
    assert_eq!(fresh_512_more_groups, 4);
}

#[test]
fn a_batched_join_allocates_nothing_once_warm() {
    let mut fe = Frontend::new();
    fe.define("Join.client", ["name"]);
    fe.define("Join.server", ["bytes"]);
    let handle = fe
        .install(
            "From s In Join.server Join c In Join.client On c -> s \
             GroupBy c.name Select c.name, COUNT, SUM(s.bytes)",
        )
        .expect("installs");
    let agent = agent();
    agent.install(&fe.code(&handle).expect("code"));

    // Three clients packed under `All`: every event joins all three.
    let mut bag = Baggage::new();
    for name in &client_names()[..3] {
        agent.invoke("Join.client", &mut bag, 1, &[("name", Value::str(name))]);
    }
    let exports: Vec<[(&'static str, Value); 1]> =
        (0..64).map(|i| [("bytes", Value::U64(i))]).collect();
    let events: Vec<(u64, &[(&str, Value)])> = exports.iter().map(|e| (2, e.as_slice())).collect();

    // One sizing batch: the three groups exist and the VM's working set
    // has held the 64 x 3 joined rows.
    agent.invoke_batch("Join.server", &mut bag, &events);
    let before = agent.stats();
    for round in 0..4 {
        let (n, ()) = allocations(|| agent.invoke_batch("Join.server", &mut bag, &events));
        assert_eq!(n, 0, "round {round}: a warm batched join allocated");
    }
    let after = agent.stats();
    assert_eq!(after.tuples_emitted - before.tuples_emitted, 4 * 64 * 3);
}
