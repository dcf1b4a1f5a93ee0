//! The two scripted pack / split / join / serialize / decode sequences
//! whose bytes `wire_golden.rs` pins. Every encoding a script sends goes
//! through the caller's `wire`, which returns the bytes a transport would
//! carry; `wire_adversarial.rs` runs the same scripts to damage each one.

use std::sync::Arc;

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_model::{AggFunc, Tuple, Value};

const TRACE_SLOT: QueryId = QueryId(0);
const Q1: QueryId = QueryId(1);
const PER_SHARD: QueryId = QueryId(2);

/// One request of `benchmark/src/svc.rs::request` with Q1, a grouped
/// aggregate and the retro trace id woven: client → header → server →
/// branch into a fresh shard scope → branch back → header → client merge.
pub fn request_path(wire: &mut impl FnMut(&mut Baggage) -> Arc<[u8]>) {
    let grouped = PackMode::GroupAgg {
        key_len: 1,
        aggs: vec![AggFunc::Count, AggFunc::Sum],
    };
    let row = |shard: u64, bytes: u64| {
        Tuple::from_iter([Value::U64(shard), Value::Null, Value::U64(bytes)])
    };

    // Client: fresh baggage, trace id at ingress, the Q1 `First(1)` pack.
    let mut client = Baggage::new();
    wire(&mut client);
    client.clear_query(TRACE_SLOT);
    client.pack(
        TRACE_SLOT,
        &PackMode::First(1),
        [Tuple::from_iter([Value::U64(0x0001_0000_0000_002a)])],
    );
    wire(&mut client);
    client.pack(
        Q1,
        &PackMode::First(1),
        [Tuple::from_iter([Value::str("client-17")])],
    );
    let header = wire(&mut client);

    // Server: strict decode, a grouped pack at receive.
    let mut server = Baggage::try_from_bytes(&header).expect("own header decodes");
    wire(&mut server);
    server.pack(PER_SHARD, &grouped, [row(3, 0)]);
    wire(&mut server);

    // The channel edge: a forked half joins the shard worker's fresh
    // baggage.
    let mut branch = server.split();
    wire(&mut server);
    wire(&mut branch);
    let mut shard = Baggage::new();
    shard.join(branch);
    wire(&mut shard);
    assert_eq!(shard.unpack(Q1).len(), 1);
    shard.pack(PER_SHARD, &grouped, [row(3, 4096), row(5, 1)]);
    wire(&mut shard);

    // The reply edge back into the server scope.
    let mut reply = shard.split();
    wire(&mut shard);
    wire(&mut reply);
    server.join(reply);
    wire(&mut server);
    server.pack(
        Q1,
        &PackMode::First(1),
        [Tuple::from_iter([Value::str("late")])],
    );
    let header = wire(&mut server);

    // Client: the response's baggage merges into what was sent.
    let back = Baggage::try_from_bytes(&header).expect("own header decodes");
    client.join(back);
    wire(&mut client);
    assert_eq!(
        client.unpack(Q1),
        vec![Tuple::from_iter([Value::str("client-17")])]
    );
    assert_eq!(client.unpack(PER_SHARD).len(), 2);
    // A second hop of the merged bag.
    let header = wire(&mut client);
    let mut again = Baggage::try_from_bytes(&header).expect("own header decodes");
    again.pack(PER_SHARD, &grouped, [row(5, 7)]);
    wire(&mut again);
    client.clear_query(TRACE_SLOT);
    wire(&mut client);
}

/// 64 forks without a join: each branch packs, every fourth goes over the
/// wire, and the root retires an instance at every eighth.
pub fn fan_out(wire: &mut impl FnMut(&mut Baggage) -> Arc<[u8]>) {
    let mut main = Baggage::new();
    main.pack(Q1, &PackMode::All, [Tuple::from_iter([Value::I64(-1)])]);
    let mut branches = Vec::new();
    for i in 0..64u64 {
        let mut branch = main.split();
        branch.pack(Q1, &PackMode::All, [Tuple::from_iter([Value::U64(i)])]);
        if i % 8 == 0 {
            main.pack(
                Q1,
                &PackMode::All,
                [Tuple::from_iter([Value::U64(1000 + i)])],
            );
        }
        if i % 4 == 0 {
            let bytes = wire(&mut branch);
            branch = Baggage::try_from_bytes(&bytes).expect("own bytes decode");
        }
        wire(&mut branch);
        wire(&mut main);
        branches.push(branch);
    }
    // Join a few back out of order, then everything.
    for i in [63usize, 0, 31] {
        let branch = std::mem::take(&mut branches[i]);
        main.join(branch);
        wire(&mut main);
    }
    for branch in branches {
        main.join(branch);
    }
    wire(&mut main);
    assert_eq!(main.tuple_count(Q1), 1 + 8 + 64);
}
