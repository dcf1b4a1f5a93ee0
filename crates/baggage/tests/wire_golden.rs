//! Wire golden for baggage: `(len, fnv1a)` of `to_bytes()` after every
//! step of two scripted pack / split / join / serialize / decode sequences.
//!
//! The tables were generated on commit ee30e75 — the recursive `Box`-tree
//! ITC kernel and the deep-cloning `split` / `join` — and pin that moving
//! stamps into inline buffers and sharing retired instances changed no
//! byte any peer sees. A legitimate wire change has to bump the version
//! byte and regenerate them (the failure message prints the new table).

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_model::{AggFunc, Tuple, Value};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[derive(Default)]
struct Steps(Vec<(usize, u64)>);

impl Steps {
    /// Records the bag's encoding and returns it, as a transport would
    /// send it.
    fn wire(&mut self, bag: &mut Baggage) -> std::sync::Arc<[u8]> {
        let bytes = bag.to_bytes();
        self.0.push((bytes.len(), fnv1a(&bytes)));
        bytes
    }
}

const TRACE_SLOT: QueryId = QueryId(0);
const Q1: QueryId = QueryId(1);
const PER_SHARD: QueryId = QueryId(2);

/// One request of `benchmark/src/svc.rs::request` with Q1, a grouped
/// aggregate and the retro trace id woven: client → header → server →
/// branch into a fresh shard scope → branch back → header → client merge.
#[test]
fn request_path_bytes_match_the_golden() {
    let mut steps = Steps::default();
    let grouped = PackMode::GroupAgg {
        key_len: 1,
        aggs: vec![AggFunc::Count, AggFunc::Sum],
    };
    let row = |shard: u64, bytes: u64| {
        Tuple::from_iter([Value::U64(shard), Value::Null, Value::U64(bytes)])
    };

    // Client: fresh baggage, trace id at ingress, the Q1 `First(1)` pack.
    let mut client = Baggage::new();
    steps.wire(&mut client);
    client.clear_query(TRACE_SLOT);
    client.pack(
        TRACE_SLOT,
        &PackMode::First(1),
        [Tuple::from_iter([Value::U64(0x0001_0000_0000_002a)])],
    );
    steps.wire(&mut client);
    client.pack(
        Q1,
        &PackMode::First(1),
        [Tuple::from_iter([Value::str("client-17")])],
    );
    let header = steps.wire(&mut client);

    // Server: strict decode, a grouped pack at receive.
    let mut server = Baggage::try_from_bytes(&header).expect("own header decodes");
    steps.wire(&mut server);
    server.pack(PER_SHARD, &grouped, [row(3, 0)]);
    steps.wire(&mut server);

    // The channel edge: a forked half joins the shard worker's fresh seed
    // baggage (overlapping identities: the seed keeps its own).
    let mut branch = server.split();
    steps.wire(&mut server);
    steps.wire(&mut branch);
    let mut shard = Baggage::new();
    shard.join(branch);
    steps.wire(&mut shard);
    assert_eq!(shard.unpack(Q1).len(), 1);
    shard.pack(PER_SHARD, &grouped, [row(3, 4096), row(5, 1)]);
    steps.wire(&mut shard);

    // The reply edge back into the server scope.
    let mut reply = shard.split();
    steps.wire(&mut shard);
    steps.wire(&mut reply);
    server.join(reply);
    steps.wire(&mut server);
    server.pack(
        Q1,
        &PackMode::First(1),
        [Tuple::from_iter([Value::str("late")])],
    );
    let header = steps.wire(&mut server);

    // Client: the response's baggage merges into what was sent.
    let back = Baggage::try_from_bytes(&header).expect("own header decodes");
    client.join(back);
    steps.wire(&mut client);
    assert_eq!(
        client.unpack(Q1),
        vec![Tuple::from_iter([Value::str("client-17")])]
    );
    assert_eq!(client.unpack(PER_SHARD).len(), 2);
    // A second hop of the merged bag, decoded lazily this time.
    let mut again = Baggage::from_bytes(&steps.wire(&mut client));
    again.pack(PER_SHARD, &grouped, [row(5, 7)]);
    steps.wire(&mut again);
    client.clear_query(TRACE_SLOT);
    steps.wire(&mut client);

    assert_eq!(steps.0, REQUEST_PATH, "request-path wire bytes changed");
}

/// 64 forks without a join: identities 64 levels deep (past the inline
/// stamp cells), each branch packs, every fourth goes over the wire.
#[test]
fn fan_out_bytes_match_the_golden() {
    let mut steps = Steps::default();
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
            let bytes = steps.wire(&mut branch);
            branch = Baggage::try_from_bytes(&bytes).expect("own bytes decode");
        }
        steps.wire(&mut branch);
        steps.wire(&mut main);
        branches.push(branch);
    }
    // Join a few back out of order, then everything.
    for i in [63usize, 0, 31] {
        let branch = std::mem::take(&mut branches[i]);
        main.join(branch);
        steps.wire(&mut main);
    }
    for branch in branches {
        main.join(branch);
    }
    steps.wire(&mut main);
    assert_eq!(main.tuple_count(Q1), 1 + 8 + 64);

    let folded: Vec<(usize, u64)> = steps
        .0
        .chunks(16)
        .map(|c| {
            c.iter()
                .fold((0, 0xcbf2_9ce4_8422_2325), |(len, h), (l, x)| {
                    (len + l, (h ^ x).wrapping_mul(0x0000_0100_0000_01b3))
                })
        })
        .collect();
    assert_eq!(folded, FAN_OUT, "fan-out wire bytes changed");
}

const REQUEST_PATH: [(usize, u64); 17] = [
    (0, 0xcbf29ce484222325),
    (19, 0x76ecd783bae3e7e9),
    (35, 0x024c5a0268d979ea),
    (35, 0x024c5a0268d979ea),
    (50, 0x187cba59542847c1),
    (60, 0x7711cff2ff778c72),
    (60, 0x8ea3b454ccaff48c),
    (58, 0x8e312804fbb0513a),
    (82, 0x1278c11d2ec453bc),
    (88, 0x2c7dab9c95f26c36),
    (92, 0xf8c27ec144753ef8),
    (90, 0x826ebd8b912c863c),
    (94, 0xf94c467c586a5518),
    (119, 0x05d40e1eb79b820a),
    (119, 0x05d40e1eb79b820a),
    (134, 0xd0a6cab861f606c7),
    (93, 0x6dc7f028de790a4a),
];

/// `(total len, folded hash)` per 16 consecutive steps.
const FAN_OUT: [(usize, u64); 10] = [
    (884, 0x2958b8e2d104f6e7),
    (2130, 0x15d349d131c55370),
    (3760, 0xf0b3e2a92ae805e7),
    (5774, 0xa4368973b72ee182),
    (8166, 0x7f96a602b182b9ea),
    (10948, 0xc67e5e8143d49fd7),
    (14114, 0x9ad2b461bda5f466),
    (17896, 0xd7d06895a7fa4596),
    (22160, 0xfcaf732a80492164),
    (5736, 0x7e7ef0be28eee0b8),
];
