//! Allocation counts on the baggage branch/join path.
//!
//! A request crosses a branch or join point at every thread and channel
//! edge (paper §5), tracing on or off, so that path must not pay the
//! allocator: an empty baggage is two null pointers and retired instances
//! are shared by reference count. This binary installs the counting global
//! allocator of `support/counting_alloc.rs` and pins the counts.

use std::sync::Arc;

use pivot_tracing::baggage::{Baggage, PackMode, QueryId};
use pivot_tracing::live::BaggageScope;
use pivot_tracing::model::{Tuple, Value};
use pivot_tracing::query::CompiledQuery;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const Q: QueryId = QueryId(1);

#[test]
fn the_handle_is_two_pointers() {
    // Every scope, branch and join moves the handle by value, so its
    // size is part of the cost of a request nothing is woven into.
    assert_eq!(
        std::mem::size_of::<Baggage>(),
        16,
        "a Baggage is the first retired instance and one box for the rest \
         (DESIGN.md §5l)"
    );
    assert!(
        std::mem::size_of::<BaggageScope>() <= std::mem::size_of::<Baggage>(),
        "a BaggageScope holds the baggage it restores and nothing more (DESIGN.md §5l)"
    );
}

#[test]
fn empty_baggage_branches_and_joins_without_allocating() {
    // The shapes `benchmark/src/svc.rs::request` goes through: a scope's
    // baggage splits, the half joins a fresh baggage in the worker's
    // scope, that splits again and the half joins back — over and over on
    // one long-lived baggage.
    let mut server = Baggage::new();
    for round in 0..32 {
        let (n, branch) = allocations(|| server.split());
        assert_eq!(n, 0, "split allocated in round {round}");
        let mut shard = Baggage::new();
        let (n, ()) = allocations(|| shard.join(branch));
        assert_eq!(n, 0, "join into a fresh scope allocated in round {round}");
        let (n, reply) = allocations(|| shard.split());
        assert_eq!(n, 0, "reply split allocated in round {round}");
        let (n, ()) = allocations(|| server.join(reply));
        assert_eq!(n, 0, "join back allocated in round {round}");
    }
    assert!(server.is_empty());
}

/// A packed tuple crosses two branch points and two join points.
/// Retiring the active instance is the one allocation: the `Arc` both
/// branches then share. Nothing is packed afterwards, so nothing is
/// retired on the way back.
fn split_join_round(server: &mut Baggage) {
    let (n, branch) = allocations(|| server.split());
    assert!(n <= 1, "split allocated {n} times");
    let mut shard = Baggage::new();
    let (n, ()) = allocations(|| shard.join(branch));
    assert_eq!(n, 0, "join into a fresh scope allocated");
    assert_eq!(shard.unpack_view(Q).len(), 1);
    let (n, reply) = allocations(|| shard.split());
    assert_eq!(n, 0, "reply split allocated");
    let (n, ()) = allocations(|| server.join(reply));
    assert_eq!(n, 0, "join back allocated");
    assert_eq!(server.tuple_count(Q), 1, "the shared instance deduplicated");
}

#[test]
fn a_packed_tuple_is_retired_once_and_never_copied() {
    // Longer than a `Value` holds inline, so the tuple shares `client`
    // and its count witnesses a copy.
    let client: Arc<str> = Arc::from("client-17-of-the-long-named-tenant");
    let mut server = Baggage::new();
    server.pack(
        Q,
        &PackMode::First(1),
        [Tuple::from_iter([Value::from(Arc::clone(&client))])],
    );
    assert_eq!(Arc::strong_count(&client), 2, "ours and the packed tuple's");
    split_join_round(&mut server);
    assert_eq!(Arc::strong_count(&client), 2, "a split or a join copied it");

    // A copy that crossed the wire is a different allocation with the
    // same id: it still deduplicates.
    let bytes = server.to_bytes();
    let hop = Baggage::try_from_bytes(&bytes).expect("own bytes decode");
    server.join(hop);
    assert_eq!(server.tuple_count(Q), 1);
}

#[test]
fn a_packed_inline_string_crosses_the_same_edges_in_the_same_allocations() {
    // The inline twin: an owned copy of a short string would not show in
    // a reference count, but a copied tuple would show as an allocation
    // (its entry's `Vec`), and the round allows none past the retirement.
    let mut server = Baggage::new();
    server.pack(
        Q,
        &PackMode::First(1),
        [Tuple::from_iter([Value::str("client-17")])],
    );
    split_join_round(&mut server);
}

#[test]
fn an_empty_header_crosses_an_edge_without_allocating() {
    // What `svc_unwoven` does twice a request. The first empty `to_bytes`
    // on a thread allocates the buffer every later one shares.
    drop(Baggage::new().to_bytes());
    let mut client = Baggage::new();
    let (n, header) = allocations(|| client.to_bytes());
    assert_eq!(n, 0, "serializing an empty baggage allocated");
    assert!(header.is_empty());
    let (n, server) = allocations(|| Baggage::try_from_bytes(&header));
    assert_eq!(n, 0, "adopting an empty header allocated");
    assert!(server.expect("empty header decodes").is_empty());
}

#[test]
fn q1_headers_serialize_in_one_allocation_and_decode_in_three_and_four() {
    // `svc_q1`'s request: the client site packs First(1) of one string
    // under the first query's first pack slot.
    let slot = CompiledQuery::slot_id(Q, 0);
    let request = || {
        let mut client = Baggage::new();
        client.pack(
            slot,
            &PackMode::First(1),
            [Tuple::from_iter([Value::str("client-17")])],
        );
        client
    };
    // The shard edge and back, which retires the packed instance.
    let respond = |server: &mut Baggage| {
        let mut shard = Baggage::new();
        shard.join(server.split());
        server.join(shard.split());
    };
    // A thread's encode buffer grows to its headers' size while the first
    // request's are serialized; a worker pays for that once, not per
    // request.
    let mut warm = request();
    drop(warm.to_bytes());
    respond(&mut warm);
    drop(warm.to_bytes());
    let mut client = request();
    let (n, request) = allocations(|| client.to_bytes());
    assert!(n <= 1, "request header serialized in {n} allocations");
    // The copy of the bytes, the entry map's node and the entry's `Vec`;
    // the tuple decodes into its inline representation and so does its
    // string.
    let (n, server) = allocations(|| Baggage::try_from_bytes(&request));
    assert!(n <= 3, "request header decoded in {n} allocations");
    let mut server = server.expect("own bytes decode");

    // The shard edge and back, then the response: the packed instance is
    // retired by now, which is the one `Arc` more the response decodes.
    respond(&mut server);
    let (n, response) = allocations(|| server.to_bytes());
    assert!(n <= 1, "response header serialized in {n} allocations");
    let (n, back) = allocations(|| Baggage::try_from_bytes(&response));
    assert!(n <= 4, "response header decoded in {n} allocations");
    assert_eq!(back.expect("own bytes decode").unpack_view(slot).len(), 1);
    // `baggage.header_bytes` on `svc_q1`: 20 B out, and 33 back, 12 of
    // them the retired instance's id.
    assert_eq!((request.len(), response.len()), (20, 33));
}
