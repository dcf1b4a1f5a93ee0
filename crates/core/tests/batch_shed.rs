//! Agent-level batched-execution equivalence under overload: with a tiny
//! grouped row cap, `invoke_batch` must keep and shed exactly the same
//! groups — and count exactly the same emitted/shed rows — as per-event
//! `invoke`, both on a plain aggregation and through a happened-before
//! join. A batch's rows reach the buffers one at a time, in emit order,
//! so even a float sum comes out bit for bit.

use pivot_baggage::Baggage;
use pivot_core::bus::{Report, ReportRows};
use pivot_core::{Agent, Frontend, ProcessInfo};
use pivot_model::Value;

fn mk_agent() -> Agent {
    Agent::new(ProcessInfo {
        host: "h".into(),
        procid: 1,
        procname: "p".into(),
    })
}

/// Flattens grouped report rows to `(key values, finished agg values)`,
/// sorted, so the hash-map drain order of two agents is comparable.
fn grouped_rows(reports: &[Report]) -> Vec<(Vec<Value>, Vec<Value>)> {
    let mut out: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    for r in reports {
        if let ReportRows::Grouped(groups) = &r.rows {
            for (k, states) in groups.iter() {
                out.push((k.to_vec(), states.iter().map(|s| s.finish()).collect()));
            }
        }
    }
    out.sort_by_key(|e| format!("{e:?}"));
    out
}

/// Drives the same event stream through per-event `invoke` on one agent
/// and chunked `invoke_batch` on another, then asserts the loss counters
/// and surviving groups are identical.
fn assert_agents_agree(
    query: &str,
    row_cap: usize,
    seed: impl Fn(&Agent, &mut Baggage),
    events: &[Vec<(&'static str, Value)>],
) {
    let mut fe = Frontend::new();
    fe.define("C", ["name"]);
    fe.define("S", ["x"]);
    let handle = fe.install(query).expect("install");
    let code = fe.code(&handle).expect("code");
    let qid = handle.id;

    let scalar = mk_agent();
    scalar.install(&code);
    scalar.set_row_cap(row_cap);
    let mut bag_scalar = Baggage::new();
    seed(&scalar, &mut bag_scalar);
    for (i, e) in events.iter().enumerate() {
        scalar.invoke("S", &mut bag_scalar, i as u64, e);
    }

    let batched = mk_agent();
    batched.install(&code);
    batched.set_row_cap(row_cap);
    let mut bag_batch = Baggage::new();
    seed(&batched, &mut bag_batch);
    // Uneven chunks so at least one cap boundary lands mid-batch.
    for (c, chunk) in events.chunks(3).enumerate() {
        let ev: Vec<(u64, &[(&str, Value)])> = chunk
            .iter()
            .enumerate()
            .map(|(i, e)| ((c * 3 + i) as u64, e.as_slice()))
            .collect();
        batched.invoke_batch("S", &mut bag_batch, &ev);
    }

    assert_eq!(
        scalar.emitted_for(qid),
        batched.emitted_for(qid),
        "emitted_cum diverges"
    );
    assert_eq!(
        scalar.shed_for(qid),
        batched.shed_for(qid),
        "shed_cum diverges"
    );
    assert_eq!(
        scalar.buffered_rows(qid),
        batched.buffered_rows(qid),
        "surviving group count diverges"
    );
    assert_eq!(
        grouped_rows(&scalar.flush(1_000)),
        grouped_rows(&batched.flush(1_000)),
        "surviving groups diverge"
    );
}

#[test]
fn plain_aggregation_sheds_identically() {
    // 9 distinct group keys against a cap of 3: six groups' rows shed.
    let events: Vec<Vec<(&'static str, Value)>> =
        (0..27).map(|i| vec![("x", Value::I64(i % 9))]).collect();
    assert_agents_agree(
        "From s In S GroupBy s.x Select s.x, COUNT, SUM(s.x)",
        3,
        |_, _| {},
        &events,
    );
}

#[test]
fn join_sheds_identically() {
    // 6 distinct packed client names → 6 join groups against a cap of 2.
    let events: Vec<Vec<(&'static str, Value)>> =
        (0..12).map(|i| vec![("x", Value::I64(i))]).collect();
    assert_agents_agree(
        "From s In S Join c In C On c -> s GroupBy c.name Select c.name, COUNT, SUM(s.x)",
        2,
        |agent, bag| {
            for n in 0..6 {
                let name = format!("client-{n}");
                agent.invoke("C", bag, n, &[("name", Value::str(&name))]);
            }
        },
        &events,
    );
}

#[test]
fn float_join_sum_batches_bit_for_bit() {
    // 1e16 + 1.0 is a tie that rounds back to 1e16, so adding the ones
    // one at a time leaves the sum where it was. A batch that summed its
    // ones first and added that to 1e16 would land a few units above.
    let events: Vec<Vec<(&'static str, Value)>> = [1e16, 1.0, 1.0, 1.0, 1.0, 1.0]
        .into_iter()
        .map(|x| vec![("x", Value::F64(x))])
        .collect();
    assert_agents_agree(
        "From s In S Join c In C On c -> s GroupBy c.name Select c.name, COUNT, SUM(s.x)",
        16,
        |agent, bag| {
            agent.invoke("C", bag, 0, &[("name", Value::str("client-0"))]);
        },
        &events,
    );
}
