//! Generators shared by the VM test binaries: random advice programs far
//! outside what the compiler would produce (arbitrary op orders, ill-typed
//! and unresolvable expressions, random pack modes and temporal filters),
//! the exports and seeded baggage they run against, and the paper's
//! queries with the tracepoints they name.
#![allow(dead_code)]

use std::sync::Arc;

use pivot_baggage::{PackMode, QueryId};
use pivot_model::{AggFunc, BinOp, Expr, Schema, UnOp, Value};
use pivot_query::advice::{AdviceOp, ColumnRef, OutputSpec};
use pivot_query::TemporalFilter;
use proptest::prelude::*;

/// Uniform choice from a fixed list (the vendored proptest shim has no
/// `prop::sample`).
pub fn select<T: Clone + std::fmt::Debug + 'static>(items: Vec<T>) -> BoxedStrategy<T> {
    let n = items.len();
    (0..n).prop_map(move |i| items[i].clone()).boxed()
}

/// Field names used in generated expressions: a mix of resolvable,
/// suffix-matching, ambiguous, and unknown references.
pub const FIELD_NAMES: [&str; 8] = ["x.a", "x.b", "x.c", "a", "b", "c", "x.zz", "nope"];

pub fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..5).prop_map(Value::I64),
        (0u64..5).prop_map(Value::U64),
        prop::bool::ANY.prop_map(Value::Bool),
        select(vec!["s", "t"]).prop_map(Value::str),
        Just(Value::Null),
    ]
}

pub fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        select(FIELD_NAMES.to_vec()).prop_map(Expr::field),
        value_strategy().prop_map(Expr::Lit),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (prop::bool::ANY, inner.clone()).prop_map(|(neg, e)| Expr::Unary(
                if neg { UnOp::Neg } else { UnOp::Not },
                Box::new(e)
            )),
            (
                select(vec![
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Gt,
                    BinOp::And,
                    BinOp::Or,
                ]),
                inner.clone(),
                inner
            )
                .prop_map(|(op, a, b)| Expr::Binary(op, Box::new(a), Box::new(b))),
        ]
    })
}

pub fn agg_strategy() -> impl Strategy<Value = AggFunc> {
    select(vec![
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Average,
    ])
}

pub fn temporal_strategy() -> impl Strategy<Value = Option<TemporalFilter>> {
    prop_oneof![
        Just(None),
        (1usize..3).prop_map(|n| Some(TemporalFilter::First(n))),
        (1usize..3).prop_map(|n| Some(TemporalFilter::MostRecent(n))),
    ]
}

pub fn op_strategy() -> impl Strategy<Value = AdviceOp> {
    prop_oneof![
        // Observe under alias `x` or `y`; `zz` exports Null.
        (
            select(vec!["x", "y"]),
            prop::collection::vec(select(vec!["a", "b", "c", "zz"]), 0..4)
        )
            .prop_map(|(alias, fields)| AdviceOp::Observe {
                alias: alias.to_owned(),
                fields: fields.into_iter().map(str::to_owned).collect(),
            }),
        // Unpack the seeded slot (100) or a possibly-written slot (200).
        (select(vec![100u64, 200]), (1usize..3), temporal_strategy()).prop_map(
            |(slot, width, post_filter)| AdviceOp::Unpack {
                slot: QueryId(slot),
                schema: Schema::new((0..width).map(|i| format!("u{i}"))),
                post_filter,
            }
        ),
        expr_strategy().prop_map(|pred| AdviceOp::Filter { pred }),
        (
            prop::collection::vec(expr_strategy(), 1..3),
            0usize..4,
            1usize..3,
            0usize..3,
            prop::collection::vec(agg_strategy(), 0..3),
        )
            .prop_map(|(exprs, mode_sel, n, key_seed, aggs)| {
                let width = exprs.len();
                let mode = match mode_sel {
                    0 => PackMode::All,
                    1 => PackMode::First(n),
                    2 => PackMode::Recent(n),
                    _ => {
                        // A well-formed grouped pack covers every column:
                        // key_len keys + one aggregator per value column.
                        let key_len = key_seed.min(width);
                        let mut aggs: Vec<AggFunc> =
                            aggs.into_iter().take(width - key_len).collect();
                        while aggs.len() < width - key_len {
                            aggs.push(AggFunc::Count);
                        }
                        PackMode::GroupAgg { key_len, aggs }
                    }
                };
                let names = (0..exprs.len()).map(|i| format!("p{i}")).collect();
                AdviceOp::Pack {
                    slot: QueryId(200),
                    mode,
                    exprs,
                    names,
                }
            }),
        // Trigger with an optional (possibly ill-typed) predicate: the
        // fire-at-most-once-per-invocation rule must match between
        // engines even when the predicate errors on some tuples.
        prop_oneof![Just(None), expr_strategy().prop_map(Some)].prop_map(|pred| {
            AdviceOp::Trigger {
                query: QueryId(7),
                pred,
            }
        }),
        (
            prop::collection::vec(expr_strategy(), 0..3),
            prop::collection::vec((agg_strategy(), expr_strategy()), 0..3)
        )
            .prop_map(|(keys, aggs)| {
                let columns = (0..keys.len())
                    .map(ColumnRef::Key)
                    .chain((0..aggs.len()).map(ColumnRef::Agg))
                    .collect();
                let (funcs, aggs): (Vec<AggFunc>, Vec<Expr>) = aggs.into_iter().unzip();
                let spec = OutputSpec {
                    key_names: (0..keys.len()).map(|i| format!("k{i}")).collect(),
                    agg_names: (0..aggs.len()).map(|i| format!("g{i}")).collect(),
                    streaming: aggs.is_empty(),
                    aggs: funcs,
                    columns,
                    ..OutputSpec::default()
                };
                AdviceOp::Emit {
                    query: QueryId(7),
                    spec: Arc::new(spec),
                    keys,
                    aggs,
                }
            }),
    ]
}

/// Exports visible at the fuzzed tracepoint (`zz` deliberately absent).
pub fn exports_strategy() -> impl Strategy<Value = Vec<(&'static str, Value)>> {
    (value_strategy(), value_strategy(), value_strategy())
        .prop_map(|(a, b, c)| vec![("a", a), ("b", b), ("c", c)])
}

/// Pre-seeded baggage contents for slot 100.
pub fn seed_strategy() -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(prop::collection::vec(value_strategy(), 1..3), 0..4)
}

/// The paper's Q1–Q7 (`examples/queries/`) and a streaming filter, over
/// the Hadoop tracepoints they name.
pub const PAPER_QUERIES: [&str; 8] = [
    "From incr In DataNodeMetrics.incrBytesRead GroupBy incr.host \
     Select incr.host, SUM(incr.delta)",
    "From incr In DataNodeMetrics.incrBytesRead \
     Join cl In First(ClientProtocols) On cl -> incr \
     GroupBy cl.procName Select cl.procName, SUM(incr.delta)",
    "From dnop In DN.DataTransferProtocol GroupBy dnop.host Select dnop.host, COUNT",
    "From getloc In NN.GetBlockLocations Join st In StressTest.DoNextOp On st -> getloc \
     GroupBy st.host, getloc.src Select st.host, getloc.src, COUNT",
    "From getloc In NN.GetBlockLocations Join st In StressTest.DoNextOp On st -> getloc \
     GroupBy st.host, getloc.replicas Select st.host, getloc.replicas, COUNT",
    "From DNop In DN.DataTransferProtocol Join st In StressTest.DoNextOp On st -> DNop \
     GroupBy st.host, DNop.host Select st.host, DNop.host, COUNT",
    "From DNop In DN.DataTransferProtocol \
     Join getloc In NN.GetBlockLocations On getloc -> DNop \
     Join st In StressTest.DoNextOp On st -> getloc \
     Where st.host != DNop.host \
     GroupBy DNop.host, getloc.replicas Select DNop.host, getloc.replicas, COUNT",
    "From incr In DataNodeMetrics.incrBytesRead Where incr.delta > 1 \
     Select incr.delta, incr.procname, incr.tracepoint",
];

pub const PAPER_TRACEPOINTS: [(&str, &[&str]); 5] = [
    ("ClientProtocols", &["procName"]),
    ("StressTest.DoNextOp", &["op"]),
    ("NN.GetBlockLocations", &["src", "replicas", "lockNanos"]),
    ("DN.DataTransferProtocol", &["op", "size"]),
    ("DataNodeMetrics.incrBytesRead", &["delta"]),
];
