//! The tree-walk advice interpreter: test support, not shipped code.
//!
//! Executes a straight-line advice program (paper Table 2) against one
//! tracepoint invocation: observe the exported variables, unpack and
//! cross-join baggage tuples, filter, then pack forward and/or emit.
//!
//! The interpreter is total: expression evaluation errors drop the affected
//! tuple instead of failing the carrying request (advice safety, paper §3).
//!
//! Agents execute lowered bytecode through [`pivot_query::Vm`]; this
//! tree-walking interpreter is the *differential ground truth*
//! `vm_differential.rs` tests the VM against (and the readable reference
//! semantics for Table 2). It uses only public `pivot_*` API.

use std::sync::Arc;

use pivot_baggage::Baggage;
use pivot_model::{Expr, GroupKey, Schema, Tuple, Value};
use pivot_query::{AdviceOp, AdviceProgram, OutputSpec};

/// One `Emit` outcome handed to the process-local aggregator.
#[derive(Clone, Debug)]
pub struct Emitted {
    /// The emitting query.
    pub query: pivot_baggage::QueryId,
    /// The query's output spec (key/agg layout; shared, never deep-cloned).
    pub spec: Arc<OutputSpec>,
    /// The emit's key expressions (the projected row when streaming).
    pub keys: Vec<Expr>,
    /// The emit's aggregate argument expressions.
    pub aggs: Vec<Expr>,
    /// Joined tuples that reached the `Emit`, with their schema.
    pub schema: Schema,
    /// The tuples themselves.
    pub tuples: Vec<Tuple>,
}

/// Statistics from one advice execution (feeds the overhead ablations).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct InterpStats {
    /// Tuples packed into the baggage.
    pub packed: usize,
    /// Tuples unpacked from the baggage.
    pub unpacked: usize,
    /// Tuples that reached an `Emit`.
    pub emitted: usize,
    /// `Trigger` ops that fired (at most one per op per invocation).
    pub triggered: usize,
}

/// Executes `program` for one tracepoint invocation.
///
/// `exports` supplies the tracepoint's variables (the default exports must
/// already be included by the caller — [`pivot_core::Agent::invoke`] does this).
/// Packs mutate `baggage`; emits are returned for local aggregation.
pub fn run(
    program: &AdviceProgram,
    exports: &[(&str, Value)],
    baggage: &mut Baggage,
) -> (Vec<Emitted>, InterpStats) {
    let mut schema = Schema::empty();
    let mut tuples: Vec<Tuple> = vec![Tuple::empty()];
    let mut emits = Vec::new();
    let mut stats = InterpStats::default();

    let last = program.ops.len().wrapping_sub(1);
    for (i, op) in program.ops.iter().enumerate() {
        match op {
            AdviceOp::Observe { alias, fields } => {
                let values: Tuple = fields
                    .iter()
                    .map(|f| {
                        exports
                            .iter()
                            .find(|(name, _)| name == f)
                            .map(|(_, v)| v.clone())
                            .unwrap_or(Value::Null)
                    })
                    .collect();
                let obs_schema = Schema::new(fields.iter().map(|f| format!("{alias}.{f}")));
                schema = schema.concat(&obs_schema);
                tuples = tuples.iter().map(|t| t.concat(&values)).collect();
            }
            AdviceOp::Unpack {
                slot,
                schema: unpack_schema,
                post_filter,
            } => {
                let mut unpacked = baggage.unpack(*slot);
                if let Some(f) = post_filter {
                    f.apply(&mut unpacked);
                }
                stats.unpacked += unpacked.len();
                schema = schema.concat(unpack_schema);
                // Happened-before join: cross product with the tuples
                // packed earlier in this request's execution.
                tuples = tuples
                    .iter()
                    .flat_map(|t| unpacked.iter().map(move |u| t.concat(u)))
                    .collect();
            }
            AdviceOp::Filter { pred } => {
                tuples.retain(|t| matches!(pred.eval(&(&schema, t)), Ok(Value::Bool(true))));
            }
            AdviceOp::Pack {
                slot,
                mode,
                exprs,
                names: _,
            } => {
                let projected: Vec<Tuple> = tuples
                    .iter()
                    .filter_map(|t| {
                        let row = (&schema, t);
                        exprs
                            .iter()
                            .map(|e| e.eval(&row).ok())
                            .collect::<Option<Tuple>>()
                    })
                    .collect();
                stats.packed += projected.len();
                baggage.pack(*slot, mode, projected);
            }
            AdviceOp::Trigger { pred, .. } => {
                let fires = match pred {
                    None => !tuples.is_empty(),
                    Some(p) => tuples
                        .iter()
                        .any(|t| matches!(p.eval(&(&schema, t)), Ok(Value::Bool(true)))),
                };
                if fires {
                    stats.triggered += 1;
                }
            }
            AdviceOp::Emit {
                query,
                spec,
                keys,
                aggs,
            } => {
                stats.emitted += tuples.len();
                // On the (overwhelmingly common) final op, hand off the
                // buffers instead of cloning them.
                let (batch, batch_schema) = if i == last {
                    (
                        std::mem::take(&mut tuples),
                        std::mem::replace(&mut schema, Schema::empty()),
                    )
                } else {
                    (tuples.clone(), schema.clone())
                };
                emits.push(Emitted {
                    query: *query,
                    spec: Arc::clone(spec),
                    keys: keys.clone(),
                    aggs: aggs.clone(),
                    schema: batch_schema,
                    tuples: batch,
                });
            }
        }
        if tuples.is_empty() {
            // Inner-join semantics: once no tuple survives, later ops can
            // produce nothing.
            break;
        }
    }
    (emits, stats)
}

/// Evaluates an emitted batch into `(group key, agg input values)` pairs or
/// raw rows, shared by the agent aggregator and the global evaluator.
pub fn emit_rows(e: &Emitted) -> EmitRows {
    if e.spec.streaming {
        let rows = e
            .tuples
            .iter()
            .filter_map(|t| {
                let row = (&e.schema, t);
                e.keys
                    .iter()
                    .map(|k| k.eval(&row).ok())
                    .collect::<Option<Tuple>>()
            })
            .collect();
        return EmitRows::Raw(rows);
    }
    let mut out = Vec::new();
    for t in &e.tuples {
        let row = (&e.schema, t);
        let Some(key) = e
            .keys
            .iter()
            .map(|k| k.eval(&row).ok())
            .collect::<Option<Tuple>>()
        else {
            continue;
        };
        let args: Vec<Value> = e
            .aggs
            .iter()
            .map(|arg| arg.eval(&row).unwrap_or(Value::Null))
            .collect();
        out.push((GroupKey(key), args));
    }
    EmitRows::Grouped(out)
}

/// The two shapes of emit output.
pub enum EmitRows {
    /// Raw projected rows (streaming queries).
    Raw(Vec<Tuple>),
    /// `(group key, agg argument values)` pairs.
    Grouped(Vec<(GroupKey, Vec<Value>)>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_baggage::{PackMode, QueryId};
    use pivot_model::{AggFunc, BinOp, Expr};
    use pivot_query::advice::ColumnRef;
    use pivot_query::ast::TemporalFilter;

    fn observe(alias: &str, fields: &[&str]) -> AdviceOp {
        AdviceOp::Observe {
            alias: alias.into(),
            fields: fields.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    #[test]
    fn observe_pack_unpack_emit_pipeline() {
        // Simulate the paper's A1/A2 for Q2 by hand.
        let slot = QueryId(300);
        let a1 = AdviceProgram {
            tracepoints: vec!["ClientProtocols".into()],
            ops: vec![
                observe("cl", &["procName"]),
                AdviceOp::Pack {
                    slot,
                    mode: PackMode::First(1),
                    exprs: vec![Expr::field("cl.procName")],
                    names: vec!["cl.procName".into()],
                },
            ],
        };
        let spec = Arc::new(OutputSpec {
            key_names: vec!["cl.procName".into()],
            aggs: vec![AggFunc::Sum],
            agg_names: vec!["SUM(incr.delta)".into()],
            columns: vec![ColumnRef::Key(0), ColumnRef::Agg(0)],
            streaming: false,
            ..OutputSpec::default()
        });
        let a2 = AdviceProgram {
            tracepoints: vec!["DataNodeMetrics.incrBytesRead".into()],
            ops: vec![
                observe("incr", &["delta"]),
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
        };

        let mut bag = Baggage::new();
        let (emits, s1) = run(&a1, &[("procName", Value::str("HGet"))], &mut bag);
        assert!(emits.is_empty());
        assert_eq!(s1.packed, 1);

        let (emits, s2) = run(&a2, &[("delta", Value::I64(4096))], &mut bag);
        assert_eq!(s2.unpacked, 1);
        assert_eq!(s2.emitted, 1);
        let rows = emit_rows(&emits[0]);
        match rows {
            EmitRows::Grouped(rows) => {
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0].0 .0.get(0), &Value::str("HGet"));
                assert_eq!(rows[0].1, vec![Value::I64(4096)]);
            }
            EmitRows::Raw(_) => panic!("expected grouped"),
        }
    }

    #[test]
    fn join_with_empty_baggage_emits_nothing() {
        let a = AdviceProgram {
            tracepoints: vec!["tp".into()],
            ops: vec![
                observe("e", &["x"]),
                AdviceOp::Unpack {
                    slot: QueryId(300),
                    schema: Schema::new(["cl.y"]),
                    post_filter: None,
                },
                AdviceOp::Emit {
                    query: QueryId(1),
                    spec: Arc::new(OutputSpec::default()),
                    keys: vec![],
                    aggs: vec![],
                },
            ],
        };
        let mut bag = Baggage::new();
        let (emits, stats) = run(&a, &[("x", Value::I64(1))], &mut bag);
        assert!(emits.is_empty());
        assert_eq!(stats.emitted, 0);
    }

    #[test]
    fn filter_drops_and_eval_errors_drop() {
        let a = AdviceProgram {
            tracepoints: vec!["tp".into()],
            ops: vec![
                observe("e", &["x"]),
                AdviceOp::Filter {
                    pred: Expr::bin(BinOp::Lt, Expr::field("e.x"), Expr::lit(10)),
                },
                AdviceOp::Pack {
                    slot: QueryId(300),
                    mode: PackMode::All,
                    exprs: vec![Expr::field("e.x")],
                    names: vec!["e.x".into()],
                },
            ],
        };
        let mut bag = Baggage::new();
        let (_, s) = run(&a, &[("x", Value::I64(50))], &mut bag);
        assert_eq!(s.packed, 0);
        let (_, s) = run(&a, &[("x", Value::str("oops"))], &mut bag);
        assert_eq!(s.packed, 0, "type-mismatched filter drops the tuple");
        let (_, s) = run(&a, &[("x", Value::I64(5))], &mut bag);
        assert_eq!(s.packed, 1);
    }

    #[test]
    fn missing_exports_observe_null() {
        let a = AdviceProgram {
            tracepoints: vec!["tp".into()],
            ops: vec![
                observe("e", &["x", "ghost"]),
                AdviceOp::Emit {
                    query: QueryId(1),
                    spec: Arc::new(OutputSpec {
                        key_names: vec!["e.x".into(), "e.ghost".into()],
                        aggs: vec![],
                        agg_names: vec![],
                        columns: vec![ColumnRef::Key(0), ColumnRef::Key(1)],
                        streaming: true,
                        ..OutputSpec::default()
                    }),
                    keys: vec![Expr::field("e.x"), Expr::field("e.ghost")],
                    aggs: vec![],
                },
            ],
        };
        let mut bag = Baggage::new();
        let (emits, _) = run(&a, &[("x", Value::I64(1))], &mut bag);
        match emit_rows(&emits[0]) {
            EmitRows::Raw(rows) => {
                assert_eq!(rows[0].values(), &[Value::I64(1), Value::Null]);
            }
            _ => panic!("expected raw"),
        }
    }

    #[test]
    fn multi_unpack_cross_joins() {
        let s1 = QueryId(301);
        let s2 = QueryId(302);
        let mut bag = Baggage::new();
        bag.pack(
            s1,
            &PackMode::All,
            [
                Tuple::from_iter([Value::I64(1)]),
                Tuple::from_iter([Value::I64(2)]),
            ],
        );
        bag.pack(
            s2,
            &PackMode::All,
            [
                Tuple::from_iter([Value::str("a")]),
                Tuple::from_iter([Value::str("b")]),
                Tuple::from_iter([Value::str("c")]),
            ],
        );
        let a = AdviceProgram {
            tracepoints: vec!["tp".into()],
            ops: vec![
                observe("e", &[]),
                AdviceOp::Unpack {
                    slot: s1,
                    schema: Schema::new(["p.x"]),
                    post_filter: None,
                },
                AdviceOp::Unpack {
                    slot: s2,
                    schema: Schema::new(["q.y"]),
                    post_filter: None,
                },
                AdviceOp::Emit {
                    query: QueryId(1),
                    spec: Arc::new(OutputSpec::default()),
                    keys: vec![],
                    aggs: vec![],
                },
            ],
        };
        let (_, stats) = run(&a, &[], &mut bag);
        assert_eq!(stats.emitted, 6);
    }

    #[test]
    fn post_filter_takes_most_recent() {
        let slot = QueryId(303);
        let mut bag = Baggage::new();
        bag.pack(
            slot,
            &PackMode::All,
            (0..5).map(|i| Tuple::from_iter([Value::I64(i)])),
        );
        let a = AdviceProgram {
            tracepoints: vec!["tp".into()],
            ops: vec![
                observe("e", &[]),
                AdviceOp::Unpack {
                    slot,
                    schema: Schema::new(["p.x"]),
                    post_filter: Some(TemporalFilter::MostRecent(2)),
                },
                AdviceOp::Emit {
                    query: QueryId(1),
                    spec: Arc::new(OutputSpec {
                        key_names: vec!["p.x".into()],
                        aggs: vec![],
                        agg_names: vec![],
                        columns: vec![ColumnRef::Key(0)],
                        streaming: true,
                        ..OutputSpec::default()
                    }),
                    keys: vec![Expr::field("p.x")],
                    aggs: vec![],
                },
            ],
        };
        let (emits, _) = run(&a, &[], &mut bag);
        match emit_rows(&emits[0]) {
            EmitRows::Raw(rows) => {
                let got: Vec<i64> = rows.iter().map(|r| r.get(0).as_i64().unwrap()).collect();
                assert_eq!(got, vec![3, 4]);
            }
            _ => panic!("expected raw"),
        }
    }
}
