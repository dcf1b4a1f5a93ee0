//! Pass 3 — advice dataflow well-formedness, over **lowered bytecode**.
//!
//! Advice programs are straight-line (the paper's §5 safety argument:
//! no jumps, no loops, so termination is structural). This pass checks
//! the *inter*-program structure the runtime relies on at weave time:
//! every `Unpack` must read a slot some causally earlier program packed
//! with the same tuple width, a streaming `Emit` carries no aggregates,
//! and nothing is dead — a pack no
//! later stage consumes never reaches an `Emit` and only bloats baggage.
//!
//! The pass runs on [`CompiledCode`] — the exact artifact agents execute
//! and the bus ships — rather than on the advice-op trees it was lowered
//! from ("verify what you execute"). Two defects are only visible here:
//!
//! - a lowering **note** records a field reference no schema position
//!   satisfies (lowered to an unconditional per-tuple failure), and
//! - a lowered program that fails [`AdviceByteCode::validate`]
//!   (out-of-range register, constant, skip, or pool reference) would be
//!   rejected by every remote decoder and must never leave the frontend.
//!
//! Both are reported as `PT008` errors.
//!
//! [`AdviceByteCode::validate`]: pivot_query::AdviceByteCode::validate

use std::collections::{HashMap, HashSet};

use pivot_baggage::{PackMode, QueryId};
use pivot_query::bytecode::{EInst, Inst};
use pivot_query::{AdviceOp, CompiledCode, CompiledQuery};

use crate::diag::{Code, Diagnostic};

/// Checks the lowered programs of `code`, appending diagnostics.
/// `notes` are the degradation notes produced by lowering.
pub(crate) fn check(code: &CompiledCode, notes: &[String], diags: &mut Vec<Diagnostic>) {
    for note in notes {
        diags.push(Diagnostic::error(
            Code::LoweringError,
            format!("advice lowering degraded: {note}"),
        ));
    }

    // Slot → (pack width, consumed by a later unpack).
    let mut packed: HashMap<QueryId, (usize, bool)> = HashMap::new();
    let mut emits = 0usize;

    for (pi, prog) in code.programs.iter().enumerate() {
        let at = prog
            .tracepoints
            .first()
            .map(String::as_str)
            .unwrap_or("<no tracepoint>");
        if prog.tracepoints.is_empty() {
            diags.push(Diagnostic::error(
                Code::DataflowError,
                format!("advice program {pi} weaves into no tracepoint"),
            ));
        }
        if let Err(e) = prog.validate() {
            diags.push(Diagnostic::error(
                Code::LoweringError,
                format!("advice at `{at}` failed bytecode validation: {e}"),
            ));
        }
        for inst in &prog.insts {
            match inst {
                Inst::Observe { .. } | Inst::Filter { .. } | Inst::Trigger { .. } => {}
                Inst::Unpack { slot, width, .. } => match packed.get_mut(slot) {
                    None => diags.push(Diagnostic::error(
                        Code::DataflowError,
                        format!(
                            "advice at `{at}` unpacks slot {} but no \
                                 causally earlier advice packs it",
                            slot.0
                        ),
                    )),
                    Some((packed_width, consumed)) => {
                        *consumed = true;
                        if *packed_width != usize::from(*width) {
                            diags.push(Diagnostic::error(
                                Code::DataflowError,
                                format!(
                                    "advice at `{at}` unpacks slot \
                                         {} expecting {width} columns but it \
                                         was packed with {packed_width}",
                                    slot.0,
                                ),
                            ));
                        }
                    }
                },
                Inst::Pack {
                    slot, mode, exprs, ..
                } => {
                    let width = (exprs.1 - exprs.0) as usize;
                    if let PackMode::GroupAgg { key_len, aggs } = mode {
                        if key_len + aggs.len() != width {
                            diags.push(Diagnostic::error(
                                Code::DataflowError,
                                format!(
                                    "advice at `{at}`: grouped pack has \
                                     {key_len} keys + {} aggregates but \
                                     {width} columns",
                                    aggs.len(),
                                ),
                            ));
                        }
                    }
                    packed.insert(*slot, (width, false));
                }
                Inst::Emit { spec, .. } => {
                    // That the emit's ranges are as wide as the spec's
                    // name lists, and its columns inside them, is
                    // `validate`'s to say (above).
                    emits += 1;
                    if spec.streaming && !spec.aggs.is_empty() {
                        diags.push(Diagnostic::error(
                            Code::DataflowError,
                            format!(
                                "emit at `{at}` is marked streaming but \
                                 carries aggregates"
                            ),
                        ));
                    }
                }
            }
        }
        if !prog.packs() && !prog.emits() {
            diags.push(Diagnostic::warning(
                Code::DeadAdvice,
                format!(
                    "advice at `{at}` neither packs nor emits — it \
                     observes tuples and discards them"
                ),
            ));
        }
    }

    if emits == 0 {
        diags.push(Diagnostic::error(
            Code::DataflowError,
            "no advice program emits results; the query can never \
             produce output",
        ));
    }
    for (slot, (_, consumed)) in &packed {
        if !consumed {
            diags.push(Diagnostic::warning(
                Code::DeadAdvice,
                format!(
                    "slot {} is packed but no later advice unpacks it; \
                     the tuples ride the baggage for nothing",
                    slot.0
                ),
            ));
        }
    }
}

/// PT009 — dead output columns.
///
/// A slot can be live (some later stage unpacks it — so PT004 stays
/// quiet) while individual *columns* of its packed tuples are never
/// read: no filter predicate, group key, aggregate argument, or onward
/// pack projection ever loads them. The bytes still ride the baggage of
/// every request. The optimizer's projection pushdown prunes this for
/// plain tracepoint joins, but an inlined sub-query packs its full
/// `Select` output, so joining a multi-column query and consuming only
/// some of its columns leaks the rest into every pack.
///
/// Consumption is judged on the lowered bytecode ("verify what you
/// execute"): an unpacked column is the joined-tuple position
/// `base + i`, where `base` is the schema width ahead of the `Unpack`,
/// and it is consumed iff some `Load` in the same program reads that
/// position. Loads lowered for ops *before* the unpack cannot reach the
/// region (the schema was shorter there), so scanning the whole
/// program's expression pool is safe. Column names come from the advice
/// trees in `compiled`, which lowering maps one-to-one to
/// `code.programs`.
pub(crate) fn check_dead_columns(
    compiled: &CompiledQuery,
    code: &CompiledCode,
    diags: &mut Vec<Diagnostic>,
) {
    // (slot, weave site, packed column names) in advice (causal) order,
    // from the advice trees — each stage packs its own slot exactly once.
    let mut packs: Vec<(QueryId, &str, &[String])> = Vec::new();
    for prog in &compiled.advice {
        let at = prog
            .tracepoints
            .first()
            .map(String::as_str)
            .unwrap_or("<no tracepoint>");
        for op in &prog.ops {
            if let AdviceOp::Pack { slot, names, .. } = op {
                packs.push((*slot, at, names));
            }
        }
    }

    // Slot → set of column positions some consumer loads.
    let mut consumed: HashMap<QueryId, HashSet<usize>> = HashMap::new();
    let mut unpacked: HashSet<QueryId> = HashSet::new();
    for prog in &code.programs {
        // Joined-tuple regions this program's unpacks occupy.
        let mut regions: Vec<(QueryId, usize, usize)> = Vec::new();
        let mut width_so_far = 0usize;
        for inst in &prog.insts {
            match inst {
                Inst::Observe { names: (s, e) } => width_so_far += (e - s) as usize,
                Inst::Unpack { slot, width, .. } => {
                    let w = usize::from(*width);
                    regions.push((*slot, width_so_far, w));
                    unpacked.insert(*slot);
                    width_so_far += w;
                }
                _ => {}
            }
        }
        if regions.is_empty() {
            continue;
        }
        for einst in &prog.einsts {
            if let EInst::Load { col, .. } = einst {
                let col = usize::from(*col);
                for (slot, base, w) in &regions {
                    if col >= *base && col < base + w {
                        consumed.entry(*slot).or_default().insert(col - base);
                    }
                }
            }
        }
    }

    for (slot, at, names) in packs {
        if !unpacked.contains(&slot) {
            continue; // the whole slot is dead — that's PT004, above
        }
        let live = consumed.get(&slot);
        for (i, name) in names.iter().enumerate() {
            if live.is_some_and(|s| s.contains(&i)) {
                continue;
            }
            diags.push(
                Diagnostic::warning(
                    Code::DeadColumn,
                    format!(
                        "the pack at `{at}` carries column `{name}` but no \
                         later filter, group-by, aggregate, or pack ever \
                         reads it; the column rides the baggage of every \
                         request for nothing",
                    ),
                )
                .suggest(format!(
                    "drop `{name}` from the stage's Select, or consume it \
                     in a downstream Where / GroupBy / Select",
                )),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pivot_query::advice::OutputSpec;
    use pivot_query::bytecode::{AdviceByteCode, EInst, ExprProg};
    use pivot_query::CompiledCode;

    use super::*;

    fn empty_code() -> CompiledCode {
        CompiledCode {
            id: QueryId(1),
            name: "t".into(),
            programs: vec![],
            output: Arc::new(OutputSpec::default()),
        }
    }

    #[test]
    fn lowering_notes_become_pt008_errors() {
        let mut diags = Vec::new();
        let notes = vec!["field `ghost` resolves to no schema position".to_string()];
        check(&empty_code(), &notes, &mut diags);
        let d = diags
            .iter()
            .find(|d| d.code == Code::LoweringError)
            .expect("PT008 reported");
        assert!(d.is_error(), "{d:?}");
        assert!(d.message.contains("ghost"), "{d:?}");
    }

    #[test]
    fn invalid_bytecode_is_pt008() {
        // References register 9 with a 1-register file: structurally
        // invalid, every decoder would reject it, so the verifier must
        // block the install.
        let bad = AdviceByteCode {
            tracepoints: vec!["tp".into()],
            insts: vec![Inst::Filter { pred: 0 }],
            einsts: vec![EInst::Load { dst: 9, col: 0 }],
            exprs: vec![ExprProg {
                start: 0,
                len: 1,
                result: 9,
            }],
            consts: vec![],
            names: vec![],
            num_regs: 1,
        };
        let code = CompiledCode {
            programs: vec![Arc::new(bad)],
            ..empty_code()
        };
        let mut diags = Vec::new();
        check(&code, &[], &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::LoweringError && d.is_error()),
            "{diags:?}"
        );
    }

    #[test]
    fn unpack_of_unpacked_slot_is_pt003_on_bytecode() {
        let orphan = AdviceByteCode {
            tracepoints: vec!["tp".into()],
            insts: vec![Inst::Unpack {
                slot: QueryId(7),
                width: 2,
                temporal: None,
            }],
            einsts: vec![],
            exprs: vec![],
            consts: vec![],
            names: vec![],
            num_regs: 0,
        };
        let code = CompiledCode {
            programs: vec![Arc::new(orphan)],
            ..empty_code()
        };
        let mut diags = Vec::new();
        check(&code, &[], &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::DataflowError && d.message.contains("slot 7")),
            "{diags:?}"
        );
    }
}
