//! Hostile bytecode cannot panic the VM: [`AdviceByteCode::validate`] is
//! all that stands between an `Install` frame and an index on a request
//! thread, so every program it accepts must run — through the named-slice
//! entry and through an agent's plan — without panicking, inside its
//! static instruction bound, and without handing a sink more rows than it
//! counted as emitted.
//!
//! Structure-aware: programs are generated valid (the paper's queries
//! through the real compiler, and the random advice programs of
//! `vm_differential.rs`, lowered) and then damaged field by field —
//! registers, columns, constant and expression indices, pool ranges,
//! skips, expression extents, slots, the register-file size — which
//! reaches states a byte flip on the wire mostly decodes away from.

use std::sync::Arc;

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_core::{Agent, Frontend, ProcessInfo};
use pivot_model::{Tuple, Value};
use pivot_query::advice::AdviceProgram;
use pivot_query::bytecode::{lower_program, EInst, Inst};
use pivot_query::{AdviceByteCode, CollectSink, CompiledCode, Vm};

use proptest::prelude::*;

#[path = "support/programs.rs"]
mod programs;
use programs::*;

/// One field overwritten. `at` picks the instruction, expression or
/// constant (modulo how many there are), `field` which of its fields,
/// `to` the new value.
#[derive(Clone, Copy, Debug)]
struct Damage {
    pool: u8,
    at: usize,
    field: u8,
    to: u32,
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    // Values near the pools' real sizes find the off-by-one edges; the
    // large ones find unchecked arithmetic.
    let to = prop_oneof![
        4 => 0u32..12,
        1 => Just(u32::from(u16::MAX)),
        1 => Just(u32::MAX),
        1 => Just(u32::MAX - 1),
    ];
    (0u8..4, 0usize..64, 0u8..6, to).prop_map(|(pool, at, field, to)| Damage {
        pool,
        at,
        field,
        to,
    })
}

fn apply(code: &mut AdviceByteCode, d: Damage) {
    let (to, to16) = (d.to, d.to as u16);
    // A range keeps one end and moves the other.
    let range = |r: &mut (u32, u32), hi: bool| if hi { r.1 = to } else { r.0 = to };
    match d.pool {
        0 if !code.einsts.is_empty() => {
            let n = code.einsts.len();
            match &mut code.einsts[d.at % n] {
                EInst::Load { dst, col } => *[dst, col][d.field as usize % 2] = to16,
                EInst::Const { dst, idx } => *[dst, idx][d.field as usize % 2] = to16,
                EInst::Unary { dst, src, .. } => *[dst, src][d.field as usize % 2] = to16,
                EInst::Binary { dst, lhs, rhs, .. } => {
                    *[dst, lhs, rhs][d.field as usize % 3] = to16
                }
                EInst::CoerceBool { dst, src } => *[dst, src][d.field as usize % 2] = to16,
                EInst::SkipIfBool { src, skip, .. } => *[src, skip][d.field as usize % 2] = to16,
                EInst::Fail => {}
            }
        }
        1 if !code.exprs.is_empty() => {
            let n = code.exprs.len();
            let x = &mut code.exprs[d.at % n];
            match d.field % 3 {
                0 => x.start = to,
                1 => x.len = to,
                _ => x.result = to16,
            }
        }
        2 if !code.insts.is_empty() => {
            let n = code.insts.len();
            let hi = d.field % 2 == 1;
            match &mut code.insts[d.at % n] {
                Inst::Observe { names } => range(names, hi),
                Inst::Unpack { slot, width, .. } => {
                    if hi {
                        *width = to16
                    } else {
                        *slot = QueryId(u64::from(to))
                    }
                }
                Inst::Filter { pred } => *pred = to,
                Inst::Trigger { query, pred } => {
                    if hi {
                        *pred = Some(to)
                    } else {
                        *query = QueryId(u64::from(to))
                    }
                }
                Inst::Pack {
                    slot, pre, exprs, ..
                } => match d.field % 3 {
                    0 => *slot = QueryId(u64::from(to)),
                    1 => range(pre, d.field >= 3),
                    _ => range(exprs, d.field >= 3),
                },
                Inst::Emit {
                    query,
                    pre,
                    keys,
                    aggs,
                    ..
                } => match d.field % 4 {
                    0 => *query = QueryId(u64::from(to)),
                    1 => range(pre, d.field >= 4),
                    2 => range(keys, d.field >= 4),
                    _ => range(aggs, d.field >= 4),
                },
            }
        }
        _ => code.num_regs = to16,
    }
}

fn agent() -> Agent {
    Agent::new(ProcessInfo {
        host: "host-A".into(),
        procid: 7,
        procname: "proc".into(),
    })
}

/// Validate-or-run: a damaged program is refused, or it runs to the end.
fn check(
    mut code: AdviceByteCode,
    damage: &[Damage],
    batch: &[Vec<(&'static str, Value)>],
    seed: &[Vec<Value>],
) -> Result<(), TestCaseError> {
    for d in damage {
        apply(&mut code, *d);
    }
    if code.validate().is_err() {
        return Ok(());
    }
    let mut bag = Baggage::new();
    if !seed.is_empty() {
        let rows = seed.iter().map(|t| t.iter().cloned().collect::<Tuple>());
        bag.pack(QueryId(100), &PackMode::All, rows);
    }
    let events: Vec<&[(&str, Value)]> = batch.iter().map(|e| e.as_slice()).collect();

    // The named-slice entry, whole batch. Every live invocation retires
    // an instruction at most once: the program's static bound.
    let mut vm = Vm::new();
    let mut sink = CollectSink::default();
    let stats = vm.run_batch(&code, &events, &mut bag.clone(), &mut sink);
    prop_assert!(
        vm.ops() <= (events.len() * code.insts.len()) as u64,
        "{} ops for {} invocations of {:?}",
        vm.ops(),
        events.len(),
        code
    );
    prop_assert!(
        sink.raw.len() + sink.grouped.len() <= stats.emitted,
        "{} + {} rows from {} emitted by {:?}",
        sink.raw.len(),
        sink.grouped.len(),
        stats.emitted,
        code
    );

    // An agent's plan: weave-time resolution, the capped buffers and the
    // flush all see the same damaged program.
    let emits = code.insts.iter().find_map(|i| match i {
        Inst::Emit { query, spec, .. } => Some((*query, Arc::clone(spec))),
        _ => None,
    });
    let (id, output) = emits.unwrap_or((QueryId(7), Arc::default()));
    let agent = agent();
    agent.set_row_cap(2);
    agent.install(&CompiledCode {
        id,
        name: "hostile".into(),
        programs: vec![Arc::new(code)],
        output,
    });
    let timed: Vec<(u64, &[(&str, Value)])> = events.iter().map(|e| (1, *e)).collect();
    agent.invoke_batch("T", &mut bag.clone(), &timed);
    for e in &events {
        agent.invoke("T", &mut bag, 2, e);
    }
    let delivered: u64 = agent.flush(3).iter().map(|r| r.tuples).sum();
    prop_assert!(delivered + agent.shed_for(id) <= agent.stats().tuples_emitted);
    Ok(())
}

/// The lowered programs of the paper's queries, retargeted at `T` so one
/// export generator serves them all.
fn paper_programs() -> Vec<AdviceByteCode> {
    let mut fe = Frontend::new();
    for (name, exports) in PAPER_TRACEPOINTS {
        fe.define(name, exports.iter().copied());
    }
    let mut out = Vec::new();
    for text in PAPER_QUERIES {
        let handle = fe.install(text).expect("the paper's queries install");
        for program in &fe.code(&handle).expect("lowered form").programs {
            let mut code = AdviceByteCode::clone(program);
            code.tracepoints = vec!["T".into()];
            out.push(code);
        }
    }
    out
}

fn batch_strategy() -> impl Strategy<Value = Vec<Vec<(&'static str, Value)>>> {
    prop::collection::vec(exports_strategy(), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn damaged_paper_queries_are_refused_or_run_to_the_end(
        which in 0usize..64,
        damage in prop::collection::vec(damage_strategy(), 1..4),
        batch in batch_strategy(),
        seed in seed_strategy(),
    ) {
        let programs = paper_programs();
        let code = programs[which % programs.len()].clone();
        check(code, &damage, &batch, &seed)?;
    }

    #[test]
    fn damaged_random_programs_are_refused_or_run_to_the_end(
        ops in prop::collection::vec(op_strategy(), 1..6),
        damage in prop::collection::vec(damage_strategy(), 0..4),
        batch in batch_strategy(),
        seed in seed_strategy(),
    ) {
        let program = AdviceProgram { tracepoints: vec!["T".to_owned()], ops };
        check(lower_program(&program).code, &damage, &batch, &seed)?;
    }
}
