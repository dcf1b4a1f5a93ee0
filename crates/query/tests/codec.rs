//! `CompiledCode`'s codec, beside the type: a real query comes back equal,
//! its `Emit`s sharing the one decoded output spec, and a program that
//! fails validation never comes back at all. Every other frame-level
//! property (cuts, flips, trailing bytes, hostile varints) is
//! `crates/live/tests/wire_hostile.rs`'s, over every frame kind.

use std::sync::Arc;

use pivot_baggage::QueryId;
use pivot_itc::{DecodeError, Decoder, Encoder};
use pivot_query::bytecode::{EInst, ExprProg, Inst};
use pivot_query::{
    compile, parse, plan_query, AdviceByteCode, CompiledCode, Options, OutputSpec, Query, Resolver,
};

/// Paper Q2: a happened-before join, a filter, a group key and three
/// aggregates, so it lowers to `Observe`, `Pack`, `Unpack`, `Filter` and
/// `Emit`.
const Q2: &str = "From incr In DataNodeMetrics.incrBytesRead
     Join cl In First(ClientProtocols) On cl -> incr
     Where incr.delta > 0 && incr.delta != 13
     GroupBy cl.procName
     Select cl.procName, SUM(incr.delta), COUNT, AVERAGE(incr.delta)";

struct Vocabulary;

impl Resolver for Vocabulary {
    fn tracepoint_exports(&self, name: &str) -> Option<Vec<String>> {
        let own = match name {
            "ClientProtocols" => "procName",
            "DataNodeMetrics.incrBytesRead" => "delta",
            _ => return None,
        };
        let exports = [own, "host", "timestamp", "procid", "procname", "tracepoint"];
        Some(exports.map(String::from).to_vec())
    }

    fn query_ast(&self, _: &str) -> Option<Query> {
        None
    }
}

fn round_trip(code: &CompiledCode) -> Result<CompiledCode, DecodeError> {
    let mut enc = Encoder::new();
    code.encode(&mut enc);
    let bytes = enc.finish();
    let mut dec = Decoder::new(&bytes);
    let back = CompiledCode::decode(&mut dec)?;
    assert!(dec.is_empty(), "the decoder read the whole encoding");
    Ok(back)
}

#[test]
fn a_compiled_query_comes_back_equal_and_its_emits_share_the_decoded_spec() {
    let ast = parse(Q2).expect("Q2 parses");
    let plan = plan_query(&ast, &Vocabulary, Options::default()).expect("Q2 plans");
    let (code, notes) = CompiledCode::lower(&compile::lower(&plan, "Q2", Q2, QueryId(2)));
    assert!(notes.is_empty(), "{notes:?}");
    let back = round_trip(&code).expect("decodes");
    assert_eq!(back, code);
    let emits: Vec<_> = back
        .programs
        .iter()
        .flat_map(|p| &p.insts)
        .filter_map(|i| match i {
            Inst::Emit { spec, .. } => Some(spec),
            _ => None,
        })
        .collect();
    assert_eq!(emits.len(), 1, "Q2 emits once");
    assert!(Arc::ptr_eq(emits[0], &back.output));
}

#[test]
fn a_program_that_fails_validation_is_refused_at_decode() {
    // It parses, but its one expression reads register 9 of a file of 1.
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
    assert!(bad.validate().is_err());
    let code = CompiledCode {
        id: QueryId(9),
        name: "bad".into(),
        programs: vec![Arc::new(bad)],
        output: Arc::new(OutputSpec::default()),
    };
    assert_eq!(
        round_trip(&code),
        Err(DecodeError::BadTag("bytecode validation", 0))
    );
}
