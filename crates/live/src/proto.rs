//! Binary codec for the bus protocol.
//!
//! One frame payload is `version byte, tag byte, body`. Nine tags carry
//! the seven [`Message`] kinds: client → server `Hello` (0), `Report` (3),
//! `HelloRelay` (7) and `Retro` (8); server → client the three
//! [`Command`]s — `Install` (1), `Uninstall` (2), `SetBudget` (6) — and
//! `Sync` (4); `Goodbye` (5) either way.
//!
//! Peers are built from one tree and speak exactly [`PROTO_VERSION`]: any
//! other version byte is a decode error on every frame kind, so skew fails
//! loudly instead of misparsing.
//!
//! `Install` ships the query's **lowered bytecode** ([`CompiledCode`]) —
//! flat register instructions, constant pool, pre-resolved column indices —
//! and its [`OutputSpec`], which is names, aggregate functions and a
//! column layout. Agents therefore execute exactly the artifact the
//! frontend verified, and the decoder runs [`AdviceByteCode::validate`] on
//! every received program so a hostile or corrupted peer can never make
//! the VM index out of bounds. Nothing on the wire nests: no decoder in
//! this file calls itself, and the value codec under it stops at one
//! level (a value may be an accumulator; an accumulator holds scalars).
//!
//! Version 8 is version 7 without what no receiver read. Gone are the
//! `OutputSpec`'s key and aggregate-argument expression trees (agents run
//! the lowered ranges, every tier above reads names and functions) and
//! with them the recursive expression decoder; the row-by-row streaming
//! body (a streaming report is a list of [`EncodedBlock`]s, row-major
//! inside when the batch is one row or ragged); and `procname` on `Report`
//! and `Retro` (it is in the `Hello`). The one-or-none throttle flag became
//! a count, so a relay forwards every trip it heard on the window's one
//! frame.
//!
//! Everything is encoded with the same LEB128 encoder the baggage wire
//! format uses, so one decoder discipline covers the whole attack surface:
//! malformed input returns [`DecodeError`], never panics.

use std::sync::Arc;

use pivot_baggage::{PackMode, QueryId};
use pivot_core::{
    Command, ProcessInfo, QueryBudget, Report, ReportRows, RetroEvent, RetroReport, ThrottleReason,
    ThrottleStats, Throttled, TriggerKind,
};
use pivot_itc::{DecodeError, Decoder, Encoder};
use pivot_model::{codec, AggFunc, BinOp, EncodedBlock, UnOp};
use pivot_query::advice::ColumnRef;
use pivot_query::bytecode::{EInst, ExprProg, Inst, PoolRange};
use pivot_query::{AdviceByteCode, CompiledCode, Groups, OutputSpec, TemporalFilter};

/// The one wire-protocol version. [`decode_message`] rejects every other
/// version byte, and nothing else in the crate looks at it: no peer keeps
/// a record of what the other side speaks. Version 8 is 7 by subtraction
/// (see the module doc), and the two never had to interoperate, so 7 is
/// refused like any other byte. When a later version does have to
/// coexist with 8 during a rolling upgrade, the check in `decode_message`
/// is where the accepted window widens and where the decoded version
/// starts being handed to the body decoders.
pub const PROTO_VERSION: u8 = 8;

/// One bus message.
#[derive(Clone, Debug)]
pub enum Message {
    /// Agent → frontend: registration with the agent's process identity.
    Hello(ProcessInfo),
    /// Frontend → agent: weave or unweave a query.
    Command(Command),
    /// Agent → frontend: partial results for one interval.
    Report(Report),
    /// Frontend → agent: the complete installed-query set at install epoch
    /// `epoch`. Sent in response to every `Hello`, so an agent that missed
    /// any number of install/uninstall commands (crash, restart, partition)
    /// reconciles its weave registry in a single frame.
    Sync {
        /// The frontend's install epoch when this snapshot was taken.
        epoch: u64,
        /// Every currently installed query's lowered bytecode.
        queries: Vec<Arc<CompiledCode>>,
        /// The overload budgets currently in force, so a re-syncing agent
        /// recovers its governor configuration along with its weave set.
        budgets: Vec<(QueryId, QueryBudget)>,
    },
    /// Orderly shutdown: the sender is closing this connection on purpose.
    /// A socket that closes *without* a preceding `Goodbye` is a lost
    /// connection and must be surfaced as a fault, not a clean exit.
    Goodbye,
    /// Relay → upstream: registration of a fan-in relay (`crates/relay`).
    /// Handled like [`Message::Hello`] — the upstream answers with a
    /// `Sync` — but the peer is counted as a relay, not a leaf agent, so
    /// topology-aware servers can report tier shape.
    HelloRelay(ProcessInfo),
    /// Agent → frontend (possibly through relays, which forward it
    /// opaquely): a retroactive hindsight flush (see
    /// [`pivot_core::RetroReport`]).
    Retro(RetroReport),
}

/// Encodes one message to bytes (the payload of one frame).
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(128);
    enc.put_u8(PROTO_VERSION);
    match msg {
        Message::Hello(info) => {
            enc.put_u8(0);
            enc.put_str(&info.host);
            enc.put_varint(info.procid);
            enc.put_str(&info.procname);
        }
        Message::Command(Command::Install(code)) => {
            enc.put_u8(1);
            encode_code(code, &mut enc);
        }
        Message::Command(Command::Uninstall(id)) => {
            enc.put_u8(2);
            enc.put_varint(id.0);
        }
        Message::Report(report) => {
            enc.put_u8(3);
            encode_report(report, &mut enc);
        }
        Message::Sync {
            epoch,
            queries,
            budgets,
        } => {
            enc.put_u8(4);
            enc.put_varint(*epoch);
            enc.put_varint(queries.len() as u64);
            for code in queries {
                encode_code(code, &mut enc);
            }
            enc.put_varint(budgets.len() as u64);
            for (id, budget) in budgets {
                enc.put_varint(id.0);
                encode_budget(budget, &mut enc);
            }
        }
        Message::Goodbye => enc.put_u8(5),
        Message::Command(Command::SetBudget(id, budget)) => {
            enc.put_u8(6);
            enc.put_varint(id.0);
            encode_budget(budget, &mut enc);
        }
        Message::HelloRelay(info) => {
            enc.put_u8(7);
            enc.put_str(&info.host);
            enc.put_varint(info.procid);
            enc.put_str(&info.procname);
        }
        Message::Retro(report) => {
            enc.put_u8(8);
            encode_retro(report, &mut enc);
        }
    }
    enc.finish()
}

/// Decodes one message; trailing garbage, any version byte other than
/// [`PROTO_VERSION`], and bytecode that fails validation are all rejected.
pub fn decode_message(bytes: &[u8]) -> Result<Message, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let version = dec.take_u8()?;
    if version != PROTO_VERSION {
        return Err(DecodeError::BadTag("protocol version", version));
    }
    let msg = match dec.take_u8()? {
        0 => Message::Hello(ProcessInfo {
            host: dec.take_str()?.to_owned(),
            procid: dec.take_varint()?,
            procname: dec.take_str()?.to_owned(),
        }),
        1 => Message::Command(Command::Install(Arc::new(decode_code(&mut dec)?))),
        2 => Message::Command(Command::Uninstall(QueryId(dec.take_varint()?))),
        3 => Message::Report(decode_report(&mut dec)?),
        4 => {
            let epoch = dec.take_varint()?;
            let n = dec.take_varint()? as usize;
            let mut queries = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                // Each embedded program passes the same validation as a
                // standalone Install: a hostile Sync is no more powerful.
                queries.push(Arc::new(decode_code(&mut dec)?));
            }
            let n = dec.take_varint()? as usize;
            let mut budgets = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                let id = QueryId(dec.take_varint()?);
                budgets.push((id, decode_budget(&mut dec)?));
            }
            Message::Sync {
                epoch,
                queries,
                budgets,
            }
        }
        5 => Message::Goodbye,
        6 => {
            let id = QueryId(dec.take_varint()?);
            Message::Command(Command::SetBudget(id, decode_budget(&mut dec)?))
        }
        7 => Message::HelloRelay(ProcessInfo {
            host: dec.take_str()?.to_owned(),
            procid: dec.take_varint()?,
            procname: dec.take_str()?.to_owned(),
        }),
        8 => Message::Retro(decode_retro(&mut dec)?),
        t => return Err(DecodeError::BadTag("message", t)),
    };
    if !dec.is_empty() {
        return Err(DecodeError::BadTag("message trailing bytes", 0));
    }
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Compiled bytecode
// ---------------------------------------------------------------------------

fn encode_code(code: &CompiledCode, enc: &mut Encoder) {
    enc.put_varint(code.id.0);
    enc.put_str(&code.name);
    encode_output_spec(&code.output, enc);
    enc.put_varint(code.programs.len() as u64);
    for program in &code.programs {
        encode_bytecode(program, enc);
    }
}

fn decode_code(dec: &mut Decoder<'_>) -> Result<CompiledCode, DecodeError> {
    let id = QueryId(dec.take_varint()?);
    let name = dec.take_str()?.to_owned();
    let output = Arc::new(decode_output_spec(dec)?);
    let n = dec.take_varint()? as usize;
    let mut programs = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let code = decode_bytecode(dec, &output)?;
        // Reject anything the VM could not execute safely. Validation at
        // the trust boundary is what lets the VM index registers, pools,
        // and skips unchecked on the hot path.
        if code.validate().is_err() {
            return Err(DecodeError::BadTag("bytecode validation", 0));
        }
        programs.push(Arc::new(code));
    }
    Ok(CompiledCode {
        id,
        name,
        programs,
        output,
    })
}

/// The wire format assumes the canonical [`CompiledCode::lower`] shape in
/// which every `Emit`'s spec *is* the query's output spec, so the spec is
/// encoded once at the top level and rehydrated (Arc-shared) on decode.
fn encode_bytecode(code: &AdviceByteCode, enc: &mut Encoder) {
    encode_strs(&code.tracepoints, enc);
    enc.put_varint(u64::from(code.num_regs));
    enc.put_varint(code.consts.len() as u64);
    for v in &code.consts {
        codec::encode_value(v, enc);
    }
    enc.put_varint(code.names.len() as u64);
    for s in &code.names {
        enc.put_str(s);
    }
    enc.put_varint(code.einsts.len() as u64);
    for e in &code.einsts {
        encode_einst(e, enc);
    }
    enc.put_varint(code.exprs.len() as u64);
    for p in &code.exprs {
        enc.put_varint(u64::from(p.start));
        enc.put_varint(u64::from(p.len));
        enc.put_varint(u64::from(p.result));
    }
    enc.put_varint(code.insts.len() as u64);
    for inst in &code.insts {
        encode_inst(inst, enc);
    }
}

fn decode_bytecode(
    dec: &mut Decoder<'_>,
    output: &Arc<OutputSpec>,
) -> Result<AdviceByteCode, DecodeError> {
    let tracepoints = decode_strs(dec)?;
    let num_regs = take_u16(dec)?;
    let n = dec.take_varint()? as usize;
    let mut consts = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        consts.push(codec::decode_value(dec)?);
    }
    let n = dec.take_varint()? as usize;
    let mut names = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        names.push(Arc::from(dec.take_str()?));
    }
    let n = dec.take_varint()? as usize;
    let mut einsts = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        einsts.push(decode_einst(dec)?);
    }
    let n = dec.take_varint()? as usize;
    let mut exprs = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        exprs.push(ExprProg {
            start: take_u32(dec)?,
            len: take_u32(dec)?,
            result: take_u16(dec)?,
        });
    }
    let n = dec.take_varint()? as usize;
    let mut insts = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        insts.push(decode_inst(dec, output)?);
    }
    Ok(AdviceByteCode {
        tracepoints,
        insts,
        einsts,
        exprs,
        consts,
        names,
        num_regs,
    })
}

fn encode_einst(e: &EInst, enc: &mut Encoder) {
    match e {
        EInst::Load { dst, col } => {
            enc.put_u8(0);
            enc.put_varint(u64::from(*dst));
            enc.put_varint(u64::from(*col));
        }
        EInst::Const { dst, idx } => {
            enc.put_u8(1);
            enc.put_varint(u64::from(*dst));
            enc.put_varint(u64::from(*idx));
        }
        EInst::Unary { dst, op, src } => {
            enc.put_u8(2);
            enc.put_varint(u64::from(*dst));
            enc.put_u8(un_op_tag(*op));
            enc.put_varint(u64::from(*src));
        }
        EInst::Binary { dst, op, lhs, rhs } => {
            enc.put_u8(3);
            enc.put_varint(u64::from(*dst));
            enc.put_u8(bin_op_tag(*op));
            enc.put_varint(u64::from(*lhs));
            enc.put_varint(u64::from(*rhs));
        }
        EInst::CoerceBool { dst, src } => {
            enc.put_u8(4);
            enc.put_varint(u64::from(*dst));
            enc.put_varint(u64::from(*src));
        }
        EInst::SkipIfBool { src, when, skip } => {
            enc.put_u8(5);
            enc.put_varint(u64::from(*src));
            enc.put_u8(u8::from(*when));
            enc.put_varint(u64::from(*skip));
        }
        EInst::Fail => enc.put_u8(6),
    }
}

fn decode_einst(dec: &mut Decoder<'_>) -> Result<EInst, DecodeError> {
    Ok(match dec.take_u8()? {
        0 => EInst::Load {
            dst: take_u16(dec)?,
            col: take_u16(dec)?,
        },
        1 => EInst::Const {
            dst: take_u16(dec)?,
            idx: take_u16(dec)?,
        },
        2 => EInst::Unary {
            dst: take_u16(dec)?,
            op: decode_un_op(dec.take_u8()?)?,
            src: take_u16(dec)?,
        },
        3 => EInst::Binary {
            dst: take_u16(dec)?,
            op: decode_bin_op(dec.take_u8()?)?,
            lhs: take_u16(dec)?,
            rhs: take_u16(dec)?,
        },
        4 => EInst::CoerceBool {
            dst: take_u16(dec)?,
            src: take_u16(dec)?,
        },
        5 => EInst::SkipIfBool {
            src: take_u16(dec)?,
            when: match dec.take_u8()? {
                0 => false,
                1 => true,
                t => return Err(DecodeError::BadTag("skip flag", t)),
            },
            skip: take_u16(dec)?,
        },
        6 => EInst::Fail,
        t => return Err(DecodeError::BadTag("expr inst", t)),
    })
}

fn encode_inst(inst: &Inst, enc: &mut Encoder) {
    match inst {
        Inst::Observe { names } => {
            enc.put_u8(0);
            encode_range(*names, enc);
        }
        Inst::Unpack {
            slot,
            width,
            temporal,
        } => {
            enc.put_u8(1);
            enc.put_varint(slot.0);
            enc.put_varint(u64::from(*width));
            encode_opt_filter(temporal, enc);
        }
        Inst::Filter { pred } => {
            enc.put_u8(2);
            enc.put_varint(u64::from(*pred));
        }
        Inst::Pack {
            slot,
            mode,
            pre,
            exprs,
        } => {
            enc.put_u8(3);
            enc.put_varint(slot.0);
            encode_pack_mode(mode, enc);
            encode_range(*pre, enc);
            encode_range(*exprs, enc);
        }
        Inst::Emit {
            query,
            spec: _, // canonical form: always the top-level output spec
            pre,
            keys,
            aggs,
        } => {
            enc.put_u8(4);
            enc.put_varint(query.0);
            encode_range(*pre, enc);
            encode_range(*keys, enc);
            encode_range(*aggs, enc);
        }
        Inst::Trigger { query, pred } => {
            enc.put_u8(5);
            enc.put_varint(query.0);
            match pred {
                None => enc.put_u8(0),
                Some(p) => {
                    enc.put_u8(1);
                    enc.put_varint(u64::from(*p));
                }
            }
        }
    }
}

fn decode_inst(dec: &mut Decoder<'_>, output: &Arc<OutputSpec>) -> Result<Inst, DecodeError> {
    Ok(match dec.take_u8()? {
        0 => Inst::Observe {
            names: decode_range(dec)?,
        },
        1 => Inst::Unpack {
            slot: QueryId(dec.take_varint()?),
            width: take_u16(dec)?,
            temporal: decode_opt_filter(dec)?,
        },
        2 => Inst::Filter {
            pred: take_u32(dec)?,
        },
        3 => Inst::Pack {
            slot: QueryId(dec.take_varint()?),
            mode: decode_pack_mode(dec)?,
            pre: decode_range(dec)?,
            exprs: decode_range(dec)?,
        },
        4 => Inst::Emit {
            query: QueryId(dec.take_varint()?),
            spec: Arc::clone(output),
            pre: decode_range(dec)?,
            keys: decode_range(dec)?,
            aggs: decode_range(dec)?,
        },
        5 => Inst::Trigger {
            query: QueryId(dec.take_varint()?),
            pred: match dec.take_u8()? {
                0 => None,
                1 => Some(take_u32(dec)?),
                t => return Err(DecodeError::BadTag("trigger pred flag", t)),
            },
        },
        t => return Err(DecodeError::BadTag("bytecode inst", t)),
    })
}

// ---------------------------------------------------------------------------
// Retro reports
// ---------------------------------------------------------------------------

fn trigger_kind_tag(k: TriggerKind) -> u8 {
    match k {
        TriggerKind::Advice => 0,
        TriggerKind::Breaker => 1,
        TriggerKind::LatencyOutlier => 2,
        TriggerKind::Fault => 3,
    }
}

fn decode_trigger_kind(t: u8) -> Result<TriggerKind, DecodeError> {
    Ok(match t {
        0 => TriggerKind::Advice,
        1 => TriggerKind::Breaker,
        2 => TriggerKind::LatencyOutlier,
        3 => TriggerKind::Fault,
        t => return Err(DecodeError::BadTag("trigger kind", t)),
    })
}

fn encode_retro(r: &RetroReport, enc: &mut Encoder) {
    enc.put_str(&r.host);
    enc.put_varint(r.procid);
    enc.put_varint(r.incarnation);
    enc.put_varint(r.time);
    enc.put_varint(r.seq);
    enc.put_varint(r.query.0);
    enc.put_u8(trigger_kind_tag(r.kind));
    enc.put_varint(r.request);
    enc.put_varint(r.recorded_cum);
    enc.put_varint(r.sampled_out_cum);
    enc.put_varint(r.shed_cum);
    enc.put_varint(r.events.len() as u64);
    for ev in &r.events {
        codec::encode_value(&ev.tracepoint, enc);
        enc.put_varint(ev.time);
        enc.put_varint(ev.request);
        enc.put_varint(ev.names.len() as u64);
        for n in ev.names.iter() {
            enc.put_str(n);
        }
        // Invariant upheld at recording: names and values are
        // position-matched, so one length serves both.
        debug_assert_eq!(ev.names.len(), ev.values.len());
        for v in &ev.values {
            codec::encode_value(v, enc);
        }
    }
}

fn decode_retro(dec: &mut Decoder<'_>) -> Result<RetroReport, DecodeError> {
    let host = dec.take_str()?.to_owned();
    let procid = dec.take_varint()?;
    let incarnation = dec.take_varint()?;
    let time = dec.take_varint()?;
    let seq = dec.take_varint()?;
    let query = QueryId(dec.take_varint()?);
    let kind = decode_trigger_kind(dec.take_u8()?)?;
    let request = dec.take_varint()?;
    let recorded_cum = dec.take_varint()?;
    let sampled_out_cum = dec.take_varint()?;
    let shed_cum = dec.take_varint()?;
    let n = dec.take_varint()? as usize;
    let mut events = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let tracepoint = codec::decode_value(dec)?;
        let time = dec.take_varint()?;
        let request = dec.take_varint()?;
        let w = dec.take_varint()? as usize;
        let names = (0..w)
            .map(|_| dec.take_str().map(Arc::from))
            .collect::<Result<Arc<[Arc<str>]>, _>>()?;
        let mut values = Vec::with_capacity(w.min(64));
        for _ in 0..w {
            values.push(codec::decode_value(dec)?);
        }
        events.push(RetroEvent {
            tracepoint,
            time,
            request,
            names,
            values,
        });
    }
    Ok(RetroReport {
        host,
        procid,
        incarnation,
        time,
        seq,
        query,
        kind,
        request,
        events,
        recorded_cum,
        sampled_out_cum,
        shed_cum,
    })
}

fn encode_range(r: PoolRange, enc: &mut Encoder) {
    enc.put_varint(u64::from(r.0));
    enc.put_varint(u64::from(r.1));
}

fn decode_range(dec: &mut Decoder<'_>) -> Result<PoolRange, DecodeError> {
    Ok((take_u32(dec)?, take_u32(dec)?))
}

fn take_u16(dec: &mut Decoder<'_>) -> Result<u16, DecodeError> {
    u16::try_from(dec.take_varint()?).map_err(|_| DecodeError::BadTag("u16 overflow", 0))
}

fn take_u32(dec: &mut Decoder<'_>) -> Result<u32, DecodeError> {
    u32::try_from(dec.take_varint()?).map_err(|_| DecodeError::BadTag("u32 overflow", 0))
}

// ---------------------------------------------------------------------------
// Output spec (frontend-side result metadata)
// ---------------------------------------------------------------------------

fn encode_output_spec(spec: &OutputSpec, enc: &mut Encoder) {
    encode_strs(&spec.key_names, enc);
    enc.put_varint(spec.aggs.len() as u64);
    for f in &spec.aggs {
        enc.put_u8(agg_func_tag(*f));
    }
    encode_strs(&spec.agg_names, enc);
    enc.put_varint(spec.columns.len() as u64);
    for c in &spec.columns {
        match c {
            ColumnRef::Key(i) => {
                enc.put_u8(0);
                enc.put_varint(*i as u64);
            }
            ColumnRef::Agg(i) => {
                enc.put_u8(1);
                enc.put_varint(*i as u64);
            }
        }
    }
    enc.put_u8(u8::from(spec.streaming));
}

fn decode_output_spec(dec: &mut Decoder<'_>) -> Result<OutputSpec, DecodeError> {
    let key_names = decode_strs(dec)?;
    let n = dec.take_varint()? as usize;
    let mut aggs = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        aggs.push(decode_agg_func(dec.take_u8()?)?);
    }
    let agg_names = decode_strs(dec)?;
    let n = dec.take_varint()? as usize;
    let mut columns = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let tag = dec.take_u8()?;
        let idx = dec.take_varint()? as usize;
        columns.push(match tag {
            0 => ColumnRef::Key(idx),
            1 => ColumnRef::Agg(idx),
            t => return Err(DecodeError::BadTag("column ref", t)),
        });
    }
    let streaming = match dec.take_u8()? {
        0 => false,
        1 => true,
        t => return Err(DecodeError::BadTag("streaming flag", t)),
    };
    // Column refs index into the key/agg name lists (e.g. when building
    // display names); reject dangling refs at the trust boundary so the
    // spec can be used without bounds anxiety. That the name lists are as
    // wide as what the advice computes is `validate`'s check on the
    // `Emit` that carries this spec.
    for c in &columns {
        let ok = match c {
            ColumnRef::Key(i) => *i < key_names.len(),
            ColumnRef::Agg(i) => *i < agg_names.len(),
        };
        if !ok {
            return Err(DecodeError::BadTag("column ref range", 0));
        }
    }
    Ok(OutputSpec {
        key_names,
        aggs,
        agg_names,
        columns,
        streaming,
    })
}

fn encode_pack_mode(mode: &PackMode, enc: &mut Encoder) {
    match mode {
        PackMode::All => enc.put_u8(0),
        PackMode::First(n) => {
            enc.put_u8(1);
            enc.put_varint(*n as u64);
        }
        PackMode::Recent(n) => {
            enc.put_u8(2);
            enc.put_varint(*n as u64);
        }
        PackMode::GroupAgg { key_len, aggs } => {
            enc.put_u8(3);
            enc.put_varint(*key_len as u64);
            enc.put_varint(aggs.len() as u64);
            for f in aggs {
                enc.put_u8(agg_func_tag(*f));
            }
        }
    }
}

fn decode_pack_mode(dec: &mut Decoder<'_>) -> Result<PackMode, DecodeError> {
    Ok(match dec.take_u8()? {
        0 => PackMode::All,
        1 => PackMode::First(dec.take_varint()? as usize),
        2 => PackMode::Recent(dec.take_varint()? as usize),
        3 => {
            let key_len = dec.take_varint()? as usize;
            let n = dec.take_varint()? as usize;
            let mut aggs = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                aggs.push(decode_agg_func(dec.take_u8()?)?);
            }
            PackMode::GroupAgg { key_len, aggs }
        }
        t => return Err(DecodeError::BadTag("pack mode", t)),
    })
}

fn encode_opt_filter(f: &Option<TemporalFilter>, enc: &mut Encoder) {
    match f {
        None => enc.put_u8(0),
        Some(TemporalFilter::First(n)) => {
            enc.put_u8(1);
            enc.put_varint(*n as u64);
        }
        Some(TemporalFilter::MostRecent(n)) => {
            enc.put_u8(2);
            enc.put_varint(*n as u64);
        }
    }
}

fn decode_opt_filter(dec: &mut Decoder<'_>) -> Result<Option<TemporalFilter>, DecodeError> {
    Ok(match dec.take_u8()? {
        0 => None,
        1 => Some(TemporalFilter::First(dec.take_varint()? as usize)),
        2 => Some(TemporalFilter::MostRecent(dec.take_varint()? as usize)),
        t => return Err(DecodeError::BadTag("temporal filter", t)),
    })
}

fn encode_budget(b: &QueryBudget, enc: &mut Encoder) {
    enc.put_varint(b.tuples_per_window);
    enc.put_varint(b.ops_per_window);
    enc.put_varint(b.bytes_per_window);
    enc.put_varint(b.window_ns);
    enc.put_varint(u64::from(b.backoff_base_windows));
    enc.put_varint(u64::from(b.max_backoff_doublings));
}

fn decode_budget(dec: &mut Decoder<'_>) -> Result<QueryBudget, DecodeError> {
    Ok(QueryBudget {
        tuples_per_window: dec.take_varint()?,
        ops_per_window: dec.take_varint()?,
        bytes_per_window: dec.take_varint()?,
        window_ns: dec.take_varint()?,
        backoff_base_windows: take_u32(dec)?,
        max_backoff_doublings: take_u32(dec)?,
    })
}

fn encode_report(r: &Report, enc: &mut Encoder) {
    enc.put_varint(r.query.0);
    enc.put_str(&r.host);
    enc.put_varint(r.procid);
    enc.put_varint(r.incarnation);
    enc.put_varint(r.time);
    enc.put_varint(r.seq);
    enc.put_varint(r.tuples);
    enc.put_varint(r.emitted_cum);
    enc.put_varint(r.shed_cum);
    enc.put_varint(r.truncated_cum);
    enc.put_varint(r.throttled.len() as u64);
    for t in &r.throttled {
        enc.put_varint(t.query.0);
        enc.put_u8(t.reason.tag());
        enc.put_varint(t.stats.tuples);
        enc.put_varint(t.stats.ops);
        enc.put_varint(t.stats.bytes);
        enc.put_varint(u64::from(t.stats.trips));
    }
    match &r.rows {
        ReportRows::Grouped(groups) => {
            enc.put_u8(1);
            groups.encode(enc);
        }
        ReportRows::RawEncoded(blocks) => {
            // The blocks' encoded bytes go on the wire as-is — this is
            // the zero-copy path relays exercise on every re-origination.
            enc.put_u8(2);
            enc.put_varint(blocks.len() as u64);
            for b in blocks {
                b.write_wire(enc);
            }
        }
    }
}

fn decode_report(dec: &mut Decoder<'_>) -> Result<Report, DecodeError> {
    let query = QueryId(dec.take_varint()?);
    let host = dec.take_str()?.to_owned();
    let procid = dec.take_varint()?;
    let incarnation = dec.take_varint()?;
    let time = dec.take_varint()?;
    let seq = dec.take_varint()?;
    let tuples = dec.take_varint()?;
    let emitted_cum = dec.take_varint()?;
    let shed_cum = dec.take_varint()?;
    let truncated_cum = dec.take_varint()?;
    let n = dec.take_varint()? as usize;
    let mut throttled = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let t_query = QueryId(dec.take_varint()?);
        let tag = dec.take_u8()?;
        let reason =
            ThrottleReason::from_tag(tag).ok_or(DecodeError::BadTag("throttle reason", tag))?;
        throttled.push(Throttled {
            query: t_query,
            reason,
            stats: ThrottleStats {
                tuples: dec.take_varint()?,
                ops: dec.take_varint()?,
                bytes: dec.take_varint()?,
                trips: take_u32(dec)?,
            },
        });
    }
    // Two bodies, tags 1 and 2; tag 0 (version 7's row-by-row body) is
    // retired, not reused.
    let rows = match dec.take_u8()? {
        1 => ReportRows::Grouped(Groups::decode(dec)?),
        2 => {
            let n = dec.take_varint()? as usize;
            let mut blocks = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                // `read_wire` validates the row-count header (which the
                // receiver trusts for loss accounting) but keeps the
                // payload opaque — relays forward it without a per-value
                // parse; the frontend validates when it decodes.
                blocks.push(EncodedBlock::read_wire(dec)?);
            }
            ReportRows::RawEncoded(blocks)
        }
        t => return Err(DecodeError::BadTag("report rows", t)),
    };
    Ok(Report {
        query,
        host,
        procid,
        incarnation,
        time,
        seq,
        tuples,
        emitted_cum,
        shed_cum,
        truncated_cum,
        throttled,
        rows,
    })
}

fn encode_strs(strs: &[String], enc: &mut Encoder) {
    enc.put_varint(strs.len() as u64);
    for s in strs {
        enc.put_str(s);
    }
}

fn decode_strs(dec: &mut Decoder<'_>) -> Result<Vec<String>, DecodeError> {
    let n = dec.take_varint()? as usize;
    let mut out = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        out.push(dec.take_str()?.to_owned());
    }
    Ok(out)
}

fn agg_func_tag(f: AggFunc) -> u8 {
    match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Min => 2,
        AggFunc::Max => 3,
        AggFunc::Average => 4,
    }
}

fn decode_agg_func(tag: u8) -> Result<AggFunc, DecodeError> {
    Ok(match tag {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Min,
        3 => AggFunc::Max,
        4 => AggFunc::Average,
        t => return Err(DecodeError::BadTag("agg func", t)),
    })
}

fn bin_op_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Mod => 4,
        BinOp::Eq => 5,
        BinOp::Ne => 6,
        BinOp::Lt => 7,
        BinOp::Le => 8,
        BinOp::Gt => 9,
        BinOp::Ge => 10,
        BinOp::And => 11,
        BinOp::Or => 12,
    }
}

fn decode_bin_op(tag: u8) -> Result<BinOp, DecodeError> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Mod,
        5 => BinOp::Eq,
        6 => BinOp::Ne,
        7 => BinOp::Lt,
        8 => BinOp::Le,
        9 => BinOp::Gt,
        10 => BinOp::Ge,
        11 => BinOp::And,
        12 => BinOp::Or,
        t => return Err(DecodeError::BadTag("bin op", t)),
    })
}

fn un_op_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
    }
}

fn decode_un_op(tag: u8) -> Result<UnOp, DecodeError> {
    Ok(match tag {
        0 => UnOp::Neg,
        1 => UnOp::Not,
        t => return Err(DecodeError::BadTag("un op", t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_core::Frontend;
    use pivot_model::{Tuple, Value};

    fn q2_code() -> Arc<CompiledCode> {
        let mut fe = Frontend::new();
        fe.define("ClientProtocols", ["procName"]);
        fe.define("DataNodeMetrics.incrBytesRead", ["delta"]);
        let handle = fe
            .install(
                "From incr In DataNodeMetrics.incrBytesRead
                 Join cl In First(ClientProtocols) On cl -> incr
                 Where incr.delta > 0 && incr.delta != 13
                 GroupBy cl.procName
                 Select cl.procName, SUM(incr.delta), COUNT, AVERAGE(incr.delta)",
            )
            .expect("q2 installs");
        fe.code(&handle).expect("bytecode available")
    }

    #[test]
    fn install_command_round_trips_real_bytecode() {
        let code = q2_code();
        let bytes = encode_message(&Message::Command(Command::Install(Arc::clone(&code))));
        let back = decode_message(&bytes).expect("decodes");
        let Message::Command(Command::Install(decoded)) = back else {
            panic!("wrong message kind");
        };
        assert_eq!(*decoded, *code);
        // Decoded programs share the top-level output spec by pointer, as
        // the canonical lowered form does.
        for p in &decoded.programs {
            for inst in &p.insts {
                if let Inst::Emit { spec, .. } = inst {
                    assert!(Arc::ptr_eq(spec, &decoded.output));
                }
            }
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let code = q2_code();
        let mut bytes = encode_message(&Message::Command(Command::Install(code)));
        assert_eq!(bytes[0], PROTO_VERSION);
        bytes[0] = PROTO_VERSION + 1;
        assert!(matches!(
            decode_message(&bytes),
            Err(DecodeError::BadTag("protocol version", _))
        ));
    }

    #[test]
    fn invalid_bytecode_is_rejected_at_decode() {
        // A frame that parses but whose program references register 9 with
        // a 1-register file: validation at the trust boundary must reject
        // it before it can reach a VM.
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
        let bytes = encode_message(&Message::Command(Command::Install(Arc::new(code))));
        assert!(matches!(
            decode_message(&bytes),
            Err(DecodeError::BadTag("bytecode validation", 0))
        ));
    }

    #[test]
    fn uninstall_and_hello_round_trip() {
        for msg in [
            Message::Command(Command::Uninstall(QueryId(77))),
            Message::Hello(ProcessInfo {
                host: "host-B".into(),
                procid: 12,
                procname: "kvnode".into(),
            }),
            Message::HelloRelay(ProcessInfo {
                host: "rack-7".into(),
                procid: 1,
                procname: "pivot-relay".into(),
            }),
        ] {
            let bytes = encode_message(&msg);
            let back = decode_message(&bytes).expect("decodes");
            match (&msg, &back) {
                (
                    Message::Command(Command::Uninstall(a)),
                    Message::Command(Command::Uninstall(b)),
                ) => assert_eq!(a, b),
                (Message::Hello(a), Message::Hello(b)) => assert_eq!(a, b),
                (Message::HelloRelay(a), Message::HelloRelay(b)) => assert_eq!(a, b),
                other => panic!("mismatched kinds: {other:?}"),
            }
        }
    }

    #[test]
    fn hello_and_hello_relay_are_distinct_frames() {
        // A relay registration must never be mistaken for a leaf agent's:
        // the tiers are counted separately and version skew between them
        // is caught by the version byte, not the registration kind.
        let info = ProcessInfo {
            host: "rack-7".into(),
            procid: 1,
            procname: "pivot-relay".into(),
        };
        let agent = encode_message(&Message::Hello(info.clone()));
        let relay = encode_message(&Message::HelloRelay(info));
        assert_ne!(agent, relay);
        assert!(matches!(
            decode_message(&relay).expect("decodes"),
            Message::HelloRelay(_)
        ));
    }

    #[test]
    fn reports_round_trip_streaming_and_grouped() {
        let raw = Report {
            query: QueryId(5),
            host: "host-A".into(),
            procid: 31,
            incarnation: 4,
            time: 123_456_789,
            seq: 17,
            tuples: 2,
            emitted_cum: 2_000_001,
            shed_cum: 40,
            truncated_cum: 7,
            throttled: vec![
                Throttled {
                    query: QueryId(5),
                    reason: ThrottleReason::Bytes,
                    stats: ThrottleStats {
                        tuples: 100,
                        ops: 6_400,
                        bytes: 1_200,
                        trips: 3,
                    },
                },
                Throttled {
                    query: QueryId(5),
                    reason: ThrottleReason::Ops,
                    stats: ThrottleStats::default(),
                },
            ],
            rows: ReportRows::RawEncoded(vec![EncodedBlock::encode(&[
                Tuple::from_iter([Value::str("x"), Value::I64(-4)]),
                Tuple::empty(),
            ])]),
        };
        let grouped = Report {
            query: QueryId(6),
            host: "host-A".into(),
            procid: u64::MAX,
            incarnation: 1,
            time: 1,
            seq: 0,
            tuples: 1,
            emitted_cum: 1,
            shed_cum: 0,
            truncated_cum: 0,
            throttled: vec![],
            rows: ReportRows::Grouped(Groups::from_flat(
                1,
                vec![Value::str("client-1")],
                vec![AggFunc::Sum.init(), AggFunc::Count.init()],
            )),
        };
        for report in [raw, encoded_rows_report(), grouped] {
            let bytes = encode_message(&Message::Report(report.clone()));
            let Message::Report(back) = decode_message(&bytes).expect("decodes") else {
                panic!("wrong kind");
            };
            // Equal blocks are equal bytes: the wire carries them
            // untouched (relays forward without re-encoding), and the
            // frontend-side materialization recovers every tuple.
            assert_eq!(back, report);
            if let ReportRows::RawEncoded(blocks) = &back.rows {
                let rows: Vec<Tuple> = blocks
                    .iter()
                    .flat_map(|b| b.decode().expect("block decodes"))
                    .collect();
                assert_eq!(rows.len() as u64, report.tuples);
            }
        }
    }

    #[test]
    fn set_budget_round_trips() {
        let budget = QueryBudget {
            tuples_per_window: 10_240,
            ops_per_window: 655_360,
            bytes_per_window: 122_880,
            window_ns: 1_000_000_000,
            backoff_base_windows: 2,
            max_backoff_doublings: 5,
        };
        let bytes = encode_message(&Message::Command(Command::SetBudget(QueryId(3), budget)));
        let Message::Command(Command::SetBudget(id, back)) =
            decode_message(&bytes).expect("decodes")
        else {
            panic!("wrong kind");
        };
        assert_eq!(id, QueryId(3));
        assert_eq!(back, budget);
        // Unlimited budgets survive the varint codec (u64::MAX rates).
        let bytes = encode_message(&Message::Command(Command::SetBudget(
            QueryId(4),
            QueryBudget::unlimited(),
        )));
        let Message::Command(Command::SetBudget(_, back)) =
            decode_message(&bytes).expect("decodes")
        else {
            panic!("wrong kind");
        };
        assert!(back.is_unlimited());
    }

    #[test]
    fn sync_and_goodbye_round_trip() {
        let code = q2_code();
        let budget = QueryBudget::from_static_bound(Some(96));
        let msg = Message::Sync {
            epoch: 42,
            queries: vec![Arc::clone(&code), code],
            budgets: vec![(QueryId(1), budget)],
        };
        let bytes = encode_message(&msg);
        let Message::Sync {
            epoch,
            queries,
            budgets,
        } = decode_message(&bytes).expect("decodes")
        else {
            panic!("wrong kind");
        };
        assert_eq!(epoch, 42);
        assert_eq!(queries.len(), 2);
        assert_eq!(*queries[0], *queries[1]);
        assert_eq!(budgets, vec![(QueryId(1), budget)]);

        let bytes = encode_message(&Message::Goodbye);
        assert!(matches!(decode_message(&bytes), Ok(Message::Goodbye)));
        // Goodbye carries nothing: trailing bytes are an error.
        let mut padded = encode_message(&Message::Goodbye);
        padded.push(0);
        assert!(decode_message(&padded).is_err());
    }

    #[test]
    fn sync_with_invalid_bytecode_is_rejected() {
        // A Sync frame is just as much a trust boundary as an Install:
        // splice a validation-failing program into an otherwise valid
        // Sync payload and the decoder must reject the whole frame.
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
        let msg = Message::Sync {
            epoch: 1,
            queries: vec![
                q2_code(),
                Arc::new(CompiledCode {
                    id: QueryId(9),
                    name: "bad".into(),
                    programs: vec![Arc::new(bad)],
                    output: Arc::new(OutputSpec::default()),
                }),
            ],
            budgets: vec![],
        };
        let bytes = encode_message(&msg);
        assert!(matches!(
            decode_message(&bytes),
            Err(DecodeError::BadTag("bytecode validation", 0))
        ));
    }

    /// Every adversarial pass runs over each frame kind on the wire,
    /// including the crash-recovery frames (Report envelope, Sync,
    /// Goodbye), a retro flush, a `Trigger`-carrying install and a
    /// columnar report.
    fn all_frames() -> Vec<Vec<u8>> {
        let code = q2_code();
        vec![
            encode_message(&Message::Command(Command::Install(Arc::clone(&code)))),
            encode_message(&Message::Command(Command::Uninstall(QueryId(3)))),
            encode_message(&Message::Hello(ProcessInfo {
                host: "host-C".into(),
                procid: 8,
                procname: "kvnode".into(),
            })),
            encode_message(&Message::Report(Report {
                query: QueryId(5),
                host: "host-A".into(),
                procid: 31,
                incarnation: 2,
                time: 9,
                seq: 3,
                tuples: 5,
                emitted_cum: 11,
                shed_cum: 1,
                truncated_cum: 2,
                throttled: vec![Throttled {
                    query: QueryId(5),
                    reason: ThrottleReason::Tuples,
                    stats: ThrottleStats {
                        tuples: 9,
                        ops: 81,
                        bytes: 108,
                        trips: 1,
                    },
                }],
                rows: ReportRows::Grouped(Groups::from_flat(
                    1,
                    vec![Value::str("k")],
                    vec![AggFunc::Count.init()],
                )),
            })),
            encode_message(&Message::Sync {
                epoch: 7,
                queries: vec![code],
                budgets: vec![(QueryId(1), QueryBudget::from_static_bound(Some(60)))],
            }),
            encode_message(&Message::Goodbye),
            encode_message(&Message::Command(Command::SetBudget(
                QueryId(2),
                QueryBudget::from_static_bound(Some(48)),
            ))),
            encode_message(&Message::HelloRelay(ProcessInfo {
                host: "rack-7".into(),
                procid: 1,
                procname: "pivot-relay".into(),
            })),
            // A relay-re-originated report: relay identity in the envelope,
            // blocks coalesced from several agents in the body — a
            // one-row block (row-major inside) beside a columnar one.
            encode_message(&Message::Report(Report {
                query: QueryId(5),
                host: "rack-7".into(),
                procid: 1,
                incarnation: 3,
                time: 10,
                seq: 0,
                tuples: 3,
                emitted_cum: 3,
                shed_cum: 0,
                truncated_cum: 0,
                throttled: vec![],
                rows: ReportRows::RawEncoded(vec![
                    EncodedBlock::encode(&[Tuple::from_iter([Value::str("a"), Value::I64(1)])]),
                    EncodedBlock::encode(&[
                        Tuple::from_iter([Value::str("b"), Value::I64(2)]),
                        Tuple::from_iter([Value::str("c"), Value::I64(3)]),
                    ]),
                ]),
            })),
            // A batched flush: raw rows pre-encoded as columnar blocks.
            encode_message(&Message::Report(encoded_rows_report())),
            // A hindsight flush and a Trigger-carrying install, so the
            // truncation and skew sweeps cover them.
            encode_message(&Message::Retro(retro_frame())),
            encode_message(&Message::Command(Command::Install(trigger_code()))),
        ]
    }

    /// A compiled query whose advice carries a `Trigger` op (bytecode
    /// inst tag 5).
    fn trigger_code() -> Arc<CompiledCode> {
        let mut fe = Frontend::new();
        fe.define("DataNodeMetrics.incrBytesRead", ["delta"]);
        let handle = fe
            .install(
                "From incr In DataNodeMetrics.incrBytesRead \
                 Where incr.delta > 90 Trigger Select incr.delta",
            )
            .expect("trigger query installs");
        let code = fe.code(&handle).expect("bytecode available");
        assert!(
            code.programs.iter().any(|p| p.triggers()),
            "the fixture query lowers to a Trigger op"
        );
        code
    }

    /// A hindsight flush shaped like a real agent's: two ring events
    /// sharing one name list, plus the retro loss envelope.
    fn retro_frame() -> pivot_core::RetroReport {
        let names: Arc<[Arc<str>]> = Arc::new(["op".into(), "bytes".into()]);
        pivot_core::RetroReport {
            host: "host-A".into(),
            procid: 31,
            incarnation: 2,
            time: 99,
            seq: 4,
            query: QueryId(5),
            kind: pivot_core::TriggerKind::Advice,
            request: 17,
            events: (0..2)
                .map(|i| RetroEvent {
                    tracepoint: Value::str("KvShard.execute"),
                    time: 90 + i,
                    request: 17,
                    names: Arc::clone(&names),
                    values: vec![Value::str("put"), Value::U64(512 + i)],
                })
                .collect(),
            recorded_cum: 40,
            sampled_out_cum: 6,
            shed_cum: 1,
        }
    }

    /// A streaming report whose rows are already in the columnar block
    /// encoding (rows tag 2), shaped like a batched agent flush.
    fn encoded_rows_report() -> Report {
        let rows: Vec<Tuple> = (0..64)
            .map(|i| Tuple::from_iter([Value::str("GET"), Value::U64(i), Value::U64(512)]))
            .collect();
        Report {
            query: QueryId(5),
            host: "host-B".into(),
            procid: 12,
            incarnation: 1,
            time: 20,
            seq: 4,
            tuples: 64,
            emitted_cum: 64,
            shed_cum: 0,
            truncated_cum: 0,
            throttled: vec![],
            rows: ReportRows::RawEncoded(vec![EncodedBlock::encode(&rows)]),
        }
    }

    #[test]
    fn every_frame_kind_rejects_version_skew() {
        // Exactly one version byte is spoken. Every other one — older,
        // newer, zero, 0xFF — fails loudly on every frame kind, including
        // the retro flush, the Trigger-carrying install and the columnar
        // report, instead of misparsing or being quietly down-read.
        for bytes in all_frames() {
            assert_eq!(bytes[0], PROTO_VERSION);
            assert!(decode_message(&bytes).is_ok());
            for skew in (0..=u8::MAX).filter(|v| *v != PROTO_VERSION) {
                let mut mutated = bytes.clone();
                mutated[0] = skew;
                assert!(
                    matches!(
                        decode_message(&mutated),
                        Err(DecodeError::BadTag("protocol version", v)) if v == skew
                    ),
                    "version byte {skew} must be refused"
                );
            }
        }
    }

    /// FNV-1a (64-bit): enough to pin bytes without a dependency.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn wire_bytes_match_the_v8_golden() {
        // `(len, fnv1a)` of every frame in `all_frames()` as the commit
        // that introduced version 8 encoded it: a version-8 capture taken
        // by any build since then decodes today. A deliberate layout
        // change bumps `PROTO_VERSION` and regenerates this table.
        const GOLDEN: [(usize, u64); 12] = [
            (250, 0xb990_78d5_1b41_55f7),
            (3, 0x1e92_1b18_9349_59a4),
            (17, 0x3788_595f_1e7f_8c68),
            (34, 0xb335_1239_aa44_c748),
            (269, 0x5b9f_d4b1_f4e2_dcfe),
            (2, 0x084d_b307_b502_80b6),
            (18, 0x58ab_3b55_e5e2_130d),
            (22, 0xb0e6_c68d_542c_c6e3),
            (44, 0xe8b8_f0c4_0640_6899),
            (104, 0xc1a4_8aee_09a0_6a2f),
            (94, 0x33f5_2956_be21_f13a),
            (107, 0x831d_e682_9c3d_3c15),
        ];
        let got: Vec<(usize, u64)> = all_frames().iter().map(|f| (f.len(), fnv1a(f))).collect();
        assert_eq!(got, GOLDEN);
    }

    #[test]
    fn retro_report_round_trips() {
        let report = retro_frame();
        let bytes = encode_message(&Message::Retro(report.clone()));
        let Message::Retro(back) = decode_message(&bytes).expect("decodes") else {
            panic!("wrong kind");
        };
        assert_eq!(back, report);
    }

    #[test]
    fn corrupt_block_payload_fails_at_materialization_not_wire() {
        // The wire decoder validates only the block header (row count);
        // the payload stays opaque so relays can forward without parsing.
        // Corruption inside the payload must therefore pass the wire and
        // fail gracefully — error, never panic — when the frontend
        // materializes. Sweep every payload byte with a bit flip.
        let rows: Vec<Tuple> = (0..48)
            .map(|i| Tuple::from_iter([Value::U64(i), Value::str("op")]))
            .collect();
        let block = EncodedBlock::encode(&rows);
        let mut enc = Encoder::new();
        block.write_wire(&mut enc);
        let wire = enc.finish();
        for pos in 0..wire.len() {
            let mut mutated = wire.clone();
            mutated[pos] ^= 0x40;
            let mut dec = Decoder::new(&mutated);
            let Ok(back) = EncodedBlock::read_wire(&mut dec) else {
                continue; // header corruption caught at the wire
            };
            // Materialization either errors or yields some rows; a
            // corrupt RLE run must never read past the payload.
            let _ = back.decode();
        }
    }

    #[test]
    fn truncations_error_not_panic() {
        for bytes in all_frames() {
            for cut in 0..bytes.len() {
                assert!(
                    decode_message(&bytes[..cut]).is_err(),
                    "cut at {cut} of {} decoded",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        for bytes in all_frames() {
            for pos in 0..bytes.len() {
                let mut mutated = bytes.clone();
                mutated[pos] ^= 0x55;
                // Must not panic; decoding may fail or (rarely) produce a
                // different-but-valid message. If it decodes, the bytecode
                // inside already passed validation.
                let _ = decode_message(&mutated);
            }
        }
    }
}
