//! The bus protocol's envelope.
//!
//! One frame payload is `version byte, tag byte, body`. Nine tags carry
//! the seven [`Message`] kinds: client → server `Hello` (0), `Report` (3),
//! `HelloRelay` (7) and `Retro` (8); server → client the three
//! [`Command`]s — `Install` (1), `Uninstall` (2), `SetBudget` (6) — and
//! `Sync` (4); `Goodbye` (5) either way.
//!
//! Peers are built from one tree and speak exactly [`PROTO_VERSION`]: any
//! other version byte is a decode error on every frame kind, so skew fails
//! loudly instead of misparsing. A frame with bytes after its body is
//! refused too.
//!
//! Each body is its type's own codec, in the crate that defines the type:
//! [`CompiledCode`] (which validates every program it decodes, so no
//! decoded bytecode reaches a VM unchecked), [`QueryBudget`],
//! [`ProcessInfo`], [`Report`] and [`RetroReport`]. All of them write the
//! LEB128 encoding the baggage wire format uses, and malformed input
//! returns [`DecodeError`], never panics.

use std::sync::Arc;

use pivot_baggage::QueryId;
use pivot_core::{Command, ProcessInfo, QueryBudget, Report, RetroReport};
use pivot_itc::{DecodeError, Decoder, Encoder};
use pivot_query::CompiledCode;

/// The one wire-protocol version. [`decode_message`] rejects every other
/// version byte, and nothing else in the crate looks at it: no peer keeps
/// a record of what the other side speaks. Version 8 is 7 by subtraction,
/// and the two never had to interoperate, so 7 is refused like any other
/// byte. When a later version does have to
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
            info.encode(&mut enc);
        }
        Message::Command(Command::Install(code)) => {
            enc.put_u8(1);
            code.encode(&mut enc);
        }
        Message::Command(Command::Uninstall(id)) => {
            enc.put_u8(2);
            enc.put_varint(id.0);
        }
        Message::Report(report) => {
            enc.put_u8(3);
            report.encode(&mut enc);
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
                code.encode(&mut enc);
            }
            enc.put_varint(budgets.len() as u64);
            for (id, budget) in budgets {
                enc.put_varint(id.0);
                budget.encode(&mut enc);
            }
        }
        Message::Goodbye => enc.put_u8(5),
        Message::Command(Command::SetBudget(id, budget)) => {
            enc.put_u8(6);
            enc.put_varint(id.0);
            budget.encode(&mut enc);
        }
        Message::HelloRelay(info) => {
            enc.put_u8(7);
            info.encode(&mut enc);
        }
        Message::Retro(report) => {
            enc.put_u8(8);
            report.encode(&mut enc);
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
        0 => Message::Hello(ProcessInfo::decode(&mut dec)?),
        1 => Message::Command(Command::Install(Arc::new(CompiledCode::decode(&mut dec)?))),
        2 => Message::Command(Command::Uninstall(QueryId(dec.take_varint()?))),
        3 => Message::Report(Report::decode(&mut dec)?),
        4 => {
            // Each embedded program passes the same validation as a
            // standalone Install: a hostile Sync is no more powerful.
            Message::Sync {
                epoch: dec.take_varint()?,
                queries: dec.take_list(64, |dec| CompiledCode::decode(dec).map(Arc::new))?,
                budgets: dec.take_list(64, |dec| {
                    Ok((QueryId(dec.take_varint()?), QueryBudget::decode(dec)?))
                })?,
            }
        }
        5 => Message::Goodbye,
        6 => {
            let id = QueryId(dec.take_varint()?);
            Message::Command(Command::SetBudget(id, QueryBudget::decode(&mut dec)?))
        }
        7 => Message::HelloRelay(ProcessInfo::decode(&mut dec)?),
        8 => Message::Retro(RetroReport::decode(&mut dec)?),
        t => return Err(DecodeError::BadTag("message", t)),
    };
    if !dec.is_empty() {
        return Err(DecodeError::BadTag("message trailing bytes", 0));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_query::bytecode::{EInst, ExprProg, Inst};
    use pivot_query::{AdviceByteCode, OutputSpec};

    #[test]
    fn a_program_that_fails_validation_is_refused_in_install_and_sync() {
        // A frame that parses but whose program references register 9 with
        // a 1-register file: validation at the trust boundary must reject
        // it before it can reach a VM, whichever frame carries it.
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
        let code = Arc::new(CompiledCode {
            id: QueryId(9),
            name: "bad".into(),
            programs: vec![Arc::new(bad)],
            output: Arc::new(OutputSpec::default()),
        });
        let mut ok = pivot_core::Frontend::new();
        ok.define("tp", ["v"]);
        let good = ok.install("From e In tp Select e.v").expect("installs");
        let sync = Message::Sync {
            epoch: 1,
            queries: vec![ok.code(&good).expect("bytecode"), Arc::clone(&code)],
            budgets: vec![],
        };
        for msg in [Message::Command(Command::Install(code)), sync] {
            assert_eq!(
                decode_message(&encode_message(&msg)).err(),
                Some(DecodeError::BadTag("bytecode validation", 0))
            );
        }
    }
}
