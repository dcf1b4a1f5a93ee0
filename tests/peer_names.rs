//! What the names a peer sends cost the process that decodes them.
//!
//! Export names arrive as text: in an `Install`, the names its `Observe`s
//! read; in a hindsight (`Retro`) frame, the names of each event's exports.
//! Decoding makes each an `Arc<str>` owned by the decoded message, and
//! nothing outlives the message: a peer that sends a new name in every
//! frame costs memory for as long as the frames are held, not for the life
//! of the process. Within one hindsight frame, events that export the same
//! names share one decoded list. This binary pins both with the counting
//! allocator of `support/counting_alloc.rs`.

use std::sync::Arc;

use pivot_tracing::baggage::QueryId;
use pivot_tracing::core::{Command, Frontend, RetroEvent, RetroReport, TriggerKind};
use pivot_tracing::live::proto::{decode_message, encode_message, Message};
use pivot_tracing::model::Value;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, retained};

/// Stands for the digits of a name in a template frame.
const DIGITS: &str = "zqzqzq";

/// The name every frame below is cut from: longer than a `Value` holds
/// inline, with `DIGITS` where a cut frame puts its number.
fn template_name() -> String {
    format!("KvShard.exportNumber{DIGITS}")
}

/// `template` with each name's digits made `i`'s: a frame of new names,
/// built without this process ever holding them.
fn renamed(template: &[u8], i: usize) -> Vec<u8> {
    let mut frame = template.to_vec();
    let digits = format!("{i:06}");
    let mut at = 0;
    while let Some(p) = frame[at..]
        .windows(DIGITS.len())
        .position(|w| w == DIGITS.as_bytes())
    {
        frame[at + p..at + p + DIGITS.len()].copy_from_slice(digits.as_bytes());
        at += p + DIGITS.len();
    }
    frame
}

/// A hindsight flush of `events` events, each exporting `names`.
fn retro(names: [&str; 2], events: u64) -> Vec<u8> {
    let names: Arc<[Arc<str>]> = names.map(Arc::from).into();
    encode_message(&Message::Retro(RetroReport {
        host: "host-A".into(),
        procid: 7,
        incarnation: 1,
        time: 99,
        seq: 0,
        query: QueryId(5),
        kind: TriggerKind::Fault,
        request: 17,
        events: (0..events)
            .map(|i| RetroEvent {
                tracepoint: Value::str("KvShard.execute"),
                time: i,
                request: 17,
                names: Arc::clone(&names),
                values: vec![Value::str("put"), Value::U64(i)],
            })
            .collect(),
        recorded_cum: events,
        sampled_out_cum: 0,
        shed_cum: 0,
    }))
}

/// An `Install` of a query over a tracepoint and an export named `name`.
fn install(name: &str) -> Vec<u8> {
    let mut fe = Frontend::new();
    fe.define(&format!("{name}Point"), [name]);
    let text = format!("From e In {name}Point GroupBy e.{name} Select e.{name}, COUNT");
    let handle = fe.install(&text).expect("a one-export query installs");
    let code = fe.code(&handle).expect("installed queries have code");
    encode_message(&Message::Command(Command::Install(code)))
}

fn decode_and_drop(frames: &[Vec<u8>]) {
    for frame in frames {
        drop(decode_message(frame).expect("a well-formed frame decodes"));
    }
}

#[test]
fn a_peer_s_names_are_freed_with_the_frames_that_carried_them() {
    let name = template_name();
    let retro = retro(["op", &name], 4);
    let install = install(&name);
    let retros: Vec<Vec<u8>> = (0..256).map(|i| renamed(&retro, i)).collect();
    let installs: Vec<Vec<u8>> = (0..64).map(|i| renamed(&install, i)).collect();
    decode_and_drop(&[retro, install]);
    for (what, frames) in [("retro", &retros), ("install", &installs)] {
        let (kept, ()) = retained(|| decode_and_drop(frames));
        assert_eq!(
            kept,
            0,
            "{what}: {} frames of new names left bytes behind",
            frames.len()
        );
    }
}

#[test]
fn events_of_one_shape_share_one_decoded_name_list() {
    let name = template_name();
    let decode = |events: u64| -> (u64, RetroReport) {
        let frame = retro(["op", &name], events);
        let (n, decoded) = allocations(|| decode_message(&frame));
        let Ok(Message::Retro(report)) = decoded else {
            panic!("a retro frame decodes as one");
        };
        (n, report)
    };
    let (one, _) = decode(1);
    let (hundred, report) = decode(100);
    let first = &report.events[0].names;
    assert!(
        report.events.iter().all(|e| Arc::ptr_eq(&e.names, first)),
        "100 events of one shape decode into more than one name list"
    );
    // The list (its slice and its two names) is allocated once; each
    // further event costs its values' vector alone.
    assert_eq!(hundred, one + 99, "allocations decoding 1 and 100 events");
}
