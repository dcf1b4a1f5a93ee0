//! Version skew on a live connection: every build speaks exactly
//! [`PROTO_VERSION`], and a frame stamped with anything else ends the
//! connection as *lost* on whichever side reads it — the server hangs up
//! and tallies the peer, the client goes `Reconnecting` — instead of the
//! frame being misparsed or quietly skipped. (`wire_hostile.rs`'s skew
//! sweep pins the decoder for all 255 foreign version bytes on every frame
//! of the corpus; this pins what the two socket loops do with that error.)

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use pivot_core::ProcessInfo;
use pivot_live::bus::{ConnStatus, LiveAgent, ReconnectPolicy, TcpBusServer};
use pivot_live::frame::{read_frame, write_frame};
use pivot_live::proto::{decode_message, encode_message, Message, PROTO_VERSION};

fn info() -> ProcessInfo {
    ProcessInfo {
        host: "skew-host".into(),
        procid: 6,
        procname: "skew-test".into(),
    }
}

/// `msg` as a build one version behind would have stamped it.
fn stamped_7(msg: &Message) -> Vec<u8> {
    let mut payload = encode_message(msg);
    assert_eq!(payload[0], PROTO_VERSION);
    payload[0] = 7;
    payload
}

#[test]
fn skewed_frames_end_the_connection_as_lost_on_both_sides() {
    // Server side: a peer registering at version 7 gets no `Sync`, only a
    // closed socket, and is counted lost — never registered, never
    // "closed orderly".
    let server = TcpBusServer::start().expect("server starts");
    let mut old_peer = TcpStream::connect(server.addr()).expect("raw peer connects");
    write_frame(&mut old_peer, &stamped_7(&Message::Hello(info()))).expect("hello writes");
    old_peer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout sets");
    let err = read_frame(&mut old_peer).expect_err("a skewed Hello is not answered");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "server hung up");
    // The server tallies before it closes the socket, so no wait is needed.
    assert_eq!((server.peers_lost(), server.peers_closed()), (1, 0));
    assert_eq!(server.agent_count(), 0);

    // Client side: a server answering `Hello` at version 7. The agent
    // drops the session instead of applying the frame or carrying on.
    let listener = TcpListener::bind("127.0.0.1:0").expect("listener binds");
    let agent = LiveAgent::connect_with(
        listener.local_addr().expect("addr"),
        info(),
        Duration::from_secs(3600), // reporter stays out of the way
        // A wide backoff so `Reconnecting` is long enough to observe.
        ReconnectPolicy {
            max_attempts: 100,
            base_delay: Duration::from_millis(400),
            max_delay: Duration::from_millis(400),
            jitter_seed: 6,
        },
    )
    .expect("agent connects");
    let (mut conn, _) = listener.accept().expect("agent dials in");
    let hello = read_frame(&mut conn).expect("hello frame");
    assert!(matches!(decode_message(&hello), Ok(Message::Hello(_))));
    let sync = Message::Sync {
        epoch: 1,
        queries: Vec::new(),
        budgets: Vec::new(),
    };
    write_frame(&mut conn, &stamped_7(&sync)).expect("sync writes");
    for _ in 0..600 {
        if agent.status() != ConnStatus::Connected {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(agent.status(), ConnStatus::Reconnecting, "session dropped");
    assert_eq!(agent.epoch(), 0, "the skewed Sync was not applied");

    agent.abort();
}
