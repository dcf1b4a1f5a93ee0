//! A live, multi-threaded demo service: a sharded in-memory KV store.
//!
//! This is the workload Pivot Tracing queries run against in live mode —
//! the analog of the simulated HDFS/HBase stack, but on real threads and
//! real sockets. A [`KvServer`] accepts TCP connections; each connection
//! gets a handler thread that routes requests to one of N shard worker
//! threads over [instrumented channels](crate::thread::channel), so a
//! request's baggage branches at dispatch and merges back with the reply.
//! [`KvClient`] carries the calling thread's baggage in every request
//! header and adopts the server's returned baggage, closing the causal
//! loop across the socket.
//!
//! Four tracepoints instrument the request path:
//!
//! | tracepoint               | exports                      |
//! |--------------------------|------------------------------|
//! | `KvClient.issueRequest`  | `client`, `op`, `key`        |
//! | `KvServer.receiveRequest`| `op`, `key`, `shard`         |
//! | `KvShard.execute`        | `shard`, `op`, `bytes`, `hit`|
//! | `KvServer.sendResponse`  | `bytes`                      |
//!
//! With those, the paper's Q1-shaped query — per-client bytes touched at
//! the shard level — is expressible end to end:
//!
//! ```text
//! From exec In KvShard.execute
//! Join req In First(KvClient.issueRequest) On req -> exec
//! GroupBy req.client
//! Select req.client, SUM(exec.bytes)
//! ```

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pivot_baggage::Baggage;
use pivot_core::{Agent, Frontend};
use pivot_itc::{DecodeError, Decoder, Encoder};
use pivot_model::Value;

use crate::frame::{read_frame, write_frame};
use crate::thread::{channel, Receiver, Sender};
use crate::{ctx, tracepoint};

/// Registers the KV service's tracepoints with a frontend so queries can
/// name them.
pub fn define_kv_tracepoints(frontend: &mut Frontend) {
    frontend.define("KvClient.issueRequest", ["client", "op", "key"]);
    frontend.define("KvServer.receiveRequest", ["op", "key", "shard"]);
    frontend.define("KvShard.execute", ["shard", "op", "bytes", "hit"]);
    frontend.define("KvServer.sendResponse", ["bytes"]);
}

/// A KV operation on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Read a key.
    Get { key: String },
    /// Write a key.
    Put { key: String, value: Vec<u8> },
}

impl KvOp {
    fn key(&self) -> &str {
        match self {
            KvOp::Get { key } | KvOp::Put { key, .. } => key,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            KvOp::Get { .. } => "get",
            KvOp::Put { .. } => "put",
        }
    }
}

/// One response: `value` is the stored bytes for a hit `Get`, empty
/// otherwise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvResponse {
    /// Whether a `Get` found the key (`Put` always reports `true`).
    pub hit: bool,
    /// The value read, if any.
    pub value: Vec<u8>,
}

fn encode_request(bag: &[u8], op: &KvOp) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_bytes(bag);
    match op {
        KvOp::Get { key } => {
            enc.put_u8(0);
            enc.put_str(key);
        }
        KvOp::Put { key, value } => {
            enc.put_u8(1);
            enc.put_str(key);
            enc.put_bytes(value);
        }
    }
    enc.finish()
}

fn decode_request(payload: &[u8]) -> Result<(Baggage, KvOp), DecodeError> {
    let mut dec = Decoder::new(payload);
    // Transport boundary: decode strictly so corruption surfaces here
    // instead of silently dropping the request's causal context.
    let bag = Baggage::try_from_bytes(dec.take_bytes()?)?;
    let op = match dec.take_u8()? {
        0 => KvOp::Get {
            key: dec.take_str()?.to_owned(),
        },
        1 => KvOp::Put {
            key: dec.take_str()?.to_owned(),
            value: dec.take_bytes()?.to_vec(),
        },
        other => return Err(DecodeError::BadTag("kv op", other)),
    };
    if !dec.is_empty() {
        return Err(DecodeError::BadTag("kv request trailing bytes", 0));
    }
    Ok((bag, op))
}

fn encode_response(bag: &[u8], resp: &KvResponse) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_bytes(bag);
    enc.put_u8(resp.hit as u8);
    enc.put_bytes(&resp.value);
    enc.finish()
}

fn decode_response(payload: &[u8]) -> Result<(Baggage, KvResponse), DecodeError> {
    let mut dec = Decoder::new(payload);
    let bag = Baggage::try_from_bytes(dec.take_bytes()?)?;
    let hit = match dec.take_u8()? {
        0 => false,
        1 => true,
        other => return Err(DecodeError::BadTag("kv hit flag", other)),
    };
    let value = dec.take_bytes()?.to_vec();
    if !dec.is_empty() {
        return Err(DecodeError::BadTag("kv response trailing bytes", 0));
    }
    Ok((bag, KvResponse { hit, value }))
}

/// One unit of work handed to a shard worker. The reply channel is
/// instrumented, so the worker's baggage flows back to the handler.
struct Job {
    op: KvOp,
    reply: Sender<KvResponse>,
}

/// The sharded KV server.
///
/// `num_shards` worker threads each own a private `HashMap` (no locks on
/// the data path); connection handler threads hash keys onto shards and
/// dispatch over instrumented channels.
pub struct KvServer {
    addr: SocketAddr,
    agent: Arc<Agent>,
    stop: Arc<AtomicBool>,
    ops: Arc<AtomicU64>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl KvServer {
    /// Binds a loopback listener and starts `num_shards` shard workers
    /// plus the accept loop. Tracepoints fire against `agent`.
    pub fn start(num_shards: usize, agent: Arc<Agent>) -> io::Result<KvServer> {
        assert!(num_shards > 0, "need at least one shard");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let ops = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();

        let mut shard_txs = Vec::with_capacity(num_shards);
        for shard_id in 0..num_shards {
            let (tx, rx) = channel::<Job>();
            shard_txs.push(tx);
            let agent = Arc::clone(&agent);
            threads.push(std::thread::spawn(move || {
                shard_worker(shard_id, &rx, &agent);
            }));
        }

        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_agent = Arc::clone(&agent);
        let accept_stop = Arc::clone(&stop);
        let accept_ops = Arc::clone(&ops);
        let accept_conns = Arc::clone(&conns);
        threads.push(std::thread::spawn(move || {
            // Handler threads detach; they exit when their connection
            // closes (client EOF, or `shutdown` severing the registered
            // stream), and shard workers exit once the last handler (and
            // this accept loop) drops the senders.
            loop {
                let Ok((conn, _)) = listener.accept() else {
                    break;
                };
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let _ = conn.set_nodelay(true);
                if let Ok(clone) = conn.try_clone() {
                    accept_conns.lock().push(clone);
                }
                let agent = Arc::clone(&accept_agent);
                let txs = shard_txs.clone();
                let ops = Arc::clone(&accept_ops);
                std::thread::spawn(move || connection_handler(conn, &txs, &agent, &ops));
            }
        }));

        Ok(KvServer {
            addr,
            agent,
            stop,
            ops,
            conns,
            threads: Mutex::new(threads),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The agent this server's tracepoints fire against.
    pub fn agent(&self) -> &Arc<Agent> {
        &self.agent
    }

    /// Requests served so far.
    pub fn ops_served(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Stops the accept loop, severs open client connections (so their
    /// handler threads release the shard channels), and joins the shard
    /// workers.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for conn in self.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for KvServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// FNV-1a; stable shard placement without pulling in a hasher dep.
fn shard_of(key: &str, num_shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % num_shards as u64) as usize
}

fn shard_worker(shard_id: usize, rx: &Receiver<Job>, agent: &Agent) {
    let mut store: HashMap<String, Vec<u8>> = HashMap::new();
    loop {
        // Fresh baggage per job: the channel recv below merges the
        // request's branch into it, and dropping the scope discards it so
        // unrelated requests never share causal state.
        let scope = ctx::attach(Baggage::new());
        let Ok(job) = rx.recv() else {
            drop(scope);
            break;
        };
        let (hit, bytes, value) = match &job.op {
            KvOp::Get { key } => match store.get(key) {
                Some(v) => (true, v.len(), v.clone()),
                None => (false, 0, Vec::new()),
            },
            KvOp::Put { key, value } => {
                let n = value.len();
                store.insert(key.clone(), value.clone());
                (true, n, Vec::new())
            }
        };
        tracepoint(
            agent,
            "KvShard.execute",
            &[
                ("shard", Value::U64(shard_id as u64)),
                ("op", Value::str(job.op.name())),
                ("bytes", Value::U64(bytes as u64)),
                ("hit", Value::Bool(hit)),
            ],
        );
        // Reply over the instrumented channel: our packed tuples branch
        // back to the handler and on to the client.
        let _ = job.reply.send(KvResponse { hit, value });
        drop(scope);
    }
}

fn connection_handler(
    mut conn: TcpStream,
    shard_txs: &[Sender<Job>],
    agent: &Agent,
    ops: &AtomicU64,
) {
    let Ok(mut write_half) = conn.try_clone() else {
        return;
    };
    while let Ok(payload) = read_frame(&mut conn) {
        // A malformed request is a protocol fault: close the connection
        // rather than guess at the request's intent.
        let Ok((bag, op)) = decode_request(&payload) else {
            break;
        };
        let scope = ctx::attach(bag);
        let shard = shard_of(op.key(), shard_txs.len());
        tracepoint(
            agent,
            "KvServer.receiveRequest",
            &[
                ("op", Value::str(op.name())),
                ("key", Value::str(op.key())),
                ("shard", Value::U64(shard as u64)),
            ],
        );
        let (reply_tx, reply_rx) = channel::<KvResponse>();
        let dispatched = shard_txs[shard]
            .send(Job {
                op,
                reply: reply_tx,
            })
            .is_ok();
        let resp = if dispatched {
            // recv joins the shard worker's baggage back in.
            reply_rx.recv().ok()
        } else {
            None
        };
        let resp = resp.unwrap_or(KvResponse {
            hit: false,
            value: Vec::new(),
        });
        tracepoint(
            agent,
            "KvServer.sendResponse",
            &[("bytes", Value::U64(resp.value.len() as u64))],
        );
        ops.fetch_add(1, Ordering::Relaxed);
        let mut bag = scope.detach();
        let out = encode_response(&bag.to_bytes(), &resp);
        if write_frame(&mut write_half, &out).is_err() {
            break;
        }
    }
    let _ = conn.shutdown(Shutdown::Both);
}

/// A blocking KV client. Each request carries the calling thread's
/// current baggage; the response's baggage (extended by the server-side
/// tracepoints) is adopted back into the thread.
pub struct KvClient {
    conn: TcpStream,
}

impl KvClient {
    /// Connects to a [`KvServer`].
    pub fn connect(addr: SocketAddr) -> io::Result<KvClient> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        Ok(KvClient { conn })
    }

    fn round_trip(&mut self, op: &KvOp) -> io::Result<KvResponse> {
        let bag = ctx::snapshot_bytes();
        write_frame(&mut self.conn, &encode_request(&bag, op))?;
        let payload = read_frame(&mut self.conn)?;
        let (resp_bag, resp) = decode_response(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        // The server's execution causally extends ours; its baggage
        // supersedes the snapshot we sent.
        ctx::merge(resp_bag);
        Ok(resp)
    }

    /// Reads `key`.
    pub fn get(&mut self, key: &str) -> io::Result<KvResponse> {
        self.round_trip(&KvOp::Get {
            key: key.to_owned(),
        })
    }

    /// Writes `key` = `value`.
    pub fn put(&mut self, key: &str, value: &[u8]) -> io::Result<KvResponse> {
        self.round_trip(&KvOp::Put {
            key: key.to_owned(),
            value: value.to_vec(),
        })
    }
}

/// A client pool driving steady load at a [`KvServer`], for demos, tests,
/// and the live benchmark.
///
/// Each pool thread opens its own connection and loops get/put with a
/// fresh baggage scope per operation, firing `KvClient.issueRequest`
/// against `agent` (the client process's agent) with a per-thread
/// `client` export — the paper's Q1 group-by key.
pub struct LoadGen {
    stop: Arc<AtomicBool>,
    ops: Arc<AtomicU64>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl LoadGen {
    /// Starts `num_clients` load threads against `addr`.
    pub fn start(addr: SocketAddr, num_clients: usize, agent: Arc<Agent>) -> io::Result<LoadGen> {
        let stop = Arc::new(AtomicBool::new(false));
        let ops = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();
        for i in 0..num_clients {
            let mut client = KvClient::connect(addr)?;
            let stop = Arc::clone(&stop);
            let ops = Arc::clone(&ops);
            let agent = Arc::clone(&agent);
            let name = format!("client-{i}");
            threads.push(std::thread::spawn(move || {
                let mut n: u64 = 0;
                while !stop.load(Ordering::SeqCst) {
                    let key = format!("key-{}", n % 64);
                    let value = vec![0u8; 64 + (n % 192) as usize];
                    let scope = ctx::attach(Baggage::new());
                    let op = if n.is_multiple_of(3) { "get" } else { "put" };
                    tracepoint(
                        &agent,
                        "KvClient.issueRequest",
                        &[
                            ("client", Value::str(&name)),
                            ("op", Value::str(op)),
                            ("key", Value::str(&key)),
                        ],
                    );
                    let result = if op == "get" {
                        client.get(&key)
                    } else {
                        client.put(&key, &value)
                    };
                    drop(scope);
                    if result.is_err() {
                        break;
                    }
                    ops.fetch_add(1, Ordering::Relaxed);
                    n += 1;
                }
            }));
        }
        Ok(LoadGen {
            stop,
            ops,
            threads: Mutex::new(threads),
        })
    }

    /// Operations completed across all load threads.
    pub fn ops_done(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Stops the load threads and waits for them.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for LoadGen {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_core::ProcessInfo;
    use std::time::Duration;

    fn test_agent(name: &str) -> Arc<Agent> {
        Arc::new(Agent::new(ProcessInfo {
            host: "localhost".into(),
            procid: 1,
            procname: name.into(),
        }))
    }

    #[test]
    fn get_put_round_trip() {
        let server = KvServer::start(2, test_agent("kvserver")).expect("server starts");
        let mut client = KvClient::connect(server.addr()).expect("client connects");
        assert!(!client.get("missing").expect("get ok").hit);
        client.put("k", b"hello").expect("put ok");
        let got = client.get("k").expect("get ok");
        assert!(got.hit);
        assert_eq!(got.value, b"hello");
        assert_eq!(server.ops_served(), 3);
        server.shutdown();
    }

    #[test]
    fn keys_spread_across_shards_consistently() {
        for key in ["a", "b", "longer-key", ""] {
            let s = shard_of(key, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(key, 4), "placement is stable");
        }
    }

    #[test]
    fn malformed_request_closes_connection() {
        let server = KvServer::start(1, test_agent("kvserver")).expect("server starts");
        let mut conn = TcpStream::connect(server.addr()).expect("connects");
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout set");
        write_frame(&mut conn, &[0xff, 0xff, 0xff, 0xff]).expect("write ok");
        assert!(
            read_frame(&mut conn).is_err(),
            "server closes rather than answering garbage"
        );
        server.shutdown();
    }

    #[test]
    fn hostile_baggage_header_closes_the_connection_not_the_process() {
        let server = KvServer::start(1, test_agent("kvserver")).expect("server starts");
        // 100 000 nested ITC identity nodes in a 100 KB header (far under
        // `MAX_FRAME`), and an event tree whose counters overflow: both
        // used to take the handler thread down — the first with it the
        // process, by stack overflow — instead of failing the decode.
        let mut nested = vec![1u8, 1];
        nested.extend(std::iter::repeat_n(2u8, 100_000));
        let overflowing = [
            0x01, 0x01, 0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
            0x00, 0x01, 0x00, 0x01, 0x00,
        ];
        for header in [&nested[..], &overflowing[..]] {
            let request = encode_request(header, &KvOp::Get { key: "k".into() });
            assert!(decode_request(&request).is_err());
            let mut conn = TcpStream::connect(server.addr()).expect("connects");
            conn.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout set");
            write_frame(&mut conn, &request).expect("write ok");
            assert!(
                read_frame(&mut conn).is_err(),
                "server closes rather than answering a hostile header"
            );
        }
        // The server is still there for the next client.
        let mut client = KvClient::connect(server.addr()).expect("client connects");
        assert!(!client.get("k").expect("get ok").hit);
        server.shutdown();
    }

    #[test]
    fn load_gen_drives_traffic() {
        let server = KvServer::start(2, test_agent("kvserver")).expect("server starts");
        let gen = LoadGen::start(server.addr(), 3, test_agent("kvclient")).expect("load starts");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while gen.ops_done() < 50 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        gen.stop();
        assert!(gen.ops_done() >= 50, "load generator made progress");
        server.shutdown();
    }
}
