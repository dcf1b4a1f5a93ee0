//! The TCP message bus: real-socket transport for commands and reports.
//!
//! Reproduces the paper's Figure 2 topology on actual sockets: a central
//! pub/sub endpoint ([`TcpBusServer`]) owned by the frontend process, and
//! one client connection ([`Uplink`]) per traced process that dials out,
//! registers, hands incoming weave/unweave commands to its owner, and
//! carries the owner's reports back. A [`LiveAgent`] is an uplink plus the
//! process's [`Agent`]; a relay (`pivot_relay::live`) owns the same uplink
//! toward its parent. [`LiveFrontend`] bundles a [`pivot_core::Frontend`]
//! with the server side so installing a query over TCP is one call.
//!
//! The server implements [`pivot_core::Bus`], making it interchangeable
//! with [`pivot_core::LocalBus`] and the simulated cluster.
//!
//! # Crash recovery (DESIGN.md §5e)
//!
//! Connections fail and processes die; the bus makes both *visible* and
//! *recoverable* instead of silently wrong:
//!
//! - **Orderly vs lost.** Both sides send [`Message::Goodbye`] before an
//!   intentional close. A socket that dies without one is a **lost**
//!   connection: the server counts it in [`TcpBusServer::peers_lost`], and
//!   the uplink enters [`ConnStatus::Reconnecting`] instead of quietly
//!   exiting its reader thread. A frame that does not decode (wrong
//!   version byte included) is a lost connection for whoever reads it.
//! - **Reconnect.** An [`Uplink`] retries with capped exponential backoff
//!   plus deterministic jitter ([`ReconnectPolicy`]); its owner's weave
//!   registry, aggregation buffers, and report sequence numbers all
//!   survive the reconnect, so nothing double-counts.
//! - **Epoch re-sync.** On every registration the server answers with one
//!   [`Message::Sync`] frame carrying the full installed-query set tagged
//!   with the current install epoch; [`pivot_core::Agent::sync`]
//!   reconciles the registry in one step no matter how many commands were
//!   missed while disconnected.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pivot_baggage::QueryId;
use pivot_core::frontend::InstallError;
use pivot_core::{
    Agent, Bus, Command, Drained, Frontend, ProcessInfo, QueryBudget, QueryHandle, QueryResults,
    TracepointDef,
};
use pivot_query::CompiledCode;

use crate::frame::{read_frame, write_frame, write_frames};
use crate::proto::{decode_message, encode_message, Message};

/// Polls `done` every `step` until it holds or `timeout` elapses; returns
/// whether it held.
fn poll_until(timeout: Duration, step: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if done() {
            return true;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        std::thread::sleep(step.min(left));
    }
}

/// One connected client, from the server's point of view.
struct Peer {
    writer: Mutex<TcpStream>,
    /// Set once the peer's `Hello` or `HelloRelay` arrives: its identity,
    /// and whether it is a fan-in relay rather than a leaf agent.
    registered: Mutex<Option<(ProcessInfo, bool)>>,
}

struct BusInner {
    addr: SocketAddr,
    peers: Mutex<Vec<Arc<Peer>>>,
    /// Reports and retroactive-flush reports received and not yet
    /// drained by the frontend.
    inbox: Mutex<Drained>,
    /// Currently installed queries, synced to agents that join (or
    /// rejoin) late — mirrors the simulated cluster weaving installed
    /// queries into new processes.
    installed: Mutex<Vec<Arc<CompiledCode>>>,
    /// Overload budgets currently in force, re-shipped on every `Sync` so
    /// a rejoining agent recovers its governor configuration too.
    budgets: Mutex<Vec<(QueryId, QueryBudget)>>,
    /// Install epoch: bumped on every install/uninstall broadcast and
    /// stamped on each `Sync` frame, so agents know which snapshot of the
    /// query set they have converged to.
    epoch: AtomicU64,
    /// Peers that closed with a `Goodbye` (orderly).
    peers_closed: AtomicU64,
    /// Peers whose connection died without a `Goodbye` (crash, kill,
    /// network fault, undecodable frame).
    peers_lost: AtomicU64,
    shutdown: AtomicBool,
}

impl BusInner {
    /// Writes one frame to every peer, dropping those whose connection is
    /// gone (the write error is the only signal a crashed agent leaves).
    fn send_all(&self, payload: &[u8]) {
        self.peers
            .lock()
            .retain(|peer| write_frame(&mut *peer.writer.lock(), payload).is_ok());
    }
}

/// The frontend side of the TCP bus (the paper's central pub/sub server).
pub struct TcpBusServer {
    inner: Arc<BusInner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl TcpBusServer {
    /// Binds a loopback listener on an ephemeral port and starts the
    /// accept loop.
    pub fn start() -> io::Result<TcpBusServer> {
        TcpBusServer::bind("127.0.0.1:0")
    }

    /// Binds `addr` and starts the accept loop.
    pub fn bind(addr: &str) -> io::Result<TcpBusServer> {
        let listener = TcpListener::bind(addr)?;
        let inner = Arc::new(BusInner {
            addr: listener.local_addr()?,
            peers: Mutex::new(Vec::new()),
            inbox: Mutex::new(Drained::default()),
            installed: Mutex::new(Vec::new()),
            budgets: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(0),
            peers_closed: AtomicU64::new(0),
            peers_lost: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let server = TcpBusServer {
            inner: Arc::clone(&inner),
            threads: Mutex::new(Vec::new()),
        };
        let handle = std::thread::spawn(move || accept_loop(&listener, &inner));
        server.threads.lock().push(handle);
        Ok(server)
    }

    /// The address agents should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Peers registered as a relay (`relay`) or a leaf agent (`!relay`).
    fn registered(&self, relay: bool) -> usize {
        self.inner
            .peers
            .lock()
            .iter()
            .filter(|p| p.registered.lock().as_ref().is_some_and(|r| r.1 == relay))
            .count()
    }

    /// Number of leaf agents that have completed registration (relay
    /// peers are counted by [`TcpBusServer::relay_count`] instead).
    pub fn agent_count(&self) -> usize {
        self.registered(false)
    }

    /// Number of fan-in relays that have completed registration (via
    /// `HelloRelay`).
    pub fn relay_count(&self) -> usize {
        self.registered(true)
    }

    /// Blocks until at least `n` relays have registered or `timeout`
    /// elapses; returns whether the target was reached.
    pub fn wait_for_relays(&self, n: usize, timeout: Duration) -> bool {
        poll_until(timeout, Duration::from_millis(2), || {
            self.relay_count() >= n
        })
    }

    /// Identities of the registered peers.
    pub fn agents(&self) -> Vec<ProcessInfo> {
        self.inner
            .peers
            .lock()
            .iter()
            .filter_map(|p| p.registered.lock().as_ref().map(|r| r.0.clone()))
            .collect()
    }

    /// Blocks until at least `n` agents have registered or `timeout`
    /// elapses; returns whether the target was reached.
    pub fn wait_for_agents(&self, n: usize, timeout: Duration) -> bool {
        poll_until(timeout, Duration::from_millis(2), || {
            self.agent_count() >= n
        })
    }

    /// The current install epoch (see [`Message::Sync`]).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// Peers that disconnected orderly (with a `Goodbye`).
    pub fn peers_closed(&self) -> u64 {
        self.inner.peers_closed.load(Ordering::SeqCst)
    }

    /// Peers whose connection died without a `Goodbye` — crashed or
    /// killed agents, severed links, peers that sent a frame this build
    /// cannot decode.
    pub fn peers_lost(&self) -> u64 {
        self.inner.peers_lost.load(Ordering::SeqCst)
    }

    /// Replaces the cached installed-query set and budgets wholesale and
    /// pushes one `Sync` frame to every connected peer, bumping the local
    /// epoch. This is how a relay's *downstream* server proxies an
    /// upstream `Sync` (connect or reconnect): whatever installs the relay
    /// missed while partitioned reach its whole subtree in one frame.
    /// Epochs are per-tier counters — the downstream epoch advances by
    /// one per visible change, it does not copy the upstream number.
    pub fn resync(&self, queries: Vec<Arc<CompiledCode>>, budgets: Vec<(QueryId, QueryBudget)>) {
        *self.inner.installed.lock() = queries.clone();
        *self.inner.budgets.lock() = budgets.clone();
        let epoch = self.inner.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.inner.send_all(&encode_message(&Message::Sync {
            epoch,
            queries,
            budgets,
        }));
    }

    /// Abruptly severs every live connection *without* a `Goodbye`, while
    /// the listener keeps accepting. From the agents' point of view this
    /// is indistinguishable from a network fault: their readers see EOF
    /// with no orderly-shutdown marker and enter reconnection. A chaos
    /// hook for recovery tests and benches.
    pub fn sever(&self) {
        for peer in self.inner.peers.lock().drain(..) {
            let _ = peer.writer.lock().shutdown(Shutdown::Both);
        }
    }

    /// Stops the accept loop and disconnects every agent (orderly: each
    /// peer is sent a `Goodbye` first, so agents mark the close as clean
    /// instead of entering reconnection).
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.inner.addr);
        let bye = encode_message(&Message::Goodbye);
        for peer in self.inner.peers.lock().drain(..) {
            let mut w = peer.writer.lock();
            let _ = write_frame(&mut *w, &bye);
            let _ = w.shutdown(Shutdown::Both);
        }
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpBusServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Bus for TcpBusServer {
    fn broadcast(&self, cmd: &Command) {
        match cmd {
            Command::Install(q) => self.inner.installed.lock().push(Arc::clone(q)),
            Command::Uninstall(id) => {
                self.inner.installed.lock().retain(|q| q.id != *id);
                self.inner.budgets.lock().retain(|(q, _)| q != id);
            }
            Command::SetBudget(id, budget) => {
                let mut budgets = self.inner.budgets.lock();
                match budgets.iter_mut().find(|(q, _)| q == id) {
                    Some(entry) => entry.1 = *budget,
                    None => budgets.push((*id, *budget)),
                }
            }
        }
        self.inner.epoch.fetch_add(1, Ordering::SeqCst);
        self.inner
            .send_all(&encode_message(&Message::Command(cmd.clone())));
    }

    fn drain(&self, _now: u64) -> Drained {
        std::mem::take(&mut *self.inner.inbox.lock())
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<BusInner>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            break;
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_nodelay(true);
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        let peer = Arc::new(Peer {
            writer: Mutex::new(write_half),
            registered: Mutex::new(None),
        });
        inner.peers.lock().push(Arc::clone(&peer));
        let inner = Arc::clone(inner);
        std::thread::spawn(move || peer_reader(stream, &peer, &inner));
    }
}

/// Per-connection reader: registers the peer on `Hello`/`HelloRelay`
/// (answering with an epoch-tagged `Sync` of the full installed-query
/// set), collects its reports, and exits on `Goodbye`, EOF, or a protocol
/// violation (closing the connection — malformed or version-skewed frames
/// from live peers are a fault, not something to silently skip). EOF
/// without a preceding `Goodbye` is tallied as a *lost* peer, not a clean
/// close.
fn peer_reader(mut stream: TcpStream, peer: &Arc<Peer>, inner: &BusInner) {
    let mut orderly = false;
    while let Ok(payload) = read_frame(&mut stream) {
        let msg = decode_message(&payload);
        let is_relay = matches!(msg, Ok(Message::HelloRelay(_)));
        match msg {
            Ok(Message::Hello(info) | Message::HelloRelay(info)) => {
                *peer.registered.lock() = Some((info, is_relay));
                // One Sync frame converges the newcomer (or the rejoiner)
                // to the exact installed set at the current epoch.
                let sync = encode_message(&Message::Sync {
                    epoch: inner.epoch.load(Ordering::SeqCst),
                    queries: inner.installed.lock().clone(),
                    budgets: inner.budgets.lock().clone(),
                });
                if write_frame(&mut *peer.writer.lock(), &sync).is_err() {
                    break;
                }
            }
            Ok(Message::Report(report)) => inner.inbox.lock().reports.push(report),
            Ok(Message::Retro(report)) => inner.inbox.lock().retro.push(report),
            Ok(Message::Goodbye) => {
                orderly = true;
                break;
            }
            Ok(Message::Command(_) | Message::Sync { .. }) | Err(_) => break,
        }
    }
    if !inner.shutdown.load(Ordering::SeqCst) {
        if orderly {
            inner.peers_closed.fetch_add(1, Ordering::SeqCst);
        } else {
            inner.peers_lost.fetch_add(1, Ordering::SeqCst);
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    inner.peers.lock().retain(|p| !Arc::ptr_eq(p, peer));
}

/// Connection state of an [`Uplink`], distinguishing *orderly* closes
/// from *lost* connections. Historically the agent's reader treated any
/// closed socket as a clean shutdown and exited silently; a killed bus or
/// severed link now surfaces as `Reconnecting`/`Lost` instead.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnStatus {
    /// Connected and registered.
    Connected,
    /// Connection lost; reconnection attempts in progress.
    Reconnecting,
    /// Closed on purpose: local shutdown, or the server said `Goodbye`.
    Closed,
    /// Connection lost for good (reconnection disabled or exhausted).
    /// An error status — tuples emitted in this state never reach the
    /// frontend.
    Lost,
}

impl ConnStatus {
    /// `true` for the error state ([`ConnStatus::Lost`]).
    pub fn is_error(self) -> bool {
        self == ConnStatus::Lost
    }
}

/// Reconnection behaviour of an [`Uplink`]: capped exponential backoff
/// with deterministic jitter (drawn from [`pivot_simrt::mix64`], keyed by
/// `jitter_seed ^ attempt` — never from wall time, so retry schedules are
/// reproducible given the seed).
#[derive(Clone, Copy, Debug)]
pub struct ReconnectPolicy {
    /// Attempts before giving up and going [`ConnStatus::Lost`].
    pub max_attempts: u32,
    /// First retry delay; doubles each attempt.
    pub base_delay: Duration,
    /// Upper bound on the exponential portion.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter term.
    pub jitter_seed: u64,
}

impl ReconnectPolicy {
    /// A practical default: 10 attempts, 10 ms doubling to a 500 ms cap.
    pub fn new(jitter_seed: u64) -> ReconnectPolicy {
        ReconnectPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter_seed,
        }
    }

    /// No reconnection: the first lost connection goes straight to
    /// [`ConnStatus::Lost`].
    pub fn disabled() -> ReconnectPolicy {
        ReconnectPolicy {
            max_attempts: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// Delay before attempt `attempt` (0-based): `min(base · 2^attempt,
    /// max)` plus a deterministic jitter in `[0, base]`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let spread = self.base_delay.as_nanos() as u64;
        let jitter = match spread {
            0 => 0,
            s => pivot_simrt::mix64(self.jitter_seed ^ u64::from(attempt)) % (s + 1),
        };
        exp + Duration::from_nanos(jitter)
    }
}

/// The two kinds of frame a server sends a registered client, handed to
/// the [`Uplink`]'s owner; the uplink deals with everything else itself.
pub enum Downlink {
    /// A weave, unweave or budget command.
    Command(Command),
    /// The body of a [`Message::Sync`]. [`Uplink::epoch`] shows `epoch`
    /// once the owner has applied the frame.
    Sync {
        epoch: u64,
        queries: Vec<Arc<CompiledCode>>,
        budgets: Vec<(QueryId, QueryBudget)>,
    },
}

/// The client half of the TCP bus: one registered connection to a
/// [`TcpBusServer`] that keeps itself alive.
///
/// Owns the socket's write half and a reader thread. The reader hands
/// each [`Downlink`] frame to the owner's handler; if the connection dies
/// without a `Goodbye` it redials per the [`ReconnectPolicy`] and
/// re-registers, and the server's answering `Sync` heals whatever was
/// missed. The owner sends with [`Uplink::send`], and skips sending while
/// not [`ConnStatus::Connected`] so nothing is written into a dead socket.
pub struct Uplink {
    addr: SocketAddr,
    /// The encoded registration frame (`Hello` or `HelloRelay`), sent on
    /// connect and again on every reconnect.
    hello: Vec<u8>,
    /// The live write half; replaced in place on reconnect.
    writer: Mutex<TcpStream>,
    status: Mutex<ConnStatus>,
    /// Last install epoch observed in a `Sync` frame.
    epoch: AtomicU64,
    /// Successful reconnections.
    reconnects: AtomicU64,
    stop: AtomicBool,
    policy: ReconnectPolicy,
    /// The reader, and the owner's tick thread if it started one.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Uplink {
    /// Connects to the bus at `addr`, registers with `hello`
    /// ([`Message::Hello`] for a leaf agent, [`Message::HelloRelay`] for a
    /// relay), and starts the reader thread.
    pub fn connect(
        addr: SocketAddr,
        hello: &Message,
        policy: ReconnectPolicy,
        handler: impl Fn(Downlink) + Send + 'static,
    ) -> io::Result<Arc<Uplink>> {
        let hello = encode_message(hello);
        let (read, writer) = dial(addr, &hello)?;
        let link = Arc::new(Uplink {
            addr,
            hello,
            writer: Mutex::new(writer),
            status: Mutex::new(ConnStatus::Connected),
            epoch: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            policy,
            threads: Mutex::new(Vec::new()),
        });
        let reader_link = Arc::clone(&link);
        let reader = std::thread::spawn(move || reader_loop(read, &reader_link, &handler));
        link.threads.lock().push(reader);
        Ok(link)
    }

    /// Starts a thread calling `tick` every `interval` until
    /// [`Uplink::close`] or [`Uplink::abort`], which join it.
    pub fn every(self: &Arc<Self>, interval: Duration, tick: impl Fn(&Uplink) + Send + 'static) {
        let link = Arc::clone(self);
        let ticker = std::thread::spawn(move || {
            while !link.sleep_unless_stopped(interval) {
                tick(&link);
            }
        });
        self.threads.lock().push(ticker);
    }

    /// Current connection status.
    pub fn status(&self) -> ConnStatus {
        *self.status.lock()
    }

    /// The last install epoch observed in a `Sync` frame (0 before the
    /// first sync arrives).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Successful reconnections so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::SeqCst)
    }

    /// Blocks until the status is [`ConnStatus::Connected`] and the
    /// observed epoch reaches `epoch`, or `timeout` elapses; returns
    /// whether the target was reached. The post-reconnect convergence
    /// barrier for tests and benches.
    pub fn wait_for_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        poll_until(timeout, Duration::from_millis(2), || {
            self.status() == ConnStatus::Connected && self.epoch() >= epoch
        })
    }

    /// Writes `frames` (encoded payloads) with one vectored write.
    pub fn send(&self, frames: &[Vec<u8>]) -> io::Result<()> {
        write_frames(&mut *self.writer.lock(), frames)
    }

    /// Sleeps `d` in small slices, returning `true` (and early) once the
    /// uplink has been closed or aborted — so neither a long tick interval
    /// nor a reconnect backoff outlives a shutdown.
    fn sleep_unless_stopped(&self, d: Duration) -> bool {
        poll_until(d, Duration::from_millis(2), || {
            self.stop.load(Ordering::SeqCst)
        })
    }

    /// Orderly close: announces `Goodbye` (when connected), disconnects
    /// and joins the threads. The owner flushes first.
    pub fn close(&self) {
        self.hang_up(true);
    }

    /// Kills the connection the way a crashing process would: no
    /// `Goodbye`, no reconnect; ends [`ConnStatus::Lost`].
    pub fn abort(&self) {
        self.hang_up(false);
    }

    /// Tears the socket down without a `Goodbye` and *without* stopping:
    /// the reader sees a lost connection and reconnects.
    pub fn sever(&self) {
        let _ = self.writer.lock().shutdown(Shutdown::Both);
    }

    fn hang_up(&self, orderly: bool) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        if orderly && self.status() == ConnStatus::Connected {
            let _ = self.send(&[encode_message(&Message::Goodbye)]);
        }
        self.sever();
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
        // Set last: the reader may have noticed the dead socket and
        // written `Reconnecting` before it saw `stop`.
        *self.status.lock() = if orderly {
            ConnStatus::Closed
        } else {
            ConnStatus::Lost
        };
    }
}

/// Connects and sends the registration frame; returns (read, write) halves.
fn dial(addr: SocketAddr, hello: &[u8]) -> io::Result<(TcpStream, TcpStream)> {
    let read = TcpStream::connect(addr)?;
    read.set_nodelay(true)?;
    let mut writer = read.try_clone()?;
    write_frame(&mut writer, hello)?;
    Ok((read, writer))
}

/// Reads one connection until it ends, handing frames to the owner;
/// returns whether it ended orderly (`Goodbye`) rather than lost.
fn read_session(read: &mut TcpStream, link: &Uplink, handler: &impl Fn(Downlink)) -> bool {
    while let Ok(payload) = read_frame(read) {
        match decode_message(&payload) {
            Ok(Message::Command(cmd)) => handler(Downlink::Command(cmd)),
            Ok(Message::Sync {
                epoch,
                queries,
                budgets,
            }) => {
                handler(Downlink::Sync {
                    epoch,
                    queries,
                    budgets,
                });
                link.epoch.store(epoch, Ordering::SeqCst);
            }
            Ok(Message::Goodbye) => return true,
            // Hello/HelloRelay/Report/Retro flow client→server only;
            // receiving one here is a protocol violation, treated like a
            // corrupt or version-skewed frame.
            Ok(
                Message::Hello(_) | Message::HelloRelay(_) | Message::Report(_) | Message::Retro(_),
            )
            | Err(_) => return false,
        }
    }
    false
}

/// The reader thread: session loop with reconnection.
fn reader_loop(mut read: TcpStream, link: &Uplink, handler: &impl Fn(Downlink)) {
    loop {
        let orderly = read_session(&mut read, link, handler);
        if link.stop.load(Ordering::SeqCst) {
            // Local close()/abort() chooses the final status.
            return;
        }
        if orderly {
            *link.status.lock() = ConnStatus::Closed;
            return;
        }
        *link.status.lock() = ConnStatus::Reconnecting;
        let Some(new_read) = reconnect(link) else {
            // Out of attempts — or stopped, and then `hang_up` overwrites.
            *link.status.lock() = ConnStatus::Lost;
            return;
        };
        read = new_read;
        link.reconnects.fetch_add(1, Ordering::SeqCst);
        *link.status.lock() = ConnStatus::Connected;
    }
}

/// Attempts to re-establish the connection per the policy. On success the
/// write half is replaced and the registration frame re-sent (the server
/// answers with a `Sync` that reconciles any missed installs).
fn reconnect(link: &Uplink) -> Option<TcpStream> {
    for attempt in 0..link.policy.max_attempts {
        if link.sleep_unless_stopped(link.policy.backoff(attempt)) {
            return None;
        }
        if let Ok((read, writer)) = dial(link.addr, &link.hello) {
            *link.writer.lock() = writer;
            return Some(read);
        }
    }
    None
}

/// A per-process agent connected to the TCP bus.
///
/// The process's [`Agent`] (registry + local aggregation) plus an
/// [`Uplink`] whose reader applies incoming weave/unweave commands and
/// `Sync` re-syncs to it and whose tick flushes partial results every
/// `report_interval` (the paper's default is one second; tests use much
/// shorter). The agent's registry, buffers, and report sequence numbers
/// survive a reconnect, so recovery never double-counts.
pub struct LiveAgent {
    agent: Arc<Agent>,
    link: Arc<Uplink>,
}

impl LiveAgent {
    /// Connects to the bus at `addr`, registers `info`, and starts the
    /// reader and reporter threads, with reconnection enabled (jitter
    /// seeded from the process id).
    pub fn connect(
        addr: SocketAddr,
        info: ProcessInfo,
        report_interval: Duration,
    ) -> io::Result<LiveAgent> {
        let seed = info.procid;
        LiveAgent::connect_with(addr, info, report_interval, ReconnectPolicy::new(seed))
    }

    /// [`LiveAgent::connect`] with an explicit [`ReconnectPolicy`].
    pub fn connect_with(
        addr: SocketAddr,
        info: ProcessInfo,
        report_interval: Duration,
        policy: ReconnectPolicy,
    ) -> io::Result<LiveAgent> {
        let agent = Arc::new(Agent::new(info.clone()));
        let applied = Arc::clone(&agent);
        let apply = move |frame| match frame {
            Downlink::Command(cmd) => applied.apply(&cmd),
            Downlink::Sync {
                queries, budgets, ..
            } => {
                applied.sync(&queries);
                applied.sync_budgets(&budgets);
            }
        };
        let link = Uplink::connect(addr, &Message::Hello(info), policy, apply)?;
        let flushed = Arc::clone(&agent);
        link.every(report_interval, move |link| {
            flush_if_connected(&flushed, link);
        });
        Ok(LiveAgent { agent, link })
    }

    /// The process-local agent: invoke tracepoints against it (usually
    /// via [`crate::tracepoint`]).
    pub fn agent(&self) -> &Arc<Agent> {
        &self.agent
    }

    /// Current connection status. [`ConnStatus::Lost`] is an error: the
    /// agent is emitting into buffers nothing will ever drain.
    pub fn status(&self) -> ConnStatus {
        self.link.status()
    }

    /// The last install epoch observed (see [`Uplink::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.link.epoch()
    }

    /// Successful reconnections so far.
    pub fn reconnects(&self) -> u64 {
        self.link.reconnects()
    }

    /// Blocks until connected at install epoch `epoch` or later (see
    /// [`Uplink::wait_for_epoch`]).
    pub fn wait_for_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        self.link.wait_for_epoch(epoch, timeout)
    }

    /// Flushes partial results to the frontend immediately (when
    /// connected; otherwise tuples keep accumulating locally).
    pub fn flush_now(&self) {
        flush_if_connected(&self.agent, &self.link);
    }

    /// Flushes once more, announces `Goodbye`, then disconnects and joins
    /// the service threads (orderly close).
    pub fn shutdown(&self) {
        self.flush_now();
        self.link.close();
    }

    /// Kills the connection the way a crashing process would: no final
    /// flush, no `Goodbye`, socket torn down. Unflushed tuples are lost,
    /// the server tallies a *lost* peer, and this handle ends
    /// [`ConnStatus::Lost`]. A chaos hook for recovery tests and benches.
    pub fn abort(&self) {
        self.link.abort();
    }
}

impl Drop for LiveAgent {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn flush_if_connected(agent: &Agent, link: &Uplink) {
    // While disconnected, skip the flush entirely: tuples keep
    // accumulating in the agent's buffers and retro reports in its bounded
    // pending queue (and seq numbers are not consumed), so everything
    // emitted during the outage is delivered after recovery instead of
    // being written into a dead socket.
    if link.status() != ConnStatus::Connected {
        return;
    }
    let reports = agent.flush(crate::now_nanos()).into_iter();
    let retros = agent.drain_retro().into_iter();
    let frames: Vec<Vec<u8>> = reports
        .map(|r| encode_message(&Message::Report(r)))
        .chain(retros.map(|r| encode_message(&Message::Retro(r))))
        .collect();
    let _ = link.send(&frames);
}

/// A [`Frontend`] wired to a [`TcpBusServer`]: the live counterpart of
/// the simulated cluster's control plane. Queries installed here are
/// verified (PR-1 static analysis), compiled, and broadcast to every
/// connected process over TCP; results stream back continuously.
pub struct LiveFrontend {
    frontend: Frontend,
    bus: TcpBusServer,
}

impl LiveFrontend {
    /// Starts a frontend with a loopback bus on an ephemeral port.
    pub fn start() -> io::Result<LiveFrontend> {
        Ok(LiveFrontend {
            frontend: Frontend::new(),
            bus: TcpBusServer::start()?,
        })
    }

    /// The bus address agents connect to.
    pub fn addr(&self) -> SocketAddr {
        self.bus.addr()
    }

    /// The underlying bus.
    pub fn bus(&self) -> &TcpBusServer {
        &self.bus
    }

    /// Direct access to the frontend (tracepoint defs, verifier toggle).
    pub fn frontend_mut(&mut self) -> &mut Frontend {
        &mut self.frontend
    }

    /// Defines a tracepoint (the query vocabulary).
    pub fn define(&mut self, name: &str, exports: impl IntoIterator<Item = impl Into<String>>) {
        self.frontend.define(name, exports);
    }

    /// Defines a tracepoint from a full definition.
    pub fn define_tracepoint(&mut self, def: TracepointDef) {
        self.frontend.define_tracepoint(def);
    }

    /// Blocks until `n` agents registered (see
    /// [`TcpBusServer::wait_for_agents`]).
    pub fn wait_for_agents(&self, n: usize, timeout: Duration) -> bool {
        self.bus.wait_for_agents(n, timeout)
    }

    /// Installs a query: static verification, compilation, then broadcast
    /// of the weave command over TCP. A rejected query broadcasts
    /// nothing.
    pub fn install(&mut self, text: &str) -> Result<QueryHandle, InstallError> {
        let handle = self.frontend.install(text)?;
        self.broadcast_pending();
        Ok(handle)
    }

    /// Installs a query under a fixed name.
    pub fn install_named(&mut self, name: &str, text: &str) -> Result<QueryHandle, InstallError> {
        let handle = self.frontend.install_named(name, text)?;
        self.broadcast_pending();
        Ok(handle)
    }

    /// Uninstalls a query everywhere (agents unweave on receipt).
    pub fn uninstall(&mut self, handle: &QueryHandle) {
        self.frontend.uninstall(handle);
        self.broadcast_pending();
    }

    /// Pushes an overload budget for `handle` to every connected agent
    /// (and to agents that re-sync later, via the `Sync` budget list).
    pub fn set_budget(&mut self, handle: &QueryHandle, budget: QueryBudget) {
        self.frontend.set_budget(handle, budget);
        self.broadcast_pending();
    }

    /// Enables install-time pushing of statically-derived budgets (see
    /// [`Frontend::set_enforce_budgets`]).
    pub fn set_enforce_budgets(&mut self, on: bool) {
        self.frontend.set_enforce_budgets(on);
    }

    fn broadcast_pending(&mut self) {
        for cmd in self.frontend.drain_commands() {
            self.bus.broadcast(&cmd);
        }
    }

    /// Merges reports received since the last poll into the frontend.
    pub fn poll(&mut self) {
        self.bus.pump_into(crate::now_nanos(), &mut self.frontend);
    }

    /// Returns a query's accumulated results (polling first).
    pub fn results(&mut self, handle: &QueryHandle) -> &QueryResults {
        self.poll();
        self.frontend.results(handle)
    }

    /// Blocks until the query has at least `min_rows` result rows or
    /// `timeout` elapses; returns whether the target was reached.
    pub fn wait_for_rows(
        &mut self,
        handle: &QueryHandle,
        min_rows: usize,
        timeout: Duration,
    ) -> bool {
        poll_until(timeout, Duration::from_millis(5), || {
            self.poll();
            self.frontend.results(handle).len() >= min_rows
        })
    }
}
