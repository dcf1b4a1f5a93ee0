//! The live (TCP) relay: a standalone fan-in process between agents and
//! the frontend.
//!
//! A [`RelayServer`] owns both halves of the tier:
//!
//! - **Downstream**, it is a full [`TcpBusServer`]: agents (or further
//!   relays) connect to [`RelayServer::addr`] exactly as they would to
//!   the frontend — same `Hello`/`HelloRelay` registration, same
//!   epoch-tagged `Sync` answer, same reconnect discipline. The tree is
//!   invisible to leaves.
//! - **Upstream**, it holds the same [`Uplink`] a leaf agent does,
//!   registered with [`Message::HelloRelay`] so the parent (another relay
//!   or the frontend) can tell tiers apart. Commands arriving from
//!   upstream are applied to the relay's [`RelayCore`] and re-broadcast
//!   downstream; `Sync` frames are proxied wholesale via
//!   [`TcpBusServer::resync`], so epoch re-sync crosses the tier in one
//!   frame per hop. If the upstream link dies without a `Goodbye` the
//!   uplink reconnects and re-registers, and the answering `Sync` heals
//!   both the relay and (via `resync`) its whole subtree.
//!
//! The uplink's tick drains downstream reports into the merge windows
//! every flush interval and, while connected, writes the re-originated batch
//! upstream with one vectored write — the coalescing that turns `N` leaf
//! frame streams into one per relay.
//!
//! [`RelayServer::crash`] is the chaos hook: it destroys the merge
//! windows (returning the [`CrashResidue`] for the embedding's
//! `crash_lost` books), severs every downstream connection without a
//! `Goodbye`, and drops the upstream link the same way, so both sides
//! observe a real crash and run their recovery paths against the same
//! listener socket.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use pivot_core::{Bus, ProcessInfo};
use pivot_live::bus::{ConnStatus, Downlink, ReconnectPolicy, TcpBusServer, Uplink};
use pivot_live::proto::{encode_message, Message};

use crate::{CrashResidue, RelayCore, RelayStats};

/// The merge core and the downstream server: what upstream frames are
/// applied to and what the flusher drains.
#[derive(Clone)]
struct Tier {
    core: Arc<RelayCore>,
    down: Arc<TcpBusServer>,
}

impl Tier {
    /// Applies one upstream control frame to the core and the subtree.
    fn apply(&self, frame: Downlink) {
        match frame {
            Downlink::Command(cmd) => {
                // Learn, then proxy: the downstream broadcast caches the
                // command for late joiners and bumps the subtree's epoch.
                self.core.observe(&cmd);
                self.down.broadcast(&cmd);
            }
            Downlink::Sync {
                queries, budgets, ..
            } => {
                self.core.sync(&queries);
                self.down.resync(queries, budgets);
            }
        }
    }

    /// Absorbs what downstream has delivered, both lanes.
    fn absorb(&self, now: u64) {
        self.core.absorb_all(self.down.drain(now));
    }

    /// Absorb + (if connected) flush. Absorption always happens so the
    /// windows keep merging during an upstream outage; flushing into a
    /// dead socket would consume seqs for frames nothing will deliver, so
    /// windows and the bounded retro pass-through queue wait instead.
    fn flush(&self, up: &Uplink) {
        let now = pivot_live::now_nanos();
        self.absorb(now);
        if up.status() != ConnStatus::Connected {
            return;
        }
        let reports = self.core.flush(now).into_iter();
        let retros = self.core.flush_retro().into_iter();
        let batch: Vec<Vec<u8>> = reports
            .map(|r| encode_message(&Message::Report(r)))
            .chain(retros.map(|r| encode_message(&Message::Retro(r))))
            .collect();
        let _ = up.send(&batch);
    }
}

/// A live fan-in relay process: downstream bus server + one upstream
/// connection + an in-flight merge core. See the module docs.
pub struct RelayServer {
    tier: Tier,
    up: Arc<Uplink>,
}

impl RelayServer {
    /// Starts a relay on an ephemeral loopback port, connected upstream
    /// to `upstream`, with reconnection enabled (jitter seeded from the
    /// relay's procid).
    pub fn start(
        upstream: SocketAddr,
        info: ProcessInfo,
        flush_interval: Duration,
    ) -> io::Result<RelayServer> {
        let seed = info.procid;
        RelayServer::bind(
            "127.0.0.1:0",
            upstream,
            info,
            flush_interval,
            ReconnectPolicy::new(seed),
        )
    }

    /// Starts a relay listening on `listen` with an explicit
    /// [`ReconnectPolicy`] for the upstream link.
    pub fn bind(
        listen: &str,
        upstream: SocketAddr,
        info: ProcessInfo,
        flush_interval: Duration,
        policy: ReconnectPolicy,
    ) -> io::Result<RelayServer> {
        let tier = Tier {
            down: Arc::new(TcpBusServer::bind(listen)?),
            core: Arc::new(RelayCore::new(info.clone())),
        };
        let applied = tier.clone();
        let up = Uplink::connect(upstream, &Message::HelloRelay(info), policy, move |frame| {
            applied.apply(frame);
        })?;
        let flushed = tier.clone();
        up.every(flush_interval, move |up| flushed.flush(up));
        Ok(RelayServer { tier, up })
    }

    /// The downstream address agents (or child relays) connect to.
    pub fn addr(&self) -> SocketAddr {
        self.tier.down.addr()
    }

    /// The downstream bus server (agent/relay counts, epoch, chaos
    /// hooks).
    pub fn downstream(&self) -> &TcpBusServer {
        &self.tier.down
    }

    /// The relay's accounting core.
    pub fn core(&self) -> &RelayCore {
        &self.tier.core
    }

    /// Current counters.
    pub fn stats(&self) -> RelayStats {
        self.tier.core.stats()
    }

    /// Upstream connection status.
    pub fn status(&self) -> ConnStatus {
        self.up.status()
    }

    /// Successful upstream reconnections so far.
    pub fn reconnects(&self) -> u64 {
        self.up.reconnects()
    }

    /// The last upstream install epoch observed in a `Sync` frame.
    pub fn upstream_epoch(&self) -> u64 {
        self.up.epoch()
    }

    /// Blocks until the upstream link is connected and its observed
    /// epoch reaches `epoch`, or `timeout` elapses.
    pub fn wait_for_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        self.up.wait_for_epoch(epoch, timeout)
    }

    /// Absorbs pending downstream reports and flushes the merged windows
    /// upstream immediately (when connected; otherwise the windows keep
    /// accumulating and nothing is lost).
    pub fn flush_now(&self) {
        self.tier.flush(&self.up);
    }

    /// Absorbs pending downstream frames (reports into the merge windows,
    /// retro frames into the pass-through queue) *without* flushing — the
    /// mid-window state a crash test stages (see [`RelayCore::buffered_tuples`]).
    pub fn pull_now(&self) {
        self.tier.absorb(pivot_live::now_nanos());
    }

    /// Crashes the relay the way a dying process would, while keeping
    /// the listener socket so the same address recovers: the open merge
    /// windows are destroyed (returned as [`CrashResidue`] for the
    /// embedding's `crash_lost` books), every downstream connection is
    /// severed without a `Goodbye` (agents reconnect and re-`Sync`
    /// against this listener), and the upstream link is torn down the
    /// same way so the uplink re-registers under the relay's fresh
    /// incarnation and heals the subtree from the answering `Sync`.
    pub fn crash(&self) -> CrashResidue {
        let residue = self.tier.core.restart();
        self.tier.down.sever();
        self.up.sever();
        residue
    }

    /// Flushes once more, announces `Goodbye` upstream, then shuts down
    /// the downstream server (orderly: downstream peers get `Goodbye`s)
    /// and joins the service threads.
    pub fn shutdown(&self) {
        self.tier.flush(&self.up);
        self.up.close();
        self.tier.down.shutdown();
    }
}

impl Drop for RelayServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
