//! The **live runtime**: Pivot Tracing on real OS threads and real sockets.
//!
//! Everything else in this workspace runs inside the single-threaded
//! deterministic simulator. This crate reproduces the paper's deployment
//! shape (Figure 2) on actual hardware, so the same machinery — registry
//! check, advice interpretation, baggage pack/serialize — is exercised and
//! measured against live traffic:
//!
//! - [`ctx`] — **thread-local baggage** with RAII scope guards. The
//!   paper's prototype stores baggage in a thread-local; the simulator
//!   threads an explicit `Ctx` instead. Here requests attach their baggage
//!   to the handling thread ([`ctx::attach`]) and tracepoints read it
//!   implicitly ([`tracepoint`]).
//! - [`thread`] — instrumented [`thread::spawn`] / [`thread::channel`]
//!   wrappers that [`split`](pivot_baggage::Baggage::split) baggage at
//!   real thread branch points and [`join`](pivot_baggage::Baggage::join)
//!   it at `JoinHandle::join` / channel-receive merge points.
//! - [`frame`] + [`proto`] — a length-prefixed TCP framing layer and a
//!   binary codec for the bus messages ([`Command`](pivot_core::Command) /
//!   [`Report`](pivot_core::Report), including full compiled queries), so
//!   weave commands and partial results cross real process boundaries.
//! - [`bus`] — the transport: [`bus::TcpBusServer`] (the frontend side of
//!   the paper's pub/sub server), [`bus::Uplink`] (the client side: one
//!   self-reconnecting registered connection), [`bus::LiveAgent`] (a
//!   per-process agent on an uplink), and [`bus::LiveFrontend`] (frontend
//!   and TCP bus glued together). All implement / drive the
//!   [`pivot_core::Bus`] trait shared with `LocalBus` and the simulator.
//! - [`service`] — a multi-threaded sharded KV demo service with real
//!   tracepoints, a client pool, and baggage carried in request headers,
//!   so the paper's Q1/Q2-style queries can be installed against live
//!   load.
//!
//! What this costs a request is measured by `benchmark/` at the repo root
//! (`BENCHMARK.json`: the `svc_*` workloads are the wall-clock analog of
//! the paper's Table 5; `live.tracepoint_idle_ns` is the unwoven call).

pub mod bus;
pub mod ctx;
pub mod frame;
pub mod proto;
pub mod service;
pub mod thread;

pub use bus::{ConnStatus, LiveAgent, LiveFrontend, ReconnectPolicy, TcpBusServer};
pub use ctx::{attach, with_baggage, BaggageScope};

use pivot_core::Agent;
use pivot_model::Value;

/// Wall-clock nanoseconds since the Unix epoch — the live substitute for
/// the simulator's virtual `Clock::now` (`pivot-simrt`).
pub fn now_nanos() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Invokes `name` on `agent` against the **current thread's** baggage.
///
/// This is the live tracepoint call: instrumented code does not thread a
/// `Ctx` through its call chain (as the simulated systems do) — the
/// request's baggage was attached to the thread by [`ctx::attach`] and any
/// woven advice packs into / unpacks from it in place.
///
/// When no query is woven anywhere in the process and hindsight is off
/// this returns after two relaxed loads, before touching the wall clock
/// or the thread-local — the paper's requirement that inactive
/// tracepoints cost (near) nothing on the hot path (Table 5's "unwoven"
/// row). With hindsight on every call reaches the agent: the ring
/// records unwoven tracepoints too. The wall clock is read only for an
/// event that uses the time ([`Agent::invoke_at`]): not at a tracepoint
/// with nothing woven in a process that has advice elsewhere, nor for
/// ungoverned advice that never observes `timestamp`.
pub fn tracepoint(agent: &Agent, name: &str, exports: &[(&str, Value)]) {
    if agent.registry().is_idle() && !agent.retro_on() {
        return;
    }
    invoke_here(agent, name, exports);
}

/// The woven half of [`tracepoint`], out of line so the idle half is the
/// two loads and a return, with no frame to set up for a call it will not
/// make.
#[inline(never)]
fn invoke_here(agent: &Agent, name: &str, exports: &[(&str, Value)]) {
    ctx::with_baggage(|bag| agent.invoke_at(name, bag, now_nanos, exports));
}
