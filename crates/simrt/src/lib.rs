//! A deterministic discrete-event simulation runtime.
//!
//! `pivot-simrt` is the substrate the simulated Hadoop cluster runs on
//! (see DESIGN.md): a single-threaded async executor over **virtual time**.
//! Tasks are ordinary Rust futures; awaiting [`Clock::sleep`] advances the
//! event clock instead of blocking, so a simulated minute of cluster load
//! executes in milliseconds and every run is bit-reproducible.
//!
//! Components:
//!
//! - [`SimRt`] — the executor: spawn tasks, run until idle or a virtual
//!   deadline.
//! - [`Clock`] — a cloneable handle for `now()` / `sleep()` /
//!   `sleep_until()`.
//! - [`channel`] — unbounded mpsc channels with async receive (the message
//!   fabric for simulated RPC).
//! - [`FifoResource`] — a rate-limited FIFO server modelling disks and
//!   network links; contention, queueing delay, and limplock emerge from
//!   `acquire` latencies.
//! - [`Counter`] — time-series samplers for throughput plots.
//!
//! # Examples
//!
//! ```
//! use pivot_simrt::SimRt;
//!
//! let rt = SimRt::new();
//! let clock = rt.clock();
//! let (tx, mut rx) = pivot_simrt::channel();
//! rt.spawn({
//!     let clock = clock.clone();
//!     async move {
//!         clock.sleep_secs(1.0).await;
//!         tx.send(clock.now());
//!     }
//! });
//! rt.spawn(async move {
//!     let t = rx.recv().await.unwrap();
//!     assert_eq!(t, 1_000_000_000);
//! });
//! rt.run_until_idle();
//! assert_eq!(clock.now(), 1_000_000_000);
//! ```

mod chan;
mod clock;
mod executor;
mod metrics;
mod resource;
mod util;

pub use chan::{channel, Receiver, Sender};
pub use clock::{Clock, Nanos, NANOS_PER_SEC};
pub use executor::{JoinHandle, SimRt};
pub use metrics::{Counter, Gauge};
pub use resource::FifoResource;
pub use util::{join2, join_all, mix64};
