//! Rate-limited FIFO resources (disks, network links).

use std::cell::Cell;
use std::rc::Rc;

use crate::clock::{Clock, Nanos, NANOS_PER_SEC};

/// A FIFO server with a service rate, modelling a disk or a network link.
///
/// `acquire(bytes)` occupies the server for `bytes / rate` seconds starting
/// when the server frees up; the awaiting task resumes once its transfer
/// completes. Queueing delay, saturation, and limplock (via
/// [`FifoResource::set_rate`]) emerge naturally.
///
/// Clone the handle freely; all clones share the same queue.
#[derive(Clone)]
pub struct FifoResource {
    clock: Clock,
    inner: Rc<Inner>,
}

struct Inner {
    rate: Cell<f64>,
    busy_until: Cell<Nanos>,
    served_bytes: Cell<f64>,
    served_ops: Cell<u64>,
}

impl FifoResource {
    /// Creates a resource serving `rate` bytes (or units) per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn new(clock: Clock, rate: f64) -> FifoResource {
        assert!(rate > 0.0, "resource rate must be positive");
        FifoResource {
            clock,
            inner: Rc::new(Inner {
                rate: Cell::new(rate),
                busy_until: Cell::new(0),
                served_bytes: Cell::new(0.0),
                served_ops: Cell::new(0),
            }),
        }
    }

    /// Returns the current service rate (units per second).
    pub fn rate(&self) -> f64 {
        self.inner.rate.get()
    }

    /// Changes the service rate (e.g. the paper's faulty-cable limplock:
    /// a 1 Gbit NIC downgraded to 100 Mbit).
    pub fn set_rate(&self, rate: f64) {
        assert!(rate > 0.0, "resource rate must be positive");
        self.inner.rate.set(rate);
    }

    /// Serves `amount` units through the FIFO queue, sleeping until the
    /// transfer completes. Returns the total latency (queueing + service)
    /// in nanoseconds.
    pub async fn acquire(&self, amount: f64) -> Nanos {
        let raw_service = amount / self.inner.rate.get();
        let now = self.clock.now();
        let start = self.inner.busy_until.get().max(now);
        let service = (raw_service * NANOS_PER_SEC as f64) as Nanos;
        let done = start.saturating_add(service.max(1));
        self.inner.busy_until.set(done);
        self.inner
            .served_bytes
            .set(self.inner.served_bytes.get() + amount);
        self.inner.served_ops.set(self.inner.served_ops.get() + 1);
        self.clock.sleep_until(done).await;
        done - now
    }

    /// Returns the instantaneous queueing delay a new arrival would see.
    pub fn backlog(&self) -> Nanos {
        self.inner.busy_until.get().saturating_sub(self.clock.now())
    }

    /// Total units served so far.
    pub fn served(&self) -> f64 {
        self.inner.served_bytes.get()
    }

    /// Total operations served so far.
    pub fn served_ops(&self) -> u64 {
        self.inner.served_ops.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRt;

    #[test]
    fn service_time_follows_rate() {
        let rt = SimRt::new();
        let disk = FifoResource::new(rt.clock(), 100.0);
        let h = rt.spawn(async move { disk.acquire(50.0).await });
        rt.run_until_idle();
        // 50 units at 100/s = 0.5 s.
        assert_eq!(h.try_take(), Some(500_000_000));
    }

    #[test]
    fn fifo_queueing_adds_delay() {
        let rt = SimRt::new();
        let disk = FifoResource::new(rt.clock(), 100.0);
        let mut handles = Vec::new();
        for _ in 0..3 {
            let disk = disk.clone();
            handles.push(rt.spawn(async move { disk.acquire(100.0).await }));
        }
        rt.run_until_idle();
        let lats: Vec<u64> = handles.iter().map(|h| h.try_take().unwrap()).collect();
        // Three 1-second jobs arriving together: 1 s, 2 s, 3 s.
        assert_eq!(lats, vec![1_000_000_000, 2_000_000_000, 3_000_000_000]);
        assert_eq!(disk.served(), 300.0);
        assert_eq!(disk.served_ops(), 3);
    }

    #[test]
    fn rate_degradation_slows_service() {
        let rt = SimRt::new();
        let nic = FifoResource::new(rt.clock(), 1000.0);
        nic.set_rate(100.0);
        let h = rt.spawn(async move { nic.acquire(100.0).await });
        rt.run_until_idle();
        assert_eq!(h.try_take(), Some(1_000_000_000));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let rt = SimRt::new();
        let _ = FifoResource::new(rt.clock(), 0.0);
    }
}
