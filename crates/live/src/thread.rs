//! Instrumented thread and channel primitives.
//!
//! Real systems branch requests across threads (`spawn`) and hand work
//! between threads over queues (channels). For the happened-before join to
//! see through those boundaries, baggage must [`split`] where execution
//! branches and [`join`] where it merges (paper §5). These wrappers do
//! both automatically:
//!
//! - [`spawn`] splits the caller's current baggage and attaches the half
//!   to the new thread; [`JoinHandle::join`] merges the thread's final
//!   baggage back into *the joining thread's* baggage.
//! - [`channel`] ships a split of the sender's baggage alongside every
//!   message; `recv` joins it into the receiver's current baggage before
//!   returning the message.
//!
//! [`split`]: pivot_baggage::Baggage::split
//! [`join`]: pivot_baggage::Baggage::join

use std::sync::mpsc;

use pivot_baggage::Baggage;

use crate::ctx;

/// Handle to an instrumented thread (see [`spawn`]).
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<(T, Baggage)>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish and merges its final baggage into
    /// the current thread's baggage (the paper's join point).
    ///
    /// If the thread panicked its baggage is lost with it and the panic
    /// payload is returned, as with [`std::thread::JoinHandle::join`].
    pub fn join(self) -> std::thread::Result<T> {
        let (value, bag) = self.inner.join()?;
        ctx::merge(bag);
        Ok(value)
    }

    /// Returns `true` once the thread has exited.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// Spawns a thread carrying a split of the current baggage.
///
/// The closure runs with the split attached as its thread-local baggage;
/// whatever advice packed into it during the thread's lifetime flows back
/// at [`JoinHandle::join`].
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let bag = ctx::branch();
    let inner = std::thread::spawn(move || {
        let scope = ctx::attach(bag);
        let value = f();
        (value, scope.detach())
    });
    JoinHandle { inner }
}

/// The sending half of an instrumented channel (see [`channel`]).
pub struct Sender<T> {
    inner: mpsc::Sender<(Baggage, T)>,
}

// Derived `Clone` would require `T: Clone`; the sender itself never
// clones messages.
impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        Sender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Sender<T> {
    /// Sends `value`, attaching a split of the current thread's baggage.
    pub fn send(&self, value: T) -> Result<(), mpsc::SendError<T>> {
        self.inner
            .send((ctx::branch(), value))
            .map_err(|mpsc::SendError((_, v))| mpsc::SendError(v))
    }
}

/// The receiving half of an instrumented channel (see [`channel`]).
pub struct Receiver<T> {
    inner: mpsc::Receiver<(Baggage, T)>,
}

impl<T> Receiver<T> {
    /// Receives the next message, joining the baggage that travelled with
    /// it into the current thread's baggage (the merge point).
    pub fn recv(&self) -> Result<T, mpsc::RecvError> {
        let (bag, value) = self.inner.recv()?;
        ctx::merge(bag);
        Ok(value)
    }

    /// Non-blocking [`Receiver::recv`].
    pub fn try_recv(&self) -> Result<T, mpsc::TryRecvError> {
        let (bag, value) = self.inner.try_recv()?;
        ctx::merge(bag);
        Ok(value)
    }
}

/// Creates an instrumented unbounded mpsc channel: baggage splits at
/// `send` and joins at `recv`, so causality follows messages between
/// threads exactly as it follows requests between processes.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    (Sender { inner: tx }, Receiver { inner: rx })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_baggage::{PackMode, QueryId};
    use pivot_model::{Tuple, Value};

    const Q: QueryId = QueryId(7);

    fn t(v: i64) -> Tuple {
        Tuple::from_iter([Value::I64(v)])
    }

    #[test]
    fn spawn_join_carries_baggage_both_ways() {
        let _scope = ctx::attach(Baggage::new());
        ctx::with_baggage(|b| b.pack(Q, &PackMode::All, [t(1)]));
        let handle = spawn(|| {
            // The spawned thread sees the pre-branch tuple...
            assert_eq!(ctx::with_baggage(|b| b.tuple_count(Q)), 1);
            // ...and packs one of its own.
            ctx::with_baggage(|b| b.pack(Q, &PackMode::All, [t(2)]));
            42
        });
        assert_eq!(handle.join().expect("thread ok"), 42);
        assert_eq!(ctx::with_baggage(|b| b.tuple_count(Q)), 2);
    }

    #[test]
    fn channel_send_recv_carries_baggage() {
        let (tx, rx) = channel::<u32>();
        let _scope = ctx::attach(Baggage::new());
        ctx::with_baggage(|b| b.pack(Q, &PackMode::All, [t(5)]));
        let worker = std::thread::spawn(move || {
            let scope = ctx::attach(Baggage::new());
            let v = rx.recv().expect("message arrives");
            let count = ctx::with_baggage(|b| b.tuple_count(Q));
            drop(scope);
            (v, count)
        });
        tx.send(10).expect("send ok");
        let (v, count) = worker.join().expect("worker ok");
        assert_eq!(v, 10);
        assert_eq!(count, 1, "receiver merged sender's baggage");
        // The sender still holds its own half.
        assert_eq!(ctx::with_baggage(|b| b.tuple_count(Q)), 1);
    }

    #[test]
    fn sibling_branches_stay_isolated_until_join() {
        let _scope = ctx::attach(Baggage::new());
        let h1 = spawn(|| {
            ctx::with_baggage(|b| b.pack(Q, &PackMode::All, [t(1)]));
        });
        let h2 = spawn(|| {
            // Sibling cannot see h1's pack even if h1 already ran.
            assert_eq!(ctx::with_baggage(|b| b.tuple_count(Q)), 0);
            ctx::with_baggage(|b| b.pack(Q, &PackMode::All, [t(2)]));
        });
        h1.join().expect("h1 ok");
        h2.join().expect("h2 ok");
        assert_eq!(ctx::with_baggage(|b| b.tuple_count(Q)), 2);
    }
}
