//! The single-threaded deterministic executor.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use parking_lot::Mutex;

use crate::clock::{Clock, Nanos};

type BoxedFuture = Pin<Box<dyn Future<Output = ()>>>;

#[derive(Default)]
struct ReadyState {
    queue: VecDeque<u64>,
    queued: std::collections::HashSet<u64>,
}

/// The wake queue. Wakes are **deduplicated**: a task woken many times
/// before it runs is polled once. Without this, k same-deadline timer
/// entries cause k polls which re-register k fresh entries — a
/// self-amplifying timer storm.
#[derive(Default)]
struct ReadyQueue {
    state: Mutex<ReadyState>,
}

impl ReadyQueue {
    fn push(&self, id: u64) {
        let mut s = self.state.lock();
        if s.queued.insert(id) {
            s.queue.push_back(id);
        }
    }

    fn pop(&self) -> Option<u64> {
        let mut s = self.state.lock();
        let id = s.queue.pop_front()?;
        s.queued.remove(&id);
        Some(id)
    }
}

struct TaskWaker {
    id: u64,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.id);
    }
}

/// The discrete-event executor.
///
/// Single-threaded and deterministic: tasks run in wake order, ties between
/// simultaneous timers break by registration order, and virtual time only
/// advances when no task is runnable.
pub struct SimRt {
    clock: Clock,
    ready: Arc<ReadyQueue>,
    tasks: RefCell<HashMap<u64, BoxedFuture>>,
    next_task: std::cell::Cell<u64>,
}

impl Default for SimRt {
    fn default() -> SimRt {
        SimRt::new()
    }
}

impl SimRt {
    /// Creates a runtime with the clock at zero.
    pub fn new() -> SimRt {
        SimRt {
            clock: Clock::new(),
            ready: Arc::new(ReadyQueue::default()),
            tasks: RefCell::new(HashMap::new()),
            next_task: std::cell::Cell::new(1),
        }
    }

    /// Returns a handle to the virtual clock.
    pub fn clock(&self) -> Clock {
        self.clock.clone()
    }

    /// Spawns a task, returning a handle that can be awaited (from another
    /// task) or queried after the run.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let slot = Arc::new(Mutex::new(JoinSlot {
            value: None,
            waker: None,
        }));
        let slot2 = Arc::clone(&slot);
        let id = self.next_task.get();
        self.next_task.set(id + 1);
        let wrapped = Box::pin(async move {
            let value = fut.await;
            let mut s = slot2.lock();
            s.value = Some(value);
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        });
        self.tasks.borrow_mut().insert(id, wrapped);
        self.ready.push(id);
        JoinHandle { slot }
    }

    /// Runs until no task is runnable and no timer is pending.
    ///
    /// Returns the final virtual time.
    pub fn run_until_idle(&self) -> Nanos {
        self.run_until(Nanos::MAX)
    }

    /// Runs until idle or until virtual time would pass `deadline`; the
    /// clock is left at `min(deadline, idle time)`.
    pub fn run_until(&self, deadline: Nanos) -> Nanos {
        loop {
            // Drain every runnable task.
            while let Some(id) = self.ready.pop() {
                let Some(mut task) = self.tasks.borrow_mut().remove(&id) else {
                    continue; // completed task woken late
                };
                let waker = Waker::from(Arc::new(TaskWaker {
                    id,
                    ready: Arc::clone(&self.ready),
                }));
                let mut cx = Context::from_waker(&waker);
                if task.as_mut().poll(&mut cx).is_pending() {
                    self.tasks.borrow_mut().insert(id, task);
                }
            }
            // Advance to the next timer.
            let mut timers = self.clock.timers.lock();
            let Some(next) = timers.heap.peek() else {
                break;
            };
            let t = next.0.deadline;
            if t > deadline {
                break;
            }
            self.clock.now.store(t, Ordering::Relaxed);
            while let Some(e) = timers.heap.peek() {
                if e.0.deadline > t {
                    break;
                }
                let entry = timers.heap.pop().expect("peek succeeded").0;
                entry.waker.wake();
            }
            drop(timers);
        }
        if deadline != Nanos::MAX && self.clock.now.load(Ordering::Relaxed) < deadline {
            self.clock.now.store(deadline, Ordering::Relaxed);
        }
        self.clock.now.load(Ordering::Relaxed)
    }

    /// Runs for `secs` of virtual time beyond the current instant.
    pub fn run_for_secs(&self, secs: f64) -> Nanos {
        let d = Clock::secs(secs);
        let deadline = self.clock.now().saturating_add(d);
        self.run_until(deadline)
    }

    /// Number of live (not yet completed) tasks.
    pub fn live_tasks(&self) -> usize {
        self.tasks.borrow().len()
    }
}

struct JoinSlot<T> {
    value: Option<T>,
    waker: Option<Waker>,
}

/// A handle to a spawned task's result.
pub struct JoinHandle<T> {
    slot: Arc<Mutex<JoinSlot<T>>>,
}

impl<T> JoinHandle<T> {
    /// Returns the task's output if it has completed.
    pub fn try_take(&self) -> Option<T> {
        self.slot.lock().value.take()
    }

    /// Returns `true` once the task has completed.
    pub fn is_done(&self) -> bool {
        self.slot.lock().value.is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut slot = self.slot.lock();
        match slot.value.take() {
            Some(v) => Poll::Ready(v),
            None => {
                slot.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_run_and_complete() {
        let rt = SimRt::new();
        let h = rt.spawn(async { 21 * 2 });
        rt.run_until_idle();
        assert_eq!(h.try_take(), Some(42));
        assert_eq!(rt.live_tasks(), 0);
    }

    #[test]
    fn virtual_time_advances_through_sleeps() {
        let rt = SimRt::new();
        let clock = rt.clock();
        let c = clock.clone();
        let h = rt.spawn(async move {
            c.sleep_secs(2.5).await;
            c.now()
        });
        rt.run_until_idle();
        assert_eq!(h.try_take(), Some(2_500_000_000));
        assert_eq!(clock.now(), 2_500_000_000);
    }

    #[test]
    fn concurrent_sleeps_interleave_deterministically() {
        let rt = SimRt::new();
        let order = std::rc::Rc::new(RefCell::new(Vec::new()));
        for (name, delay) in [("b", 2.0), ("a", 1.0), ("c", 3.0), ("a2", 1.0)] {
            let clock = rt.clock();
            let order = std::rc::Rc::clone(&order);
            rt.spawn(async move {
                clock.sleep_secs(delay).await;
                order.borrow_mut().push(name);
            });
        }
        rt.run_until_idle();
        // Same deadline ties resolve in spawn order.
        assert_eq!(*order.borrow(), vec!["a", "a2", "b", "c"]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let rt = SimRt::new();
        let clock = rt.clock();
        let c = clock.clone();
        rt.spawn(async move {
            loop {
                c.sleep_secs(1.0).await;
            }
        });
        rt.run_until(Clock::secs(5.5));
        assert_eq!(clock.now(), 5_500_000_000);
        assert_eq!(rt.live_tasks(), 1);
        // Resume later.
        rt.run_until(Clock::secs(10.0));
        assert_eq!(clock.now(), 10_000_000_000);
    }

    #[test]
    fn join_handles_are_awaitable() {
        let rt = SimRt::new();
        let clock = rt.clock();
        let inner = rt.spawn({
            async move {
                clock.sleep_secs(1.0).await;
                7
            }
        });
        let outer = rt.spawn(async move { inner.await + 1 });
        rt.run_until_idle();
        assert_eq!(outer.try_take(), Some(8));
    }

    #[test]
    fn nested_spawns_do_not_deadlock() {
        let rt = SimRt::new();
        // Cannot capture &rt inside a task (lifetime); use a channel to
        // ask the outside to verify liveness instead.
        let clock = rt.clock();
        let h = rt.spawn(async move {
            clock.sleep_secs(0.5).await;
            99
        });
        rt.run_for_secs(1.0);
        assert_eq!(h.try_take(), Some(99));
    }
}
