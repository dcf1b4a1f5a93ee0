//! Plan publication under concurrency: one thread uninstalls and
//! re-installs a query while two others invoke its tracepoint. An
//! invocation runs the plan it looked up or finds none; either way every
//! tuple it emits lands in the query's buffer, which outlives the weave.
//! The ThreadSanitizer job runs this with the rest of the crate's tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use pivot_baggage::Baggage;
use pivot_core::{Agent, Command, Frontend, Ledger, ProcessInfo};
use pivot_model::Value;

const INVOKERS: usize = 2;
const EVENTS: u64 = 20_000;

#[test]
fn reweaving_under_two_invokers_keeps_the_books() {
    let mut fe = Frontend::new();
    fe.define("Race.site", ["k"]);
    let handle = fe
        .install("From e In Race.site GroupBy e.k Select e.k, COUNT")
        .expect("installs");
    let code = fe.code(&handle).expect("code");
    let agent = Agent::new(ProcessInfo {
        host: "host-A".into(),
        procid: 1,
        procname: "race".into(),
    });
    agent.install(&code);

    // All three start together; the weaver keeps going until both
    // invokers are through, so every invocation races a weave.
    let start = Barrier::new(INVOKERS + 1);
    let running = AtomicUsize::new(INVOKERS);
    let (mut delivered, mut cycles) = (0u64, 0u64);
    std::thread::scope(|s| {
        for _ in 0..INVOKERS {
            s.spawn(|| {
                start.wait();
                let mut bag = Baggage::new();
                for i in 0..EVENTS {
                    agent.invoke("Race.site", &mut bag, i, &[("k", Value::U64(i % 8))]);
                }
                running.fetch_sub(1, Ordering::SeqCst);
            });
        }
        start.wait();
        while running.load(Ordering::SeqCst) > 0 {
            agent.apply(&Command::Uninstall(handle.id));
            delivered += agent.flush(cycles).iter().map(|r| r.tuples).sum::<u64>();
            agent.install(&code);
            cycles += 1;
        }
    });
    delivered += agent.flush(cycles).iter().map(|r| r.tuples).sum::<u64>();

    let books = Ledger {
        delivered,
        ..Ledger::of_agent(&agent, &[handle.id])
    };
    books.balance().unwrap_or_else(|e| panic!("{e}"));
    // One tuple per advised invocation, and no invocation ran advice that
    // was not there: idle and advised add up to what was offered.
    let stats = agent.stats();
    assert_eq!(stats.tuples_emitted, books.produced);
    assert_eq!(stats.advised_invocations, books.produced);
    assert!(stats.advised_invocations + stats.idle_invocations <= INVOKERS as u64 * EVENTS);
    assert!(cycles > 0);
}
