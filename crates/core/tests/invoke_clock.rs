//! `Agent::invoke_at` reads its clock only for an event that uses the
//! time: when hindsight records it, when a governor's window is charged,
//! or when advice woven at the tracepoint observes `timestamp` — and then
//! the advice sees that reading. `pivot_live::tracepoint` passes the wall
//! clock this way, so an idle site of a woven process pays no clock read.

use std::cell::Cell;

use pivot_baggage::Baggage;
use pivot_core::bus::ReportRows;
use pivot_core::{Agent, Frontend, ProcessInfo, QueryBudget};
use pivot_model::Value;

#[test]
fn the_clock_is_read_only_for_an_event_that_uses_the_time() {
    let mut fe = Frontend::new();
    fe.define("Plain", ["x"]);
    fe.define("Stamped", ["x"]);
    let plain = fe
        .install("From e In Plain GroupBy e.host Select e.host, SUM(e.x)")
        .expect("installs");
    let stamped = fe
        .install("From e In Stamped Select e.timestamp, e.x")
        .expect("installs");
    let agent = Agent::new(ProcessInfo {
        host: "host-A".into(),
        procid: 7,
        procname: "proc".into(),
    });
    agent.install(&fe.code(&plain).expect("code"));
    agent.install(&fe.code(&stamped).expect("code"));

    let reads = Cell::new(0u32);
    let invoke = |tracepoint: &str| {
        let clock = || {
            reads.set(reads.get() + 1);
            7
        };
        let exports = [("x", Value::I64(1))];
        agent.invoke_at(tracepoint, &mut Baggage::new(), clock, &exports);
        reads.replace(0)
    };
    assert_eq!(invoke("Nothing.woven.here"), 0);
    assert_eq!(invoke("Plain"), 0, "this advice never looks at the time");
    assert_eq!(invoke("Stamped"), 1);

    // A finite budget meters every run at the agent against a window.
    let metered = QueryBudget {
        ops_per_window: 1 << 40,
        ..QueryBudget::unlimited()
    };
    agent.set_budget(plain.id, metered);
    assert_eq!(invoke("Plain"), 1);
    assert_eq!(invoke("Nothing.woven.here"), 0);
    agent.set_budget(plain.id, QueryBudget::unlimited());
    assert_eq!(invoke("Plain"), 0);

    // Hindsight stamps every event, woven or not.
    agent.set_retro(true);
    assert_eq!(invoke("Nothing.woven.here"), 1);
    agent.set_retro(false);
    assert_eq!(invoke("Nothing.woven.here"), 0);

    // The advice that asked for the time got the clock's reading.
    let reports = agent.flush(9);
    let report = reports.iter().find(|r| r.query == stamped.id);
    let ReportRows::RawEncoded(blocks) = &report.expect("the streaming query emitted").rows else {
        panic!("a streaming query reports blocks");
    };
    let rows = blocks[0].decode().expect("own block decodes");
    assert_eq!(rows[0].get(0), &Value::U64(7));
}
