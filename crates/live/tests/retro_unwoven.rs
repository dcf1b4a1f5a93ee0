//! Hindsight at a live process with nothing woven: `Agent::invoke`
//! records *every* invocation into the ring — woven or not — and the live
//! tracepoint call must not short-circuit that away. (It used to return on
//! an idle registry before reaching the agent, so a process with hindsight
//! on and no query installed recorded nothing and a fault trigger had no
//! history to flush.)

use pivot_baggage::Baggage;
use pivot_core::{set_trace, Agent, ProcessInfo, TriggerKind};
use pivot_live::{ctx, now_nanos, tracepoint};
use pivot_model::Value;

#[test]
fn an_unwoven_live_process_still_records_hindsight() {
    let agent = Agent::new(ProcessInfo {
        host: "host-A".into(),
        procid: 1,
        procname: "kvserver".into(),
    });
    agent.set_retro(true);
    assert!(agent.registry().is_idle(), "no query is installed");

    let id = 42;
    let _scope = ctx::attach(Baggage::new());
    ctx::with_baggage(|bag| set_trace(bag, id));
    for name in [
        "KvServer.receiveRequest",
        "KvShard.execute",
        "KvServer.sendResponse",
    ] {
        tracepoint(&agent, name, &[("bytes", Value::U64(7))]);
    }

    assert!(agent.trigger_retro(TriggerKind::Fault, id, now_nanos()));
    let reports = agent.drain_retro();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].request, id);
    let seen: Vec<&Value> = reports[0].events.iter().map(|e| &e.tracepoint).collect();
    assert_eq!(
        seen,
        [
            &Value::str("KvServer.receiveRequest"),
            &Value::str("KvShard.execute"),
            &Value::str("KvServer.sendResponse"),
        ]
    );
    // Off again, the unwoven call is back to costing nothing.
    agent.set_retro(false);
    tracepoint(&agent, "KvShard.execute", &[]);
    assert_eq!(agent.retro_counters().recorded, 3);
}
