//! Hindsight on the simulated cluster: a `Trigger` query's flushes reach
//! the frontend through the same reporter loop as its partial results.

use pivot_hadoop::cluster::{Cluster, ClusterConfig};
use pivot_hadoop::ctx::Ctx;
use pivot_model::Value;

#[test]
fn the_reporter_delivers_a_trigger_query_s_retro_reports() {
    let c = Cluster::new(ClusterConfig::small(1));
    let handle = c
        .install(
            "From incr In DataNodeMetrics.incrBytesRead
             Where incr.delta > 1000
             Trigger
             Select incr.delta",
        )
        .unwrap();
    let agent = c.new_agent(&c.hosts[0], "DataNode");
    let clock = c.clock.clone();
    c.rt.spawn(async move {
        let mut ctx = Ctx::new();
        pivot_core::set_trace(&mut ctx.bag, 7);
        for delta in [10, 4096] {
            agent.invoke(
                "DataNodeMetrics.incrBytesRead",
                &mut ctx.bag,
                clock.now(),
                &[("delta", Value::I64(delta))],
            );
        }
    });
    // One reporting interval, and then some.
    c.rt.run_for_secs(2.0);
    let fe = c.frontend.borrow();
    let retro = fe.results(&handle).retro();
    assert_eq!(retro.len(), 1, "{retro:?}");
    assert_eq!(retro[0].request, 7);
    // The ring held the request's history up to the trigger: both
    // invocations, the one that did not fire it included.
    assert_eq!(retro[0].events.len(), 2, "{retro:?}");
    assert_eq!(fe.retro_loss().reports_accepted, 1);
}
