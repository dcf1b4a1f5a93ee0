//! `ChaosBus` composes with the simulated-cluster transport: the injector
//! only touches the `Bus` trait, so an `Rc<Cluster>` wraps exactly like a
//! `LocalBus`.

use std::rc::Rc;

use pivot_baggage::Baggage;
use pivot_chaos::{ChaosBus, FaultConfig, FaultPlan, PlanScheduler};
use pivot_core::Bus;
use pivot_hadoop::{Cluster, ClusterConfig};
use pivot_model::Value;

#[test]
fn chaos_wraps_the_simulated_cluster() {
    let cluster = Cluster::new(ClusterConfig::small(7));
    let host = Rc::clone(&cluster.workers()[0]);
    let agent = cluster.new_agent(&host, "DataNode");

    let handle = cluster
        .frontend
        .borrow_mut()
        .install_named(
            "QC",
            "From incr In DataNodeMetrics.incrBytesRead
             GroupBy incr.host
             Select incr.host, SUM(incr.delta)",
        )
        .expect("query installs");

    // Route the install through a fault-free chaos wrapper around the
    // cluster itself, then pump reports back out through the same wrapper.
    let plan = FaultPlan::new(7, FaultConfig::off());
    let chaos = ChaosBus::new(Rc::clone(&cluster), PlanScheduler::new(plan));
    let cmds = cluster.frontend.borrow_mut().drain_commands();
    for cmd in &cmds {
        Bus::broadcast(&chaos, cmd);
    }

    let mut bag = Baggage::new();
    agent.invoke(
        "DataNodeMetrics.incrBytesRead",
        &mut bag,
        10,
        &[("delta", Value::I64(7))],
    );
    chaos.pump_into(1_000_000_000, &mut cluster.frontend.borrow_mut());

    let fe = cluster.frontend.borrow();
    let res = fe.results(&handle);
    let rows = res.rows();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].values[1], Value::I64(7));
    assert_eq!(res.loss().tuples_delivered, 1);
    assert!(!res.loss().is_degraded());
}
