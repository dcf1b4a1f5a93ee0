//! Fault-injecting bus middleware.
//!
//! [`ChaosBus`] is a [`SchedBus`] whose policy is a [`FaultPlan`]: report
//! frames can be dropped, duplicated, or held for later (delays double as
//! partitions and limplock); command frames can be duplicated or held,
//! never dropped. Everything the injector does is tallied in
//! [`ChaosStats`], whose report-lane `payload_dropped` is the ground truth
//! the frontend's per-query loss accounting is checked against.
//!
//! The delivery *mechanics* — pending frames, release deadlines, the
//! tallies themselves — live in [`pivot_core::SchedBus`]; this module
//! only contributes the policy: [`PlanScheduler`] turns the seeded fault
//! PRF into a [`pivot_core::Scheduler`].

use pivot_core::{Command, Report, RetroReport, SchedBus, Scheduler, Verdict};

use crate::plan::FaultPlan;

/// What the injector did, cumulatively (the chaos-facing name for the
/// shared [`pivot_core::DeliveryStats`] tallies).
pub use pivot_core::DeliveryStats as ChaosStats;

/// A [`pivot_core::Bus`] wrapper that injects the faults a [`FaultPlan`]
/// schedules: `ChaosBus::new(inner, PlanScheduler::new(plan))`.
///
/// Works over any transport — [`pivot_core::LocalBus`], the simulated
/// cluster's `Rc<Cluster>`, or a live `Arc<TcpBusServer>` — because it
/// only touches the `Bus` trait surface.
pub type ChaosBus<B> = SchedBus<B, PlanScheduler>;

/// Stable identity of a reporting process for fault-schedule keying:
/// a hash of `(host, procid)`. Deliberately excludes the agent
/// incarnation so restarts keep the same schedule (see `plan.rs`).
pub fn source_key(host: &str, procid: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in host.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ pivot_simrt::mix64(procid)
}

/// The fault PRF as a delivery policy: every verdict comes from the
/// stateless [`FaultPlan`], keyed by frame identity.
pub struct PlanScheduler {
    plan: FaultPlan,
}

impl PlanScheduler {
    /// The policy scheduling faults from `plan`.
    pub fn new(plan: FaultPlan) -> PlanScheduler {
        PlanScheduler { plan }
    }

    /// The fault schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl Scheduler for PlanScheduler {
    fn command_verdict(&self, index: u64, _cmd: &Command) -> Verdict {
        match self.plan.command_verdict(index) {
            // Commands are never dropped — a permanently lost install is
            // indistinguishable from "not installed", which the epoch
            // re-sync path covers instead.
            Verdict::Drop => Verdict::Deliver,
            v => v,
        }
    }

    fn report_verdict(&self, r: &Report, now: u64) -> Verdict {
        self.plan
            .report_verdict(source_key(&r.host, r.procid), r.query.0, r.seq, now)
    }

    fn retro_verdict(&self, r: &RetroReport, now: u64) -> Verdict {
        self.plan
            .retro_verdict(source_key(&r.host, r.procid), r.seq, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultConfig;
    use pivot_core::{Bus, LocalBus};

    #[test]
    fn disabled_bus_is_transparent() {
        let chaos = ChaosBus::new(LocalBus::new(), PlanScheduler::new(FaultPlan::from_seed(3)));
        chaos.set_enabled(false);
        assert!(chaos.drain(0).reports.is_empty());
        assert_eq!(chaos.stats(), ChaosStats::default());
    }

    #[test]
    fn source_key_is_stable_and_separates_hosts() {
        assert_eq!(source_key("host-A", 1), source_key("host-A", 1));
        assert_ne!(source_key("host-A", 1), source_key("host-B", 1));
        assert_ne!(source_key("host-A", 1), source_key("host-A", 2));
    }

    #[test]
    fn off_plan_passes_everything_but_counts_frames() {
        let plan = FaultPlan::new(1, FaultConfig::off());
        let chaos = ChaosBus::new(LocalBus::new(), PlanScheduler::new(plan));
        chaos.broadcast(&Command::Uninstall(pivot_baggage::QueryId(9)));
        let st = chaos.stats();
        assert_eq!(st.commands.seen, 1);
        assert_eq!(st.commands.duplicated + st.commands.delayed, 0);
    }
}
