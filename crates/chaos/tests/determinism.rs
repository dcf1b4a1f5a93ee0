//! Determinism regression: the same seed must reproduce the same faults
//! and the same final state, byte for byte, run after run.
//!
//! This is the property that makes every other chaos failure debuggable:
//! a CI failure log prints `CHAOS_SEED=<n>` and that seed replays the
//! identical schedule locally. The test runs everything twice in one
//! process — so anything leaking global state (the process-wide
//! incarnation counter, thread-local VM scratch) into the schedule or the
//! outcome shows up as a diff here.

use pivot_chaos::sim::{kv_sources, run_kv};
use pivot_chaos::{FaultConfig, FaultPlan};

fn seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        return vec![s.parse().expect("CHAOS_SEED must be a u64")];
    }
    (0..24u64).map(|i| 0xd1ce_0000 + i * 7).collect()
}

#[test]
fn same_seed_identical_fault_schedule() {
    let (client, shard) = kv_sources();
    for seed in seeds() {
        let a = FaultPlan::from_seed(seed).fingerprint(&[client, shard], &[1], 128);
        let b = FaultPlan::from_seed(seed).fingerprint(&[client, shard], &[1], 128);
        assert_eq!(
            a, b,
            "CHAOS_SEED={seed}: two plans from one seed produced different schedules"
        );
        assert!(!a.is_empty());
    }
}

#[test]
fn same_seed_identical_outcome() {
    for seed in seeds() {
        let cfg = FaultConfig::for_seed(seed);
        let first = run_kv(seed, cfg, 256);
        let second = run_kv(seed, cfg, 256);
        assert_eq!(
            first, second,
            "CHAOS_SEED={seed}: same seed, different outcome — determinism regression"
        );
    }
}

#[test]
fn different_seeds_diverge() {
    // Sanity that the equality above is not vacuous: some pair of seeds
    // must produce different outcomes.
    let outs: Vec<_> = (0..8u64)
        .map(|s| run_kv(s, FaultConfig::for_seed(s), 256))
        .collect();
    assert!(
        outs.windows(2).any(|w| w[0] != w[1]),
        "eight different seeds produced identical outcomes"
    );
}
