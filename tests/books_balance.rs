//! Tier-1 slice of the loss books: sixteen seeded fault schedules over the
//! simulated KV workload, every run's `Ledger` balanced, and a sweep that
//! did inject what the identity is there to account for. The 200-seed
//! sweeps with the differential and dedup invariants live in
//! `crates/chaos/tests`; this is the part a root `cargo test -q` sees.

use pivot_chaos::sim::run_kv;
use pivot_chaos::FaultConfig;

#[test]
fn sixteen_faulty_runs_balance_and_the_faults_were_real() {
    let (mut dropped, mut duplicated, mut crashes) = (0u64, 0u64, 0u64);
    for seed in 0..16 {
        let out = run_kv(seed, FaultConfig::for_seed(seed), 128);
        assert_eq!(out.books.balance(), Ok(()), "seed {seed}");
        dropped += out.chaos.reports.dropped;
        duplicated += out.chaos.reports.duplicated;
        crashes += out.crashes;
    }
    assert!(
        dropped > 0 && duplicated > 0 && crashes > 0,
        "a sweep without faults proves nothing: {dropped} dropped, {duplicated} duplicated, {crashes} crashes"
    );
}
