//! Seeded chaos sweep for the retroactive-tracing path.
//!
//! Runs the scripted KV workload with hindsight recording on — a
//! `Trigger`-bearing query woven on the shard, a latency-outlier
//! threshold armed, and a fault-site trigger fired at every scheduled
//! crash — under a few hundred seed-derived fault mixes, and checks that
//! hindsight data stays as honest as the report path it rides:
//!
//! 1. No panic, ever, under any schedule.
//! 2. The extended identity balances *exactly*, crash and partition
//!    included: every raw event recorded into any ring is delivered,
//!    dropped-by-injector, sampled out of the ring, shed from a pending
//!    queue, or crash-lost — with no slack term.
//! 3. The ordinary tuple identity still balances with retro on: the
//!    hindsight path must not perturb report accounting.
//! 4. Frontend retro dedup agrees with what the injector duplicated, and
//!    accepted reports equal exactly the frames the injector let through.
//! 5. Rings stay bounded: occupancy never exceeds the configured cap.
//!
//! Reproduce any failure with `CHAOS_SEED=<n> cargo test -p pivot-chaos
//! --test retro_loss`; CI derives fresh seeds from the commit SHA via
//! `CHAOS_SEED_BASE` / `CHAOS_SEEDS`.

use pivot_chaos::sim::{run_kv_retro, RETRO_RING_CAP};
use pivot_chaos::FaultConfig;

const REQUESTS: u64 = 256;

fn seed_list() -> Vec<u64> {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        let one = s.parse().expect("CHAOS_SEED must be a u64");
        return vec![one];
    }
    let base: u64 = std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x6e1d_0000);
    let count: u64 = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    (0..count).map(|i| base.wrapping_add(i)).collect()
}

#[test]
fn retro_sweep_identity_is_exact() {
    let baseline = run_kv_retro(0, FaultConfig::off(), REQUESTS);
    assert_eq!(baseline.books.balance(), Ok(()));
    assert_eq!(baseline.retro_books.balance(), Ok(()));

    let seeds = seed_list();
    let mut faulty_runs = 0u64;
    let mut crashed_runs = 0u64;
    let mut retro_faulted_runs = 0u64;
    let mut retro_crash_lost_runs = 0u64;
    for &seed in &seeds {
        let out = run_kv_retro(seed, FaultConfig::for_seed(seed), REQUESTS);

        // (2) Exact event conservation across the hindsight path.
        assert_eq!(
            out.retro_books.balance(),
            Ok(()),
            "CHAOS_SEED={seed}: retro identity violated"
        );

        // (3) The ordinary tuple identity survives retro being on.
        assert_eq!(
            out.books.balance(),
            Ok(()),
            "CHAOS_SEED={seed}: tuple identity violated with retro on: {out:?}"
        );

        // (4) Cross-ledger agreement, frame by frame: the frontend
        // suppressed exactly the duplicates the injector created, and
        // accepted exactly the frames the injector did not destroy.
        assert_eq!(
            out.retro.reports_duplicate, out.chaos.retro.duplicated,
            "CHAOS_SEED={seed}: retro dedup disagrees with the injector"
        );
        assert_eq!(
            out.retro.reports_accepted,
            out.chaos.retro.seen - out.chaos.retro.dropped,
            "CHAOS_SEED={seed}: accepted retro reports != frames the injector let through"
        );

        // (5) Bounded recording, whatever the schedule does.
        assert!(
            out.max_ring <= RETRO_RING_CAP,
            "CHAOS_SEED={seed}: ring occupancy {} exceeded cap {RETRO_RING_CAP}",
            out.max_ring
        );

        // Surviving grouped rows still match the fault-free baseline:
        // hindsight machinery must not corrupt ordinary results.
        for row in &out.rows {
            let matching = baseline.rows.iter().find(|b| b.values[0] == row.values[0]);
            assert_eq!(
                matching,
                Some(row),
                "CHAOS_SEED={seed}: surviving row diverges from the fault-free baseline"
            );
        }

        faulty_runs +=
            u64::from(out.chaos.reports.dropped + out.chaos.reports.delayed + out.crashes > 0);
        crashed_runs += u64::from(out.crashes > 0);
        retro_faulted_runs += u64::from(
            out.chaos.retro.dropped + out.chaos.retro.delayed + out.chaos.retro.duplicated > 0,
        );
        retro_crash_lost_runs += u64::from(out.retro_books.crash_lost > 0);
    }
    // The sweep must actually exercise the interesting regimes, not
    // vacuously pass: most seeds inject faults, and a healthy share hit
    // the retro path mid-transport and mid-crash specifically.
    assert!(
        faulty_runs * 2 > seeds.len() as u64,
        "only {faulty_runs}/{} seeds injected faults — schedule generator is broken",
        seeds.len()
    );
    if seeds.len() >= 100 {
        assert!(
            retro_faulted_runs >= 20,
            "only {retro_faulted_runs}/{} seeds faulted retro frames in transit",
            seeds.len()
        );
        assert!(
            crashed_runs >= 20 && retro_crash_lost_runs >= 10,
            "crash coverage too thin: {crashed_runs} crashed, \
             {retro_crash_lost_runs} lost retro events in crashes"
        );
    }
}

#[test]
fn retro_heavy_loss_still_balances() {
    // A deliberately brutal mix aimed at the retro path's worst cases:
    // heavy drops and duplicates, long partition windows (flushes land
    // mid-partition and are held), and frequent crashes (triggered
    // reports die pending).
    let cfg = FaultConfig {
        drop_per_mille: 400,
        dup_per_mille: 200,
        delay_per_mille: 200,
        delay_ns: 80_000_000,
        partition_per_mille: 300,
        partition_window_ns: 40_000_000,
        crash_per_mille: 150,
        ..FaultConfig::for_seed(99)
    };
    let mut retro_dropped_somewhere = false;
    let mut retro_crash_lost_somewhere = false;
    for seed in 0..32u64 {
        let out = run_kv_retro(seed, cfg, REQUESTS);
        assert_eq!(out.books.balance(), Ok(()), "CHAOS_SEED={seed}: {out:?}");
        assert_eq!(
            out.retro_books.balance(),
            Ok(()),
            "CHAOS_SEED={seed}: {out:?}"
        );
        retro_dropped_somewhere |= out.retro_books.dropped > 0;
        retro_crash_lost_somewhere |= out.retro_books.crash_lost > 0;
    }
    assert!(
        retro_dropped_somewhere && retro_crash_lost_somewhere,
        "heavy-loss mix never exercised retro transport drops or retro crash loss"
    );
}

#[test]
fn retro_same_seed_identical_outcome() {
    // Determinism replay: the entire RetroOutcome — rows, both loss
    // ledgers, the hindsight ground truth, report routing counts —
    // must be byte-identical across two runs of the same seed.
    for seed in (0..16u64).map(|i| 0xbeef_0000 + i * 13) {
        let cfg = FaultConfig::for_seed(seed);
        let first = run_kv_retro(seed, cfg, REQUESTS);
        let second = run_kv_retro(seed, cfg, REQUESTS);
        assert_eq!(
            first, second,
            "CHAOS_SEED={seed}: same seed, different retro outcome — determinism regression"
        );
    }
}

#[test]
fn retro_different_seeds_diverge() {
    // Sanity that the replay equality is not vacuous.
    let outs: Vec<_> = (0..8u64)
        .map(|s| run_kv_retro(s, FaultConfig::for_seed(s), REQUESTS))
        .collect();
    assert!(
        outs.windows(2).any(|w| w[0] != w[1]),
        "eight different seeds produced identical retro outcomes"
    );
}
