//! Deterministic fault schedules.
//!
//! A [`FaultPlan`] is a *pure function* from `(seed, decision keys)` to a
//! fault [`Verdict`]: it holds no mutable state, so the verdict for a given
//! report never depends on how many other decisions were drawn before it,
//! in what order threads interleaved, or how many times the plan was
//! consulted. Two runs with the same seed produce byte-identical fault
//! schedules even when everything else about their execution differs —
//! the property the determinism regression test pins down.
//!
//! Decisions are keyed by `(source, query, seq)` where `source` is a
//! stable hash of `(host, procid)` (see [`crate::source_key`]). Agent
//! *incarnation* is deliberately excluded: incarnation numbers come from a
//! process-global counter, so a second run inside the same process would
//! see different incarnations and a different schedule.

use pivot_simrt::mix64;

// Domain-separation tags: each decision family draws from its own stream
// so e.g. the drop roll for seq 3 never correlates with the crash roll for
// step 3.
const STREAM_REPORT: u64 = 0x5245_504f_5254_0001;
const STREAM_PARTITION: u64 = 0x5041_5254_0000_0002;
const STREAM_LIMP: u64 = 0x4c49_4d50_0000_0003;
const STREAM_CRASH: u64 = 0x4352_4153_4800_0004;
const STREAM_COMMAND: u64 = 0x434f_4d4d_4144_0005;
const STREAM_STORM: u64 = 0x5354_4f52_4d00_0006;
const STREAM_LINK: u64 = 0x4c49_4e4b_0000_0007;
const STREAM_RETRO: u64 = 0x5245_5452_4f00_0008;

/// Per-fault-class injection rates and magnitudes.
///
/// Rates are per-mille (0..=1000) rather than floats so configurations
/// hash and compare exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultConfig {
    /// Per-mille chance a report frame is dropped.
    pub drop_per_mille: u32,
    /// Per-mille chance a report frame is duplicated (delivered twice).
    pub dup_per_mille: u32,
    /// Per-mille chance a report frame is delayed (reordering arises when
    /// later frames overtake it).
    pub delay_per_mille: u32,
    /// Base delay for delayed report frames (scaled 1–4x by the roll).
    pub delay_ns: u64,
    /// Per-mille chance a partition window is active for a source.
    pub partition_per_mille: u32,
    /// Width of a partition window; during an active window every frame
    /// from the partitioned source is held until the window closes.
    pub partition_window_ns: u64,
    /// Per-mille chance a source is a limplock victim for the whole run
    /// (every delivered frame pays `limp_delay_ns` extra).
    pub limp_per_mille: u32,
    /// Extra delay paid by every frame from a limping source.
    pub limp_delay_ns: u64,
    /// Per-mille chance an agent crashes at a given flush boundary.
    pub crash_per_mille: u32,
    /// Per-mille chance a command frame is duplicated.
    pub cmd_dup_per_mille: u32,
    /// Per-mille chance a command frame is delayed.
    pub cmd_delay_per_mille: u32,
    /// Delay applied to delayed command frames.
    pub cmd_delay_ns: u64,
    /// Per-mille chance a request step is a *tracepoint storm*: the
    /// workload invokes its tracepoints `storm_burst`× (scaled 1–4x by
    /// the roll) instead of once, flooding the governor's tuple and ops
    /// budgets. The overload fault family (zero in [`FaultConfig::off`]
    /// and [`FaultConfig::for_seed`]; see
    /// [`FaultConfig::overload_for_seed`]).
    pub storm_per_mille: u32,
    /// Base invocation multiplier of a storm step.
    pub storm_burst: u32,
    /// Per-mille chance a request step is a *group-key explosion*: the
    /// workload emits under a unique-per-invocation group key, flooding
    /// grouped buffers past the row cap.
    pub explode_per_mille: u32,
}

impl FaultConfig {
    /// No faults at all: every verdict is `Deliver`, no source limps,
    /// nothing crashes. The baseline configuration for differential runs.
    pub fn off() -> FaultConfig {
        FaultConfig {
            drop_per_mille: 0,
            dup_per_mille: 0,
            delay_per_mille: 0,
            delay_ns: 0,
            partition_per_mille: 0,
            partition_window_ns: 0,
            limp_per_mille: 0,
            limp_delay_ns: 0,
            crash_per_mille: 0,
            cmd_dup_per_mille: 0,
            cmd_delay_per_mille: 0,
            cmd_delay_ns: 0,
            storm_per_mille: 0,
            storm_burst: 0,
            explode_per_mille: 0,
        }
    }

    /// Derives a fault mix from `seed` so a single integer reproduces both
    /// the schedule *and* the severity profile. Roughly one seed in four
    /// gets partitions, one in four gets a limping source, one in three
    /// gets crash-restart cycles; drop/dup/delay rates vary smoothly.
    pub fn for_seed(seed: u64) -> FaultConfig {
        let r = |i: u64| mix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        FaultConfig {
            drop_per_mille: (r(1) % 150) as u32,
            dup_per_mille: (r(2) % 100) as u32,
            delay_per_mille: (r(3) % 200) as u32,
            delay_ns: (1 + r(4) % 8) * 10_000_000,
            partition_per_mille: if r(5) % 4 == 0 { 150 } else { 0 },
            partition_window_ns: 50_000_000,
            limp_per_mille: if r(6) % 4 == 0 { 400 } else { 0 },
            limp_delay_ns: 30_000_000,
            crash_per_mille: if r(7) % 3 == 0 { 60 } else { 0 },
            cmd_dup_per_mille: 50,
            cmd_delay_per_mille: 30,
            cmd_delay_ns: 5_000_000,
            // The overload family stays off in the general mix so the
            // long-standing differential-subset property (chaotic rows ⊆
            // fault-free rows) keeps holding; overload runs opt in via
            // `overload_for_seed`.
            storm_per_mille: 0,
            storm_burst: 0,
            explode_per_mille: 0,
        }
    }

    /// Derives an *overload* fault mix from `seed`: tracepoint storms and
    /// group-key explosions layered on a mild transport mix, so governor
    /// runs still see drops/dups/crashes but the dominant pressure is
    /// workload volume, not frame loss.
    pub fn overload_for_seed(seed: u64) -> FaultConfig {
        let r = |i: u64| mix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        FaultConfig {
            drop_per_mille: (r(8) % 60) as u32,
            dup_per_mille: (r(9) % 40) as u32,
            delay_per_mille: 0,
            partition_per_mille: 0,
            limp_per_mille: 0,
            crash_per_mille: if r(10) % 3 == 0 { 40 } else { 0 },
            storm_per_mille: 150 + (r(11) % 250) as u32,
            storm_burst: 32 + (r(12) % 96) as u32,
            explode_per_mille: 100 + (r(13) % 200) as u32,
            ..FaultConfig::for_seed(seed)
        }
    }
}

/// The fate of one frame. The enum itself lives in `pivot_core::bus`
/// (delivery mechanics are shared with every scheduled transport); this
/// crate's plans are one way of *producing* verdicts.
pub use pivot_core::Verdict;

/// A seeded, stateless fault schedule (see the module docs for the
/// determinism contract).
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
}

impl FaultPlan {
    /// A plan drawing from `seed` with an explicit fault mix.
    pub fn new(seed: u64, cfg: FaultConfig) -> FaultPlan {
        FaultPlan { seed, cfg }
    }

    /// A plan whose fault mix is itself derived from the seed
    /// ([`FaultConfig::for_seed`]).
    pub fn from_seed(seed: u64) -> FaultPlan {
        FaultPlan::new(seed, FaultConfig::for_seed(seed))
    }

    /// The seed (echo it in failure messages: `CHAOS_SEED=<n>` reproduces
    /// the run).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault mix.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Derives an independent plan for link `link`: the same fault mix,
    /// but decision streams re-seeded per link, so every edge of a relay
    /// tree (agent→leaf, leaf→root, root→frontend) draws its own
    /// schedule from one root seed. Pure like everything else here:
    /// deriving the same link twice yields behaviourally identical
    /// plans, and one integer still reproduces the whole tree's faults.
    pub fn derive(&self, link: u64) -> FaultPlan {
        FaultPlan {
            seed: mix64(mix64(self.seed ^ STREAM_LINK) ^ link),
            cfg: self.cfg,
        }
    }

    /// One PRF draw, domain-separated by `stream` and keyed by `(a, b, c)`.
    fn roll(&self, stream: u64, a: u64, b: u64, c: u64) -> u64 {
        mix64(mix64(mix64(mix64(self.seed ^ stream) ^ a) ^ b) ^ c)
    }

    /// The fate of report frame `(source, query, seq)` flushed at `now`.
    pub fn report_verdict(&self, source: u64, query: u64, seq: u64, now: u64) -> Verdict {
        self.frame_verdict(self.roll(STREAM_REPORT, source, query, seq), source, now)
    }

    /// The fate of retro-flush frame `(source, seq)` crossing the bus at
    /// `now`. Draws from its own PRF stream (so adding retro traffic
    /// never perturbs the report schedule) but composes with the same
    /// partition and limplock state — a partitioned source's retro
    /// frames are held with everything else.
    pub fn retro_verdict(&self, source: u64, seq: u64, now: u64) -> Verdict {
        self.frame_verdict(self.roll(STREAM_RETRO, source, seq, 0), source, now)
    }

    /// Turns one frame's PRF draw `r` into its fate.
    ///
    /// Partition and limplock compose with the per-frame roll: a partition
    /// holds everything until its window closes (so `Drop` stays `Drop`
    /// but deliveries become delays), and a limping source pays a constant
    /// extra delay on every delivered frame.
    fn frame_verdict(&self, r: u64, source: u64, now: u64) -> Verdict {
        let pick = (r % 1000) as u32;
        let c = &self.cfg;
        let mut verdict = if pick < c.drop_per_mille {
            Verdict::Drop
        } else if pick < c.drop_per_mille + c.dup_per_mille {
            Verdict::Duplicate
        } else if pick < c.drop_per_mille + c.dup_per_mille + c.delay_per_mille {
            Verdict::Delay(c.delay_ns * (1 + (r >> 32) % 4))
        } else {
            Verdict::Deliver
        };
        if let Some(hold) = self.partitioned(source, now) {
            verdict = match verdict {
                Verdict::Drop => Verdict::Drop,
                Verdict::Delay(d) => Verdict::Delay(d.max(hold)),
                Verdict::Deliver | Verdict::Duplicate => Verdict::Delay(hold),
            };
        }
        if self.limping(source) {
            verdict = match verdict {
                Verdict::Deliver => Verdict::Delay(c.limp_delay_ns),
                Verdict::Delay(d) => Verdict::Delay(d + c.limp_delay_ns),
                v => v,
            };
        }
        verdict
    }

    /// Nanoseconds until the current partition window for `source` closes,
    /// or `None` when the source is not partitioned at `now`.
    pub fn partitioned(&self, source: u64, now: u64) -> Option<u64> {
        let w = self.cfg.partition_window_ns;
        if w == 0 || self.cfg.partition_per_mille == 0 {
            return None;
        }
        let window = now / w;
        let roll = (self.roll(STREAM_PARTITION, source, window, 0) % 1000) as u32;
        (roll < self.cfg.partition_per_mille).then(|| (window + 1) * w - now)
    }

    /// Whether `source` is a limplock victim (decided once per run, not per
    /// frame — a limping node is slow for its whole life).
    pub fn limping(&self, source: u64) -> bool {
        ((self.roll(STREAM_LIMP, source, 0, 0) % 1000) as u32) < self.cfg.limp_per_mille
    }

    /// Whether the agent behind `source` crashes at flush boundary `step`.
    pub fn should_crash(&self, source: u64, step: u64) -> bool {
        ((self.roll(STREAM_CRASH, source, step, 0) % 1000) as u32) < self.cfg.crash_per_mille
    }

    /// Invocation multiplier for request step `step` issued by `source`:
    /// `1` on an ordinary step, `>1` on a tracepoint-storm step (the base
    /// burst scaled 1–4x by the roll). Pure function of the keys, like
    /// every other verdict.
    pub fn storm_burst(&self, source: u64, step: u64) -> u32 {
        let r = self.roll(STREAM_STORM, source, step, 0);
        if ((r % 1000) as u32) < self.cfg.storm_per_mille {
            self.cfg.storm_burst.max(1) * (1 + ((r >> 32) % 4) as u32)
        } else {
            1
        }
    }

    /// Whether request step `step` from `source` is a group-key explosion
    /// (the workload emits under unique-per-invocation group keys).
    pub fn explodes(&self, source: u64, step: u64) -> bool {
        ((self.roll(STREAM_STORM, source, step, 1) % 1000) as u32) < self.cfg.explode_per_mille
    }

    /// The fate of the `index`-th broadcast command frame. Commands are
    /// never dropped — a permanently lost install is indistinguishable
    /// from "not installed", which the epoch re-sync path covers instead —
    /// but they can be duplicated (exercising install idempotence) or
    /// delayed (exercising late weaves).
    pub fn command_verdict(&self, index: u64) -> Verdict {
        let r = self.roll(STREAM_COMMAND, index, 0, 0);
        let pick = (r % 1000) as u32;
        let c = &self.cfg;
        if pick < c.cmd_dup_per_mille {
            Verdict::Duplicate
        } else if pick < c.cmd_dup_per_mille + c.cmd_delay_per_mille {
            Verdict::Delay(c.cmd_delay_ns)
        } else {
            Verdict::Deliver
        }
    }

    /// A canonical byte encoding of the schedule this plan would produce
    /// for `sources` × `queries` over `events` sequence numbers (probing
    /// time at a fixed cadence), plus the command and crash schedules.
    /// Two plans are behaviourally identical iff their fingerprints match;
    /// the determinism test compares fingerprints across runs.
    pub fn fingerprint(&self, sources: &[u64], queries: &[u64], events: u64) -> Vec<u8> {
        const PROBE_STEP: u64 = 16_000_000; // harness flush cadence
        let mut out = Vec::new();
        let push_verdict = |out: &mut Vec<u8>, v: Verdict| match v {
            Verdict::Deliver => out.push(0),
            Verdict::Drop => out.push(1),
            Verdict::Duplicate => out.push(2),
            Verdict::Delay(d) => {
                out.push(3);
                out.extend_from_slice(&d.to_le_bytes());
            }
        };
        for &s in sources {
            out.push(u8::from(self.limping(s)));
            for &q in queries {
                for seq in 0..events {
                    let v = self.report_verdict(s, q, seq, seq * PROBE_STEP);
                    push_verdict(&mut out, v);
                }
            }
            for step in 0..events {
                out.push(u8::from(self.should_crash(s, step)));
                out.extend_from_slice(&self.storm_burst(s, step).to_le_bytes());
                out.push(u8::from(self.explodes(s, step)));
            }
        }
        for idx in 0..events {
            push_verdict(&mut out, self.command_verdict(idx));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_delivers_everything() {
        let plan = FaultPlan::new(42, FaultConfig::off());
        for seq in 0..1000 {
            assert_eq!(plan.report_verdict(7, 1, seq, seq * 1000), Verdict::Deliver);
            assert_eq!(plan.command_verdict(seq), Verdict::Deliver);
            assert!(!plan.should_crash(7, seq));
        }
        assert!(!plan.limping(7));
        assert!(plan.partitioned(7, 12345).is_none());
        for step in 0..1000 {
            assert_eq!(plan.storm_burst(7, step), 1);
            assert!(!plan.explodes(7, step));
        }
    }

    #[test]
    fn overload_mix_storms_and_explodes_at_configured_rates() {
        let cfg = FaultConfig::overload_for_seed(3);
        assert!(cfg.storm_per_mille > 0 && cfg.storm_burst > 0 && cfg.explode_per_mille > 0);
        let plan = FaultPlan::new(3, cfg);
        let storms = (0..10_000u64)
            .filter(|&s| plan.storm_burst(5, s) > 1)
            .count() as u32;
        // Expected ~ storm_per_mille per mille, generous slack.
        let expect = cfg.storm_per_mille * 10;
        assert!(
            (expect / 2..=expect * 2).contains(&storms),
            "storms = {storms}, expected ≈ {expect}"
        );
        assert!((0..10_000u64).any(|s| plan.explodes(5, s)));
        // Burst magnitudes stay within the 1–4x scaling of the base.
        for s in 0..10_000u64 {
            let b = plan.storm_burst(5, s);
            assert!(b == 1 || (b >= cfg.storm_burst && b <= cfg.storm_burst * 4));
        }
        // The general per-seed mix keeps the overload family off.
        for seed in 0..32 {
            let general = FaultConfig::for_seed(seed);
            assert_eq!(general.storm_per_mille, 0);
            assert_eq!(general.explode_per_mille, 0);
        }
    }

    #[test]
    fn verdicts_are_pure_functions_of_keys() {
        let plan = FaultPlan::from_seed(0xdead_beef);
        // Same keys, any draw order, any repetition: same verdict.
        let a = plan.report_verdict(1, 2, 3, 4_000);
        for _ in 0..10 {
            plan.report_verdict(9, 9, 9, 9); // unrelated draws in between
            assert_eq!(plan.report_verdict(1, 2, 3, 4_000), a);
        }
    }

    #[test]
    fn derived_link_plans_are_pure_and_independent() {
        let root = FaultPlan::from_seed(11);
        // Same link → byte-identical schedule; sibling links → distinct.
        let a = root.derive(0).fingerprint(&[1, 2], &[1], 64);
        let a2 = root.derive(0).fingerprint(&[1, 2], &[1], 64);
        let b = root.derive(1).fingerprint(&[1, 2], &[1], 64);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        // A derived plan keeps the parent's fault mix.
        assert_eq!(root.derive(3).config(), root.config());
        // And none of them equals the parent's own stream.
        assert_ne!(a, root.fingerprint(&[1, 2], &[1], 64));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::from_seed(1).fingerprint(&[1, 2], &[1], 64);
        let b = FaultPlan::from_seed(2).fingerprint(&[1, 2], &[1], 64);
        assert_ne!(a, b);
        // And the same seed gives the same bytes.
        let a2 = FaultPlan::from_seed(1).fingerprint(&[1, 2], &[1], 64);
        assert_eq!(a, a2);
    }

    #[test]
    fn rates_land_in_the_right_ballpark() {
        let cfg = FaultConfig {
            drop_per_mille: 100,
            ..FaultConfig::off()
        };
        let plan = FaultPlan::new(7, cfg);
        let drops = (0..10_000)
            .filter(|&seq| plan.report_verdict(3, 1, seq, 0) == Verdict::Drop)
            .count();
        // 10% ± generous slack.
        assert!((600..=1400).contains(&drops), "drops = {drops}");
    }
}
