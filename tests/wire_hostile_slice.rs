//! A slice of `crates/live/tests/wire_hostile.rs` where `cargo test -q` at
//! the root looks: grouped report bodies — no groups, one, five, keys of 0
//! and 5 values — built from one seed and damaged every way that harness
//! damages a frame (a hostile varint in every field among them), and the
//! decoder's refusal of groups that disagree on a key width or an
//! accumulator count. Corpus and harness are that test's own
//! (`support/hostile.rs`), not a copy. Budget: under 5 s in the dev profile.

#[path = "../crates/live/tests/support/hostile.rs"]
mod hostile;
use hostile::{damage, grouped_bodies, report, Rng};

const SEED: u64 = 0x5eed;

#[test]
fn a_grouped_body_with_a_hostile_varint_in_any_field_is_refused_or_a_fixed_point() {
    let rng = &mut Rng(SEED);
    let mut accepted = 0;
    for (what, rows) in grouped_bodies(rng) {
        accepted += damage(&report(rng, 1, rows), &format!("seed {SEED:#x} {what}"));
    }
    // Counters, ids and accumulator fields take any value.
    assert!(accepted > 100, "only {accepted} damaged frames decoded");
}

#[test]
fn groups_that_disagree_on_a_width_are_refused() {
    hostile::groups_that_disagree_on_a_width_are_refused();
}
