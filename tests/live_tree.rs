//! Tier-1 runs the live tree test where `cargo test -q` at the root looks:
//! agents → relay → frontend over loopback TCP, a relay crash mid-window,
//! both tiers reconnecting, and the end-to-end loss identity. One copy of
//! the test, owned by `pivot-relay`.

#[path = "../crates/relay/tests/live_tree.rs"]
mod live_tree;
