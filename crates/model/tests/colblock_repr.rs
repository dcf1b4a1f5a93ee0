//! An [`EncodedBlock`] hands back the *representation* it was given, not
//! just an equal value. `==` follows the value order (DESIGN.md §5), where
//! `I64(5)`, `U64(5)` and `F64(5.0)` are one number, so a round-trip test
//! that compares with `==` cannot see a codec that rewrites one into
//! another. These compare variant by variant and floats bit by bit.

use std::sync::Arc;

use pivot_itc::Encoder;
use pivot_model::{codec, AggState, EncodedBlock, Tuple, Value as V};
use proptest::prelude::*;

/// Variant-exact equality, written out so it does not lean on the helper
/// under test.
fn exact(a: &V, b: &V) -> bool {
    match (a, b) {
        (V::Null, V::Null) => true,
        (V::Bool(x), V::Bool(y)) => x == y,
        (V::I64(x), V::I64(y)) => x == y,
        (V::U64(x), V::U64(y)) => x == y,
        (V::F64(x), V::F64(y)) => x.to_bits() == y.to_bits(),
        (V::Str(x), V::Str(y)) => x == y,
        (V::Agg(x), V::Agg(y)) => match (&**x, &**y) {
            (AggState::Min(p), AggState::Min(q)) | (AggState::Max(p), AggState::Max(q)) => {
                exact(p, q)
            }
            (p, q) => format!("{p:?}") == format!("{q:?}"),
        },
        _ => false,
    }
}

fn assert_round_trips(column: &[V]) {
    // A second, constant column keeps the batch uniform and two wide.
    let rows: Vec<Tuple> = column
        .iter()
        .map(|v| Tuple::from_iter([v.clone(), V::str("k")]))
        .collect();
    let back = EncodedBlock::encode(&rows)
        .decode()
        .expect("own block decodes");
    assert_eq!(back.len(), rows.len());
    for (i, (sent, got)) in rows.iter().zip(&back).enumerate() {
        assert!(
            exact(sent.get(0), got.get(0)),
            "row {i}: sent {:?}, decoded {:?}",
            sent.get(0),
            got.get(0)
        );
        assert!(exact(sent.get(1), got.get(1)));
    }
}

/// Values that are `==` to a neighbour without being it.
fn pool() -> Vec<V> {
    let agg = |s| V::Agg(Arc::new(s));
    vec![
        V::I64(5),
        V::U64(5),
        V::F64(5.0),
        V::I64(0),
        V::U64(0),
        V::F64(0.0),
        V::F64(-0.0),
        V::F64(f64::from_bits(0x7ff8_0000_0000_0001)),
        V::F64(f64::from_bits(0x7ff8_0000_0000_0002)),
        V::U64(1 << 63),
        V::F64(2f64.powi(63)),
        agg(AggState::Min(V::I64(5))),
        agg(AggState::Min(V::U64(5))),
        agg(AggState::Max(V::F64(5.0))),
        V::Null,
        V::str("5"),
    ]
}

#[test]
fn equal_numbers_of_different_representation_are_not_one_run() {
    // The column of the report: every value `==` every other.
    assert_round_trips(&[V::I64(5), V::F64(5.0), V::F64(5.0), V::U64(5)]);
    // Long enough that the runs are worth encoding as runs.
    let mut column = vec![V::I64(5); 4];
    column.extend(vec![V::U64(5); 4]);
    column.extend(vec![V::F64(5.0); 4]);
    assert_round_trips(&column);
}

#[test]
fn zeros_and_nan_payloads_keep_their_bits() {
    let nan = |bits: u64| V::F64(f64::from_bits(bits));
    assert_round_trips(&[
        V::F64(0.0),
        V::F64(0.0),
        V::F64(-0.0),
        V::F64(-0.0),
        V::I64(0),
        V::I64(0),
        V::U64(0),
        V::U64(0),
    ]);
    assert_round_trips(&[
        nan(0x7ff8_0000_0000_0001),
        nan(0x7ff8_0000_0000_0001),
        nan(0x7ff8_0000_0000_0002),
        nan(0x7ff8_0000_0000_0002),
        nan(0xfff8_0000_0000_0001),
        nan(0xfff8_0000_0000_0001),
    ]);
}

/// The batch the columnar tracks exist for — an op string that mostly
/// repeats, timestamps that count up, small varying sizes — takes at most
/// half the bytes the row codec spends on the same rows tuple by tuple.
/// Bytes are a function of the rows alone, so this needs no timer.
#[test]
fn a_regular_streaming_batch_is_at_most_half_its_row_codec_bytes() {
    let rows: Vec<Tuple> = (0..4096u64)
        .map(|i| {
            Tuple::from_iter([
                V::str(if i % 19 == 0 { "PUT" } else { "GET" }),
                V::U64(1_722_000_000_000_000_000 + i * 1_379),
                V::U64(64 + i % 512),
            ])
        })
        .collect();
    let mut row_wise = Encoder::new();
    for t in &rows {
        codec::encode_tuple(t, &mut row_wise);
    }
    let row_wise = row_wise.finish().len();
    let block = EncodedBlock::encode(&rows);
    assert!(
        block.encoded_len() * 2 <= row_wise,
        "block {} B, row codec {row_wise} B",
        block.encoded_len()
    );
    assert_eq!(block.decode().expect("own block decodes"), rows);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any column of runs drawn from the pool, at run lengths on both
    /// sides of the RLE threshold.
    #[test]
    fn runs_of_look_alikes_round_trip_exactly(
        runs in prop::collection::vec((0usize..16, 1usize..5), 1..8),
    ) {
        let pool = pool();
        let column: Vec<V> = runs
            .iter()
            .flat_map(|&(which, len)| std::iter::repeat_n(pool[which].clone(), len))
            .collect();
        assert_round_trips(&column);
    }
}
