//! `Str` is one string whichever arm holds it (DESIGN.md §5 "Strings"):
//! built by copy (`Str::new`) or from a shared allocation
//! (`From<Arc<str>>`), inline or on the heap, it compares, orders, hashes,
//! prints and encodes as its text — and as `Value::Str(Arc<str>)` did
//! before it, so no digest, golden or sort downstream moves. Lengths run
//! across the 22-byte boundary, with multi-byte characters straddling it.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use pivot_itc::{Decoder, Encoder};
use pivot_model::text::INLINE;
use pivot_model::{codec, Str, Tuple, Value};
use proptest::prelude::*;

/// One-, two-, three- and four-byte characters.
const CHARS: [char; 8] = ['a', 'z', '-', '0', 'é', 'ß', '€', '𝄞'];

/// Strings of 0..=64 bytes.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..CHARS.len(), 0..65).prop_map(|picks| {
        let mut s = String::new();
        for c in picks.into_iter().map(|i| CHARS[i]) {
            if s.len() + c.len_utf8() > 64 {
                break;
            }
            s.push(c);
        }
        s
    })
}

fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

fn encoded(v: &Value) -> Vec<u8> {
    let mut enc = Encoder::new();
    codec::encode_value(v, &mut enc);
    enc.finish()
}

/// Everything observable about `s` held as a value, against what
/// `Value::Str(Arc<str>)` gave for the same text.
fn check_one(s: &str) -> Result<(), TestCaseError> {
    let shared: Arc<str> = Arc::from(s);
    let copied = Str::new(s);
    let adopted = Str::from(Arc::clone(&shared));
    prop_assert_eq!(copied.as_str(), s);
    prop_assert_eq!(adopted.as_str(), s);
    prop_assert_eq!(&copied, &adopted);
    prop_assert_eq!(copied.cmp(&adopted), Ordering::Equal);
    prop_assert_eq!(hash_of(&copied), hash_of(s));
    prop_assert_eq!(hash_of(&adopted), hash_of(s));
    // A long string keeps the allocation it came in; a short one lets go
    // of it.
    let kept = Arc::strong_count(&shared) == 2;
    prop_assert_eq!(kept, s.len() > INLINE, "{} bytes", s.len());
    if kept {
        prop_assert!(std::ptr::eq(adopted.as_str(), &*shared));
    }

    for v in [
        Value::str(s),
        Value::from(s),
        Value::from(s.to_owned()),
        Value::from(shared),
        Value::Str(copied),
        Value::Str(adopted),
    ] {
        prop_assert_eq!(v.as_str(), Some(s));
        prop_assert_eq!(v.to_string(), s);
        prop_assert_eq!(format!("{v:?}"), format!("Str({s:?})"));
        let mut want = DefaultHasher::new();
        want.write_u8(5);
        want.write(s.as_bytes());
        prop_assert_eq!(hash_of(&v), want.finish());
        let mut want = Encoder::new();
        want.put_u8(6);
        want.put_str(s);
        let bytes = encoded(&v);
        prop_assert_eq!(&bytes, &want.finish());
        let back = codec::decode_value(&mut Decoder::new(&bytes)).expect("own bytes decode");
        prop_assert!(back.same_repr(&v));
        prop_assert_eq!(encoded(&back), bytes);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn a_string_is_its_text_however_it_was_built(s in text()) {
        check_one(&s)?;
    }

    #[test]
    fn two_strings_order_as_their_texts_across_the_arms(a in text(), b in text()) {
        let want = a.as_bytes().cmp(b.as_bytes());
        let arms = |s: &str| [Str::new(s), Str::from(Arc::<str>::from(s))];
        for x in arms(&a) {
            for y in arms(&b) {
                prop_assert_eq!(x.cmp(&y), want);
                prop_assert_eq!(x == y, want == Ordering::Equal);
                let (vx, vy) = (Value::Str(x.clone()), Value::Str(y));
                prop_assert_eq!(vx.cmp(&vy), want);
                prop_assert_eq!(vx == vy, want == Ordering::Equal);
            }
        }
    }
}

/// Random text rarely puts a character across byte 22, so every prefix
/// length around it is tried with a character of every width on top.
#[test]
fn every_length_and_every_character_width_across_the_boundary() {
    for prefix in 0..=64 {
        check_one(&"x".repeat(prefix)).expect("ascii");
        for c in ['é', '€', '𝄞'] {
            let mut s = "x".repeat(prefix);
            s.push(c);
            check_one(&s).expect("multi-byte tail");
            s.push_str("yz");
            check_one(&s).expect("multi-byte inside");
        }
    }
}

#[test]
fn the_sizes_downstream_are_the_ones_before_strings_moved_in() {
    assert_eq!(std::mem::size_of::<Str>(), 24);
    assert_eq!(std::mem::size_of::<Value>(), 24);
    assert_eq!(std::mem::size_of::<Option<Value>>(), 24);
    assert_eq!(std::mem::size_of::<Tuple>(), 104);
}
