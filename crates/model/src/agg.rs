//! Aggregation functions with combiner semantics.
//!
//! Pivot Tracing aggregators (paper §3) are `COUNT`, `SUM`, `MIN`, `MAX`,
//! and `AVERAGE`. Because queries aggregate *in three places* — inside the
//! baggage during a request, inside each process's agent, and globally at the
//! frontend — every aggregator carries a mergeable [`AggState`] whose
//! `merge` implements the paper's `Combine` function (Table 3): e.g. the
//! combiner of `COUNT` is `SUM`, and `AVERAGE` merges `(sum, count)` pairs.

use std::cmp::Ordering;
use std::fmt;

use crate::codec;
use crate::value::Value;
use pivot_itc::{DecodeError, Decoder, Encoder};

/// An aggregation function named in a query.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AggFunc {
    /// Number of tuples.
    Count,
    /// Numeric sum.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Arithmetic mean, merged as `(sum, count)`.
    Average,
}

impl AggFunc {
    /// Parses an aggregator name as written in queries (`SUM`, `COUNT`, …).
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "AVERAGE" | "AVG" => Some(AggFunc::Average),
            _ => None,
        }
    }

    /// Returns a fresh accumulator for this function.
    #[inline]
    pub fn init(self) -> AggState {
        match self {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(Num::I(0)),
            AggFunc::Min => AggState::Min(Value::Null),
            AggFunc::Max => AggState::Max(Value::Null),
            AggFunc::Average => AggState::Average { sum: 0.0, count: 0 },
        }
    }

    /// Returns the query-language spelling of this function.
    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Average => "AVERAGE",
        }
    }

    /// Encodes the function as its one-byte tag: the one tag table, used
    /// by every codec that carries an `AggFunc`.
    #[inline]
    pub fn encode(self, enc: &mut Encoder) {
        enc.put_u8(match self {
            AggFunc::Count => 0,
            AggFunc::Sum => 1,
            AggFunc::Min => 2,
            AggFunc::Max => 3,
            AggFunc::Average => 4,
        });
    }

    /// Decodes a function from its one-byte tag.
    #[inline]
    pub fn decode(dec: &mut Decoder<'_>) -> Result<AggFunc, DecodeError> {
        Ok(match dec.take_u8()? {
            0 => AggFunc::Count,
            1 => AggFunc::Sum,
            2 => AggFunc::Min,
            3 => AggFunc::Max,
            4 => AggFunc::Average,
            t => return Err(DecodeError::BadTag("agg func", t)),
        })
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An exact numeric accumulator: integral sums stay integral until a float
/// is observed.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Num {
    /// Integral accumulator.
    I(i128),
    /// Floating accumulator.
    F(f64),
}

impl Num {
    fn add_value(&mut self, v: &Value) {
        match (v, &mut *self) {
            (Value::I64(x), Num::I(acc)) => *acc += i128::from(*x),
            (Value::U64(x), Num::I(acc)) => *acc += i128::from(*x),
            (Value::F64(x), Num::I(acc)) => *self = Num::F(*acc as f64 + *x),
            (v, Num::I(acc)) if v.as_f64().is_some() => {
                *self = Num::F(*acc as f64 + v.as_f64().unwrap_or(0.0))
            }
            (v, Num::F(acc)) => *acc += v.as_f64().unwrap_or(0.0),
            _ => {}
        }
    }

    fn merge(&mut self, other: Num) {
        match (&mut *self, other) {
            (Num::I(a), Num::I(b)) => *a += b,
            (Num::I(a), Num::F(b)) => *self = Num::F(*a as f64 + b),
            (Num::F(a), Num::I(b)) => *a += b as f64,
            (Num::F(a), Num::F(b)) => *a += b,
        }
    }

    fn to_value(self) -> Value {
        match self {
            Num::I(v) => i64::try_from(v)
                .map(Value::I64)
                .unwrap_or(Value::F64(v as f64)),
            Num::F(v) => Value::F64(v),
        }
    }
}

/// A mergeable accumulator for one aggregation.
#[derive(Clone, PartialEq, Debug)]
pub enum AggState {
    /// Tuple count.
    Count(u64),
    /// Numeric sum.
    Sum(Num),
    /// Running minimum.
    Min(Value),
    /// Running maximum.
    Max(Value),
    /// Running mean as `(sum, count)`.
    Average {
        /// Sum of observed values.
        sum: f64,
        /// Number of observed values.
        count: u64,
    },
}

impl AggState {
    /// Folds one observed value into the accumulator.
    ///
    /// `COUNT` ignores the value; `SUM`/`AVERAGE` ignore non-numeric values;
    /// `MIN`/`MAX` ignore values unordered with the current extremum.
    pub fn update(&mut self, v: &Value) {
        // A travelling partial state (unpacked from baggage) is combined,
        // not re-observed — this is what makes `COUNT` over a packed count
        // behave as `SUM` of the partials.
        if let Value::Agg(s) = v {
            self.merge(s);
            return;
        }
        match self {
            AggState::Count(c) => *c += 1,
            AggState::Sum(acc) => {
                if v.is_numeric() {
                    acc.add_value(v);
                }
            }
            AggState::Min(cur) => {
                if !v.is_null() && (cur.is_null() || matches!(v.compare(cur), Some(Ordering::Less)))
                {
                    *cur = v.clone();
                }
            }
            AggState::Max(cur) => {
                if !v.is_null()
                    && (cur.is_null() || matches!(v.compare(cur), Some(Ordering::Greater)))
                {
                    *cur = v.clone();
                }
            }
            AggState::Average { sum, count } => {
                if let Some(f) = v.as_f64() {
                    *sum += f;
                    *count += 1;
                }
            }
        }
    }

    /// Merges a partial accumulator produced elsewhere (the paper's
    /// `Combine`).
    ///
    /// Mismatched variants (protocol corruption) leave `self` unchanged.
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            // Partial counts arrive in decoded frames: any `u64`.
            (AggState::Count(a), AggState::Count(b)) => *a = a.saturating_add(*b),
            (AggState::Sum(a), AggState::Sum(b)) => a.merge(*b),
            (AggState::Min(a), AggState::Min(b))
                if a.is_null()
                    || (!b.is_null() && matches!(b.compare(a), Some(Ordering::Less))) =>
            {
                *a = b.clone();
            }
            (AggState::Max(a), AggState::Max(b))
                if a.is_null()
                    || (!b.is_null() && matches!(b.compare(a), Some(Ordering::Greater))) =>
            {
                *a = b.clone();
            }
            (AggState::Average { sum, count }, AggState::Average { sum: s2, count: c2 }) => {
                *sum += s2;
                *count = count.saturating_add(*c2);
            }
            _ => {}
        }
    }

    /// Finalizes the accumulator into a result value.
    #[inline]
    pub fn finish(&self) -> Value {
        match self {
            AggState::Count(c) => Value::U64(*c),
            AggState::Sum(acc) => acc.to_value(),
            AggState::Min(v) | AggState::Max(v) => v.clone(),
            AggState::Average { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::F64(sum / *count as f64)
                }
            }
        }
    }

    /// A total order over accumulators, for [`Value`]'s `Ord`: by
    /// function, then by what was accumulated — an integral sum below a
    /// float one, floats by [`f64::total_cmp`]. (`==` stays field-wise
    /// IEEE, as `f64` keeps both.)
    pub(crate) fn total_cmp(&self, other: &AggState) -> Ordering {
        use AggState::*;
        match (self, other) {
            (Count(a), Count(b)) => a.cmp(b),
            (Sum(Num::I(a)), Sum(Num::I(b))) => a.cmp(b),
            (Sum(Num::F(a)), Sum(Num::F(b))) => a.total_cmp(b),
            (Sum(a), Sum(b)) => matches!(a, Num::F(_)).cmp(&matches!(b, Num::F(_))),
            (Min(a), Min(b)) | (Max(a), Max(b)) => a.cmp(b),
            (Average { sum: a, count: m }, Average { sum: b, count: n }) => {
                a.total_cmp(b).then(m.cmp(n))
            }
            _ => self.func().cmp(&other.func()),
        }
    }

    /// Returns which function this accumulator belongs to.
    #[inline]
    pub fn func(&self) -> AggFunc {
        match self {
            AggState::Count(_) => AggFunc::Count,
            AggState::Sum(_) => AggFunc::Sum,
            AggState::Min(_) => AggFunc::Min,
            AggState::Max(_) => AggFunc::Max,
            AggState::Average { .. } => AggFunc::Average,
        }
    }

    /// Encodes the accumulator for the baggage / bus wire format.
    pub fn encode(&self, enc: &mut Encoder) {
        match self {
            AggState::Count(c) => {
                enc.put_u8(0);
                enc.put_varint(*c);
            }
            AggState::Sum(Num::I(v)) => {
                enc.put_u8(1);
                // i128 sums fit i64 in practice; clamp on overflow.
                enc.put_varint_i64((*v).clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64);
            }
            AggState::Sum(Num::F(v)) => {
                enc.put_u8(2);
                enc.put_f64(*v);
            }
            AggState::Min(v) => {
                enc.put_u8(3);
                codec::encode_value(v, enc);
            }
            AggState::Max(v) => {
                enc.put_u8(4);
                codec::encode_value(v, enc);
            }
            AggState::Average { sum, count } => {
                enc.put_u8(5);
                enc.put_f64(*sum);
                enc.put_varint(*count);
            }
        }
    }

    /// Decodes an accumulator.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<AggState, DecodeError> {
        Ok(match dec.take_u8()? {
            0 => AggState::Count(dec.take_varint()?),
            1 => AggState::Sum(Num::I(i128::from(dec.take_varint_i64()?))),
            2 => AggState::Sum(Num::F(dec.take_f64()?)),
            3 => AggState::Min(codec::decode_scalar(dec)?),
            4 => AggState::Max(codec::decode_scalar(dec)?),
            5 => AggState::Average {
                sum: dec.take_f64()?,
                count: dec.take_varint()?,
            },
            t => return Err(DecodeError::BadTag("agg state", t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_counts() {
        let mut s = AggFunc::Count.init();
        for _ in 0..3 {
            s.update(&Value::str("anything"));
        }
        assert_eq!(s.finish(), Value::U64(3));
    }

    #[test]
    fn sum_stays_integral_until_float() {
        let mut s = AggFunc::Sum.init();
        s.update(&Value::I64(2));
        s.update(&Value::U64(3));
        assert_eq!(s.finish(), Value::I64(5));
        s.update(&Value::F64(0.5));
        assert_eq!(s.finish(), Value::F64(5.5));
    }

    #[test]
    fn sum_ignores_non_numeric() {
        let mut s = AggFunc::Sum.init();
        s.update(&Value::str("x"));
        s.update(&Value::I64(7));
        assert_eq!(s.finish(), Value::I64(7));
    }

    #[test]
    fn min_max_track_extrema() {
        let mut mn = AggFunc::Min.init();
        let mut mx = AggFunc::Max.init();
        for v in [Value::I64(4), Value::I64(-2), Value::I64(9)] {
            mn.update(&v);
            mx.update(&v);
        }
        assert_eq!(mn.finish(), Value::I64(-2));
        assert_eq!(mx.finish(), Value::I64(9));
    }

    #[test]
    fn average_merges_as_sum_count() {
        let mut a = AggFunc::Average.init();
        a.update(&Value::I64(1));
        a.update(&Value::I64(2));
        let mut b = AggFunc::Average.init();
        b.update(&Value::I64(6));
        a.merge(&b);
        assert_eq!(a.finish(), Value::F64(3.0));
    }

    #[test]
    fn count_combiner_is_sum() {
        // Merging partial counts must add them (paper Table 3: the combiner
        // for COUNT is SUM).
        let mut a = AggFunc::Count.init();
        a.update(&Value::Null);
        let mut b = AggFunc::Count.init();
        b.update(&Value::Null);
        b.update(&Value::Null);
        a.merge(&b);
        assert_eq!(a.finish(), Value::U64(3));
    }

    #[test]
    fn empty_aggregates_finish_sensibly() {
        assert_eq!(AggFunc::Count.init().finish(), Value::U64(0));
        assert_eq!(AggFunc::Sum.init().finish(), Value::I64(0));
        assert_eq!(AggFunc::Min.init().finish(), Value::Null);
        assert_eq!(AggFunc::Average.init().finish(), Value::Null);
    }

    #[test]
    fn encode_round_trip() {
        let mut avg = AggFunc::Average.init();
        avg.update(&Value::F64(2.5));
        let states = [
            AggState::Count(7),
            AggState::Sum(Num::I(-5)),
            AggState::Sum(Num::F(1.25)),
            AggState::Min(Value::str("a")),
            AggState::Max(Value::I64(9)),
            avg,
        ];
        for s in states {
            let mut enc = Encoder::new();
            s.encode(&mut enc);
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(AggState::decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn parse_names() {
        assert_eq!(AggFunc::parse("sum"), Some(AggFunc::Sum));
        assert_eq!(AggFunc::parse("AVERAGE"), Some(AggFunc::Average));
        assert_eq!(AggFunc::parse("median"), None);
    }
}
