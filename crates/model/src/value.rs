//! Dynamically typed scalar values.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::text::Str;

/// A dynamically typed scalar exported by a tracepoint or computed by a
/// query expression.
///
/// Values deliberately mirror the handful of types the paper's prototype
/// passes from instrumented Java methods: booleans, integers, floating-point
/// numbers, and strings. Timestamps are carried as [`Value::U64`]
/// nanoseconds.
#[derive(Clone, Debug, Default)]
pub enum Value {
    /// Absent / unknown.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed 64-bit integer.
    I64(i64),
    /// An unsigned 64-bit integer (also used for timestamps).
    U64(u64),
    /// A 64-bit float.
    F64(f64),
    /// An immutable string: up to 22 bytes live in the value, a longer one
    /// is a shared allocation ([`Str`]).
    Str(Str),
    /// A partial aggregation state travelling inside a tuple.
    ///
    /// Produced when a packed group-by aggregate is unpacked from baggage:
    /// downstream `Emit` operations must *combine* these states (paper
    /// Table 3's `Combine`) rather than re-aggregate finished values.
    Agg(Arc<crate::agg::AggState>),
}

/// `Null`, for whoever hands out `&Value` and has to answer for a column
/// that is not there.
pub static NULL: Value = Value::Null;

impl Value {
    /// Builds a string value.
    #[inline]
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Str::new(s.as_ref()))
    }

    /// Returns a short name for this value's type.
    #[inline]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) => "i64",
            Value::U64(_) => "u64",
            Value::F64(_) => "f64",
            Value::Str(_) => "str",
            Value::Agg(_) => "agg",
        }
    }

    /// Public for tests in other crates.
    ///
    /// Returns the aggregation state if this is an [`Value::Agg`].
    #[inline]
    pub fn as_agg(&self) -> Option<&crate::agg::AggState> {
        match self {
            Value::Agg(s) => Some(s),
            _ => None,
        }
    }

    /// Returns `true` if this value is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns `true` for numeric values.
    #[inline]
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::I64(_) | Value::U64(_) | Value::F64(_))
    }

    /// Coerces a numeric value to `f64`.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(v) => Some(*v as f64),
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Coerces an integral value to `i64` (no float truncation).
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Returns the string contents if this is a string value.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean if this is a boolean value.
    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Where this value's class ranks in the total order:
    /// `Null < Bool < numeric < Str < Agg`.
    #[inline]
    fn class(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::I64(_) | Value::U64(_) | Value::F64(_) => 2,
            Value::Str(_) => 3,
            Value::Agg(_) => 4,
        }
    }

    /// Compares two values for query semantics: the total order ([`Ord`])
    /// restricted to one class. `Null` is less than everything else;
    /// otherwise values of different classes (a string and a number) are
    /// unordered.
    #[inline]
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        (self.class() == other.class() || self.is_null() || other.is_null())
            .then(|| self.cmp(other))
    }

    /// Representation-exact equality: the same variant holding an equal
    /// value. `==` follows the value order, under which `I64(5)`, `U64(5)`
    /// and `F64(5.0)` are one number; a codec that must hand back what it
    /// was given, and a constant pool whose entries behave differently
    /// under arithmetic, ask this instead.
    pub fn same_repr(&self, other: &Value) -> bool {
        use crate::agg::AggState::{Max, Min};
        match (self, other) {
            // An extremum holds a value of its own.
            (Value::Agg(a), Value::Agg(b)) => match (&**a, &**b) {
                (Min(x), Min(y)) | (Max(x), Max(y)) => x.same_repr(y),
                _ => self == other,
            },
            _ => std::mem::discriminant(self) == std::mem::discriminant(other) && self == other,
        }
    }
}

/// The one comparison of numerics across representations. Exact: an
/// integer is never rounded through `f64`, so `I64(2^53 + 1)` is above
/// `F64(2^53)`. Total: a NaN ranks by its sign beyond the infinities, as
/// [`f64::total_cmp`] ranks it among floats, and an integer zero ties with
/// `+0.0`, which leaves `-0.0` directly below every zero.
fn cmp_numeric(a: &Value, b: &Value) -> Ordering {
    let int = |v: &Value| match *v {
        Value::I64(i) => i128::from(i),
        Value::U64(u) => i128::from(u),
        _ => unreachable!("a float is matched before an operand is read as an integer"),
    };
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.total_cmp(y),
        (Value::F64(_), _) => cmp_numeric(b, a).reverse(),
        // Every integer stands where zero stands against a NaN.
        (_, Value::F64(y)) if y.is_nan() => 0f64.total_cmp(y),
        (_, Value::F64(y)) => {
            // The cast saturates, which keeps every float beyond the
            // integers' range on its side of them; when the integral parts
            // tie, `n` is exactly a float and the fraction (or the sign of
            // zero) decides.
            let n = int(a);
            n.cmp(&(y.trunc() as i128))
                .then_with(|| (n as f64).total_cmp(y))
        }
        _ => int(a).cmp(&int(b)),
    }
}

/// The total order every tier sorts by (DESIGN.md §5): class rank, then
/// within a class booleans `false < true`, numerics by `cmp_numeric`,
/// strings bytewise, aggregation states by `AggState::total_cmp`.
impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (I64(a), I64(b)) => a.cmp(b),
            (U64(a), U64(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Agg(a), Agg(b)) => a.total_cmp(b),
            _ if self.is_numeric() && other.is_numeric() => cmp_numeric(self, other),
            _ => self.class().cmp(&other.class()),
        }
    }
}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Value) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // A numeric that is an integer hashes as that integer whatever
        // holds it — sign, then the low 64 bits, which `i64::MIN..=u64::MAX`
        // fits — so values equal across representations hash alike.
        let mut int = |i: i128| {
            state.write_u8(if i < 0 { 2 } else { 3 });
            state.write_u64(i as u64);
        };
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                state.write_u8(*b as u8);
            }
            Value::I64(v) => int(i128::from(*v)),
            Value::U64(v) => int(i128::from(*v)),
            Value::F64(v) => {
                // Bit-exact round trip: not for a fraction, a NaN, an
                // infinity or `-0.0`, none of which equals an integer.
                let i = *v as i128;
                if (i as f64).to_bits() == v.to_bits()
                    && (i128::from(i64::MIN)..=i128::from(u64::MAX)).contains(&i)
                {
                    int(i);
                } else {
                    state.write_u8(4);
                    state.write_u64(v.to_bits());
                }
            }
            Value::Str(s) => {
                state.write_u8(5);
                state.write(s.as_bytes());
            }
            // Aggregation states never appear in group keys; hash via the
            // finished value so the impl stays total.
            Value::Agg(s) => {
                state.write_u8(6);
                s.finish().hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Agg(s) => write!(f, "{}", s.finish()),
        }
    }
}

impl From<bool> for Value {
    #[inline]
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    #[inline]
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    #[inline]
    fn from(v: i32) -> Value {
        Value::I64(v as i64)
    }
}
impl From<u64> for Value {
    #[inline]
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    #[inline]
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    #[inline]
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    #[inline]
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    #[inline]
    fn from(v: &str) -> Value {
        Value::str(v)
    }
}
impl From<String> for Value {
    #[inline]
    fn from(v: String) -> Value {
        Value::Str(Str::new(&v))
    }
}
impl From<Arc<str>> for Value {
    #[inline]
    fn from(v: Arc<str>) -> Value {
        Value::Str(v.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_representation_numeric_equality() {
        assert_eq!(Value::I64(5), Value::U64(5));
        assert_eq!(Value::I64(5), Value::F64(5.0));
        assert_ne!(Value::I64(5), Value::F64(5.5));
        assert_ne!(Value::I64(-1), Value::U64(u64::MAX));
    }

    #[test]
    fn comparisons() {
        use Ordering::*;
        assert_eq!(Value::I64(1).compare(&Value::U64(2)), Some(Less));
        assert_eq!(Value::F64(2.5).compare(&Value::I64(2)), Some(Greater));
        assert_eq!(Value::str("a").compare(&Value::str("b")), Some(Less));
        assert_eq!(Value::Null.compare(&Value::I64(0)), Some(Less));
        assert_eq!(Value::str("a").compare(&Value::I64(1)), None);
    }

    #[test]
    fn i64_u64_boundary() {
        assert_eq!(
            Value::I64(i64::MAX).compare(&Value::U64(i64::MAX as u64 + 1)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::I64(-1).compare(&Value::U64(0)), Some(Ordering::Less));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::str("x").to_string(), "x");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::F64(1.5).to_string(), "1.5");
    }
}
