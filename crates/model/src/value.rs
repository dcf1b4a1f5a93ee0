//! Dynamically typed scalar values.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

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
    /// An immutable interned string.
    Str(Arc<str>),
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
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Returns a short name for this value's type.
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

    /// Returns the aggregation state if this is an [`Value::Agg`].
    pub fn as_agg(&self) -> Option<&crate::agg::AggState> {
        match self {
            Value::Agg(s) => Some(s),
            _ => None,
        }
    }

    /// Returns `true` if this value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns `true` for numeric values.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::I64(_) | Value::U64(_) | Value::F64(_))
    }

    /// Coerces a numeric value to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(v) => Some(*v as f64),
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Coerces an integral value to `i64` (no float truncation).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Returns the string contents if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean if this is a boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compares two values for query semantics.
    ///
    /// Numerics compare by magnitude regardless of representation; strings
    /// compare lexicographically; `Null` compares equal to `Null` and less
    /// than everything else; mismatched types are unordered.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, Null) => Some(Ordering::Equal),
            (Null, _) => Some(Ordering::Less),
            (_, Null) => Some(Ordering::Greater),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (a, b) if a.is_numeric() && b.is_numeric() => {
                // Compare exactly where both are integral; via f64 otherwise.
                match (a, b) {
                    (I64(x), I64(y)) => Some(x.cmp(y)),
                    (U64(x), U64(y)) => Some(x.cmp(y)),
                    (I64(x), U64(y)) => Some(cmp_i64_u64(*x, *y)),
                    (U64(x), I64(y)) => Some(cmp_i64_u64(*y, *x).reverse()),
                    _ => a.as_f64()?.partial_cmp(&b.as_f64()?),
                }
            }
            _ => None,
        }
    }

    /// Returns `true` if the values are equal under query semantics.
    pub fn loose_eq(&self, other: &Value) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }
}

fn cmp_i64_u64(a: i64, b: u64) -> Ordering {
    if a < 0 {
        Ordering::Less
    } else {
        (a as u64).cmp(&b)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (I64(a), I64(b)) => a == b,
            (U64(a), U64(b)) => a == b,
            (F64(a), F64(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (Agg(a), Agg(b)) => a == b,
            // Cross-representation numeric equality.
            (a, b) if a.is_numeric() && b.is_numeric() => a.compare(b) == Some(Ordering::Equal),
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Numerics hash via a canonical form so cross-representation
        // equal values hash identically.
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                state.write_u8(*b as u8);
            }
            Value::I64(v) => hash_numeric(state, *v as f64, Some(*v)),
            Value::U64(v) => {
                if let Ok(i) = i64::try_from(*v) {
                    hash_numeric(state, *v as f64, Some(i));
                } else {
                    hash_numeric(state, *v as f64, None);
                    state.write_u64(*v);
                }
            }
            Value::F64(v) => {
                if v.fract() == 0.0 && *v >= i64::MIN as f64 && *v <= i64::MAX as f64 {
                    hash_numeric(state, *v, Some(*v as i64));
                } else {
                    hash_numeric(state, *v, None);
                }
            }
            Value::Str(s) => {
                state.write_u8(3);
                state.write(s.as_bytes());
            }
            // Aggregation states never appear in group keys; hash via the
            // finished value so the impl stays total.
            Value::Agg(s) => {
                state.write_u8(4);
                s.finish().hash(state);
            }
        }
    }
}

fn hash_numeric<H: std::hash::Hasher>(state: &mut H, f: f64, i: Option<i64>) {
    state.write_u8(2);
    match i {
        Some(i) => {
            state.write_u8(0);
            state.write_i64(i);
        }
        None => {
            state.write_u8(1);
            state.write_u64(f.to_bits());
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
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I64(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Value {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cross_representation_numeric_equality() {
        assert_eq!(Value::I64(5), Value::U64(5));
        assert_eq!(Value::I64(5), Value::F64(5.0));
        assert_ne!(Value::I64(5), Value::F64(5.5));
        assert_ne!(Value::I64(-1), Value::U64(u64::MAX));
    }

    #[test]
    fn equal_numerics_hash_equal() {
        assert_eq!(hash_of(&Value::I64(5)), hash_of(&Value::U64(5)));
        assert_eq!(hash_of(&Value::I64(5)), hash_of(&Value::F64(5.0)));
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

    #[test]
    fn nan_is_self_equal_via_bits() {
        let nan = Value::F64(f64::NAN);
        assert_eq!(nan, nan.clone());
    }
}
