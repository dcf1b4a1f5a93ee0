//! Tuples, schemas, and grouping keys.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::intern::intern;
use crate::value::{Value, NULL};

/// A field-name schema shared by all tuples of one dataset.
///
/// Schemas are cheap to clone (`Arc`-backed) and provide positional lookup
/// of qualified field names such as `"incr.delta"` or plain `"delta"`.
#[derive(Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<[Arc<str>]>,
}

impl Schema {
    /// Builds a schema from field names.
    pub fn new<I, S>(fields: I) -> Schema
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Schema {
            // Field names recur across every schema built for the same
            // query, so they come from the intern pool.
            fields: fields.into_iter().map(|s| intern(s.as_ref())).collect(),
        }
    }

    /// Returns an empty schema.
    pub fn empty() -> Schema {
        Schema {
            fields: Arc::from([]),
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Returns `true` if there are no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Returns the field names.
    pub fn fields(&self) -> &[Arc<str>] {
        &self.fields
    }

    /// Returns the index of `name`.
    ///
    /// A lookup for `name` also matches a qualified field whose suffix after
    /// the final `.` equals `name`, and vice versa, so `delta` finds
    /// `incr.delta` when unambiguous.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        if let Some(i) = self.fields.iter().position(|f| f.as_ref() == name) {
            return Some(i);
        }
        let suffix_matches: Vec<usize> = self
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.rsplit('.').next() == Some(name) || name.rsplit('.').next() == Some(f.as_ref())
            })
            .map(|(i, _)| i)
            .collect();
        match suffix_matches.as_slice() {
            [i] => Some(*i),
            _ => None,
        }
    }

    /// Concatenates two schemas (used by joins).
    pub fn concat(&self, other: &Schema) -> Schema {
        Schema {
            fields: self
                .fields
                .iter()
                .chain(other.fields.iter())
                .cloned()
                .collect(),
        }
    }

    /// Returns a schema with every field prefixed by `alias.`.
    pub fn qualified(&self, alias: &str) -> Schema {
        Schema {
            fields: self
                .fields
                .iter()
                .map(|f| {
                    let base = f.rsplit('.').next().unwrap_or(f);
                    intern(&format!("{alias}.{base}"))
                })
                .collect(),
        }
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.fields.iter().map(|s| s.as_ref()).collect();
        write!(f, "Schema{names:?}")
    }
}

/// Values stored inline before a tuple spills to the heap. Paper queries
/// observe a handful of exports per tracepoint, so nearly every tuple on
/// the hot path fits inline and costs no allocation.
pub(crate) const INLINE_CAP: usize = 4;

/// A positional row of [`Value`]s.
///
/// Short tuples (≤ 4 values — the common case for tracepoint
/// exports and packed baggage rows) are stored inline without heap
/// allocation; longer rows spill to a boxed slice.
pub struct Tuple {
    repr: Repr,
}

enum Repr {
    Inline { len: u8, vals: [Value; INLINE_CAP] },
    Heap(Box<[Value]>),
}

#[inline]
pub(crate) fn null_array() -> [Value; INLINE_CAP] {
    std::array::from_fn(|_| Value::Null)
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: impl Into<Box<[Value]>>) -> Tuple {
        let boxed = values.into();
        if boxed.len() <= INLINE_CAP {
            Vec::from(boxed).into_iter().collect()
        } else {
            Tuple {
                repr: Repr::Heap(boxed),
            }
        }
    }

    /// The first `len` of `vals`, which holds `Null` from there on: for a
    /// producer that fills the inline representation in place.
    #[inline]
    pub(crate) fn from_inline(len: usize, vals: [Value; INLINE_CAP]) -> Tuple {
        debug_assert!(vals[len..].iter().all(Value::is_null));
        Tuple {
            repr: Repr::Inline {
                len: len as u8,
                vals,
            },
        }
    }

    /// Returns the empty tuple.
    #[inline]
    pub fn empty() -> Tuple {
        Tuple::default()
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// Returns `true` if the tuple has no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values().is_empty()
    }

    /// Returns the value at `idx`, or `Null` when out of range.
    #[inline]
    pub fn get(&self, idx: usize) -> &Value {
        self.values().get(idx).unwrap_or(&NULL)
    }

    /// Returns all values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match &self.repr {
            Repr::Inline { len, vals } => &vals[..*len as usize],
            Repr::Heap(b) => b,
        }
    }

    /// Concatenates two tuples (used by joins).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        self.values()
            .iter()
            .chain(other.values().iter())
            .cloned()
            .collect()
    }

    /// Projects the tuple onto the given indices.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        indices.iter().map(|&i| self.get(i).clone()).collect()
    }
}

impl Default for Tuple {
    #[inline]
    fn default() -> Tuple {
        Tuple::from_inline(0, null_array())
    }
}

impl Clone for Tuple {
    fn clone(&self) -> Tuple {
        match &self.repr {
            // Value by value up to `len`: the rest of the array is `Null`
            // already, and a derived array clone copies all four slots
            // through the stack.
            Repr::Inline { len, vals } => {
                let mut out = null_array();
                for (to, from) in out.iter_mut().zip(&vals[..*len as usize]) {
                    *to = from.clone();
                }
                Tuple::from_inline(*len as usize, out)
            }
            Repr::Heap(b) => Tuple {
                repr: Repr::Heap(b.clone()),
            },
        }
    }
}

impl PartialEq for Tuple {
    #[inline]
    fn eq(&self, other: &Tuple) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl Ord for Tuple {
    #[inline]
    fn cmp(&self, other: &Tuple) -> Ordering {
        self.values().cmp(other.values())
    }
}

impl PartialOrd for Tuple {
    #[inline]
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The logical value sequence, so inline and heap tuples with equal
        // contents collide — and through the one function a borrowed
        // [`Cols`] view hashes with, so a view finds the key it would
        // become.
        hash_cols(self, state);
    }
}

/// A row presented column by column, each value read where it already is:
/// the borrowed form of a [`Tuple`]. The advice VM hands its sinks group
/// keys and aggregate arguments this way, so a row that folds into an
/// existing group clones nothing.
pub trait Cols {
    /// Number of columns.
    fn width(&self) -> usize;
    /// Column `i` (`i < width()`): borrowed wherever the value is stored,
    /// owned only for a scalar computed on the spot.
    fn col(&self, i: usize) -> Cow<'_, Value>;
}

fn hash_cols<C: Cols + ?Sized, H: Hasher>(cols: &C, state: &mut H) {
    state.write_usize(cols.width());
    for i in 0..cols.width() {
        cols.col(i).hash(state);
    }
}

impl Cols for Tuple {
    #[inline]
    fn width(&self) -> usize {
        self.len()
    }
    #[inline]
    fn col(&self, i: usize) -> Cow<'_, Value> {
        Cow::Borrowed(self.get(i))
    }
}

impl dyn Cols + '_ {
    /// Clones the columns into an owned tuple.
    pub fn to_tuple(&self) -> Tuple {
        (0..self.width())
            .map(|i| self.col(i).into_owned())
            .collect()
    }
}

impl Hash for dyn Cols + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_cols(self, state);
    }
}

impl PartialEq for dyn Cols + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.width() == other.width() && (0..self.width()).all(|i| self.col(i) == other.col(i))
    }
}

impl Eq for dyn Cols + '_ {}

/// Lexicographic by [`Value`]'s order, a prefix first: a view sorts where
/// the tuple it would become sorts.
impl Ord for dyn Cols + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        (0..self.width().min(other.width()))
            .map(|i| self.col(i).cmp(&other.col(i)))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| self.width().cmp(&other.width()))
    }
}

impl PartialOrd for dyn Cols + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        let mut it = iter.into_iter();
        let mut vals = null_array();
        let mut len = 0usize;
        loop {
            match it.next() {
                None => return Tuple::from_inline(len, vals),
                Some(v) if len < INLINE_CAP => {
                    vals[len] = v;
                    len += 1;
                }
                Some(v) => {
                    let (lo, _) = it.size_hint();
                    let mut vec = Vec::with_capacity(INLINE_CAP + 1 + lo);
                    vec.extend(vals);
                    vec.push(v);
                    vec.extend(it);
                    return Tuple {
                        repr: Repr::Heap(vec.into_boxed_slice()),
                    };
                }
            }
        }
    }
}

/// A named-field view over values, used by expression evaluation.
pub trait Row {
    /// Looks up a field by (possibly qualified) name.
    fn field(&self, name: &str) -> Option<&Value>;
}

/// A (`Schema`, `Tuple`) pair implements [`Row`].
impl Row for (&Schema, &Tuple) {
    fn field(&self, name: &str) -> Option<&Value> {
        let idx = self.0.index_of(name)?;
        Some(self.1.get(idx))
    }
}

/// A hashable grouping key: the projection of a tuple onto `GroupBy` fields.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct GroupKey(pub Tuple);

impl GroupKey {
    /// Builds a key by projecting `tuple` onto `indices`.
    #[inline]
    pub fn project(tuple: &Tuple, indices: &[usize]) -> GroupKey {
        GroupKey(tuple.project(indices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_lookup_qualified_and_suffix() {
        let s = Schema::new(["incr.host", "incr.delta"]);
        assert_eq!(s.index_of("incr.delta"), Some(1));
        assert_eq!(s.index_of("delta"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn ambiguous_suffix_is_rejected() {
        let s = Schema::new(["a.host", "b.host"]);
        assert_eq!(s.index_of("host"), None);
        assert_eq!(s.index_of("a.host"), Some(0));
    }

    #[test]
    fn schema_concat_and_qualify() {
        let a = Schema::new(["x"]);
        let b = Schema::new(["y"]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.index_of("y"), Some(1));
        let q = c.qualified("t");
        assert_eq!(q.index_of("t.x"), Some(0));
    }

    #[test]
    fn qualify_replaces_existing_prefix() {
        let s = Schema::new(["old.x"]).qualified("new");
        assert_eq!(s.index_of("new.x"), Some(0));
        assert_eq!(s.index_of("old.x"), None);
    }

    #[test]
    fn tuple_ops() {
        let t = Tuple::from_iter([Value::I64(1), Value::str("a")]);
        assert_eq!(t.get(0), &Value::I64(1));
        assert!(t.get(7).is_null());
        let u = t.concat(&Tuple::from_iter([Value::Bool(true)]));
        assert_eq!(u.len(), 3);
        let p = u.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Bool(true), Value::I64(1)]);
    }

    #[test]
    fn row_lookup() {
        let s = Schema::new(["cl.procName"]);
        let t = Tuple::from_iter([Value::str("HBase")]);
        let row = (&s, &t);
        assert_eq!(row.field("procName"), Some(&Value::str("HBase")));
        assert_eq!(row.field("cl.procName"), Some(&Value::str("HBase")));
    }

    #[test]
    fn inline_and_heap_tuples_behave_identically() {
        // Cross the INLINE_CAP boundary: equality, hashing, get, concat,
        // and project must not care which representation holds the values.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        for n in 0..(INLINE_CAP + 3) {
            let vals: Vec<Value> = (0..n).map(|i| Value::I64(i as i64)).collect();
            let from_iter: Tuple = vals.iter().cloned().collect();
            let from_new = Tuple::new(vals.clone());
            assert_eq!(from_iter, from_new);
            assert_eq!(from_iter.len(), n);
            assert_eq!(from_iter.values(), &vals[..]);
            let mut h1 = DefaultHasher::new();
            let mut h2 = DefaultHasher::new();
            from_iter.hash(&mut h1);
            from_new.hash(&mut h2);
            assert_eq!(h1.finish(), h2.finish());
        }
        // Concat across the boundary spills to the heap transparently.
        let a = Tuple::from_iter((0..3).map(Value::I64));
        let b = Tuple::from_iter((3..8).map(Value::I64));
        let c = a.concat(&b);
        assert_eq!(c.len(), 8);
        assert_eq!(c.get(7), &Value::I64(7));
        assert_eq!(c.project(&[7, 0]).values(), &[Value::I64(7), Value::I64(0)]);
    }

    #[test]
    fn clone_owns_each_value_once_in_either_representation() {
        for n in 0..(INLINE_CAP + 3) {
            // Longer than `text::INLINE`, so the values share `s` and its
            // count witnesses each clone; a row of inline strings is pinned
            // by allocation count in the root `tests/invoke_allocs.rs`.
            let s: Arc<str> = Arc::from("a-key-longer-than-a-value-holds");
            let t: Tuple = (0..n).map(|_| Value::from(s.clone())).collect();
            let c = t.clone();
            assert_eq!(c, t);
            assert_eq!(c.len(), n);
            assert_eq!(Arc::strong_count(&s), 1 + 2 * n);
            drop(t);
            assert_eq!(c.values(), &vec![Value::from(s.clone()); n][..]);
        }
    }

    #[test]
    fn group_keys_hashable() {
        use std::collections::HashSet;
        let t1 = Tuple::from_iter([Value::I64(5)]);
        let t2 = Tuple::from_iter([Value::U64(5)]);
        let mut set = HashSet::new();
        set.insert(GroupKey::project(&t1, &[0]));
        // Cross-representation equal numerics group together.
        assert!(!set.insert(GroupKey::project(&t2, &[0])));
    }
}
