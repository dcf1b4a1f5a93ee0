//! Global string interning.
//!
//! Field names, tracepoint aliases, and other compile-time strings recur
//! constantly across schemas, advice programs, and emitted rows. Interning
//! them gives every occurrence the same allocation, so steady-state
//! execution clones an `Arc` pointer instead of copying bytes, and equality
//! checks usually resolve on pointer identity.
//!
//! The pool is append-only and process-global. Interning takes a lock and
//! is therefore meant for *compile/lowering time* (query installation),
//! not the per-event hot path — the hot path only clones already-interned
//! [`Sym`]s.

use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

/// An interned, immutable string.
///
/// `Sym` dereferences to `str` and compares like a string, but two `Sym`s
/// produced by [`Sym::new`] for equal text share one allocation, so
/// equality short-circuits on pointer identity and `clone` is one atomic
/// increment.
#[derive(Clone, Eq)]
pub struct Sym(Arc<str>);

impl Sym {
    /// Interns `s`, returning the pooled symbol.
    pub fn new(s: impl AsRef<str>) -> Sym {
        Sym(intern(s.as_ref()))
    }

    /// Returns the interned text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Returns the shared allocation (for storage in [`crate::Value`]).
    pub fn as_arc(&self) -> &Arc<str> {
        &self.0
    }
}

impl Deref for Sym {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Sym) -> bool {
        // Interned symbols with equal text share one allocation; the
        // content comparison only runs for symbols built around the pool
        // (e.g. deserialized before interning).
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.0.as_ref() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.0.as_ref() == *other
    }
}

impl std::hash::Hash for Sym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash by content so `Sym` and `str` keys interoperate.
        self.0.hash(state);
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::new(s)
    }
}

fn pool() -> &'static Mutex<HashSet<Arc<str>>> {
    static POOL: OnceLock<Mutex<HashSet<Arc<str>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Interns `s` in the global pool, returning the shared allocation.
pub fn intern(s: &str) -> Arc<str> {
    let mut pool = pool().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(existing) = pool.get(s) {
        return Arc::clone(existing);
    }
    let arc: Arc<str> = Arc::from(s);
    pool.insert(Arc::clone(&arc));
    arc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interned_strings_share_allocation() {
        let a = Sym::new("incr.delta");
        let b = Sym::new("incr.delta");
        assert!(Arc::ptr_eq(a.as_arc(), b.as_arc()));
        assert_eq!(a, b);
        assert_eq!(a, "incr.delta");
    }

    #[test]
    fn distinct_strings_differ() {
        assert_ne!(Sym::new("a"), Sym::new("b"));
    }

    #[test]
    fn sym_hashes_like_str() {
        use std::collections::HashMap;
        let mut m: HashMap<Sym, i32> = HashMap::new();
        m.insert(Sym::new("k"), 1);
        assert_eq!(m.get(&Sym::new("k")), Some(&1));
    }
}
