//! Tracepoint definitions and the per-process weave registry.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use pivot_baggage::QueryId;
use pivot_model::{intern, Sym, Value};
use pivot_query::{AdviceByteCode, RunPlan};

use crate::hash::SeededMap;

/// The variables every tracepoint exports in addition to its declared ones
/// (paper §3): host, timestamp, process id, process name, and the
/// tracepoint name itself.
pub const DEFAULT_EXPORTS: [&str; 5] = ["host", "timestamp", "procid", "procname", "tracepoint"];

/// A tracepoint definition: a named location in the system plus its
/// exported variables.
///
/// Definitions are *not* part of the instrumented system's code — they are
/// the vocabulary queries are written against. In this Rust implementation
/// the instrumented systems call pre-declared tracepoints (see DESIGN.md on
/// the dynamic-weaving substitution); weaving and unweaving advice remains
/// fully dynamic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TracepointDef {
    /// Fully qualified name, e.g. `DataNodeMetrics.incrBytesRead`.
    pub name: String,
    /// Declared export names (the default exports are implicit).
    pub exports: Vec<String>,
}

impl TracepointDef {
    /// Creates a definition.
    pub fn new(
        name: impl Into<String>,
        exports: impl IntoIterator<Item = impl Into<String>>,
    ) -> TracepointDef {
        TracepointDef {
            name: name.into(),
            exports: exports.into_iter().map(Into::into).collect(),
        }
    }

    /// Returns declared plus default export names.
    pub fn all_exports(&self) -> Vec<String> {
        DEFAULT_EXPORTS
            .iter()
            .map(|s| (*s).to_owned())
            .chain(self.exports.iter().cloned())
            .collect()
    }
}

/// Where one `Observe` column of a woven program reads from, settled when
/// the program is woven: defaults come first in an export set and the
/// first match wins, so a name among [`DEFAULT_EXPORTS`] can only ever
/// mean the default, which the agent supplies.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Col {
    Host,
    Timestamp,
    Procid,
    Procname,
    Tracepoint,
    /// One of the caller's exports, found by name — or, while the call
    /// matches the site's remembered [`Layout`], at its position there.
    Caller,
}

impl Col {
    fn of(name: &str) -> Col {
        match name {
            "host" => Col::Host,
            "timestamp" => Col::Timestamp,
            "procid" => Col::Procid,
            "procname" => Col::Procname,
            "tracepoint" => Col::Tracepoint,
            _ => Col::Caller,
        }
    }
}

/// One woven program and what weaving settled about it.
#[derive(Clone, Debug)]
pub(crate) struct Planned {
    /// The owning query (used for unweaving).
    pub query: QueryId,
    /// The agent's per-query state slot: buffer and governor entry.
    pub slot: usize,
    /// The advice with its run shape.
    pub run: RunPlan,
    /// One entry per name in the program's `Observe` pool.
    pub cols: Vec<Col>,
}

/// The caller's export list as a site first saw it, and where each
/// caller-side column sits in it. Tracepoints export a fixed list, so
/// this is learned from the first event and an event that differs (an
/// exact name-by-name check) simply resolves by name instead.
#[derive(Debug)]
pub(crate) struct Layout {
    /// The remembered names, shared with the hindsight ring's shape.
    pub names: Arc<Vec<Sym>>,
    /// That shape's id in the ring.
    pub shape: u32,
    /// Per program of the site, per column: the first position in `names`
    /// carrying the column's name, or out of range.
    pub pos: Vec<Vec<usize>>,
}

impl Layout {
    /// Resolves every column of `site`'s programs against `names`.
    pub fn new(site: &SitePlan, names: Arc<Vec<Sym>>, shape: u32) -> Layout {
        let find = |want: &Sym| names.iter().position(|n| n == want).unwrap_or(usize::MAX);
        let columns = |p: &Planned| p.run.code().names.iter().map(find).collect();
        let pos = site.programs.iter().map(columns).collect();
        Layout { names, shape, pos }
    }
}

/// Name-by-name equality of a remembered export list and a live one: when
/// it holds for a [`Layout`]'s names, every position in the layout is
/// exact.
pub(crate) fn names_match(names: &[Sym], exports: &[(&str, Value)]) -> bool {
    names.len() == exports.len()
        && names
            .iter()
            .zip(exports)
            .all(|(n, (e, _))| n.as_str() == *e)
}

/// Everything a woven invocation needs to know about its tracepoint,
/// resolved when advice is woven or unwoven there and published as one
/// `Arc`: an event does one lookup and runs.
#[derive(Debug)]
pub(crate) struct SitePlan {
    /// The tracepoint's interned name, for the `tracepoint` export.
    pub name: Value,
    /// The advice woven here, in weave order.
    pub programs: Vec<Planned>,
    /// Some program here observes `timestamp`: an event needs the time
    /// even when nothing else (governor, hindsight) asks for it.
    pub stamped: bool,
    /// Set by the first event to arrive under this plan.
    pub layout: OnceLock<Layout>,
}

impl SitePlan {
    fn new(name: Value, programs: Vec<Planned>) -> SitePlan {
        let stamps = |p: &Planned| p.cols.iter().any(|c| matches!(c, Col::Timestamp));
        SitePlan {
            name,
            stamped: programs.iter().any(stamps),
            programs,
            layout: OnceLock::new(),
        }
    }
}

/// The per-process registry mapping tracepoints to woven advice.
///
/// Invocation of an unwoven tracepoint costs a single atomic load (the
/// paper's "zero probe effect" — §5: inactive tracepoints impose no
/// overhead): the registry keeps a global count of woven programs and
/// bails before any lookup when it is zero.
#[derive(Default)]
pub struct Registry {
    woven_count: AtomicUsize,
    map: RwLock<SeededMap<String, Arc<SitePlan>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the plan of `tracepoint`, or `None` cheaply when the whole
    /// registry is empty: one read lock, one probe, one reference count.
    #[inline]
    pub(crate) fn lookup(&self, tracepoint: &str) -> Option<Arc<SitePlan>> {
        if self.is_idle() {
            return None;
        }
        self.map.read().get(tracepoint).cloned()
    }

    /// Returns `true` if nothing is woven anywhere.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.woven_count.load(Ordering::Relaxed) == 0
    }

    /// Weaves `code` (owned by `query`, whose agent state lives in `slot`)
    /// into each of its tracepoints, replacing their plans.
    pub(crate) fn weave(&self, query: QueryId, slot: usize, code: &Arc<AdviceByteCode>) {
        let cols = code.names.iter().map(|n| Col::of(n)).collect();
        let planned = Planned {
            query,
            slot,
            run: RunPlan::new(Arc::clone(code)),
            cols,
        };
        let mut map = self.map.write();
        for tp in &code.tracepoints {
            let (name, mut programs) = match map.get(tp) {
                Some(site) => (site.name.clone(), site.programs.clone()),
                None => (intern(tp).into(), Vec::new()),
            };
            programs.push(planned.clone());
            map.insert(tp.clone(), Arc::new(SitePlan::new(name, programs)));
            self.woven_count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes every advice program owned by `query`.
    pub fn unweave(&self, query: QueryId) {
        let mut map = self.map.write();
        map.retain(|_, site| {
            let kept: Vec<Planned> = site
                .programs
                .iter()
                .filter(|p| p.query != query)
                .cloned()
                .collect();
            let removed = site.programs.len() - kept.len();
            if removed > 0 {
                self.woven_count.fetch_sub(removed, Ordering::Relaxed);
                *site = Arc::new(SitePlan::new(site.name.clone(), kept));
            }
            !site.programs.is_empty()
        });
    }

    /// Returns the number of woven (tracepoint, program) pairs.
    pub fn woven_count(&self) -> usize {
        self.woven_count.load(Ordering::Relaxed)
    }

    /// Returns `true` if any advice owned by `query` is woven. Weave-time
    /// only (takes the map lock), never on the invoke hot path.
    pub fn has_query(&self, query: QueryId) -> bool {
        self.map
            .read()
            .values()
            .any(|site| site.programs.iter().any(|p| p.query == query))
    }

    /// Returns the distinct advice programs woven for `query` (weave-time
    /// cost, never on the invoke hot path). The overload governor captures
    /// these when a budget is set so a tripped breaker can re-weave the
    /// exact programs it unwove.
    pub fn programs_for(&self, query: QueryId) -> Vec<Arc<AdviceByteCode>> {
        let map = self.map.read();
        let mut out: Vec<Arc<AdviceByteCode>> = Vec::new();
        for site in map.values() {
            for p in site.programs.iter().filter(|p| p.query == query) {
                if !out.iter().any(|c| Arc::ptr_eq(c, p.run.code())) {
                    out.push(Arc::clone(p.run.code()));
                }
            }
        }
        out
    }

    /// Returns the distinct query ids with woven advice, in sorted order
    /// (used by epoch re-sync to reconcile against the frontend's set).
    pub fn woven_queries(&self) -> Vec<QueryId> {
        let map = self.map.read();
        let mut ids: Vec<QueryId> = map
            .values()
            .flat_map(|site| site.programs.iter().map(|p| p.query))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_query::bytecode::lower_program;
    use pivot_query::{AdviceOp, AdviceProgram};

    fn program(tps: &[&str]) -> Arc<AdviceByteCode> {
        let lowered = lower_program(&AdviceProgram {
            tracepoints: tps.iter().map(|s| (*s).to_owned()).collect(),
            ops: vec![AdviceOp::Observe {
                alias: "x".into(),
                fields: vec![],
            }],
        });
        Arc::new(lowered.code)
    }

    #[test]
    fn weave_unweave_round_trip() {
        let reg = Registry::new();
        assert!(reg.is_idle());
        assert!(reg.lookup("tp").is_none());
        reg.weave(QueryId(1), 0, &program(&["tp", "tp2"]));
        assert_eq!(reg.woven_count(), 2);
        let site = reg.lookup("tp").unwrap();
        assert_eq!(site.name, Value::str("tp"));
        assert_eq!(site.programs.len(), 1);
        reg.weave(QueryId(2), 1, &program(&["tp"]));
        assert_eq!(reg.lookup("tp").unwrap().programs.len(), 2);
        reg.unweave(QueryId(1));
        assert_eq!(reg.woven_count(), 1);
        assert_eq!(reg.lookup("tp").unwrap().programs.len(), 1);
        assert!(reg.lookup("tp2").is_none());
        reg.unweave(QueryId(2));
        assert!(reg.is_idle());
    }

    #[test]
    fn default_exports_are_appended() {
        let def = TracepointDef::new("X.y", ["delta"]);
        let all = def.all_exports();
        assert!(all.contains(&"host".to_owned()));
        assert!(all.contains(&"timestamp".to_owned()));
        assert!(all.contains(&"delta".to_owned()));
        assert_eq!(all.len(), 6);
        assert!(DEFAULT_EXPORTS
            .iter()
            .all(|d| !matches!(Col::of(d), Col::Caller)));
        assert!(matches!(Col::of("delta"), Col::Caller));
    }
}
