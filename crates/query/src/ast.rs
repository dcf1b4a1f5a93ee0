//! Abstract syntax for Pivot Tracing queries.

use pivot_model::{AggFunc, Expr};

/// A temporal filter restricting which tuples of a source participate in a
/// happened-before join (paper Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TemporalFilter {
    /// The `n` least recent tuples (`First` / `FirstN`).
    First(usize),
    /// The `n` most recent tuples (`MostRecent` / `MostRecentN`).
    MostRecent(usize),
}

impl TemporalFilter {
    /// Restricts `tuples` (in causal order, oldest first) to the filter's
    /// window. Shared by the tree-walk interpreter and the bytecode VM so
    /// post-unpack temporal semantics cannot drift between engines.
    pub fn apply(self, tuples: &mut Vec<pivot_model::Tuple>) {
        match self {
            TemporalFilter::First(n) => tuples.truncate(n.max(1)),
            TemporalFilter::MostRecent(n) => {
                let keep = n.max(1);
                if tuples.len() > keep {
                    let skip = tuples.len() - keep;
                    tuples.drain(..skip);
                }
            }
        }
    }
}

/// What a source name refers to.
///
/// Names are resolved at compile time: a name matching an installed query
/// becomes a [`SourceKind::QueryRef`] (paper Q9 joins against Q8);
/// otherwise it names one or more tracepoints.
#[derive(Clone, PartialEq, Debug)]
pub enum SourceKind {
    /// One or more tracepoint names; more than one denotes a union
    /// (`From e In DataRPCs, ControlRPCs`).
    Tracepoints(Vec<String>),
    /// A reference to another installed query by name.
    QueryRef(String),
}

/// A `From`/`Join` source: an alias bound to tracepoints or a query
/// reference, optionally under a temporal filter.
#[derive(Clone, PartialEq, Debug)]
pub struct Source {
    /// The alias tuples of this source are referred to by.
    pub alias: String,
    /// What the source names.
    pub kind: SourceKind,
    /// Optional temporal filter (`First(…)`, `MostRecent(…)`).
    pub filter: Option<TemporalFilter>,
}

/// A `Join <alias> In <source> On <a> -> <b>` clause.
#[derive(Clone, PartialEq, Debug)]
pub struct JoinClause {
    /// The joined source.
    pub source: Source,
    /// Alias on the left of `->` (the causally earlier side).
    pub earlier: String,
    /// Alias on the right of `->` (the causally later side).
    pub later: String,
}

/// One item of a `Select` clause.
#[derive(Clone, PartialEq, Debug)]
pub enum SelectItem {
    /// A scalar expression (also an implicit group key when the select
    /// contains aggregates).
    Expr(Expr),
    /// An aggregate over an expression; `COUNT` uses a null literal
    /// argument.
    Agg(AggFunc, Expr),
}

/// A parsed Pivot Tracing query.
#[derive(Clone, PartialEq, Debug)]
pub struct Query {
    /// The main (`From`) source — the causally *last* tracepoint, where the
    /// query's results are emitted.
    pub from: Source,
    /// Happened-before joins, in declaration order.
    pub joins: Vec<JoinClause>,
    /// Conjunctive `Where` predicates.
    pub wheres: Vec<Expr>,
    /// Explicit `GroupBy` fields.
    pub group_by: Vec<String>,
    /// `Select` items.
    pub select: Vec<SelectItem>,
    /// Optional `Trigger` clause: requests whose emitted tuples satisfy
    /// this predicate (or any emitted tuple, when the predicate is
    /// omitted) cause a retroactive full-fidelity flush of the agent's
    /// recent-event ring buffer. `Some(Lit(Bool(true)))` is the bare
    /// `Trigger` form.
    pub trigger: Option<Expr>,
}

impl Query {
    /// Returns `true` if any select item aggregates.
    pub fn has_aggregates(&self) -> bool {
        self.select.iter().any(|s| matches!(s, SelectItem::Agg(..)))
    }

    /// Returns the alias declared by the `From` clause.
    pub fn main_alias(&self) -> &str {
        &self.from.alias
    }
}
