//! Pass 5 — query-reference cycle detection.
//!
//! Queries may join the output of previously installed queries (the
//! paper's Q9 joining Q8). The compiler inlines referenced queries
//! recursively; on a cycle in the reference graph it gives up at 250
//! stages with `TooManyStages`, which says nothing of the cycle. The
//! frontend's append-only installation order cannot create one, but a
//! [`Resolver`] is an open trait — `pivot-lint` resolves from files, and
//! embedders can resolve from anything — so this pass walks the graph and
//! names the cycle.

use std::collections::HashSet;

use pivot_query::ast::{Query, SourceKind};
use pivot_query::{locate, Resolver};

use crate::diag::{Code, Diagnostic};

/// Checks for reference cycles reachable from `ast` (installed under
/// `name`). Returns `true` when a cycle was reported — the caller must
/// then skip compilation.
pub(crate) fn check(
    name: &str,
    ast: &Query,
    text: &str,
    resolver: &dyn Resolver,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    let mut path = vec![name.to_owned()];
    let mut visited = HashSet::new();
    let mut cycle = None;
    walk(ast, resolver, &mut path, &mut visited, &mut cycle);
    let Some(cycle_path) = cycle else {
        return false;
    };
    let entry = cycle_path.last().cloned().unwrap_or_default();
    diags.push(
        Diagnostic::error(
            Code::QueryCycle,
            format!("query reference cycle: {}", cycle_path.join(" -> ")),
        )
        .with_span(locate(text, &entry))
        .suggest(
            "break the cycle: a query may only join queries installed \
             before it",
        ),
    );
    true
}

fn walk(
    ast: &Query,
    resolver: &dyn Resolver,
    path: &mut Vec<String>,
    visited: &mut HashSet<String>,
    cycle: &mut Option<Vec<String>>,
) {
    if cycle.is_some() {
        return;
    }
    for r in references(ast, resolver) {
        if path.contains(&r) {
            let mut p = path.clone();
            p.push(r);
            *cycle = Some(p);
            return;
        }
        if !visited.insert(r.clone()) {
            continue;
        }
        if let Some(sub) = resolver.query_ast(&r) {
            path.push(r);
            walk(&sub, resolver, path, visited, cycle);
            path.pop();
        }
    }
}

/// Returns the names of installed queries `ast` references as sources —
/// mirroring the compiler's classification: a single-name source whose
/// name resolves to a query.
fn references(ast: &Query, resolver: &dyn Resolver) -> Vec<String> {
    std::iter::once(&ast.from)
        .chain(ast.joins.iter().map(|j| &j.source))
        .filter_map(|s| match &s.kind {
            SourceKind::QueryRef(n) => Some(n.clone()),
            SourceKind::Tracepoints(names)
                if names.len() == 1 && resolver.query_ast(&names[0]).is_some() =>
            {
                Some(names[0].clone())
            }
            SourceKind::Tracepoints(_) => None,
        })
        .collect()
}
