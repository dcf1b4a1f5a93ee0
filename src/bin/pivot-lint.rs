//! `pivot-lint` — run the static advice verifier over query files.
//!
//! Each argument is a query file (conventionally `.pt`); `#` starts a
//! comment. Files are checked in order against the simulated stack's
//! tracepoint vocabulary (unless `--no-builtin`), and a clean query is
//! registered under its file stem so later files may join it by name.
//! Each file is analyzed once: what later files resolve is the query the
//! analysis parsed.
//!
//! ```text
//! pivot-lint [--defs FILE] [--no-builtin] [--bound] [--strict] FILE...
//! ```
//!
//! Exit status is 1 when any file has an error-severity diagnostic
//! (or, with `--strict`, any diagnostic at all).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use pivot_analyze::{Analyzer, Severity};
use pivot_core::frontend::InstallError;
use pivot_core::Frontend;
use pivot_query::{Query, Resolver};

const USAGE: &str = "\
usage: pivot-lint [options] FILE...

Statically verifies Pivot Tracing query files: name/schema resolution,
type coherence, advice dataflow well-formedness, baggage-cost bounds,
and query-reference cycles. A clean query is installed under its file
stem, so later files may reference earlier ones as sources.

options:
  --defs FILE    add tracepoint definitions from FILE; each line is
                 `Name: export, export, ...` (# comments allowed)
  --no-builtin   do not predefine the simulated Hadoop/HBase vocabulary
  --bound        print the static baggage bound of every clean query
  --strict       exit nonzero on warnings, not just errors
  -h, --help     print this help";

fn main() -> ExitCode {
    let mut defs = Vec::new();
    let mut files = Vec::new();
    let mut builtin = true;
    let mut bound = false;
    let mut strict = false;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--defs" => match argv.next() {
                Some(f) => defs.push(f),
                None => return fail("--defs needs a file argument"),
            },
            "--no-builtin" => builtin = false,
            "--bound" => bound = true,
            "--strict" => strict = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                return fail(&format!("unknown option `{arg}`"));
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        return fail("no query files given");
    }

    let mut frontend = Frontend::new();
    if builtin {
        pivot_hadoop::tracepoints::define_all(&mut frontend);
    }
    for path in &defs {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("{path}: {e}")),
        };
        if let Err(e) = load_defs(&text, &mut frontend) {
            return fail(&format!("{path}: {e}"));
        }
    }

    let mut queries = HashMap::new();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for path in &files {
        let raw = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("{path}: {e}")),
        };
        let text = strip_comments(&raw);
        let name = Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path)
            .to_owned();

        let scope = Scope {
            tracepoints: &frontend,
            queries: &queries,
        };
        let (analysis, ast) = Analyzer::new(&scope).analyze(&text, &name);
        for d in &analysis.diagnostics {
            println!("{}", d.render(path));
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
                Severity::Note => {}
            }
        }
        if analysis.has_errors() {
            continue;
        }
        if bound {
            report_bound(&name, &analysis);
        }
        // Make the clean query referenceable by later files.
        match (queries.entry(name), ast) {
            (Entry::Vacant(slot), Some(ast)) => _ = slot.insert(ast),
            (Entry::Vacant(_), None) => {}
            (Entry::Occupied(taken), _) => {
                let name = taken.key().clone();
                println!("error: {path}: {}", InstallError::DuplicateName(name));
                errors += 1;
            }
        }
    }

    if errors > 0 {
        println!("pivot-lint: {errors} error(s), {warnings} warning(s)");
        ExitCode::FAILURE
    } else if warnings > 0 {
        println!("pivot-lint: {warnings} warning(s)");
        if strict {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    } else {
        ExitCode::SUCCESS
    }
}

/// What a file is checked against: the tracepoint vocabulary and the
/// earlier clean files' queries, by file stem.
struct Scope<'a> {
    tracepoints: &'a Frontend,
    queries: &'a HashMap<String, Query>,
}

impl Resolver for Scope<'_> {
    fn tracepoint_exports(&self, name: &str) -> Option<Vec<String>> {
        self.tracepoints.tracepoint_exports(name)
    }

    fn query_ast(&self, name: &str) -> Option<Query> {
        self.queries.get(name).cloned()
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("pivot-lint: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}

fn strip_comments(raw: &str) -> String {
    raw.lines()
        .map(|l| l.split('#').next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Parses `Name: export, export, ...` lines into tracepoint definitions.
fn load_defs(text: &str, frontend: &mut Frontend) -> Result<(), String> {
    for (no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (name, exports) = line
            .split_once(':')
            .ok_or(format!("line {}: expected `Name: exports`", no + 1))?;
        frontend.define(
            name.trim(),
            exports
                .split(',')
                .map(str::trim)
                .filter(|e| !e.is_empty())
                .map(str::to_owned),
        );
    }
    Ok(())
}

fn report_bound(name: &str, analysis: &pivot_analyze::Analysis) {
    let Some(cost) = &analysis.optimized_cost else {
        return;
    };
    println!("{name}: baggage bound {} bytes", cost.total_bytes);
    for s in &cost.stages {
        println!(
            "  pack at `{}`: {} tuples x {} columns = {} bytes",
            s.alias, s.tuples, s.width, s.bytes
        );
    }
    if let Some(unopt) = &analysis.unoptimized_cost {
        println!("  (unoptimized plan: {} bytes)", unopt.total_bytes);
    }
    // A finite bound seeds the runtime overload governor: show the
    // default budget a frontend with `set_enforce_budgets(true)` would
    // push for this query, so operators can size overrides against it.
    if let Some(bytes) = cost.total_bytes.as_finite() {
        let b = pivot_core::QueryBudget::from_static_bound(Some(bytes));
        println!(
            "  default budget: {} tuples, {} vm-ops, {} bytes per {} ms window",
            b.tuples_per_window,
            b.ops_per_window,
            b.bytes_per_window,
            b.window_ns / 1_000_000
        );
    }
}
