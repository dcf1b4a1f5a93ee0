//! Same-run ratio gates over the benchmark's traced output.
//!
//! Each argument is a file holding the stdout of one `pivot-benchmark
//! --workload <w> --seed <n> --seconds <s> --trace 1` run, named
//! `<w>.<anything>`. Every row of [`GATES`] must find its workload's file
//! and pass. Both readings of a row come from one run, so the machine's
//! speed at that moment cancels out; EXPERIMENTS.md ("Gates") tabulates
//! the runs that sized each bound.
//!
//! ```text
//! cargo run --release -p pivot-bench --bin gate -- svc_unwoven.json svc_5q_retro.json report_fanin.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

/// `(workload, numerator, denominator, factor)`: the row passes when
/// `numerator <= factor * denominator`. Without a factor the ratio is
/// printed, not gated: its run-to-run spread left no room for a bound.
type Gate = (&'static str, &'static str, &'static str, Option<f64>);

#[rustfmt::skip] // one row a line
const GATES: [Gate; 4] = [
    // A request's four idle tracepoints against the generator's own share of
    // that request: both are self times over the same traced requests.
    ("svc_unwoven", "live.tracepoint_idle_ns", "gen.self_ns", Some(0.231)),
    // Budget accounting on the five-query invoke: a difference of two timings.
    ("svc_5q_retro", "core.governor_ns", "core.invoke_probe_ns", None),
    // One hindsight ring record on the same invoke.
    ("svc_5q_retro", "core.retro_record_ns", "core.invoke_probe_ns", Some(0.21)),
    // `relay.fanin_ratio` >= 5: one frontend frame per five agent frames.
    ("report_fanin", "relay.reports_out", "relay.reports_in", Some(0.2)),
];

/// What follows `key` in `line`, up to the next `,` or `}`.
fn token<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(&rest[..rest.find([',', '}'])?])
}

/// One row against one run's stdout. `Ok` is a pass, `Err` a failed bound
/// or a run that is no evidence (refused); either way the line to print.
fn evaluate(gate: &Gate, stdout: &str) -> Result<String, String> {
    let &(workload, numerator, denominator, factor) = gate;
    let refused = |why: String| format!("REFUSED {workload}: {why}");
    // The result is the last line. The benchmark puts a space after each
    // `:` and `,` and none inside a name or a number.
    let last = stdout.lines().last().unwrap_or("");
    let line: String = last.split_whitespace().collect();
    if token(&line, "\"correct\":") != Some("true") || token(&line, "\"failed\":") != Some("0") {
        return Err(refused("not a correct run with 0 failed operations".into()));
    }
    let read = |name: &str| {
        let value = token(&line, &format!("\"{name}\":{{\"value\":"));
        match value.and_then(|v| v.parse::<f64>().ok()) {
            None => Err(refused(format!("no metric {name}"))),
            // The benchmark prints 0 for a layer the workload never ran,
            // and that must not pass as `0 <= bound`.
            Some(0.0) => Err(refused(format!("{name} reads 0: the layer did not run"))),
            Some(v) => Ok(v),
        }
    };
    let (reading, base) = (read(numerator)?, read(denominator)?);
    let row = format!(
        "{workload}: {numerator} {reading:.1} = {:.3} x {denominator} {base:.1}",
        reading / base
    );
    match factor {
        None => Ok(format!("reported, not gated: {row}")),
        Some(f) if reading <= f * base => {
            Ok(format!("ok     {row}, bound {:.1} = {f} x", f * base))
        }
        Some(f) => Err(format!("FAILED {row}, bound {:.1} = {f} x", f * base)),
    }
}

fn main() -> ExitCode {
    let files: Vec<PathBuf> = std::env::args_os().skip(1).map(PathBuf::from).collect();
    let mut failed = false;
    for gate in &GATES {
        let w = gate.0;
        let file = files.iter().find(|f| f.file_stem().is_some_and(|s| s == w));
        let outcome = match file {
            None => Err(format!("REFUSED {w}: no result file {w}.*")),
            Some(f) => std::fs::read_to_string(f)
                .map_err(|e| format!("REFUSED {w}: {}: {e}", f.display()))
                .and_then(|stdout| evaluate(gate, &stdout)),
        };
        let (Ok(row) | Err(row)) = &outcome;
        println!("{row}");
        failed |= outcome.is_err();
    }
    ExitCode::from(u8::from(failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: Gate = ("w", "a.x_ns", "b.y_ns", Some(0.5));
    const GOOD: &str = "\"correct\": true, \"attempted\": 9, \"failed\": 0";

    fn run(head: &str, x: &str, y: &str) -> String {
        let unit = "\"unit\": \"ns\"";
        format!(
            "a table\n{{{head}, \"metrics\": {{\"a.x_ns\": {{\"value\": {x}, {unit}}}, \
             \"b.y_ns\": {{\"value\": {y}, {unit}}}}}}}\n"
        )
    }

    #[test]
    fn a_reading_passes_inside_its_bound_and_fails_outside_it_naming_both_sides() {
        let ok = evaluate(&G, &run(GOOD, "50", "100")).unwrap();
        assert!(ok.starts_with("ok"), "{ok}");
        let failed = evaluate(&G, &run(GOOD, "50.5", "100.25")).unwrap_err();
        let row = "w: a.x_ns 50.5 = 0.504 x b.y_ns 100.2";
        assert_eq!(failed, format!("FAILED {row}, bound 50.1 = 0.5 x"));
        let ungated = ("w", "a.x_ns", "b.y_ns", None);
        let shown = evaluate(&ungated, &run(GOOD, "50.5", "100.25")).unwrap();
        assert_eq!(shown, format!("reported, not gated: {row}"));
    }

    #[test]
    fn a_run_that_is_no_evidence_is_refused() {
        let refusals = [
            run(&GOOD.replace("true", "false"), "1", "100"),
            run(&GOOD.replace("\"failed\": 0", "\"failed\": 2"), "1", "100"),
            run(GOOD, "0", "100"),
            run(GOOD, "1", "0"),
            run(GOOD, "1", "100").replace("b.y_ns", "b.z_ns"),
            String::new(),
        ];
        for stdout in refusals {
            let why = evaluate(&G, &stdout).unwrap_err();
            assert!(why.starts_with("REFUSED w"), "{why}");
        }
    }

    #[test]
    fn every_row_reads_names_the_benchmark_prints() {
        let manifest = include_str!("../../../../BENCHMARK.json");
        for (workload, numerator, denominator, _) in GATES {
            for name in [workload, numerator, denominator] {
                let entry = format!("\"name\": \"{name}\"");
                assert!(manifest.contains(&entry), "{name}");
            }
        }
    }
}
