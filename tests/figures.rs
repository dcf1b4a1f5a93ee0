//! The committed `results/` files are what the code prints.
//!
//! `pivot_workloads::experiments::FIGURES` names every rendered figure or
//! table by its `results/` file stem. Each one that runs in virtual time
//! alone is rendered here and compared with its file byte for byte, so a
//! change that moves a figure moves its file in the same commit; and the
//! stems and the files agree both ways.

use std::fs;
use std::path::{Path, PathBuf};

use pivot_tracing::workloads::experiments::FIGURES;

/// Figures that time wall-clock loops, so no two runs print the same
/// bytes: `fig10` entirely, `table5` in its first table (its virtual-time
/// table alone would pin, once the wall-clock half goes).
const UNPINNED: &[&str] = &["fig10", "table5"];

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Where `printed` first departs from `committed`, and how to rewrite it.
fn first_difference(stem: &str, committed: &str, printed: &str) -> String {
    let mut want = committed.split_inclusive('\n');
    let mut got = printed.split_inclusive('\n');
    let mut line = 1;
    loop {
        let (w, g) = (want.next(), got.next());
        if w != g {
            return format!(
                "results/{stem}.txt differs from what the code prints at line {line}:\n  \
                 committed: {w:?}\n  printed:   {g:?}\n  \
                 if the change is meant, rewrite it with\n  \
                 cargo run --release -p pivot-workloads --bin pivot-figures -- {stem} > results/{stem}.txt"
            );
        }
        line += 1;
    }
}

#[test]
fn every_figure_has_a_results_file_and_every_file_a_figure() {
    let mut files: Vec<String> = fs::read_dir(results())
        .expect("results/ is readable")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| {
            path.file_stem()
                .expect("a file name")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    files.sort();
    let mut stems: Vec<&str> = FIGURES.iter().map(|(stem, _)| *stem).collect();
    stems.sort_unstable();
    assert_eq!(
        files, stems,
        "results/*.txt and FIGURES name the same stems"
    );
    for stem in UNPINNED {
        assert!(stems.contains(stem), "unpinned {stem} is not a figure");
    }
}

#[test]
fn each_pinned_figure_prints_its_committed_file_byte_for_byte() {
    let stale: Vec<String> = FIGURES
        .iter()
        .filter(|(stem, _)| !UNPINNED.contains(stem))
        .filter_map(|(stem, render)| {
            let path = results().join(format!("{stem}.txt"));
            let committed =
                fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let printed = render();
            (printed != committed).then(|| first_difference(stem, &committed, &printed))
        })
        .collect();
    assert!(stale.is_empty(), "{}", stale.join("\n\n"));
}
