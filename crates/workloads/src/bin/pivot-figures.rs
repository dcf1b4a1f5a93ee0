//! Prints one of the paper's figures or tables, named by the stem of its
//! `results/` file (`pivot_workloads::experiments::FIGURES`).
//!
//! ```text
//! cargo run --release -p pivot-workloads --bin pivot-figures -- fig8 > results/fig8.txt
//! ```
//!
//! Any other argument list prints the stems and exits 2.

use std::process::ExitCode;

use pivot_workloads::experiments::FIGURES;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match FIGURES.iter().find(|(stem, _)| args == [*stem]) {
        Some((_, render)) => {
            print!("{}", render());
            ExitCode::SUCCESS
        }
        None => {
            let stems: Vec<&str> = FIGURES.iter().map(|(stem, _)| *stem).collect();
            eprintln!("usage: pivot-figures <stem>\nstems: {}", stems.join(" "));
            ExitCode::from(2)
        }
    }
}
