//! `repro`: regenerate the paper's figures, ablations and checks.
//!
//! `repro <name>... [flags]`, `repro all [flags]` or `repro summary DIR`;
//! see `elision_bench::experiment` for the experiments and flags.

fn main() -> std::process::ExitCode {
    elision_bench::experiment::main(std::env::args().skip(1).collect()).into()
}
