//! `lowbit-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints diagnostics on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and the metrics (end-to-end for
//! `--trace 0`, per-layer for `--trace 1`). Exits non-zero on any failed
//! operation or output mismatch.

use lowbit_perfbench::alloc::CountingAlloc;
use lowbit_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use lowbit_perfbench::{edge, serve};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected (0, 600]"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(a: &Args) -> Result<Outcome, String> {
    let trace_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}.trace.json", a.workload, a.seed));
    let edge = [edge::EDGE_W2_PROJECTION, edge::EDGE_W8_DENSE];
    match (edge.iter().find(|w| w.name == a.workload), a.trace) {
        (Some(w), false) => edge::run_untraced(w, a.seed, a.seconds),
        (Some(w), true) => edge::run_traced(w, a.seed, a.seconds, &trace_path),
        (None, false) if a.workload == serve::NAME => serve::run_untraced(a.seed, a.seconds),
        (None, true) if a.workload == serve::NAME => {
            serve::run_traced(a.seed, a.seconds, &trace_path)
        }
        (None, _) => Err(format!(
            "unknown workload {} (expected {}, {} or {})",
            a.workload,
            edge[0].name,
            edge[1].name,
            serve::NAME
        )),
    }
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| {
        let o = run(&a)?;
        let line = o.json_line(if a.trace { PER_LAYER } else { END_TO_END })?;
        Ok((o.correct(), line))
    });
    match result {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("output check failed: see \"failed\"");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("lowbit-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
