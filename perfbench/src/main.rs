//! perfbench — the repository benchmark. Drives the release `fdrepair`
//! binary through seeded workloads, checks every output byte for byte
//! against an in-process `Planner.run(..).to_json()`, and prints one
//! result line. With `--trace 1` it also times each crate's public calls
//! in-process on the same inputs (the per-layer metrics).
//!
//! ```text
//! perfbench --workload <cli_batch_1m|serve_mixed|serve_tables> --seed <n>
//!           --seconds <s> --trace <0|1> --fdrepair <path> --work <dir>
//! ```
//!
//! `perfbench/run.py` builds both binaries and passes the last two
//! flags; see `perfbench/README.md`.

mod cli_batch;
mod http;
mod inputs;
mod layers;
mod metrics;
mod proc;
mod reference;
mod serve_mixed;
mod serve_stats;
mod serve_tables;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub fdrepair: PathBuf,
    /// Work directory for inputs and outputs, inside the checkout.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// The workloads, each with the one-line reason it exists.
const WORKLOADS: [(&str, &str); 3] = [
    ("cli_batch_1m", cli_batch::WHY),
    ("serve_mixed", serve_mixed::WHY),
    ("serve_tables", serve_tables::WHY),
];

fn parse_args() -> Result<(String, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or(format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let ctx = Ctx {
        fdrepair: PathBuf::from(value("--fdrepair")?),
        work: PathBuf::from(value("--work")?),
        seed: number("--seed")?,
        seconds: Duration::from_secs(number("--seconds")?.max(1)),
        trace: number("--trace")? == 1,
    };
    Ok((workload, ctx))
}

fn main() -> ExitCode {
    // Child processes the runner starts (the reference job, the traced
    // passes): measurements that need an address space of their own.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let probe = match args.as_slice() {
        [flag] if flag == "--reference" => {
            Some(Ok(vec![("checksum".to_string(), reference::run() as f64)]))
        }
        [flag, file] if flag == "--probe-doc" => Some(layers::doc_ingest(Path::new(file))),
        [flag, input, sink] if flag == "--traced-cli" => Some(cli_batch::traced_pipeline(
            Path::new(input),
            Path::new(sink),
        )),
        _ => None,
    };
    match probe {
        Some(Ok(lines)) => {
            for (name, value) in lines {
                println!("{name} {value}");
            }
            return ExitCode::SUCCESS;
        }
        Some(Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
        None => {}
    }
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("workloads:");
            for (name, why) in WORKLOADS {
                eprintln!("  {name:<14} {why}");
            }
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let outcome = match workload.as_str() {
        "cli_batch_1m" => cli_batch::run(&ctx),
        "serve_mixed" => serve_mixed::run(&ctx),
        _ => serve_tables::run(&ctx),
    };
    match outcome {
        Ok(out) => {
            println!(
                "workload {workload} seed {} trace {}",
                ctx.seed, ctx.trace as u8
            );
            println!(
                "attempted {} completed {} failed {} fail_ratio {}",
                out.attempted,
                out.attempted - out.failed,
                out.failed,
                out.failed as f64 / out.attempted.max(1) as f64
            );
            for line in &out.lines {
                println!("{line}");
            }
            for (name, value) in &out.e2e {
                println!("{name:<36} {value:>16.4}");
            }
            println!("{}", out.result_json(ctx.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
