//! The repository benchmark: one command, one workload, one seed.
//!
//! ```text
//! cargo run --release --manifest-path ddbench/Cargo.toml -- \
//!     --workload fit|serve-zipf|ingest-reload --seed N --seconds S --trace 0|1
//! ```
//!
//! The run builds the workload's inputs from the seed, drives the layers
//! through their public functions, checks every output, prints a report
//! (machine facts, gates, sample counts) and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. See `README.md`.

mod gates;
mod load;
mod machine;
mod run;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one set-up and print its times: the run's own child processes.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, 1u64, 10.0f64);
    let (mut trace, mut setup_only) = (false, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" | "--setup-only" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                };
                if flag == "--trace" {
                    trace = on;
                } else {
                    setup_only = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, setup_only })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ddbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(plan) = workload::plan(&args.workload, args.seconds) else {
        eprintln!(
            "ddbench: unknown workload {:?} (try: {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    // Model artifacts live in the checkout, under a directory of this run.
    let work = PathBuf::from(".bench_work").join(format!("{}-{}", plan.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("ddbench: creating {}: {e}", work.display());
        return ExitCode::from(1);
    }
    if args.setup_only {
        let result = run::set_up_only(&plan, args.seed, &work);
        let _ = std::fs::remove_dir_all(&work);
        return match result {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ddbench: {} set-up failed: {e}", plan.name);
                ExitCode::from(1)
            }
        };
    }
    let result = run::run(&plan, args.seed, args.trace, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("ddbench: {} failed: {e}", plan.name);
            return ExitCode::from(1);
        }
    };

    println!(
        "# ddbench workload={} seed={} seconds={} trace={}",
        plan.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# machine {}", machine::Machine::probe().to_json());
    for g in &out.gates {
        println!("# gate {}: {}", g.name, if g.passed { "pass" } else { "FAIL" });
    }
    for missed in &out.missed_checks {
        println!("# gate {missed}: MISSED a corrupted output in its self-check");
    }
    for note in &out.notes {
        println!("# {note}");
    }
    let metrics = if args.trace { &out.per_layer } else { &out.end_to_end };
    let mut finite = true;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            finite &= m.value.is_finite();
            println!("# {:<40} {:>16.6} {}", m.name, m.value, m.unit);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    if !finite {
        eprintln!("ddbench: a metric is not a finite number");
        return ExitCode::from(1);
    }
    let correct = out.gates.iter().all(|g| g.passed) && out.missed_checks.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
