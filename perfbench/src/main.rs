//! The repository benchmark: one command, three workloads, untraced
//! end-to-end metrics or a traced per-layer ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <resnet34_int_b1|resnet20_int_b8|serve_resnet20_tcp> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run prints a host header line first, then one report line, and as
//! its last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`. A failed output check
//! makes the run exit with code 1 after printing the result.

mod host;
mod ledger;
mod offline;
mod serve;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;

/// One measured value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The result metrics: end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<Metric>,
    /// Supplementary values printed on the report line only.
    pub report: Vec<Metric>,
    /// Operations attempted and operations that failed an output check.
    pub attempted: u64,
    pub failed: u64,
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN/Inf; a non-finite value is reported as null.
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::probe();
    println!("{}", host.json());
    let outcome = match (args.workload.as_str(), args.trace) {
        (name, false) if offline::spec(name).is_some() => {
            offline::run(offline::spec(name).expect("checked"), &args)
        }
        ("serve_resnet20_tcp", false) => serve::run(&args),
        (name, true) if offline::spec(name).is_some() || name == "serve_resnet20_tcp" => {
            ledger::run(name, &args, &host)
        }
        (other, _) => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    // A run that measured nothing counts as one failed operation.
    let (attempted, failed) = if outcome.attempted == 0 {
        (1, 1)
    } else {
        (outcome.attempted, outcome.failed)
    };
    let correct = failed == 0;
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"report\": {}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        metrics_json(&outcome.report)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        attempted,
        failed,
        metrics_json(&outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
