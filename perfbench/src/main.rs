//! The qcc benchmark: cold and warm GRAPE-priced compiles and a served
//! Table-3 mix, measured end to end with tracing off, or per layer with
//! tracing on. See `README.md` beside this package for the workloads, the
//! metrics, and which layer metric should move which end-to-end metric.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload grape_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--workload all` runs every workload in turn. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod check;
mod mathprobe;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Report, RunConfig, Workload};

/// Where the run writes its snapshot and span files, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: qcc-perfbench --workload <grape_cold|grape_warm|serve_suite|all> \
                     --seed <u64> --seconds <positive number> --trace <0|1>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?]
                })
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value}: must be a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Renders the result line. Metric names are prefixed with the workload when
/// several workloads ran.
fn json_line(reports: &[(Workload, Report)]) -> String {
    let attempted: u64 = reports.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = reports.iter().map(|(_, r)| r.failed).sum();
    let prefix = reports.len() > 1;
    let metrics: Vec<String> = reports
        .iter()
        .flat_map(|(w, r)| {
            r.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{}.{}", w.name(), m.name)
                } else {
                    m.name.clone()
                };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut reports = Vec::new();
    for workload in args.workloads {
        let mut report = workloads::run(workload, &config, args.trace);
        // A value that is not a finite number cannot be reported; it fails
        // the run instead.
        for m in &mut report.metrics {
            if !m.value.is_finite() {
                report.failed += 1;
                report
                    .notes
                    .push(format!("{} was not a finite number", m.name));
                m.value = 0.0;
            }
        }
        println!(
            "== {} (seed {}, {} s, trace {}, {cores} cores): {} attempted, {} failed; \
             {} outputs simulated, {} too wide to simulate",
            workload.name(),
            config.seed,
            config.seconds,
            u8::from(args.trace),
            report.attempted,
            report.failed,
            report.checked,
            report.unchecked
        );
        for m in &report.metrics {
            println!("{:<44} {:>18} {}", m.name, m.value, m.unit);
        }
        for note in &report.notes {
            println!("  note: {note}");
        }
        reports.push((workload, report));
    }
    println!("{}", json_line(&reports));
    ExitCode::SUCCESS
}
