//! The repository benchmark: seeded end-to-end workloads over the public
//! APIs of the workspace crates.
//!
//! ```text
//! cargo run --quiet --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rag-fetch|lossy-load|serving-threads> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: the metric lists come from
//! `BENCHMARK.json` there. With `--trace 0` the last line of standard
//! output is one JSON object carrying every `end_to_end` metric; with
//! `--trace 1` it carries every `per_layer` metric instead (zero where the
//! workload does not run that layer). The lines before it print the host
//! stamp, every metric the workload defines by name and unit, failed
//! checks and ledger findings. `perfbench/DESIGN.md` describes the workloads, the
//! metrics and the ledger.

mod common;
mod host;
mod lossy;
mod rag;
mod serving;

use std::process::ExitCode;

use cachegen_telemetry::json::{parse, JsonValue};
use common::RunReport;

/// Where the metric lists live, relative to the repository root.
const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn metric_list(doc: &JsonValue, key: &str) -> Result<Vec<(String, String)>, String> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{BENCHMARK_JSON} has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a {key} entry lacks {f}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

const WORKLOADS: [&str; 3] = ["rag-fetch", "lossy-load", "serving-threads"];

const USAGE: &str = "usage: perfbench --workload <rag-fetch|lossy-load|serving-threads> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let lists = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("cannot read {BENCHMARK_JSON}: {e}"))
        .and_then(|text| parse(&text))
        .and_then(|doc| {
            let key = if args.trace {
                "per_layer"
            } else {
                "end_to_end"
            };
            metric_list(&doc, key)
        });
    let metrics = match lists {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e} (run from the repository root)");
            return ExitCode::FAILURE;
        }
    };
    let stamp = host::stamp();
    println!("host {}", stamp.to_json());
    let ticks = host::cpu_ticks();
    let mut report: RunReport = match args.workload.as_str() {
        "rag-fetch" => rag::run(args.seed, args.seconds, args.trace),
        "lossy-load" => lossy::run(args.seed, args.seconds, args.trace),
        "serving-threads" => serving::run(args.seed, args.seconds, args.trace),
        other => unreachable!("parse_args accepts no workload {other}"),
    };
    let steal = host::steal_frac(ticks, host::cpu_ticks());
    report.notes.push(format!(
        "host steal {:.1}% of CPU time during the run (wall times rise with it)",
        100.0 * steal
    ));
    report.layer("host.steal_frac", steal, "frac");
    report.e2e("peak_rss_mb", common::peak_rss_mb(), "MB");
    report.e2e("error_frac", report.error_frac(), "frac");
    report.layer("host.nproc", stamp.nproc as f64, "count");
    report.layer(
        "host.memcpy_gb_per_s",
        stamp.memcpy_bytes_per_sec / 1e9,
        "GB/s",
    );
    report.layer("host.pool_workers", stamp.pool_workers as f64, "count");

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in &report.e2e {
        println!("metric {name} {value} {unit}");
    }
    if args.trace {
        for (name, value, unit) in &report.layers {
            println!("layer {name} {value} {unit}");
        }
    }
    for note in &report.notes {
        println!("note {note}");
    }

    let reported: Vec<(&str, f64, &str)> = if args.trace {
        let known = |n: &str| metrics.iter().any(|m| m.0 == n);
        for (name, _, _) in report.layers.iter().filter(|l| !known(&l.0)) {
            println!("note {name} is not a per_layer metric of {BENCHMARK_JSON}");
        }
        report
            .layers
            .iter()
            .map(|l| (l.0.as_str(), l.1, l.2))
            .collect()
    } else {
        report.e2e.to_vec()
    };
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, unit) in &metrics {
        let value = match reported.iter().find(|m| m.0 == name) {
            Some(&(_, value, u)) if u == unit => value,
            Some(&(_, _, u)) => {
                eprintln!("perfbench: {name} is in {u}, {BENCHMARK_JSON} says {unit}");
                return ExitCode::FAILURE;
            }
            // A layer the workload does not run reads 0.
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {} did not report {name}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        if report.attempted == 0 {
            1
        } else {
            report.failed
        },
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
