//! End-to-end benchmark of the DUO workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <serve_mixed|attack_duo|ingest_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits non-zero when an output check fails. See `README.md`.

mod attack_duo;
mod checks;
mod common;
mod ingest_mix;
mod layers;
mod serve_mixed;
mod served;
mod spec;

use common::{BenchResult, Metrics, Tally};

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// Index into [`spec::WORKLOADS`].
    pub workload: usize,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the workload's open-loop phases measure.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    spec::WORKLOADS
                        .iter()
                        .position(|w| w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=120.0).contains(&s) {
                    return Err(format!("--seconds must lie in 1..=120, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload hands back: its metrics, request tally and the
/// verdict of each output check.
pub struct Outcome {
    /// Measured metrics (end-to-end always; per-layer when traced).
    pub metrics: Metrics,
    /// Requests sent, succeeded and failed over the whole run.
    pub tally: Tally,
    /// One message per failed output check.
    pub failures: Vec<String>,
}

fn json_number(v: f64) -> String {
    // `{:?}` prints the shortest string that reads back to the same f64.
    format!("{v:?}")
}

/// Renders the result line over the declared metric names.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let names: Vec<(String, &str)> = if trace {
        spec::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1))
            .collect()
    };
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = match outcome.metrics.get(&name) {
            Some(v) => v,
            // A layer the workload never exercises did no work here.
            None if trace => 0.0,
            None => return Err(format!("workload did not measure end-to-end metric {name}")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.tally.sent,
        outcome.tally.failed,
        fields.join(", ")
    ))
}

fn run(args: Args) -> BenchResult<Outcome> {
    match spec::WORKLOADS[args.workload] {
        "serve_mixed" => serve_mixed::run(args),
        "attack_duo" => attack_duo::run(args),
        "ingest_mix" => ingest_mix::run(args),
        other => unreachable!("workload table and dispatch disagree on {other}"),
    }
}

fn main() {
    let arenas = common::cap_malloc_arenas();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {}; malloc arenas capped at {arenas:?})",
        spec::WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match run(args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    match result_line(&outcome, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload attack_duo --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: 1,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve_mixed --seed 1 --trace 2")).is_err());
    }

    #[test]
    fn result_line_needs_every_end_to_end_metric_and_marks_failures() {
        let mut metrics = Metrics::default();
        for (name, ..) in spec::END_TO_END {
            metrics.set(name, 1.5);
        }
        let tally = Tally {
            sent: 10,
            succeeded: 10,
            failed: 0,
        };
        let ok = Outcome {
            metrics,
            tally,
            failures: vec![],
        };
        let line = result_line(&ok, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let bad = Outcome {
            failures: vec!["x".into()],
            ..ok
        };
        assert!(result_line(&bad, false)
            .unwrap()
            .starts_with("{\"correct\": false"));
        let empty = Outcome {
            metrics: Metrics::default(),
            tally,
            failures: vec![],
        };
        assert!(result_line(&empty, false).is_err());
        assert!(result_line(&empty, true)
            .unwrap()
            .contains("\"nn.i3d.head_us\": {\"value\": 0.0"));
    }
}
