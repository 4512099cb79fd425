//! The repository's benchmark: end-to-end and per-layer metrics of the
//! fault-injection system on three workloads.
//!
//! ```text
//! perfbench --workload <artifacts|late_injection|served> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every call into a layer and prints the
//! per-layer metrics.  Every metric is printed as a `metric <name> <value>
//! <unit>` line, and the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod artifacts;
mod common;
mod late;
mod report;
mod served;
mod stats;
mod trace;

use common::Args;

const USAGE: &str =
    "usage: perfbench --workload <artifacts|late_injection|served> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds must be a non-negative number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(String::from("--trace must be 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["artifacts", "late_injection", "served"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match args.workload.as_str() {
        "artifacts" => artifacts::run(&args),
        "late_injection" => late::run(&args),
        _ => served::run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line_and_rejects_bad_flags() {
        let a = parse_args(argv("--workload served --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("served", 7, 3.0, true)
        );
        assert!(parse_args(argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(argv("--workload served")).is_err());
        assert!(parse_args(argv("--workload served --seed 1 --trace 2")).is_err());
        assert!(parse_args(argv("--workload served --seed -1")).is_err());
        assert!(parse_args(argv("--workload served --seed 1 --seconds")).is_err());
    }
}
