//! Self-tests of the benchmark's own output: short runs of every workload,
//! in both modes, checked against the metric list the benchmark promises
//! and against `BENCHMARK.json`.

use mbfi_core::report::Json;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["artifacts", "late_injection", "served"];

/// Every end-to-end metric the benchmark defines.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "wall_s",
    "exp_per_s",
    "submit_p50_ms",
    "submit_p90_ms",
    "peak_rss_mb",
];

/// Every per-layer metric the benchmark defines.
const PER_LAYER: [&str; 33] = [
    "ir.build_ms",
    "ir.lower_ms",
    "golden.capture_ms",
    "golden.mips",
    "replay.capture_ms",
    "replay.checkpoints",
    "replay.stored_mb",
    "sweep.wall_ms",
    "sweep.exp_per_s",
    "sweep.idle_frac",
    "sweep.cells",
    "experiment.restore_us",
    "experiment.replay_us",
    "experiment.reexec_us",
    "experiment.prefix_skipped_frac",
    "experiment.dyn_instrs_mean",
    "outcome.benign_frac",
    "outcome.sdc_frac",
    "outcome.detection_frac",
    "location.ms",
    "location.experiments",
    "render.ms",
    "serve.ack_ms",
    "serve.stream_ms",
    "serve.dedup_frac",
    "serve.events_per_submit",
    "sweep.self_frac",
    "experiment.self_frac",
    "location.self_frac",
    "render.self_frac",
    "serve.self_frac",
    "trace.residual_frac",
    "trace.overhead_frac",
];

struct Run {
    /// `(name, value, unit)` of every `metric` line.
    lines: Vec<(String, f64, String)>,
    /// The final JSON object.
    result: Json,
}

/// Run one workload for the shortest time (one iteration, two traced) at
/// seed 0, whose `artifacts` digest is the harness default's.
fn run(workload: &str, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "0", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let lines = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let mut f = l.split_whitespace();
            let name = f.next().expect("a name").to_string();
            let value = f
                .next()
                .and_then(|v| v.parse().ok())
                .expect("a numeric value");
            let unit = f.next().expect("a unit").to_string();
            (name, value, unit)
        })
        .collect();
    Run {
        lines,
        result: Json::parse(last).expect("the last line is JSON"),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The result object: its keys, correctness and the declared metrics with
/// their units.
fn check_result(workload: &str, run: &Run, declared: &[&str]) {
    let Json::Obj(entries) = &run.result else {
        panic!("{workload}: result is not an object")
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        run.result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        run.result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        run.result.get("attempted").and_then(Json::as_u64).unwrap() >= 1,
        "{workload}"
    );
    let Some(Json::Obj(metrics)) = run.result.get("metrics") else {
        panic!("{workload}: no metrics")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, declared, "{workload}");
    for (name, m) in metrics {
        assert!(valid_name(name), "{workload}: bad name {name}");
        let unit = m.get("unit").and_then(Json::as_str).expect("a unit");
        assert!(valid_unit(unit), "{workload}: bad unit {unit} of {name}");
        let value = m.get("value").and_then(Json::as_f64).expect("a value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        let line = run
            .lines
            .iter()
            .find(|(n, ..)| n == name)
            .expect("a metric line");
        assert_eq!(
            (line.1, line.2.as_str()),
            (value, unit),
            "{workload}: {name}"
        );
    }
    let error_rate = run
        .lines
        .iter()
        .find(|(n, ..)| n == "error_rate")
        .expect("error_rate");
    assert_eq!(
        (error_rate.1, error_rate.2.as_str()),
        (0.0, "ratio"),
        "{workload}"
    );
}

#[test]
fn end_to_end_runs_report_every_metric_and_no_errors() {
    for workload in WORKLOADS {
        let run = run(workload, false);
        check_result(workload, &run, &END_TO_END);
        for name in END_TO_END {
            let value = run
                .result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"));
            assert!(
                value.and_then(Json::as_f64).unwrap() > 0.0,
                "{workload}: {name} must never be 0"
            );
        }
    }
}

#[test]
fn traced_runs_report_every_layer_metric() {
    for workload in WORKLOADS {
        let run = run(workload, true);
        check_result(workload, &run, &PER_LAYER);
        let value = |name: &str| run.lines.iter().find(|(n, ..)| n == name).unwrap().1;
        match workload {
            "artifacts" => {
                assert!(
                    value("trace.residual_frac") <= 0.05,
                    "artifacts: spans must explain 95% of wall_s"
                );
                assert_eq!(value("sweep.cells"), 930.0);
                assert!(value("location.ms") > 0.0 && value("render.ms") > 0.0);
            }
            "late_injection" => {
                assert!(value("experiment.prefix_skipped_frac") >= 0.5);
                assert!(value("experiment.restore_us") > 0.0);
            }
            _ => {
                assert!(value("serve.ack_ms") > 0.0 && value("serve.stream_ms") > 0.0);
                assert!(value("serve.dedup_frac") > 0.0);
            }
        }
    }
}

#[test]
fn benchmark_json_declares_the_same_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        spec.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(names("end_to_end"), END_TO_END);
    assert_eq!(names("per_layer"), PER_LAYER);
    assert_eq!(names("workloads"), WORKLOADS);
    for key in ["end_to_end", "per_layer", "workloads"] {
        assert!(names(key).iter().all(|n| valid_name(n)), "{key}");
    }
}
