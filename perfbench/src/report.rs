//! The benchmark's output: one human-readable line per metric, then one
//! JSON object as the last line of standard output.

use crate::stats::Timing;
use mbfi_core::report::Json;

/// End-to-end metrics (untraced run), with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("exp_per_s", "1/s"),
    ("submit_p50_ms", "ms"),
    ("submit_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Printed with the end-to-end metrics but left out of the JSON object:
/// it is 0 on a correct run, and the object carries `attempted` and
/// `failed`, its numerator and denominator.
pub const ERROR_RATE: (&str, &str) = ("error_rate", "ratio");

/// Per-layer metrics (traced run), with their units.  A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("ir.build_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("golden.capture_ms", "ms"),
    ("golden.mips", "Minstr/s"),
    ("replay.capture_ms", "ms"),
    ("replay.checkpoints", "count"),
    ("replay.stored_mb", "MiB"),
    ("sweep.wall_ms", "ms"),
    ("sweep.exp_per_s", "1/s"),
    ("sweep.idle_frac", "ratio"),
    ("sweep.cells", "count"),
    ("experiment.restore_us", "us"),
    ("experiment.replay_us", "us"),
    ("experiment.reexec_us", "us"),
    ("experiment.prefix_skipped_frac", "ratio"),
    ("experiment.dyn_instrs_mean", "instrs"),
    ("outcome.benign_frac", "ratio"),
    ("outcome.sdc_frac", "ratio"),
    ("outcome.detection_frac", "ratio"),
    ("location.ms", "ms"),
    ("location.experiments", "count"),
    ("render.ms", "ms"),
    ("serve.ack_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.dedup_frac", "ratio"),
    ("serve.events_per_submit", "count"),
    ("sweep.self_frac", "ratio"),
    ("experiment.self_frac", "ratio"),
    ("location.self_frac", "ratio"),
    ("render.self_frac", "ratio"),
    ("serve.self_frac", "ratio"),
    ("trace.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Layers whose self time makes up a timed phase, with the metric that
/// reports their share of it.
pub const TIMED_LAYERS: [(&str, &str); 5] = [
    ("sweep", "sweep.self_frac"),
    ("experiment", "experiment.self_frac"),
    ("location", "location.self_frac"),
    ("render", "render.self_frac"),
    ("serve", "serve.self_frac"),
];

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    detail: String,
}

/// Collected metrics and correctness counts of one benchmark run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Operations whose output was checked or which could fail.
    attempted: u64,
    /// Operations that failed or whose output was wrong.
    failed: u64,
    notes: Vec<String>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(std::iter::once(&ERROR_RATE))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

impl Report {
    /// Record one attempted operation and whether it succeeded.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Set a metric to a value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_with(name, value, String::new());
    }

    /// Set a metric, with a note printed beside it.
    pub fn set_with(&mut self, name: &'static str, value: f64, detail: String) {
        let unit = unit_of(name);
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            detail,
        });
    }

    /// Set a metric to the median of a timing, stating its sample count.
    pub fn set_timing(&mut self, name: &'static str, timing: &Timing) {
        let value = crate::stats::median(&timing.samples);
        self.set_with(name, value, timing.summary());
    }

    /// A line printed with the metrics.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Print every metric, then the JSON object for `declared` as the last
    /// line.  Panics when a declared metric was never set.
    pub fn print(mut self, declared: &[(&'static str, &'static str)]) {
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        self.set_with(
            ERROR_RATE.0,
            error_rate,
            format!("{} of {} operations failed", self.failed, self.attempted),
        );
        for note in &self.notes {
            println!("note {note}");
        }
        let mut metrics = Json::object();
        for (name, unit) in declared {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let mut entry = Json::object();
            entry.set("value", m.value);
            entry.set("unit", *unit);
            metrics.set(*name, entry);
        }
        for m in &self.metrics {
            if m.detail.is_empty() {
                println!("metric {} {} {}", m.name, m.value, m.unit);
            } else {
                println!("metric {} {} {} ({})", m.name, m.value, m.unit, m.detail);
            }
        }
        let mut out = Json::object();
        out.set("correct", self.failed == 0);
        out.set("attempted", self.attempted);
        out.set("failed", self.failed);
        out.set("metrics", metrics);
        println!("{}", out.render());
    }
}
