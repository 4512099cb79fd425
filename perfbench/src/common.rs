//! Pieces every workload shares: building a program's artifacts layer by
//! layer, the timed loop, and the per-experiment probes.

use crate::report::{Report, TIMED_LAYERS};
use crate::stats::{median, Timing};
use crate::trace::{self, Ctx, Span, Tracer};
use mbfi_bench::WorkloadData;
use mbfi_core::replay::{CheckpointConfig, CheckpointStore};
use mbfi_core::{Experiment, ExperimentResult, ExperimentSpec, GoldenRun};
use mbfi_ir::CompiledModule;
use mbfi_vm::Vm;
use mbfi_workloads::{InputSize, Workload};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Command-line arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Worker threads a workload may use: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where runs leave their artefacts and span dumps, inside the checkout.
pub const OUT_DIR: &str = ".perfbench";

/// Build, lower and golden-run one program, and capture its checkpoint
/// store when `store_budget` is given, each step in its own span.
pub fn build_unit(
    tracer: &Tracer,
    ctx: Ctx,
    workload: &dyn Workload,
    size: InputSize,
    store_budget: Option<usize>,
) -> WorkloadData {
    let module = tracer.span(ctx, "ir.build", |_| workload.build_module(size));
    let code = tracer.span(ctx, "ir.lower", |_| CompiledModule::lower(&module));
    let golden = tracer.span(ctx, "golden.capture", |_| {
        GoldenRun::capture_compiled(&code)
            .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", workload.name()))
    });
    let store = store_budget.map(|budget| {
        tracer.span(ctx, "replay.capture", |_| {
            CheckpointStore::capture_compiled(
                &code,
                &golden,
                CheckpointConfig::auto_for(&golden, budget),
            )
            .unwrap_or_else(|e| panic!("checkpoint capture of {} failed: {e}", workload.name()))
        })
    });
    WorkloadData {
        name: workload.name().to_string(),
        package: workload.package().to_string(),
        description: workload.description().to_string(),
        module,
        code,
        golden,
        store,
    }
}

/// Run `setup` `repeats` times, keeping the last result.  Returns it with
/// the wall time of every repeat, in seconds, and the spans of every repeat.
pub fn repeat_setup<T>(
    tracer: &Tracer,
    repeats: usize,
    mut setup: impl FnMut(Ctx) -> T,
) -> (T, Timing, Vec<Vec<Span>>) {
    let mut kept = None;
    let mut timing = Timing::default();
    let mut spans = Vec::new();
    for r in 0..repeats.max(1) {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup(Ctx::request(r as u64)));
        timing.samples.push(start.elapsed().as_secs_f64());
        spans.push(tracer.take());
    }
    (kept.expect("at least one setup repeat"), timing, spans)
}

/// Report the setup-phase layer metrics: medians over builds of the
/// per-build sums.  `source` says which builds the spans time.
pub fn report_setup_layers(
    report: &mut Report,
    builds: &[Vec<Span>],
    golden_instrs: u64,
    source: &str,
) {
    let per_build = |name: &str| -> Vec<f64> {
        builds
            .iter()
            .map(|s| trace::total_ns(s, name) / 1e6)
            .collect()
    };
    let detail = || format!("median of {} builds; {source}", builds.len());
    let golden_ms = per_build("golden.capture");
    report.set_with("ir.build_ms", median(&per_build("ir.build")), detail());
    report.set_with("ir.lower_ms", median(&per_build("ir.lower")), detail());
    report.set_with("golden.capture_ms", median(&golden_ms), detail());
    let mips: Vec<f64> = golden_ms
        .iter()
        .map(|ms| golden_instrs as f64 / (ms * 1e3))
        .collect();
    report.set_with("golden.mips", median(&mips), detail());
    report.set_with(
        "replay.capture_ms",
        median(&per_build("replay.capture")),
        detail(),
    );
}

/// Report checkpoint-store size metrics of prepared programs.
pub fn report_stores(report: &mut Report, data: &[WorkloadData]) {
    let stores = data.iter().filter_map(|d| d.store.as_ref());
    let (checkpoints, bytes) = stores.fold((0usize, 0usize), |(n, b), s| {
        (n + s.len(), b + s.stored_bytes())
    });
    report.set("replay.checkpoints", checkpoints as f64);
    report.set("replay.stored_mb", bytes as f64 / (1u64 << 20) as f64);
}

/// One timed iteration's outcome, as the loop records it.
pub struct Iteration {
    /// Wall time, in seconds.
    pub wall_s: f64,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Spans, when traced.
    pub spans: Vec<Span>,
    /// The process's peak resident memory (`VmHWM`) after the iteration,
    /// in MiB.
    pub peak_rss_mb: f64,
}

/// Run `iterate` until `seconds` have passed, at least `min_iterations`
/// times.  A traced run alternates untraced and traced iterations, starting
/// untraced, so the two can be compared for tracing overhead; it runs at
/// least one of each.
pub fn timed_loop(
    args: &Args,
    min_iterations: usize,
    mut iterate: impl FnMut(usize, &Tracer, Ctx),
) -> Vec<Iteration> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let min_iterations = if args.trace {
        min_iterations.max(2)
    } else {
        min_iterations
    };
    let mut out = Vec::new();
    while out.len() < min_iterations || Instant::now() < deadline {
        let i = out.len();
        let traced = args.trace && i % 2 == 1;
        let tracer = Tracer::new(traced);
        let start = Instant::now();
        iterate(i, &tracer, Ctx::request(i as u64));
        let wall_s = start.elapsed().as_secs_f64();
        out.push(Iteration {
            wall_s,
            traced,
            spans: tracer.take(),
            peak_rss_mb: crate::stats::peak_rss_mb(),
        });
    }
    out
}

/// Report the tracing metrics of a traced run: layer self-time shares,
/// residual and overhead.
pub fn report_trace(report: &mut Report, iterations: &[Iteration]) {
    let traced: Vec<&Iteration> = iterations.iter().filter(|i| i.traced).collect();
    let mut untraced: Vec<f64> = iterations
        .iter()
        .filter(|i| !i.traced)
        .map(|i| i.wall_s)
        .collect();
    // The first iteration, untraced, also warms caches; it would make
    // tracing look cheaper than it is, so leave it out when it has company.
    if untraced.len() > 1 {
        untraced.remove(0);
    }
    let traced_wall: Vec<f64> = traced.iter().map(|i| i.wall_s).collect();
    for (layer, name) in TIMED_LAYERS {
        let fracs: Vec<f64> = traced
            .iter()
            .map(|i| {
                trace::self_times(&i.spans)
                    .get(layer)
                    .copied()
                    .unwrap_or(0.0)
                    / (i.wall_s * 1e9)
            })
            .collect();
        report.set(name, median(&fracs));
    }
    let residuals: Vec<f64> = traced
        .iter()
        .map(|i| trace::residual_frac(&i.spans, i.wall_s * 1e9))
        .collect();
    report.set_with(
        "trace.residual_frac",
        median(&residuals),
        format!("median of {} traced iterations", residuals.len()),
    );
    report.set_with(
        "trace.overhead_frac",
        median(&traced_wall) / median(&untraced) - 1.0,
        format!(
            "median traced wall over median untraced wall, n={} and n={}",
            traced_wall.len(),
            untraced.len()
        ),
    );
    // Break the first traced iteration's wall time down by layer, and name
    // the layer that explains the most of it after the largest.
    if let Some(first) = traced.first() {
        let times = trace::self_times(&first.spans);
        let mut layers: Vec<(&str, f64)> = times
            .iter()
            .filter(|(l, _)| **l != "bench")
            .map(|(l, t)| (*l, *t))
            .collect();
        layers.sort_by(|a, b| b.1.total_cmp(&a.1));
        let pct = |ns: f64| 100.0 * ns / (first.wall_s * 1e9);
        let shares: Vec<String> = layers
            .iter()
            .map(|(l, ns)| format!("{l} {:.1}%", pct(*ns)))
            .collect();
        report.note(format!(
            "wall_s by layer self time: {}; benchmark pool or session idle {:.1}%",
            shares.join(", "),
            pct(times.get("bench").copied().unwrap_or(0.0))
        ));
        if let [(top, _), (second, ns), ..] = layers.as_slice() {
            report.note(format!(
                "after {top}, the layer explaining the most of wall_s is {second} ({:.1}%)",
                pct(*ns)
            ));
        }
    }
}

/// Spans written out per run, in whole iterations: enough to inspect a few
/// iterations without writing tens of megabytes on the late-injection
/// workload, whose iterations hold some 23,000 spans each.
const DUMPED_SPANS: usize = 100_000;

/// Write the spans of setup and of the first traced iterations, up to
/// about `DUMPED_SPANS`, to `.perfbench/<workload>-spans.jsonl`.
pub fn dump_spans(workload: &str, setup: Vec<Vec<Span>>, iterations: &[Iteration]) {
    let mut all: Vec<(usize, Vec<Span>)> = Vec::new();
    for (r, spans) in setup.into_iter().enumerate() {
        if !spans.is_empty() {
            // Setup repeats are numbered below the timed iterations.
            all.push((usize::MAX - r, spans));
        }
    }
    let mut dumped = 0;
    for (i, it) in iterations.iter().enumerate() {
        if it.traced && dumped < DUMPED_SPANS {
            dumped += it.spans.len();
            all.push((i, it.spans.clone()));
        }
    }
    if all.is_empty() {
        return;
    }
    let path = std::path::Path::new(OUT_DIR).join(format!("{workload}-spans.jsonl"));
    match trace::write_jsonl(&path, &all) {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {}",
            all.iter().map(|(_, s)| s.len()).sum::<usize>(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Per-experiment probe on a fixed sample of specs: restore, replay and
/// full re-execution timed one by one.  Each replayed result must equal the
/// re-executed one; a mismatch is counted as a failed operation.
pub fn probe_experiments(
    report: &mut Report,
    sample: &[(&WorkloadData, ExperimentSpec)],
    time_it: bool,
) {
    let mut restore = Timing::default();
    let mut replay = Timing::default();
    let mut reexec = Timing::default();
    let mut skipped = Vec::new();
    let mut dyn_instrs = Vec::new();
    for (unit, spec) in sample {
        let store = unit.store.as_ref();
        if let Some(cp) = store.and_then(|s| s.nearest_for(spec.technique, spec.first_target)) {
            let limits = unit.golden.faulty_run_limits(spec.hang_factor);
            let start = Instant::now();
            let vm = Vm::from_snapshot(&unit.code, limits, cp.snapshot());
            restore.samples.push(start.elapsed().as_secs_f64() * 1e6);
            drop(black_box(vm));
            skipped.push(cp.snapshot().dyn_count() as f64 / unit.golden.dynamic_instrs as f64);
        } else {
            skipped.push(0.0);
        }
        let timed = |samples: &mut Timing, store| -> ExperimentResult {
            let start = Instant::now();
            let r = Experiment::run_compiled(&unit.code, &unit.golden, spec, store);
            samples.samples.push(start.elapsed().as_secs_f64() * 1e6);
            r
        };
        let full = timed(&mut reexec, None);
        if store.is_some() {
            let replayed = timed(&mut replay, store);
            report.check(replayed == full, || {
                format!(
                    "{}: replayed result differs from re-execution for {spec:?}",
                    unit.name
                )
            });
        }
        dyn_instrs.push(full.dynamic_instrs as f64);
    }
    if !time_it {
        return;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let set_or_zero = |report: &mut Report, name, t: &Timing| {
        if t.samples.is_empty() {
            report.set_with(
                name,
                0.0,
                String::from("layer bypassed: no checkpoint store"),
            );
        } else {
            report.set_timing(name, t);
        }
    };
    set_or_zero(report, "experiment.restore_us", &restore);
    set_or_zero(report, "experiment.replay_us", &replay);
    report.set_timing("experiment.reexec_us", &reexec);
    report.set("experiment.prefix_skipped_frac", mean(&skipped));
    report.set("experiment.dyn_instrs_mean", mean(&dyn_instrs));
}

/// Report `submit_p50_ms` and `submit_p90_ms` from per-submission latencies
/// in milliseconds.  When fewer than 100 samples leave p90 without ten
/// samples beyond it, `submit_p90_ms` reports the highest percentile that
/// has them, or the median when none has.
pub fn report_submit_latency(report: &mut Report, ms: &Timing, submission: &str) {
    let n = ms.samples.len();
    report.set_with(
        "submit_p50_ms",
        median(&ms.samples),
        format!("median; a submission is {submission}; {}", ms.summary()),
    );
    let (value, which) = match crate::stats::supported_percentile(n, 90.0) {
        Some(p) if p > 50.0 => (crate::stats::percentile(&ms.samples, p), format!("p{p:.0}")),
        _ => (
            median(&ms.samples),
            String::from("median (no tail percentile supported)"),
        ),
    };
    report.set_with("submit_p90_ms", value, format!("{which} of n={n}"));
}

/// Set the per-layer metrics of layers a workload never calls to 0.
pub fn bypassed(report: &mut Report, names: &[&'static str]) {
    for name in names {
        report.set_with(name, 0.0, String::from("layer bypassed by this workload"));
    }
}

/// Outcome shares from summed campaign counts.
pub fn report_outcomes(report: &mut Report, counts: &mbfi_core::OutcomeCounts) {
    let total = counts.total().max(1) as f64;
    report.set("outcome.benign_frac", counts.benign as f64 / total);
    report.set("outcome.sdc_frac", counts.sdc as f64 / total);
    report.set("outcome.detection_frac", counts.detection() as f64 / total);
}

/// Add one campaign's counts into a running total.
pub fn add_counts(total: &mut mbfi_core::OutcomeCounts, c: &mbfi_core::OutcomeCounts) {
    total.benign += c.benign;
    total.hw_exception += c.hw_exception;
    total.hang += c.hang;
    total.no_output += c.no_output;
    total.sdc += c.sdc;
}
