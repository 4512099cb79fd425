//! `artifacts`: the product.  The `run_all` coarse grid at pinned default
//! knobs (tiny input, 60 experiments per cell, all 15 programs, 930 sweep
//! cells, sweep threads = nproc), then table4's location analysis and the
//! rendering of every table and figure.
//!
//! One iteration is one `run_all`: the same library calls in the same
//! order, each in a span of its own.  `harness::table4`, whose location
//! analyses are most of its time, is one `location` span.  The rendered
//! artefact must hash to the digest recorded in `digests.txt` for the seed,
//! which the repository's own `run_all` produced (`record_digests.py`).

use crate::common::{self, Args, OUT_DIR};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{fnv1a64, median, mix, Timing};
use crate::trace::{self, Ctx, Tracer};
use mbfi_bench::harness::{self, HarnessConfig};
use mbfi_bench::{CampaignGrid, GridRun, WorkloadData};
use mbfi_core::{ExperimentSpec, FaultModel, Metric, OutcomeCounts, Technique, TelemetryLevel};
use mbfi_workloads::all_workloads;
use std::time::Instant;

/// `(harness seed, FNV-1a 64 digest of run_all.txt)`, recorded by the
/// repository's `run_all` at default knobs.
const DIGESTS: &str = include_str!("../digests.txt");

/// Setup repeats whose median is `setup_s`.
const SETUP_REPEATS: usize = 25;

/// Experiments in the per-experiment probe sample.
const PROBE_SPECS: usize = 64;

/// The recorded `(harness seed, digest)` pairs.
pub fn recorded_digests() -> Vec<(u64, u64)> {
    DIGESTS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut f = l.split_whitespace();
            let seed = f.next().and_then(|s| s.parse().ok());
            let digest = f.next().and_then(|d| u64::from_str_radix(d, 16).ok());
            (seed.zip(digest)).unwrap_or_else(|| panic!("malformed digests.txt line {l:?}"))
        })
        .collect()
}

/// What one iteration delivers.
struct Delivered {
    artefact: String,
    experiments: u64,
    counts: OutcomeCounts,
    sweep_experiments: u64,
    cells: usize,
    idle_frac: f64,
    /// Seconds from submitting the grid to its results.
    sweep_s: f64,
}

/// One `run_all`: sweep the grid, analyse locations, render everything and
/// write the artefact.  Returns the prepared programs for the next
/// iteration.
fn run_all(
    tracer: &Tracer,
    ctx: Ctx,
    cfg: &HarnessConfig,
    data: Vec<WorkloadData>,
) -> (Vec<WorkloadData>, Delivered) {
    let submitted = Instant::now();
    let run: GridRun = tracer.span(ctx, "sweep.run", |_| {
        let mut grid = CampaignGrid::from_data(cfg, data);
        grid.request_artifact_grid();
        grid.run()
    });
    let sweep_s = submitted.elapsed().as_secs_f64();
    let mut out = String::new();
    let mut emit = |text: String| {
        out.push_str(&text);
        out.push('\n');
    };
    let r = |name: &'static str, f: &mut dyn FnMut()| tracer.span(ctx, name, |_| f());

    r("render.table2", &mut || {
        emit(harness::table2(cfg, &run.data).render())
    });
    r("render.fig1", &mut || {
        let singles = harness::single_bit_results(&run);
        for (_, table) in harness::fig1(&singles) {
            emit(table.render());
        }
    });
    r("render.fig2", &mut || {
        for technique in Technique::ALL {
            let results = harness::same_register_results(cfg, &run, technique);
            emit(harness::fig2(technique, &results).render());
        }
    });
    let mut activation = Vec::new();
    r("render.fig3", &mut || {
        for technique in Technique::ALL {
            let campaigns = harness::activation_results(cfg, &run, technique);
            let (t, a) = harness::fig3(technique, &campaigns);
            emit(t.render());
            activation.push(a);
        }
    });
    let (mut read, mut write) = (Vec::new(), Vec::new());
    r("render.fig45", &mut || {
        read = harness::multi_register_results(cfg, &run, Technique::InjectOnRead);
        write = harness::multi_register_results(cfg, &run, Technique::InjectOnWrite);
        for fig in harness::fig45(Technique::InjectOnRead, &read) {
            emit(fig.render());
        }
        for fig in harness::fig45(Technique::InjectOnWrite, &write) {
            emit(fig.render());
        }
    });
    r("render.table3", &mut || {
        emit(harness::table3(&read, &write).render())
    });
    let (t4, locations) = tracer.span(ctx, "location.table4", |_| {
        harness::table4(cfg, &run.data, &read, &write)
    });
    r("render.table4", &mut || emit(t4.render()));
    r("render.summary", &mut || {
        emit(harness::summary(
            &activation[0],
            &activation[1],
            &read,
            &write,
            &locations,
        ))
    });
    tracer.span(ctx, "render.write", |_| {
        let dir = std::path::Path::new(OUT_DIR);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join("run_all.txt"), &out))
            .expect("write the rendered artefact")
    });

    let mut counts = OutcomeCounts::default();
    for result in run.results() {
        common::add_counts(&mut counts, &result.counts);
    }
    let location_experiments = 2 * cfg.experiments as u64 * 2 * locations.len() as u64;
    let idle_frac = run.telemetry.as_ref().map_or(0.0, |s| {
        let idle = s.counter(Metric::IdleNanos) as f64;
        let busy = s.counter(Metric::BusyNanos) as f64;
        idle / (idle + busy).max(1.0)
    });
    let delivered = Delivered {
        artefact: out,
        experiments: run.total_experiments() + location_experiments,
        counts,
        sweep_experiments: run.total_experiments(),
        cells: run.cell_count(),
        idle_frac,
        sweep_s,
    };
    (run.data, delivered)
}

/// A fixed seeded sample of the grid's experiment specs.
fn probe_sample(
    cfg: &HarnessConfig,
    data: &[WorkloadData],
    seed: u64,
) -> Vec<(usize, ExperimentSpec)> {
    let models = [
        FaultModel::single_bit(),
        FaultModel::multi_bit(30, mbfi_core::WinSize::Fixed(10)),
    ];
    (0..PROBE_SPECS as u64)
        .map(|i| {
            let h = mix(seed ^ mix(i));
            let w = (h % data.len() as u64) as usize;
            let technique = Technique::ALL[(h >> 8) as usize % 2];
            let model = models[(h >> 9) as usize % 2];
            let spec = cfg.campaign_spec(technique, model);
            let index = (h >> 16) % spec.experiments.max(1) as u64;
            (
                w,
                ExperimentSpec::sample(
                    technique,
                    model,
                    &data[w].golden,
                    spec.seed,
                    index,
                    spec.hang_factor,
                ),
            )
        })
        .collect()
}

/// Run the `artifacts` workload.
pub fn run(args: &Args) {
    let digests = recorded_digests();
    let (harness_seed, expected) = digests[(args.seed % digests.len() as u64) as usize];
    let cfg = HarnessConfig {
        seed: harness_seed,
        ..HarnessConfig::default()
    };
    let traced_cfg = HarnessConfig {
        telemetry: TelemetryLevel::Counters,
        ..cfg.clone()
    };
    eprintln!(
        "perfbench artifacts: harness seed {harness_seed}, {} experiments/cell, {} threads",
        cfg.experiments,
        common::nproc()
    );
    let mut report = Report::default();
    let setup_tracer = Tracer::new(args.trace);
    let budget = cfg.replay_budget_bytes;
    let (data, setup, setup_spans) = common::repeat_setup(&setup_tracer, SETUP_REPEATS, |ctx| {
        all_workloads()
            .iter()
            .map(|w| common::build_unit(&setup_tracer, ctx, w.as_ref(), cfg.size, Some(budget)))
            .collect::<Vec<_>>()
    });
    let golden_instrs: u64 = data.iter().map(|d| d.golden.dynamic_instrs).sum();

    let mut data = Some(data);
    let mut walls = Timing::default();
    let mut sweep_ms = Timing::default();
    let mut last: Option<Delivered> = None;
    let mut idle = Vec::new();
    let iterations = common::timed_loop(args, 1, |_, tracer, ctx| {
        let c = if tracer.is_on() { &traced_cfg } else { &cfg };
        let (back, delivered) = run_all(tracer, ctx, c, data.take().expect("programs"));
        data = Some(back);
        if tracer.is_on() {
            idle.push(delivered.idle_frac);
        }
        sweep_ms.samples.push(delivered.sweep_s * 1e3);
        last = Some(delivered);
        let d = last.as_ref().expect("just set");
        let digest = fnv1a64(d.artefact.as_bytes());
        report.check(digest == expected, || {
            format!("run_all artefact digest {digest:016x}, recorded {expected:016x} for harness seed {harness_seed}")
        });
    });
    let data = data.expect("programs");
    let last = last.expect("at least one iteration");
    for it in &iterations {
        walls.samples.push(it.wall_s);
    }
    let exp_per_s: Vec<f64> = walls
        .samples
        .iter()
        .map(|w| last.experiments as f64 / w)
        .collect();

    if args.trace {
        common::report_setup_layers(
            &mut report,
            &setup_spans,
            golden_instrs,
            "the set-up repeats behind setup_s",
        );
        common::report_stores(&mut report, &data);
        let traced: Vec<&common::Iteration> = iterations.iter().filter(|i| i.traced).collect();
        let per_iter = |name: &str| -> Vec<f64> {
            traced
                .iter()
                .map(|i| trace::total_ns(&i.spans, name) / 1e6)
                .collect()
        };
        let sweep = median(&per_iter("sweep.run"));
        report.set("sweep.wall_ms", sweep);
        report.set(
            "sweep.exp_per_s",
            last.sweep_experiments as f64 / (sweep / 1e3),
        );
        report.set("sweep.idle_frac", median(&idle));
        report.set("sweep.cells", last.cells as f64);
        report.set_with(
            "location.ms",
            median(&per_iter("location.table4")),
            String::from("harness::table4: LocationAnalysis::run for every program and technique"),
        );
        report.set(
            "location.experiments",
            (last.experiments - last.sweep_experiments) as f64,
        );
        let render: Vec<f64> = traced
            .iter()
            .map(|i| {
                trace::self_times(&i.spans)
                    .get("render")
                    .copied()
                    .unwrap_or(0.0)
                    / 1e6
            })
            .collect();
        report.set("render.ms", median(&render));
        common::report_outcomes(&mut report, &last.counts);
        let sample: Vec<(&WorkloadData, ExperimentSpec)> = probe_sample(&cfg, &data, args.seed)
            .into_iter()
            .map(|(w, s)| (&data[w], s))
            .collect();
        common::probe_experiments(&mut report, &sample, true);
        common::bypassed(
            &mut report,
            &[
                "serve.ack_ms",
                "serve.stream_ms",
                "serve.dedup_frac",
                "serve.events_per_submit",
            ],
        );
        common::report_trace(&mut report, &iterations);
        common::dump_spans("artifacts", setup_spans, &iterations);
        report.print(&PER_LAYER);
    } else {
        report.set_timing("setup_s", &setup);
        report.set_timing("wall_s", &walls);
        report.set_with(
            "exp_per_s",
            median(&exp_per_s),
            format!(
                "{} experiments per run_all, n={}",
                last.experiments,
                exp_per_s.len()
            ),
        );
        common::report_submit_latency(
            &mut report,
            &sweep_ms,
            "the run_all grid submitted to the sweep, submit to results",
        );
        report.set("peak_rss_mb", iterations[0].peak_rss_mb);
        report.print(&END_TO_END);
    }
}
