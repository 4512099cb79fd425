//! `late_injection`: all 15 programs at `small` input, the single-bit and
//! max-MBF = 30 cells of both techniques, every sampled spec's first target
//! remapped into the last quartile of its candidate space.  The cells are
//! queued in turn on a scoped pool of nproc threads, which executes their
//! experiments with `Experiment::run_compiled` on the harness-configured
//! checkpoint store.  Replay skips at least three quarters of every run, so
//! checkpoint capture, restore and copy-on-write memory dominate.

use crate::common::{self, Args};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{median, mix, Timing};
use crate::trace::{Ctx, Tracer};
use mbfi_bench::{HarnessConfig, WorkloadData};
use mbfi_core::replay::last_quartile_target;
use mbfi_core::{
    CampaignSpec, Experiment, ExperimentSpec, FaultModel, OutcomeCounts, Technique, WinSize,
};
use mbfi_workloads::{all_workloads, InputSize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Setup repeats whose median is `setup_s`.
const SETUP_REPEATS: usize = 15;

/// Experiments per cell.
const EXPERIMENTS: usize = 384;

/// Hang threshold, in golden-run lengths.  Lower than the harness default
/// of 20 so that the few runs that hang do not outweigh the restores.
const HANG_FACTOR: u64 = 4;

/// Specs in the with-store / without-store comparison sample.
const CHECK_SPECS: usize = 48;

/// One campaign cell: a program and its late-remapped specs.
struct Cell {
    unit: usize,
    specs: Vec<ExperimentSpec>,
}

/// The cells of one iteration: per program, both techniques at single-bit
/// and at max-MBF = 30 (win-size 10, a Fig. 3 activation cell).
fn cells(data: &[WorkloadData], seed: u64) -> Vec<Cell> {
    let models = [
        FaultModel::single_bit(),
        FaultModel::multi_bit(30, WinSize::Fixed(10)),
    ];
    let mut out = Vec::new();
    for (unit, d) in data.iter().enumerate() {
        for technique in Technique::ALL {
            for model in models {
                let spec = CampaignSpec {
                    technique,
                    model,
                    experiments: EXPERIMENTS,
                    seed: mix(seed ^ mix(out.len() as u64)),
                    hang_factor: HANG_FACTOR,
                    threads: 0,
                };
                let candidates = d.golden.candidates(technique);
                let specs = ExperimentSpec::sample_campaign(&spec, &d.golden)
                    .into_iter()
                    .map(|mut s| {
                        s.first_target = last_quartile_target(candidates, s.first_target);
                        s
                    })
                    .collect();
                out.push(Cell { unit, specs });
            }
        }
    }
    out
}

/// Progress of one cell within an iteration.
#[derive(Default)]
struct CellState {
    first_claim: Option<Instant>,
    last_result: Option<Instant>,
    counts: OutcomeCounts,
}

/// Execute every cell on a scoped pool of `threads` workers that claim
/// experiments in cell order.  Returns each cell's latency (first claim to
/// last result, in milliseconds) and outcome counts.
fn run_iteration(
    tracer: &Tracer,
    ctx: Ctx,
    threads: usize,
    data: &[WorkloadData],
    cells: &[Cell],
) -> Vec<(f64, OutcomeCounts)> {
    let order: Vec<(usize, &ExperimentSpec)> = cells
        .iter()
        .enumerate()
        .flat_map(|(c, cell)| cell.specs.iter().map(move |s| (c, s)))
        .collect();
    let states: Vec<Mutex<CellState>> = cells.iter().map(|_| Mutex::default()).collect();
    let next = AtomicUsize::new(0);
    tracer.span(ctx, "bench.pool", |pool| {
        let worker = pool.split(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(c, spec)) = order.get(i) else {
                        break;
                    };
                    let claimed = Instant::now();
                    let unit = &data[cells[c].unit];
                    let result =
                        tracer.span(worker.for_request(c as u64), "experiment.run", |_| {
                            Experiment::run_compiled(
                                &unit.code,
                                &unit.golden,
                                spec,
                                unit.store.as_ref(),
                            )
                        });
                    let mut state = states[c].lock().expect("cell state lock");
                    state.first_claim = Some(state.first_claim.map_or(claimed, |t| t.min(claimed)));
                    state.last_result = Some(Instant::now());
                    state.counts.record(result.outcome);
                });
            }
        });
    });
    states
        .into_iter()
        .map(|state| {
            let state = state.into_inner().expect("cell state lock");
            let latency = match (state.first_claim, state.last_result) {
                (Some(a), Some(b)) => b.duration_since(a).as_secs_f64() * 1e3,
                _ => 0.0,
            };
            (latency, state.counts)
        })
        .collect()
}

/// Run the `late_injection` workload.
pub fn run(args: &Args) {
    let threads = common::nproc();
    let budget = HarnessConfig::default().replay_budget_bytes;
    let mut report = Report::default();
    let setup_tracer = Tracer::new(args.trace);
    let (data, setup, setup_spans) = common::repeat_setup(&setup_tracer, SETUP_REPEATS, |ctx| {
        all_workloads()
            .iter()
            .map(|w| {
                common::build_unit(
                    &setup_tracer,
                    ctx,
                    w.as_ref(),
                    InputSize::Small,
                    Some(budget),
                )
            })
            .collect::<Vec<_>>()
    });
    let golden_instrs: u64 = data.iter().map(|d| d.golden.dynamic_instrs).sum();
    let cells = cells(&data, args.seed);
    let per_iteration: u64 = cells.iter().map(|c| c.specs.len() as u64).sum();
    eprintln!(
        "perfbench late_injection: {} cells, {per_iteration} experiments per iteration, {threads} threads",
        cells.len()
    );

    let mut counts = OutcomeCounts::default();
    let mut latency_ms = Timing::default();
    let iterations = common::timed_loop(args, 1, |i, tracer, ctx| {
        for (c, (latency, got)) in run_iteration(tracer, ctx, threads, &data, &cells)
            .into_iter()
            .enumerate()
        {
            latency_ms.samples.push(latency);
            report.check(got.total() == cells[c].specs.len() as u64, || {
                format!(
                    "cell {c} delivered {} of {} results",
                    got.total(),
                    cells[c].specs.len()
                )
            });
            if i == 0 {
                common::add_counts(&mut counts, &got);
            }
        }
    });
    let walls = Timing {
        samples: iterations.iter().map(|it| it.wall_s).collect(),
    };

    // Output check: a seeded sample of specs gives the same result with the
    // store and without it.
    let sample: Vec<(&WorkloadData, ExperimentSpec)> = (0..CHECK_SPECS as u64)
        .map(|k| {
            let h = mix(args.seed ^ mix(0xC4EC ^ k));
            let cell = &cells[(h % cells.len() as u64) as usize];
            (
                &data[cell.unit],
                cell.specs[((h >> 32) % cell.specs.len() as u64) as usize],
            )
        })
        .collect();
    common::probe_experiments(&mut report, &sample, args.trace);

    if args.trace {
        common::report_setup_layers(
            &mut report,
            &setup_spans,
            golden_instrs,
            "the set-up repeats behind setup_s",
        );
        common::report_stores(&mut report, &data);
        common::report_outcomes(&mut report, &counts);
        common::bypassed(
            &mut report,
            &[
                "sweep.wall_ms",
                "sweep.exp_per_s",
                "sweep.idle_frac",
                "sweep.cells",
                "location.ms",
                "location.experiments",
                "render.ms",
                "serve.ack_ms",
                "serve.stream_ms",
                "serve.dedup_frac",
                "serve.events_per_submit",
            ],
        );
        common::report_trace(&mut report, &iterations);
        common::dump_spans("late_injection", setup_spans, &iterations);
        report.print(&PER_LAYER);
    } else {
        report.set_timing("setup_s", &setup);
        report.set_timing("wall_s", &walls);
        report.set_with(
            "exp_per_s",
            per_iteration as f64 / median(&walls.samples),
            format!("{per_iteration} experiments per iteration over median wall_s"),
        );
        common::report_submit_latency(
            &mut report,
            &latency_ms,
            "one campaign cell, first claim to last result on the shared pool",
        );
        report.set("peak_rss_mb", iterations[0].peak_rss_mb);
        report.print(&END_TO_END);
    }
}
