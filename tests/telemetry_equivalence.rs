//! The telemetry plane's observer contract, as a test suite: attaching a
//! [`TelemetryHub`] at any level to a sweep or a campaign must leave every
//! result byte-identical to the untelemetered run across sweep thread counts
//! (1, 3, 8); the hub's counter totals must exactly equal the authoritative
//! `SweepReport`; and the drained JSONL event stream must replay through
//! [`MonitorState`] — the `mbfi-monitor` pipeline — into a verified, complete
//! picture with the same per-cell tallies.

use mbfi_bench::harness::{self, HarnessConfig, WorkloadData};
use mbfi_core::{
    Campaign, EventKind, FaultModel, Metric, MonitorState, Precision, Sweep, SweepCampaign,
    SweepCampaignResult, SweepCell, SweepConfig, SweepReport, SweepUnit, Technique, TelemetryHub,
    TelemetryLevel, WinSize,
};

const EXPERIMENTS: usize = 8;

fn fixture() -> Vec<WorkloadData> {
    let cfg = HarnessConfig {
        experiments: EXPERIMENTS,
        workload_filter: Some(vec!["qsort".into(), "CRC32".into()]),
        ..HarnessConfig::default()
    };
    harness::prepare(&cfg)
}

/// Both techniques, a single-bit and a windowed multi-bit model per
/// workload — enough cells to exercise batching, scheduling and the stream.
fn cells(units: usize) -> Vec<SweepCampaign> {
    let cfg = HarnessConfig {
        experiments: EXPERIMENTS,
        ..HarnessConfig::default()
    };
    let mut out = Vec::new();
    for unit in 0..units {
        for technique in Technique::ALL {
            for model in [
                FaultModel::single_bit(),
                FaultModel::multi_bit(3, WinSize::Fixed(100)),
            ] {
                out.push(SweepCampaign {
                    unit,
                    spec: cfg.campaign_spec(technique, model),
                });
            }
        }
    }
    out
}

fn config(threads: usize, precision: Option<Precision>) -> SweepConfig {
    SweepConfig {
        threads,
        keep_records: false,
        precision,
    }
}

/// [`Sweep::run`] recording into `hub`.
fn run_observed(
    units: &[SweepUnit<'_>],
    cells: &[SweepCampaign],
    config: &SweepConfig,
    hub: &TelemetryHub,
) -> SweepReport {
    let mut slots: Vec<Option<SweepCampaignResult>> = vec![None; cells.len()];
    let cells = cells.iter().copied().map(SweepCell::Sampled).collect();
    let warnings = Sweep::run_streamed(units, cells, config, Some(hub), |i, r| slots[i] = Some(r));
    SweepReport {
        results: slots.into_iter().map(Option::unwrap).collect(),
        warnings,
    }
}

fn report_total(report: &SweepReport) -> u64 {
    report.results.iter().map(|r| r.result.total()).sum()
}

/// Telemetry at every level is invisible in the results: fixed-n and
/// adaptive sweeps return byte-identical reports with and without a hub, at
/// 1, 3 and 8 worker threads.  At fixed n the thread counts cut the 64
/// experiments, 8 per cell, into batches of 8, 3 (not dividing 8) and 1;
/// an adaptive cell's round step of 2 cuts one-experiment batches at every
/// thread count.
#[test]
fn telemetered_sweep_is_byte_identical_across_levels_and_threads() {
    let data = fixture();
    let units: Vec<SweepUnit<'_>> = data.iter().map(WorkloadData::sweep_unit).collect();
    let cells = cells(units.len());
    let precision = Precision {
        target_half_width_pct: 25.0,
        min_experiments: 4,
        max_experiments: 12,
        interval: mbfi_core::IntervalMethod::Wilson,
    };
    for precision in [None, Some(precision)] {
        for (threads, fixed_cut) in [(1usize, 8), (3, 24), (8, 64)] {
            let config = config(threads, precision);
            let base = Sweep::run(&units, &cells, &config);
            let cut = match precision {
                None => fixed_cut,
                Some(_) => report_total(&base),
            };
            for level in [TelemetryLevel::Counters, TelemetryLevel::Full] {
                let hub = TelemetryHub::new(level);
                let report = run_observed(&units, &cells, &config, &hub);
                assert_eq!(
                    report,
                    base,
                    "telemetry={} threads={threads} adaptive={}: report diverged",
                    level.label(),
                    precision.is_some()
                );
                assert_eq!(hub.counter(Metric::BatchesRun), cut, "threads={threads}");
            }
        }
    }
}

/// The hub's snapshot agrees with the authoritative report at both
/// recording levels: every experiment and every cell is counted once.
#[test]
fn hub_snapshot_totals_equal_sweep_report() {
    let data = fixture();
    let units: Vec<SweepUnit<'_>> = data.iter().map(WorkloadData::sweep_unit).collect();
    let cells = cells(units.len());
    let config = config(4, None);
    for level in [TelemetryLevel::Counters, TelemetryLevel::Full] {
        let hub = TelemetryHub::new(level);
        let report = run_observed(&units, &cells, &config, &hub);
        let snapshot = hub.snapshot();
        assert_eq!(snapshot.level, level);
        assert_eq!(
            snapshot.counter(Metric::ExperimentsRun),
            report_total(&report)
        );
        assert_eq!(snapshot.counter(Metric::CellsFinished), cells.len() as u64);
        assert!(snapshot.counter(Metric::BatchesRun) > 0);
    }
}

/// The JSONL stream drained from a Full-level hub replays through
/// [`MonitorState`] — exactly what `mbfi-monitor --headless` does — into a
/// gap-free, verified state whose per-cell totals equal the `SweepReport`.
#[test]
fn drained_stream_replays_into_clean_monitor_state() {
    let data = fixture();
    let units: Vec<SweepUnit<'_>> = data.iter().map(WorkloadData::sweep_unit).collect();
    let cells = cells(units.len());
    let config = config(8, None);
    let hub = TelemetryHub::new(TelemetryLevel::Full);
    let report = run_observed(&units, &cells, &config, &hub);
    let jsonl = hub.drain_jsonl();
    assert!(jsonl.ends_with('\n'), "stream is one event per line");

    let mut state = MonitorState::new();
    for line in jsonl.lines() {
        state
            .apply_line(line)
            .unwrap_or_else(|e| panic!("stream line failed to decode: {e}\n{line}"));
    }
    let problems = state.verify();
    assert!(problems.is_empty(), "monitor verify failed: {problems:?}");
    assert!(state.finished, "stream must end in sweep_finished");
    assert_eq!(state.threads, config.threads);
    assert_eq!(state.reported_total, Some(report_total(&report)));
    let (total, counts) = state.totals();
    assert_eq!(total, report_total(&report));
    assert_eq!(state.cells.len(), report.results.len());
    for (cell, r) in state.cells.iter().zip(&report.results) {
        assert_eq!(cell.done, r.result.total());
        assert_eq!(cell.counts, r.result.counts);
        assert_eq!(cell.reported, Some((r.result.total(), r.result.counts)));
        assert!(cell.finished);
    }
    let merged_sdc: u64 = report
        .results
        .iter()
        .map(|r| r.result.counts.get(mbfi_core::Outcome::Sdc))
        .sum();
    assert_eq!(counts.get(mbfi_core::Outcome::Sdc), merged_sdc);

    // The renderers consume the same state without panicking and agree on
    // the headline numbers.
    let headless = mbfi_bench::render_headless(&state);
    assert!(headless.starts_with("done |"));
    assert!(headless.contains(&format!("{total} experiments")));
}

/// A single campaign run under a hub is observed, not perturbed: the
/// one-cell sweep equals `Campaign::run`, and the experiment counter
/// accounts for every experiment.
#[test]
fn campaign_telemetry_observes_without_perturbing() {
    let data = fixture();
    let w = &data[0];
    let cfg = HarnessConfig {
        experiments: EXPERIMENTS,
        ..HarnessConfig::default()
    };
    let spec = cfg.campaign_spec(Technique::InjectOnRead, FaultModel::single_bit());

    let base = Campaign::run(&w.code, &w.golden, &spec, None);
    let hub = TelemetryHub::new(TelemetryLevel::Full);
    let unit = SweepUnit {
        code: &w.code,
        golden: &w.golden,
        store: None,
    };
    let observed = run_observed(
        &[unit],
        &[SweepCampaign { unit: 0, spec }],
        &config(spec.threads, None),
        &hub,
    );
    assert_eq!(
        observed.results[0].result, base,
        "campaign telemetry perturbed the result"
    );
    assert_eq!(
        hub.snapshot().counter(Metric::ExperimentsRun),
        base.counts.total()
    );
}

/// Every executor metric means what its doc says, pinned against the event
/// stream of the same Full-level sweep: the batch, busy-time, experiment,
/// round and cell counters are exact folds of the `batch_done` /
/// `round_done` / `cell_finished` events; and a lone worker on a fixed-n
/// sweep never waits, because every batch is claimable until the job
/// drains.
#[test]
fn executor_metrics_equal_their_event_definitions() {
    let data = fixture();
    let units: Vec<SweepUnit<'_>> = data.iter().map(WorkloadData::sweep_unit).collect();
    let cells = cells(units.len());
    let precision = Precision {
        target_half_width_pct: 25.0,
        min_experiments: 4,
        max_experiments: 12,
        interval: mbfi_core::IntervalMethod::Wilson,
    };
    for (threads, precision) in [(1, None), (4, None), (4, Some(precision))] {
        let hub = TelemetryHub::new(TelemetryLevel::Full);
        let report = run_observed(&units, &cells, &config(threads, precision), &hub);
        let snapshot = hub.snapshot();
        let (mut batches, mut wall_ns, mut experiments, mut rounds, mut finished) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for event in hub.drain_events() {
            match event.kind {
                EventKind::BatchDone {
                    experiments: n,
                    wall_ns: ns,
                    ..
                } => {
                    batches += 1;
                    wall_ns += ns;
                    experiments += n;
                }
                EventKind::RoundDone { .. } => rounds += 1,
                EventKind::CellFinished { .. } => finished += 1,
                _ => {}
            }
        }
        let what = format!("threads={threads} adaptive={}", precision.is_some());
        assert_eq!(snapshot.counter(Metric::BatchesRun), batches, "{what}");
        assert_eq!(snapshot.counter(Metric::BusyNanos), wall_ns, "{what}");
        assert_eq!(
            snapshot.counter(Metric::ExperimentsRun),
            experiments,
            "{what}"
        );
        assert_eq!(experiments, report_total(&report), "{what}");
        assert_eq!(snapshot.counter(Metric::RoundsCompleted), rounds, "{what}");
        assert_eq!(rounds > 0, precision.is_some(), "{what}");
        assert_eq!(snapshot.counter(Metric::CellsFinished), finished, "{what}");
        assert_eq!(finished, cells.len() as u64, "{what}");
        if threads == 1 && precision.is_none() {
            assert_eq!(
                snapshot.counter(Metric::WorkerParks),
                0,
                "a lone fixed-n worker never waits"
            );
        }
    }
}
