//! The campaign service's equivalence contract: a report obtained through
//! `mbfi-serve` — over TCP, from concurrent clients, with cross-client cell
//! deduplication — is **byte-identical** to `Sweep::run` of the same grid
//! in-process, at every engine thread count.  Also pins the containment
//! properties of the daemon: malformed requests and mid-stream disconnects
//! affect only their own connection, and the `shutdown` verb drains
//! in-flight work before the process exits.

use mbfi_core::{
    EngineUnit, EventKind, FaultModel, IntervalMethod, MonitorState, Precision, Sweep,
    SweepCampaign, SweepCell, SweepConfig, SweepReport, SweepUnit, Technique, TelemetryEvent,
    TelemetryHub, TelemetryLevel,
};
use mbfi_serve::cache::{ArtifactCache, STORE_BREAK_EVEN};
use mbfi_serve::{CellRequest, ServerConfig, ServerHandle, SubmitRequest};
use mbfi_workloads::{all_workloads, InputSize};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const EXPERIMENTS: usize = 12;
const SEED: u64 = 0x5EE7_CAFE;

/// One cell per registered workload: the "coarse 15-workload grid".
fn full_grid() -> Vec<CellRequest> {
    all_workloads()
        .iter()
        .map(|w| CellRequest {
            workload: w.name().to_string(),
            size: InputSize::Tiny,
            technique: Technique::InjectOnRead,
            model: FaultModel::single_bit(),
            experiments: EXPERIMENTS,
            seed: SEED,
            hang_factor: 20,
            precision: None,
        })
        .collect()
}

/// The units of `cells`, built as the daemon builds them for a planned
/// budget of `budget` experiments (below `STORE_BREAK_EVEN`: no store), and
/// the grid over them.
fn in_process_grid(cells: &[CellRequest], budget: u64) -> (Vec<EngineUnit>, Vec<SweepCampaign>) {
    let artifacts = ArtifactCache::default();
    cells
        .iter()
        .enumerate()
        .map(|(unit, cell)| {
            let built = artifacts.get_or_build(&cell.workload, cell.size, budget);
            let spec = cell.spec();
            (
                built.expect("registered workload"),
                SweepCampaign { unit, spec },
            )
        })
        .unzip()
}

/// Run the same cells in-process, the way every pre-daemon user of the
/// library does: shared units, one grid, one `Sweep::run`.
fn in_process(cells: &[CellRequest], threads: usize, precision: Option<Precision>) -> SweepReport {
    let (units, campaigns) = in_process_grid(cells, 0);
    let views: Vec<SweepUnit<'_>> = units.iter().map(EngineUnit::view).collect();
    Sweep::run(
        &views,
        &campaigns,
        &SweepConfig {
            threads,
            keep_records: false,
            precision,
        },
    )
}

/// The telemetry events of an in-process sweep of `cells` over the units
/// the daemon builds for a planned budget of `budget` experiments.
fn in_process_events(
    cells: &[CellRequest],
    threads: usize,
    precision: Option<Precision>,
    budget: u64,
) -> Vec<TelemetryEvent> {
    let (units, campaigns) = in_process_grid(cells, budget);
    let views: Vec<SweepUnit<'_>> = units.iter().map(EngineUnit::view).collect();
    let hub = TelemetryHub::new(TelemetryLevel::Full);
    let config = SweepConfig {
        threads,
        keep_records: false,
        precision,
    };
    let cells = campaigns.into_iter().map(SweepCell::Sampled).collect();
    Sweep::run_streamed(&views, cells, &config, Some(&hub), |_, _| {});
    hub.drain_events()
}

/// How many `batch_done` events a stream carried.
fn batches(events: &[TelemetryEvent]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::BatchDone { .. }))
        .count() as u64
}

fn spawn_server(threads: usize) -> ServerHandle {
    mbfi_serve::spawn(ServerConfig {
        port: 0,
        threads,
        read_timeout_ms: 10_000,
    })
    .expect("bind an ephemeral port")
}

/// Submit on its own thread, replaying the event stream through the
/// `mbfi-monitor` accumulator as it arrives.
fn client(
    addr: std::net::SocketAddr,
    threads: usize,
    cells: Vec<CellRequest>,
) -> std::thread::JoinHandle<(mbfi_serve::ServeOutcome, MonitorState)> {
    std::thread::spawn(move || {
        let mut monitor = MonitorState::new();
        let outcome = mbfi_serve::submit_with(
            addr,
            &SubmitRequest {
                threads,
                cells,
                ..SubmitRequest::default()
            },
            &mut |event| {
                monitor
                    .apply_line(&event.render_line())
                    .expect("served events parse");
            },
        )
        .expect("submission succeeds");
        (outcome, monitor)
    })
}

/// Two concurrent clients with overlapping halves of the 15-workload grid,
/// at engine thread counts and thread hints 1, 3 and 8: every merged
/// report is byte-identical to the in-process sweep, which cuts its batches
/// differently, the five shared cells execute exactly once (deduped onto
/// one client's execution), and each client's event stream verifies clean
/// through `MonitorState`.
#[test]
fn concurrent_clients_match_in_process_sweep_and_dedupe() {
    let grid = full_grid();
    assert!(grid.len() >= 15, "registry shrank below the coarse grid");
    let overlap = 5usize;
    let split = grid.len() - 2 * overlap; // A: [0, split+overlap), B: [split, len)
    let a_cells: Vec<CellRequest> = grid[..split + overlap].to_vec();
    let b_cells: Vec<CellRequest> = grid[split..].to_vec();

    // A served cell is a job of its own, cut from its 12 experiments; the
    // in-process grid is cut from A's 120.  At hints 1, 3 and 8 that is
    // batches of 2, 1 and 1 served against 12 (one per cell), 5 (not
    // dividing 12) and 2 in-process.
    for (threads, cuts) in [(1usize, (60, 10)), (3, (120, 30)), (8, (120, 60))] {
        let server = spawn_server(threads);
        let addr = server.addr();
        let a = client(addr, threads, a_cells.clone());
        let b = client(addr, threads, b_cells.clone());
        let (a_out, a_monitor) = a.join().expect("client A");
        let (b_out, b_monitor) = b.join().expect("client B");

        for (name, monitor) in [("A", &a_monitor), ("B", &b_monitor)] {
            let problems = monitor.verify();
            assert!(
                problems.is_empty(),
                "threads={threads} client {name}: stream inconsistent: {problems:?}"
            );
            assert!(monitor.finished, "client {name} stream reached the end");
        }
        assert_eq!(
            a_out.deduped + b_out.deduped,
            overlap as u64,
            "threads={threads}: each shared cell executes exactly once"
        );
        assert_eq!(
            (
                batches(&a_out.events),
                batches(&in_process_events(&a_cells, threads, None, 0))
            ),
            cuts,
            "threads={threads}: batch cuts"
        );
        assert_eq!(
            a_out.report,
            in_process(&a_cells, threads, None),
            "threads={threads}: client A's served report diverged"
        );
        assert_eq!(
            b_out.report,
            in_process(&b_cells, threads, None),
            "threads={threads}: client B's served report diverged"
        );
        // Byte-identity in the literal sense: the rendered JSON matches too.
        assert_eq!(
            a_out.report.to_json().render(),
            in_process(&a_cells, threads, None).to_json().render(),
            "threads={threads}: rendered reports differ"
        );

        // A third client asking for the whole grid hits the warm cache for
        // every single cell and still gets the exact in-process bytes.
        let full = mbfi_serve::submit(
            addr,
            &SubmitRequest {
                threads: 2,
                cells: grid.clone(),
                ..SubmitRequest::default()
            },
        )
        .expect("warm-cache submission");
        assert_eq!(full.deduped, grid.len() as u64, "all cells deduped");
        assert_eq!(full.report, in_process(&grid, threads, None));

        server.stop();
        server.join();
    }
}

/// Adaptive (precision-targeted) cells take the engine's round/stop-rule
/// path; the served stream carries `round_done` events and the report still
/// matches the in-process adaptive sweep byte-for-byte.
#[test]
fn adaptive_grids_round_trip_through_the_daemon() {
    let precision = Precision {
        target_half_width_pct: 20.0,
        min_experiments: 6,
        max_experiments: 18,
        interval: IntervalMethod::Wilson,
    };
    let cells: Vec<CellRequest> = ["qsort", "CRC32", "sha"]
        .iter()
        .map(|name| CellRequest {
            workload: name.to_string(),
            size: InputSize::Tiny,
            technique: Technique::InjectOnWrite,
            model: FaultModel::single_bit(),
            experiments: EXPERIMENTS,
            seed: SEED,
            hang_factor: 20,
            precision: Some(precision),
        })
        .collect();
    let server = spawn_server(2);
    let (outcome, monitor) = client(server.addr(), 0, cells.clone())
        .join()
        .expect("adaptive client");
    assert!(
        monitor.verify().is_empty(),
        "adaptive stream inconsistent: {:?}",
        monitor.verify()
    );
    assert!(
        monitor.cells.iter().all(|c| c.rounds > 0),
        "adaptive cells report their rounds"
    );
    assert_eq!(outcome.report, in_process(&cells, 2, Some(precision)));
    server.stop();
    server.join();
}

/// A thread hint of 2^61 cuts one-experiment batches instead of overflowing
/// the batch formula, and the served report equals the in-process one.  The
/// engine's pool stays at its own size, and the cells stay tiny because an
/// in-process sweep starts a worker per batch up to its hint.
#[test]
fn a_huge_thread_hint_is_served() {
    let cells: Vec<CellRequest> = full_grid()
        .into_iter()
        .take(2)
        .map(|c| CellRequest {
            experiments: 4,
            ..c
        })
        .collect();
    let server = spawn_server(2);
    let served = mbfi_serve::submit(
        server.addr(),
        &SubmitRequest {
            threads: 1 << 61,
            cells: cells.clone(),
            ..SubmitRequest::default()
        },
    )
    .expect("a huge thread hint gets its report");
    assert_eq!(served.report, in_process(&cells, 1, None));
    assert_eq!(batches(&served.events), 8);
    server.stop();
    server.join();
}

/// A served adaptive cell announces the experiments the sweep plans for it:
/// with `min_experiments` 100 above `max_experiments` 10 it runs 100, and
/// its `sweep_started` and `cell_planned` say 100, as in-process.
#[test]
fn served_cells_announce_the_in_process_planned_budget() {
    let precision = Precision {
        target_half_width_pct: 20.0,
        min_experiments: 100,
        max_experiments: 10,
        interval: IntervalMethod::Wilson,
    };
    let cells = vec![CellRequest {
        workload: "CRC32".to_string(),
        precision: Some(precision),
        ..full_grid()[0].clone()
    }];
    let planned = |events: &[TelemetryEvent]| -> Vec<(&'static str, u64)> {
        events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SweepStarted { planned, .. } => Some(("sweep_started", *planned)),
                EventKind::CellPlanned { info, .. } => Some(("cell_planned", info.planned)),
                _ => None,
            })
            .collect()
    };
    let server = spawn_server(2);
    let served = mbfi_serve::submit(
        server.addr(),
        &SubmitRequest {
            threads: 0,
            cells: cells.clone(),
            ..SubmitRequest::default()
        },
    )
    .expect("submission succeeds");
    let events = in_process_events(&cells, 2, Some(precision), 0);
    assert_eq!(planned(&served.events), planned(&events));
    assert_eq!(
        planned(&events),
        [("sweep_started", 100), ("cell_planned", 100)]
    );
    assert_eq!(served.report.results[0].result.total(), 100);
    server.stop();
    server.join();
}

/// The daemon captures a program's checkpoint store on the first cell that
/// plans enough experiments, so one daemon serves the same programs first
/// store-less, then across the capture, then from the store.  Replay is
/// byte-transparent: every report equals the store-less in-process sweep.
#[test]
fn reports_match_across_the_checkpoint_store_transition() {
    let single: Vec<CellRequest> = full_grid()
        .into_iter()
        .map(|c| CellRequest {
            experiments: 1,
            ..c
        })
        .collect();
    let fixed = full_grid();
    let precision = Precision {
        target_half_width_pct: 20.0,
        min_experiments: 6,
        max_experiments: 18,
        interval: IntervalMethod::Wilson,
    };
    let adaptive: Vec<CellRequest> = full_grid()
        .into_iter()
        .map(|c| CellRequest {
            technique: Technique::InjectOnWrite,
            precision: Some(precision),
            ..c
        })
        .collect();

    for threads in [1usize, 4] {
        let server = spawn_server(threads);
        for (name, cells, precision) in [
            ("one-experiment", &single, None),
            ("fixed-n", &fixed, None),
            ("adaptive", &adaptive, Some(precision)),
        ] {
            let served = mbfi_serve::submit(
                server.addr(),
                &SubmitRequest {
                    threads: 0,
                    cells: cells.clone(),
                    ..SubmitRequest::default()
                },
            )
            .expect("submission succeeds");
            assert_eq!(served.deduped, 0, "threads={threads} {name}: fresh cells");
            assert_eq!(
                served.report.to_json().render(),
                in_process(cells, threads, precision).to_json().render(),
                "threads={threads}: {name} grid diverged"
            );
        }
        server.stop();
        server.join();
    }
}

/// A `watch` connection that arrives after two overlapping submissions
/// replays the daemon's global log from event 0: the lines fold through
/// `MonitorState` consistently, and the cumulative `sweep_finished` total
/// counts every executed experiment once, shared cells included.
#[test]
fn watch_replays_the_global_log_from_event_zero() {
    let grid: Vec<CellRequest> = full_grid().into_iter().take(5).collect();
    let a_cells = grid[..3].to_vec();
    let b_cells = grid[1..].to_vec();
    let server = spawn_server(2);
    let addr = server.addr();
    let a = client(addr, 0, a_cells);
    let b = client(addr, 0, b_cells);
    let (a_out, _) = a.join().expect("client A");
    let (b_out, _) = b.join().expect("client B");
    assert_eq!(a_out.deduped + b_out.deduped, 2, "two shared cells");
    let executed: u64 = a_out.report.results[..1]
        .iter()
        .chain(&b_out.report.results)
        .map(|r| r.result.total())
        .sum();

    let (lines, monitor) = watch_until_shutdown(server);
    let first = mbfi_core::TelemetryEvent::parse_line(&lines[0]).expect("first line parses");
    assert_eq!(first.seq, 0, "the replay starts at event 0");
    assert_eq!(monitor.reported_total, Some(executed));
}

/// The daemon's watch log, replayed by a watcher that connects before
/// `server` shuts down: its lines, and their fold through `MonitorState`,
/// which verifies clean.
fn watch_until_shutdown(server: ServerHandle) -> (Vec<String>, MonitorState) {
    let addr = server.addr();
    let (first_tx, first_rx) = std::sync::mpsc::channel();
    let watcher = std::thread::spawn(move || {
        let mut lines: Vec<String> = Vec::new();
        mbfi_serve::watch(addr, &mut |line| {
            if lines.is_empty() {
                let _ = first_tx.send(());
            }
            lines.push(line.to_string());
        })
        .expect("watch stream");
        lines
    });
    // The watcher is connected and replaying before the listener closes.
    first_rx.recv().expect("the watcher sees a first line");
    mbfi_serve::shutdown(addr).expect("shutdown verb");
    server.join();
    let lines = watcher.join().expect("watcher");
    let mut monitor = MonitorState::new();
    for line in &lines {
        monitor.apply_line(line).expect("watched events parse");
    }
    let problems = monitor.verify();
    assert!(
        problems.is_empty(),
        "watch stream inconsistent: {problems:?}"
    );
    (lines, monitor)
}

/// The `sweep_finished` copy-on-write tallies of a served stream are those
/// of its cells' executions, equal to an in-process sweep's over the same
/// units.  A one-experiment grid plans below `STORE_BREAK_EVEN`, so its
/// programs get no checkpoint store: nothing is restored, so no restore
/// bytes are saved (writes to shared zero chunks still copy some).  A
/// ten-experiment grid captures the stores and restores from them.  The
/// watch log's cumulative totals sum every executed cell.
#[test]
fn served_cow_tallies_are_those_of_the_executed_cells() {
    const _: () = assert!(STORE_BREAK_EVEN > 1 && STORE_BREAK_EVEN <= 10);
    let grid: Vec<CellRequest> = full_grid().into_iter().take(3).collect();
    let sized = |experiments| -> Vec<CellRequest> {
        grid.iter()
            .map(|c| CellRequest {
                experiments,
                ..c.clone()
            })
            .collect()
    };
    let server = spawn_server(2);
    let (single, single_monitor) = client(server.addr(), 0, sized(1)).join().unwrap();
    let (ten, ten_monitor) = client(server.addr(), 0, sized(10)).join().unwrap();
    assert_eq!(single.deduped + ten.deduped, 0, "every cell executes");
    let cow = |m: &MonitorState| (m.cow_chunks_copied, m.cow_restore_bytes_saved);
    let in_process_cow = |experiments| {
        let mut monitor = MonitorState::new();
        let cells = sized(experiments);
        for event in in_process_events(&cells, 0, None, experiments as u64) {
            monitor.apply(&event);
        }
        cow(&monitor)
    };
    assert_eq!(cow(&single_monitor), in_process_cow(1));
    assert_eq!(single_monitor.cow_restore_bytes_saved, 0, "no store");
    assert_eq!(cow(&ten_monitor), in_process_cow(10));
    assert!(ten_monitor.cow_chunks_copied > 0 && ten_monitor.cow_restore_bytes_saved > 0);
    let (_, watched) = watch_until_shutdown(server);
    let (single, ten) = (cow(&single_monitor), cow(&ten_monitor));
    let executed = (single.0 + ten.0, single.1 + ten.1);
    assert_eq!(cow(&watched), executed, "the sum over every executed cell");
}

fn raw_request(addr: std::net::SocketAddr, line: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    BufReader::new(stream)
        .lines()
        .map_while(Result::ok)
        .collect()
}

/// Hostile and flaky clients are contained: malformed requests get an error
/// frame (not a dead daemon), a client that disconnects mid-stream leaves
/// its cells running for everyone else, and the `shutdown` verb drains
/// before the listener goes away.
#[test]
fn hostile_clients_are_contained_and_shutdown_drains() {
    let server = spawn_server(1);
    let addr = server.addr();

    // Malformed requests: error frame, connection closed, daemon alive.
    // Oversized budgets are refused before any cell is claimed or planned.
    let oversized = |cell: CellRequest| {
        mbfi_serve::Request::Submit(mbfi_serve::SubmitRequest {
            threads: 0,
            cells: vec![cell],
            ..Default::default()
        })
        .to_line()
    };
    for bad in [
        "not json at all".to_string(),
        "{\"cmd\":\"explode\"}".to_string(),
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":42}]}".to_string(),
        "{\"cmd\":\"submit\",\"cells\":[]}".to_string(),
        oversized(CellRequest {
            experiments: 1 << 60,
            ..full_grid()[0].clone()
        }),
        oversized(CellRequest {
            precision: Some(Precision {
                max_experiments: 1_000_000_000_000,
                ..Precision::default()
            }),
            ..full_grid()[0].clone()
        }),
    ] {
        let frames = raw_request(addr, &bad);
        assert_eq!(frames.len(), 1, "exactly one error frame for {bad:?}");
        let msg = mbfi_serve::protocol::parse_error(&frames[0])
            .unwrap_or_else(|| panic!("error frame for {bad:?}, got {}", frames[0]));
        assert!(!msg.is_empty());
    }
    // Unknown workloads are rejected before any cell is claimed.
    let err = mbfi_serve::submit(
        addr,
        &SubmitRequest {
            threads: 0,
            cells: vec![CellRequest {
                workload: "qsrot".to_string(),
                ..full_grid()[0].clone()
            }],
            ..SubmitRequest::default()
        },
    )
    .expect_err("unknown workload must be rejected");
    assert!(err.to_string().contains("unknown workload"), "got: {err}");

    // A client that submits and immediately vanishes: its cells keep
    // running on the engine, so a second client asking for the same cells
    // follows those executions to a full, correct report.
    let cells: Vec<CellRequest> = full_grid().into_iter().take(2).collect();
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let line = mbfi_serve::Request::Submit(mbfi_serve::SubmitRequest {
            threads: 0,
            cells: cells.clone(),
            ..Default::default()
        })
        .to_line();
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send newline");
        let mut ack = String::new();
        BufReader::new(&stream).read_line(&mut ack).expect("ack");
        assert!(ack.contains("\"ok\":true"), "got: {ack}");
        // Drop the connection mid-stream.
    }
    let survivor = mbfi_serve::submit(
        addr,
        &SubmitRequest {
            threads: 0,
            cells: cells.clone(),
            ..SubmitRequest::default()
        },
    )
    .expect("second client completes despite the first's disconnect");
    assert_eq!(
        survivor.deduped, 2,
        "cells stayed owned by the ghost client"
    );
    assert_eq!(survivor.report, in_process(&cells, 1, None));

    // Graceful shutdown: the verb acks, in-flight work drains, and then the
    // listener is gone.
    mbfi_serve::shutdown(addr).expect("shutdown verb");
    server.join();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener closed after drain"
    );
}
