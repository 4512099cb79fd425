//! The campaign service's equivalence contract: a report obtained through
//! `mbfi-serve` — over TCP, from concurrent clients, with cross-client cell
//! deduplication — is **byte-identical** to `Sweep::run` of the same grid
//! in-process, at every engine thread count.  Also pins the containment
//! properties of the daemon: malformed requests and mid-stream disconnects
//! affect only their own connection, and the `shutdown` verb drains
//! in-flight work before the process exits.

use mbfi_core::{
    FaultModel, GoldenRun, IntervalMethod, MonitorState, Precision, Sweep, SweepCampaign,
    SweepConfig, SweepReport, SweepUnit, Technique,
};
use mbfi_ir::CompiledModule;
use mbfi_serve::{CellRequest, GridRequest, ServerConfig, ServerHandle};
use mbfi_workloads::{all_workloads, workload_by_name, InputSize};
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

/// Run the same cells in-process, the way every pre-daemon user of the
/// library does: shared units, one grid, one `Sweep::run`.
fn in_process(cells: &[CellRequest], threads: usize, precision: Option<Precision>) -> SweepReport {
    let mut units = Vec::new();
    let mut keys: Vec<(String, InputSize)> = Vec::new();
    let mut campaigns = Vec::new();
    for cell in cells {
        let key = (cell.workload.to_ascii_lowercase(), cell.size);
        let unit = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
            let w = workload_by_name(&cell.workload).expect("registered workload");
            let code = CompiledModule::lower(&w.build_module(cell.size));
            let golden = GoldenRun::capture_compiled(&code).expect("golden run");
            units.push(mbfi_core::EngineUnit::new(code, golden));
            keys.push(key.clone());
            units.len() - 1
        });
        campaigns.push(SweepCampaign {
            unit,
            spec: cell.spec(),
        });
    }
    let views: Vec<SweepUnit<'_>> = units.iter().map(|u| u.view()).collect();
    Sweep::run(
        &views,
        &campaigns,
        &SweepConfig {
            threads,
            batch_size: 0,
            keep_records: false,
            precision,
        },
    )
}

fn spawn_server(threads: usize) -> ServerHandle {
    mbfi_serve::spawn(ServerConfig {
        port: 0,
        threads,
        quota: 0,
        max_pending: 0,
        read_timeout_ms: 10_000,
    })
    .expect("bind an ephemeral port")
}

/// Submit on its own thread, replaying the event stream through the
/// `mbfi-monitor` accumulator as it arrives.
fn client(
    addr: std::net::SocketAddr,
    cells: Vec<CellRequest>,
    priority: u8,
) -> std::thread::JoinHandle<(mbfi_serve::ServeOutcome, MonitorState)> {
    std::thread::spawn(move || {
        let mut monitor = MonitorState::new();
        let outcome = mbfi_serve::submit_with(
            addr,
            &GridRequest {
                threads: 0,
                priority,
                cells,
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
/// at engine thread counts 1, 4 and 8: every merged report is
/// byte-identical to the in-process sweep, the five shared cells execute
/// exactly once (deduped onto one client's execution), and each client's
/// event stream verifies clean through `MonitorState`.
#[test]
fn concurrent_clients_match_in_process_sweep_and_dedupe() {
    let grid = full_grid();
    assert!(grid.len() >= 15, "registry shrank below the coarse grid");
    let overlap = 5usize;
    let split = grid.len() - 2 * overlap; // A: [0, split+overlap), B: [split, len)
    let a_cells: Vec<CellRequest> = grid[..split + overlap].to_vec();
    let b_cells: Vec<CellRequest> = grid[split..].to_vec();

    for threads in [1usize, 4, 8] {
        let server = spawn_server(threads);
        let addr = server.addr();
        let a = client(addr, a_cells.clone(), 0);
        let b = client(addr, b_cells.clone(), 3);
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
            &GridRequest {
                threads: 2,
                priority: 0,
                cells: grid.clone(),
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
    let (outcome, monitor) = client(server.addr(), cells.clone(), 0)
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
                &GridRequest {
                    threads: 0,
                    priority: 0,
                    cells: cells.clone(),
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
    for bad in [
        "not json at all",
        "{\"cmd\":\"explode\"}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":42}]}",
        "{\"cmd\":\"submit\",\"cells\":[]}",
    ] {
        let frames = raw_request(addr, bad);
        assert_eq!(frames.len(), 1, "exactly one error frame for {bad:?}");
        let msg = mbfi_serve::protocol::parse_error(&frames[0])
            .unwrap_or_else(|| panic!("error frame for {bad:?}, got {}", frames[0]));
        assert!(!msg.is_empty());
    }
    // Unknown workloads are rejected before any cell is claimed.
    let err = mbfi_serve::submit(
        addr,
        &GridRequest {
            threads: 0,
            priority: 0,
            cells: vec![CellRequest {
                workload: "qsrot".to_string(),
                ..full_grid()[0].clone()
            }],
        },
    )
    .expect_err("unknown workload must be rejected");
    assert!(err.to_string().contains("unknown workload"), "got: {err}");

    // A client that submits and immediately vanishes: its cells keep
    // running on the detached collectors, so a second client asking for the
    // same cells follows those executions to a full, correct report.
    let cells: Vec<CellRequest> = full_grid().into_iter().take(2).collect();
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let line = mbfi_serve::Request::Submit(mbfi_serve::SubmitRequest {
            threads: 0,
            priority: 0,
            cells: cells.clone(),
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
        &GridRequest {
            threads: 0,
            priority: 0,
            cells: cells.clone(),
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
