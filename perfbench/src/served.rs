//! `served`: an in-process `mbfi_serve::spawn` daemon with nproc engine
//! threads and two closed-loop client threads.  Each client submits grids
//! over TCP, one after the other; every round uses fresh seeds, and the two
//! clients' grids of a round share a fixed number of identical cells, which
//! the daemon's cell cache runs once.  The daemon builds its programs with no
//! checkpoint store, so experiments re-execute from instruction zero.
//!
//! One iteration is one session: each client submits `ROUNDS` grids.

use crate::common::{self, Args};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{median, mix, Timing};
use crate::trace::{self, Ctx, Tracer};
use mbfi_bench::WorkloadData;
use mbfi_core::{
    ExperimentSpec, FaultModel, OutcomeCounts, Sweep, SweepCampaign, SweepConfig, SweepReport,
    SweepUnit, Technique, TelemetryEvent, WinSize,
};
use mbfi_serve::protocol::{self, Ack, CellRequest, Request, SubmitRequest};
use mbfi_serve::{ServerConfig, ServerHandle};
use mbfi_workloads::{all_workloads, InputSize};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Instant;

/// Setup repeats (daemon spawn plus warm-up) whose median is `setup_s`.
const SETUP_REPEATS: usize = 25;
/// Closed-loop clients (capped at nproc).
const CLIENTS: usize = 2;
/// Grids each client submits per session: with two clients, a session's
/// 150 distinct cells cover each (program, technique, model) once.
const ROUNDS: usize = 15;
/// Cells per grid.
const CELLS: usize = 6;
/// Of those, cells both clients' grids of a round contain.
const SHARED: usize = 2;
/// Experiments per cell.
const EXPERIMENTS: usize = 36;
/// Served reports compared with an in-process sweep of the same cells: the
/// first ones in key order, whose cells the seed draws.
const CHECK_REPORTS: usize = 8;

/// Fault models a served cell draws from.
const MODELS: [FaultModel; 5] = [
    FaultModel {
        max_mbf: 1,
        win_size: WinSize::Fixed(0),
    },
    FaultModel {
        max_mbf: 2,
        win_size: WinSize::Fixed(1),
    },
    FaultModel {
        max_mbf: 5,
        win_size: WinSize::Fixed(10),
    },
    FaultModel {
        max_mbf: 30,
        win_size: WinSize::Fixed(0),
    },
    FaultModel {
        max_mbf: 30,
        win_size: WinSize::Fixed(100),
    },
];

/// The `k`-th distinct cell of a session.  Cells walk through every
/// (program, technique, model) combination in turn, so every session runs
/// the same mix of programs; only the experiments' seeds come from `key`.
fn cell(names: &[&'static str], k: usize, key: u64, experiments: usize) -> CellRequest {
    CellRequest {
        workload: names[k % names.len()].to_string(),
        size: InputSize::Tiny,
        technique: Technique::ALL[(k / names.len()) % 2],
        model: MODELS[(k / (2 * names.len())) % MODELS.len()],
        experiments,
        seed: mix(key),
        hang_factor: mbfi_bench::HarnessConfig::default().hang_factor,
        precision: None,
    }
}

/// The grid client `client` of `clients` submits in `round` of `session`:
/// `SHARED` cells both clients' grids of the round contain, then cells of
/// its own.
fn grid(
    names: &[&'static str],
    seed: u64,
    session: usize,
    round: usize,
    client: usize,
    clients: usize,
) -> Vec<CellRequest> {
    let per_round = SHARED + clients * (CELLS - SHARED);
    (0..CELLS)
        .map(|i| {
            let k = round * per_round
                + if i < SHARED {
                    i
                } else {
                    SHARED + client * (CELLS - SHARED) + i - SHARED
                };
            let key = seed ^ mix(((session as u64) << 32) | k as u64);
            cell(names, k, key, EXPERIMENTS)
        })
        .collect()
}

/// What one submission returned, with its client-side timings.
struct Submitted {
    ack_ms: f64,
    stream_ms: f64,
    deduped: u64,
    events: usize,
    report: SweepReport,
}

/// Submit a grid the way `mbfi_serve::submit` does, timing connect-to-ack
/// and ack-to-report in spans of their own.
fn submit(
    tracer: &Tracer,
    ctx: Ctx,
    addr: SocketAddr,
    cells: &[CellRequest],
) -> Result<Submitted, String> {
    tracer.span(ctx, "serve.submit", |ctx| {
        let start = Instant::now();
        let (mut reader, ack) = tracer.span(ctx, "serve.ack", |_| -> Result<_, String> {
            let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).ok();
            let line = Request::Submit(SubmitRequest {
                threads: 0,
                priority: 0,
                cells: cells.to_vec(),
            })
            .to_line();
            stream
                .write_all(format!("{line}\n").as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            let mut reader = BufReader::new(stream);
            let mut first = String::new();
            reader
                .read_line(&mut first)
                .map_err(|e| format!("read ack: {e}"))?;
            if let Some(msg) = protocol::parse_error(&first) {
                return Err(format!("error frame: {msg}"));
            }
            let ack = Ack::parse(&first)
                .ok_or_else(|| format!("expected an ack, got {:?}", first.trim()))?;
            Ok((reader, ack))
        })?;
        let acked = Instant::now();
        let (events, report) = tracer.span(ctx, "serve.stream", |_| -> Result<_, String> {
            let mut events = 0usize;
            let mut line = String::new();
            loop {
                line.clear();
                if reader
                    .read_line(&mut line)
                    .map_err(|e| format!("read: {e}"))?
                    == 0
                {
                    return Err(String::from("connection closed before the report"));
                }
                if let Some(msg) = protocol::parse_error(&line) {
                    return Err(format!("error frame: {msg}"));
                }
                if let Some(report) = protocol::parse_report(&line) {
                    return Ok((events, report));
                }
                TelemetryEvent::parse_line(line.trim())?;
                events += 1;
            }
        })?;
        let done = Instant::now();
        Ok(Submitted {
            ack_ms: acked.duration_since(start).as_secs_f64() * 1e3,
            stream_ms: done.duration_since(acked).as_secs_f64() * 1e3,
            deduped: ack.deduped,
            events,
            report,
        })
    })
}

/// What the session keeps of a submission.
struct Summary {
    ack_ms: f64,
    stream_ms: f64,
    deduped: u64,
    events: usize,
    results: usize,
    experiments: u64,
    counts: OutcomeCounts,
    report: SweepReport,
}

impl Summary {
    fn of(s: Submitted) -> Summary {
        let mut counts = OutcomeCounts::default();
        for r in &s.report.results {
            common::add_counts(&mut counts, &r.result.counts);
        }
        Summary {
            ack_ms: s.ack_ms,
            stream_ms: s.stream_ms,
            deduped: s.deduped,
            events: s.events,
            results: s.report.results.len(),
            experiments: counts.total(),
            counts,
            report: s.report,
        }
    }
}

/// One finished submission, as the session records it.
struct Record {
    key: u64,
    cells: Vec<CellRequest>,
    total_ms: f64,
    outcome: Result<Summary, String>,
}

fn spawn_daemon(threads: usize) -> ServerHandle {
    mbfi_serve::spawn(ServerConfig {
        threads,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral localhost port")
}

/// Stop a daemon and wait for its drain to finish.
fn stop(server: ServerHandle) {
    server.stop();
    server.join();
}

/// Run the `served` workload.
pub fn run(args: &Args) {
    let threads = common::nproc();
    let clients = CLIENTS.min(threads).max(1);
    let names: Vec<&'static str> = all_workloads().iter().map(|w| w.name()).collect();
    let mut report = Report::default();

    // Setup: daemon spawn plus one warm-up submission that builds every
    // program's artifacts.
    let setup_tracer = Tracer::new(args.trace);
    let mut setups = Timing::default();
    let mut setup_spans = Vec::new();
    let mut server: Option<ServerHandle> = None;
    for r in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            stop(old);
        }
        let start = Instant::now();
        let ctx = Ctx::request(r as u64);
        let daemon = setup_tracer.span(ctx, "serve.spawn", |_| spawn_daemon(threads));
        let warm: Vec<CellRequest> = (0..names.len())
            .map(|k| {
                cell(
                    &names,
                    k,
                    args.seed ^ mix(0x3A9 ^ ((r as u64) << 8) ^ k as u64),
                    1,
                )
            })
            .collect();
        let warmed = submit(&setup_tracer, ctx, daemon.addr(), &warm);
        setups.samples.push(start.elapsed().as_secs_f64());
        setup_spans.push(setup_tracer.take());
        report.check(warmed.is_ok(), || {
            format!("warm-up submission failed: {:?}", warmed.err())
        });
        server = Some(daemon);
    }
    let server = server.expect("a daemon");
    let addr = server.addr();
    eprintln!(
        "perfbench served: {clients} closed-loop clients x {ROUNDS} grids per session, \
         {CELLS} cells ({SHARED} shared) x {EXPERIMENTS} experiments, {threads} engine threads"
    );

    let records: Mutex<Vec<Record>> = Mutex::new(Vec::new());
    let iterations = common::timed_loop(args, 1, |session, tracer, ctx| {
        tracer.span(ctx, "bench.session", |ctx| {
            let worker = ctx.split(clients);
            std::thread::scope(|scope| {
                for client in 0..clients {
                    let (names, records) = (&names, &records);
                    scope.spawn(move || {
                        for round in 0..ROUNDS {
                            let cells = grid(names, args.seed, session, round, client, clients);
                            let key =
                                ((session as u64) << 32) | ((round as u64) << 8) | client as u64;
                            let start = Instant::now();
                            let outcome = submit(tracer, worker.for_request(key), addr, &cells);
                            let total_ms = start.elapsed().as_secs_f64() * 1e3;
                            let outcome = outcome.map(Summary::of);
                            records.lock().expect("records lock").push(Record {
                                key,
                                cells,
                                total_ms,
                                outcome,
                            });
                        }
                    });
                }
            });
        });
    });
    stop(server);
    let mut records = records.into_inner().expect("records lock");
    // Completion order varies from run to run; key order does not.
    records.sort_by_key(|r| r.key);

    let mut latency = Timing::default();
    let mut ack = Timing::default();
    let mut stream = Timing::default();
    let (mut deduped, mut requested, mut events, mut delivered) = (0u64, 0u64, 0usize, 0u64);
    let mut counts = OutcomeCounts::default();
    for r in &records {
        let ok = match &r.outcome {
            Ok(s) => s.results == r.cells.len(),
            Err(_) => false,
        };
        report.check(ok, || {
            format!("submission {:x}: {:?}", r.key, r.outcome.as_ref().err())
        });
        if let Ok(s) = &r.outcome {
            latency.samples.push(r.total_ms);
            ack.samples.push(s.ack_ms);
            stream.samples.push(s.stream_ms);
            deduped += s.deduped;
            requested += r.cells.len() as u64;
            events += s.events;
            delivered += s.experiments;
            common::add_counts(&mut counts, &s.counts);
        }
    }

    // Output check: a seeded sample of served reports is byte-identical to
    // an in-process sweep of the same cells.
    let ref_tracer = Tracer::new(args.trace);
    let units: Vec<WorkloadData> = all_workloads()
        .iter()
        .map(|w| {
            common::build_unit(
                &ref_tracer,
                Ctx::request(0),
                w.as_ref(),
                InputSize::Tiny,
                None,
            )
        })
        .collect();
    let ref_spans = ref_tracer.take();
    let views: Vec<SweepUnit<'_>> = units.iter().map(WorkloadData::sweep_unit).collect();
    let unit_of = |c: &CellRequest| {
        units
            .iter()
            .position(|u| u.name.eq_ignore_ascii_case(&c.workload))
            .expect("a known program")
    };
    let checked: Vec<(&Record, &SweepReport)> = records
        .iter()
        .filter_map(|r| Some((r, &r.outcome.as_ref().ok()?.report)))
        .take(CHECK_REPORTS)
        .collect();
    for (r, served) in &checked {
        let campaigns: Vec<SweepCampaign> = r
            .cells
            .iter()
            .map(|c| SweepCampaign {
                unit: unit_of(c),
                spec: c.spec(),
            })
            .collect();
        let expected = Sweep::run(
            &views,
            &campaigns,
            &SweepConfig {
                threads,
                ..SweepConfig::default()
            },
        );
        report.check(
            served.to_json().render() == expected.to_json().render(),
            || {
                format!(
                    "served report {:x} differs from the in-process sweep",
                    r.key
                )
            },
        );
    }

    if args.trace {
        // The daemon builds its programs inside the warm-up submission,
        // where the benchmark cannot see the layers; these spans time the
        // same calls in the benchmark's reference build of the same units.
        common::report_setup_layers(
            &mut report,
            &[ref_spans],
            units.iter().map(|u| u.golden.dynamic_instrs).sum(),
            "the benchmark's reference build of the 15 tiny units after the timed phase, \
             not the daemon's build inside its warm-up",
        );
        let per_setup = |name: &str| -> Vec<f64> {
            setup_spans
                .iter()
                .map(|s| trace::total_ns(s, name) / 1e6)
                .collect()
        };
        report.note(format!(
            "setup_s on served: daemon spawn {:.3} ms, warm-up submission {:.3} ms \
             (medians of {} set-up repeats)",
            median(&per_setup("serve.spawn")),
            median(&per_setup("serve.submit")),
            setup_spans.len()
        ));
        common::report_stores(&mut report, &units);
        report.set_timing("serve.ack_ms", &ack);
        report.set_timing("serve.stream_ms", &stream);
        report.set_with(
            "serve.dedup_frac",
            deduped as f64 / requested.max(1) as f64,
            format!("{deduped} of {requested} requested cells"),
        );
        report.set(
            "serve.events_per_submit",
            events as f64 / latency.samples.len().max(1) as f64,
        );
        common::report_outcomes(&mut report, &counts);
        let probe: Vec<(&WorkloadData, ExperimentSpec)> = checked
            .iter()
            .flat_map(|(r, _)| r.cells.iter())
            .enumerate()
            .map(|(i, c)| {
                let u = &units[unit_of(c)];
                let s = ExperimentSpec::sample(
                    c.technique,
                    c.model,
                    &u.golden,
                    c.seed,
                    i as u64 % c.experiments as u64,
                    c.hang_factor,
                );
                (u, s)
            })
            .collect();
        common::probe_experiments(&mut report, &probe, true);
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
            ],
        );
        common::report_trace(&mut report, &iterations);
        common::dump_spans("served", setup_spans, &iterations);
        report.print(&PER_LAYER);
    } else {
        let walls = Timing {
            samples: iterations.iter().map(|it| it.wall_s).collect(),
        };
        let per_session = delivered as f64 / iterations.len() as f64;
        report.set_timing("setup_s", &setups);
        report.set_timing("wall_s", &walls);
        report.set_with(
            "exp_per_s",
            per_session / median(&walls.samples),
            format!("{per_session} delivered experiments per session over median wall_s"),
        );
        common::report_submit_latency(
            &mut report,
            &latency,
            "one grid over TCP, connect to parsed report",
        );
        report.set("peak_rss_mb", iterations[0].peak_rss_mb);
        report.print(&END_TO_END);
    }
}
