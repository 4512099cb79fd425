//! The daemon: a std-only TCP accept loop over the persistent
//! [`SweepEngine`].
//!
//! Each connection speaks one request of the [`crate::protocol`] grammar and
//! is handled on its own thread.  Submitted grids are deduplicated through
//! the [`crate::cache`] layer — the first requester of a cell owns its
//! engine job; later requesters (same connection or another client) tail
//! the cell's event log.  The engine's workers feed each owned cell's
//! entry and the global watch log directly, through the job's sink, which
//! also sums the costs each batch carries; the daemon runs no thread per
//! cell.  Both logs are the crate's one
//! replayable `EventLog`: a `watch` connection replays the global log from
//! event 0, then follows it live, rendering each event to its JSON line as
//! it sends it.
//!
//! Failure containment: a malformed request, an unknown workload or a
//! mid-stream disconnect terminates *that connection only*.  The engine,
//! the caches, and every other connection keep running.  Shutdown (the
//! `shutdown` verb or [`ServerHandle::stop`]) is graceful: admission stops,
//! in-flight jobs drain to completion, every submit stream receives its
//! full report, and only then do the threads join.

use crate::cache::{ArtifactCache, CellCache, CellEntry, CellKey, Claim};
use crate::log::EventLog;
use crate::protocol::{self, Request, SubmitRequest, MAX_LINE_BYTES};
use mbfi_core::{
    CellInfo, CostTally, EventKind, JobEvent, SweepCampaign, SweepCampaignResult, SweepCell,
    SweepConfig, SweepEngine, SweepReport, TelemetryEvent,
};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LOCK_POISONED: &str = "serve server lock poisoned";

/// Daemon knobs.  Every field has an `MBFI_SERVE_*` environment spelling
/// (see [`ServerConfig::from_env`]); unset values keep the defaults, and
/// malformed ones fall back to them with a warning on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral, kernel-assigned).
    pub port: u16,
    /// Engine worker threads (0 = all available parallelism, which also caps
    /// it).
    pub threads: usize,
    /// Per-connection I/O timeout, milliseconds: a client that connects and
    /// never sends a request, or stops reading its stream, is dropped after
    /// one read or write has waited this long.  It bounds how long a stalled
    /// client can hold up shutdown.
    pub read_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            threads: 0,
            read_timeout_ms: 10_000,
        }
    }
}

/// Parse knob `key` through `var` (`None` = unset), warning on stderr and
/// falling back to `default` when it is set but malformed, with the same
/// wording as the harness knobs.
fn var_parsed<T: std::str::FromStr + std::fmt::Display>(
    var: impl Fn(&str) -> Option<String>,
    key: &str,
    default: T,
) -> T {
    match var(key) {
        None => default,
        Some(v) => v.trim().parse().unwrap_or_else(|_| {
            eprintln!("warning: {key}={v:?} is not a valid value; falling back to {default}");
            default
        }),
    }
}

impl ServerConfig {
    /// Read the `MBFI_SERVE_PORT` / `MBFI_SERVE_THREADS` /
    /// `MBFI_SERVE_READ_TIMEOUT_MS` knobs.
    pub fn from_env() -> ServerConfig {
        ServerConfig::from_vars(|key| std::env::var(key).ok())
    }

    /// [`ServerConfig::from_env`] over any variable lookup (`None` =
    /// unset), e.g. a map in a test instead of the process environment.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> ServerConfig {
        let d = ServerConfig::default();
        ServerConfig {
            port: var_parsed(&var, "MBFI_SERVE_PORT", d.port),
            threads: var_parsed(&var, "MBFI_SERVE_THREADS", d.threads),
            read_timeout_ms: var_parsed(&var, "MBFI_SERVE_READ_TIMEOUT_MS", d.read_timeout_ms),
        }
    }
}

/// Read one `\n`-terminated line from an untrusted stream, bounded at
/// [`MAX_LINE_BYTES`].  `Ok(None)` is a clean EOF before any byte.
fn read_line_bounded(reader: &mut impl Read) -> Result<Option<String>, String> {
    let mut buf: Vec<u8> = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    String::from_utf8(buf)
                        .map(Some)
                        .map_err(|_| "request is not valid UTF-8".to_string())
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    return String::from_utf8(buf)
                        .map(Some)
                        .map_err(|_| "request is not valid UTF-8".to_string());
                }
                if buf.len() >= MAX_LINE_BYTES {
                    return Err(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
                }
                buf.push(byte[0]);
            }
            Err(e) => return Err(format!("read failed: {e}")),
        }
    }
}

fn send_line(mut stream: &TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

/// The daemon's global telemetry log: every executed cell's events, with
/// log-assigned gap-free sequence numbers, kept for replay so a `watch`
/// connection arriving late still sees the stream from event 0.  Each line
/// is rendered when it is sent to a watcher.
struct WatchLog {
    log: EventLog<TelemetryEvent>,
    /// Orders every push: an event's sequence number and the cumulative
    /// totals it carries are taken under this lock.
    tallies: Mutex<Tallies>,
    start: Instant,
}

#[derive(Default)]
struct Tallies {
    /// The next event's sequence number.
    seq: u64,
    /// Cells announced so far; the next one gets this index.
    cells: usize,
    /// Experiments planned by every announced cell so far.
    planned: u64,
    /// Experiments of every finished cell so far.
    finished: u64,
    /// Summed costs of every finished cell so far.
    cost: CostTally,
}

impl WatchLog {
    fn new() -> WatchLog {
        WatchLog {
            log: EventLog::default(),
            tallies: Mutex::new(Tallies::default()),
            start: Instant::now(),
        }
    }

    /// Append one event.  No-op once closed.
    fn push(&self, kind: EventKind) {
        let mut tallies = self.tallies.lock().expect(LOCK_POISONED);
        self.append(&mut tallies, kind);
    }

    /// Give `cells` the next cell indices of the log and announce them: a
    /// cumulative `sweep_started` over every cell so far, then one
    /// `cell_planned` each.  Returns the first one's index.
    fn announce(&self, threads: usize, cells: &[&protocol::CellRequest]) -> usize {
        let mut tallies = self.tallies.lock().expect(LOCK_POISONED);
        let base = tallies.cells;
        tallies.cells += cells.len();
        tallies.planned += cells.iter().map(|c| c.planned_budget()).sum::<u64>();
        let started = EventKind::SweepStarted {
            cells: tallies.cells,
            threads,
            planned: tallies.planned,
        };
        self.append(&mut tallies, started);
        for (j, cell) in cells.iter().enumerate() {
            self.append(&mut tallies, cell_planned(base + j, cell));
        }
        base
    }

    /// Append `cell`'s `cell_finished`, then the cumulative "sweep so far"
    /// summary, `cost` being the cell's summed experiment costs.  Each
    /// cumulative event takes its totals under the lock that orders the
    /// log, so they only grow along it even when cells are announced and
    /// finished concurrently: at quiescence the last summary reconciles with
    /// every batch a watcher accumulated, and `mbfi-monitor --connect`
    /// verifies clean.
    fn push_finished(&self, cell: usize, result: &SweepCampaignResult, cost: &CostTally) {
        let mut tallies = self.tallies.lock().expect(LOCK_POISONED);
        tallies.finished += result.result.total();
        tallies.cost.merge(cost);
        let finished = EventKind::SweepFinished {
            cells: tallies.cells,
            experiments: tallies.finished,
            wall_ns: self.start.elapsed().as_nanos() as u64,
            cow_chunks_copied: tallies.cost.cow_chunks_copied,
            cow_restore_bytes_saved: tallies.cost.cow_restore_bytes_saved,
        };
        self.append(&mut tallies, result.finished_event(cell));
        self.append(&mut tallies, finished);
    }

    fn append(&self, tallies: &mut Tallies, kind: EventKind) {
        self.log.push(TelemetryEvent {
            seq: tallies.seq,
            t_ns: self.start.elapsed().as_nanos() as u64,
            kind,
        });
        tallies.seq += 1;
    }
}

struct Inner {
    engine: SweepEngine,
    cells: CellCache,
    artifacts: ArtifactCache,
    watch: WatchLog,
    stop: AtomicBool,
    addr: SocketAddr,
    /// [`ServerConfig::read_timeout_ms`], applied to every read and write.
    io_timeout: Duration,
    /// Serve-level submission ids (the `job` field of ack frames).
    next_job: AtomicU64,
    /// Per-connection handler threads: finished ones are joined as new ones
    /// start, the rest at shutdown.
    connections: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    /// Flip the stop flag; the first caller wakes the accept loop with a
    /// throwaway self-connection.
    fn trigger_stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// Your end of a running daemon.
pub struct ServerHandle {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Begin a graceful shutdown (idempotent, non-blocking).
    pub fn stop(&self) {
        self.inner.trigger_stop();
    }

    /// Wait until the daemon exits (a `shutdown` request or
    /// [`ServerHandle::stop`]) and its graceful drain completes.  Does NOT
    /// itself initiate the shutdown.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.inner.trigger_stop();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Bind 127.0.0.1 and start serving.  Returns once the listener is live.
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    let addr = listener.local_addr()?;
    let inner = Arc::new(Inner {
        engine: SweepEngine::new(config.threads),
        cells: CellCache::default(),
        artifacts: ArtifactCache::default(),
        watch: WatchLog::new(),
        stop: AtomicBool::new(false),
        addr,
        io_timeout: Duration::from_millis(config.read_timeout_ms.max(1)),
        next_job: AtomicU64::new(0),
        connections: Mutex::new(Vec::new()),
    });
    let accept_inner = Arc::clone(&inner);
    let accept = std::thread::Builder::new()
        .name("mbfi-serve-accept".to_string())
        .spawn(move || accept_loop(listener, accept_inner))?;
    Ok(ServerHandle {
        inner,
        accept: Some(accept),
    })
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    for stream in listener.incoming() {
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("mbfi-serve-conn".to_string())
            .spawn(move || handle_connection(&conn_inner, stream));
        if let Ok(handle) = handle {
            // Join the finished handlers as this one starts: the list holds
            // only threads still running, not one per request ever served.
            let mut connections = inner.connections.lock().expect(LOCK_POISONED);
            let (finished, running): (Vec<_>, Vec<_>) = std::mem::take(&mut *connections)
                .into_iter()
                .partition(JoinHandle::is_finished);
            for done in finished {
                let _ = done.join();
            }
            *connections = running;
            connections.push(handle);
        }
    }
    drop(listener);
    // Graceful drain: stop admission and run every in-flight job to
    // completion (the engine's worker join IS the drain barrier; the workers
    // fed every cell entry and the watch log on the way) ...
    inner.engine.shutdown();
    // ... then release the watchers and wait out the connection handlers
    // (submit streams have their results by now; watch streams drain and
    // exit on the closed log).
    inner.watch.log.close();
    loop {
        let batch: Vec<JoinHandle<()>> =
            std::mem::take(&mut *inner.connections.lock().expect(LOCK_POISONED));
        if batch.is_empty() {
            break;
        }
        for handle in batch {
            let _ = handle.join();
        }
    }
}

fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(inner.io_timeout));
    let _ = stream.set_write_timeout(Some(inner.io_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let line = match read_line_bounded(&mut reader) {
        Ok(Some(line)) => line,
        Ok(None) => return, // clean EOF (e.g. the shutdown self-connect)
        Err(msg) => {
            let _ = send_line(&stream, &protocol::error_line(&msg));
            return;
        }
    };
    match Request::parse(&line) {
        Ok(Request::Submit(req)) => {
            let _ = handle_submit(inner, &stream, &req);
        }
        Ok(Request::Watch) => {
            inner
                .watch
                .log
                .tail(|event| send_line(&stream, &event.render_line()).is_ok());
        }
        Ok(Request::Shutdown) => {
            let _ = send_line(&stream, "{\"ok\":true}");
            inner.trigger_stop();
        }
        Err(msg) => {
            let _ = send_line(&stream, &protocol::error_line(&msg));
        }
    }
}

/// Per-connection telemetry emitter: connection-local sequence numbers and
/// cell indices, so each submit stream is an independently verifiable
/// JSONL stream (gap-free from 0).
struct EventStream<'a> {
    stream: &'a TcpStream,
    seq: u64,
    start: Instant,
}

impl EventStream<'_> {
    fn emit(&mut self, kind: EventKind) -> std::io::Result<()> {
        let event = TelemetryEvent {
            seq: self.seq,
            t_ns: self.start.elapsed().as_nanos() as u64,
            kind,
        };
        self.seq += 1;
        send_line(self.stream, &event.render_line())
    }
}

/// The `cell_planned` event announcing `cell` as cell `index` of a stream.
fn cell_planned(index: usize, cell: &protocol::CellRequest) -> EventKind {
    EventKind::CellPlanned {
        cell: index,
        info: CellInfo {
            unit: index,
            label: format!(
                "{}/{} {} {}",
                cell.workload.to_ascii_lowercase(),
                cell.size,
                cell.technique.short_name(),
                cell.model
            ),
            planned: cell.planned_budget(),
        },
    }
}

fn handle_submit(
    inner: &Arc<Inner>,
    stream: &TcpStream,
    req: &SubmitRequest,
) -> std::io::Result<()> {
    // Build (or hit) the artefacts of every referenced workload *before*
    // claiming any cell: an unknown workload must produce a clean error
    // frame without poisoning cache entries another client may be tailing.
    let mut units = Vec::with_capacity(req.cells.len());
    for cell in &req.cells {
        match inner
            .artifacts
            .get_or_build(&cell.workload, cell.size, cell.planned_budget())
        {
            Ok(unit) => units.push(unit),
            Err(msg) => return send_line(stream, &protocol::error_line(&msg)),
        }
    }

    // Claim every cell: first requester (across ALL connections) owns the
    // execution, everyone else follows the cell's buffered stream.
    let claims: Vec<Claim> = req
        .cells
        .iter()
        .map(|cell| inner.cells.claim(CellKey::of(cell)))
        .collect();
    let owned: Vec<(usize, &Arc<CellEntry>)> = claims
        .iter()
        .enumerate()
        .filter_map(|(i, c)| match c {
            Claim::Owner(entry) => Some((i, entry)),
            Claim::Follower(_) => None,
        })
        .collect();

    let job = inner.next_job.fetch_add(1, Ordering::SeqCst);
    let ack = protocol::Ack {
        job,
        cells: req.cells.len() as u64,
        deduped: (req.cells.len() - owned.len()) as u64,
    };
    if let Err(e) = send_line(stream, &ack.to_line()) {
        // Nothing will execute the owned cells: fail them before any is
        // announced, so their followers on other connections stop waiting.
        for &(i, entry) in &owned {
            abandon(inner, entry, &CellKey::of(&req.cells[i]));
        }
        return Err(e);
    }

    // Announce the newly owned cells on the global watch stream.
    if !owned.is_empty() {
        let owned_cells: Vec<&protocol::CellRequest> =
            owned.iter().map(|&(i, _)| &req.cells[i]).collect();
        let base = inner.watch.announce(inner.engine.threads(), &owned_cells);

        // Submit one engine job per owned cell.  Its sink feeds the cell's
        // entry and the watch log from the engine's workers, so execution is
        // decoupled from this connection: a mid-stream disconnect never
        // strands a follower on another connection.
        let sinks: Vec<(usize, CellSink)> = owned
            .iter()
            .enumerate()
            .map(|(j, &(i, entry))| {
                let sink = CellSink {
                    inner: Arc::clone(inner),
                    entry: Arc::clone(entry),
                    key: CellKey::of(&req.cells[i]),
                    gcell: base + j,
                    cost: Mutex::default(),
                };
                (i, sink)
            })
            .collect();
        for (i, sink) in sinks {
            let cell = &req.cells[i];
            let config = SweepConfig {
                threads: req.threads,
                keep_records: false,
                precision: cell.precision,
            };
            let job = vec![SweepCell::Sampled(SweepCampaign {
                unit: 0,
                spec: cell.spec(),
            })];
            let on_event = move |event| sink.on_event(event);
            if let Err(e) = inner
                .engine
                .submit(vec![units[i].clone()], job, &config, on_event)
            {
                // The engine is draining.  The rejected job's sink and the
                // ones not yet submitted drop here and fail their cells, so
                // followers fail fast instead of hanging.
                return send_line(stream, &protocol::error_line(&e.to_string()));
            }
        }
    }

    // Stream the job to this client with connection-local indices: the
    // replayed per-cell streams concatenate into exactly the telemetry
    // schema a single in-process sweep would emit.
    let mut events = EventStream {
        stream,
        seq: 0,
        start: Instant::now(),
    };
    events.emit(EventKind::SweepStarted {
        cells: req.cells.len(),
        threads: req.threads,
        planned: req.cells.iter().map(|c| c.planned_budget()).sum(),
    })?;
    for (i, cell) in req.cells.iter().enumerate() {
        events.emit(cell_planned(i, cell))?;
    }

    let mut results: Vec<Arc<SweepCampaignResult>> = Vec::with_capacity(req.cells.len());
    let mut cost = CostTally::default();
    for (i, claim) in claims.iter().enumerate() {
        let entry: &Arc<CellEntry> = match claim {
            Claim::Owner(e) | Claim::Follower(e) => e,
        };
        let mut io: std::io::Result<()> = Ok(());
        let result = entry.tail(|event| {
            io = events.emit(event.clone().with_cell(i));
            io.is_ok()
        });
        io?;
        let Some((result, cell_cost)) = result else {
            return send_line(
                stream,
                &protocol::error_line(&format!(
                    "cell {i} ended without a result (one of its batches failed, \
                     or the daemon shut down before it ran)"
                )),
            );
        };
        events.emit(result.finished_event(i))?;
        results.push(result);
        cost.merge(&cell_cost);
    }

    // The CoW tallies are those of every cell's one execution, followed
    // cells included, as the experiment total is.
    events.emit(EventKind::SweepFinished {
        cells: req.cells.len(),
        experiments: results.iter().map(|r| r.result.counts.total()).sum(),
        wall_ns: events.start.elapsed().as_nanos() as u64,
        cow_chunks_copied: cost.cow_chunks_copied,
        cow_restore_bytes_saved: cost.cow_restore_bytes_saved,
    })?;

    // Assemble the final report exactly as `Sweep::run` would: results in
    // submission order, warnings deduplicated in submission order.
    let report = SweepReport::from_results(results.iter().map(|r| (**r).clone()).collect());
    send_line(stream, &protocol::report_line(&report))
}

/// The sink of one owned cell's single-cell engine job: the engine's
/// workers push its events into the cell's cache entry and the global watch
/// log, and sum its batches' costs.  It is dropped with its job; a cell
/// that never finished then (a failed batch, or a job the draining engine
/// rejected) is failed, so its followers stop waiting, and evicted, so a
/// later request can retry it.
struct CellSink {
    inner: Arc<Inner>,
    entry: Arc<CellEntry>,
    key: CellKey,
    /// The cell's index on the watch log.
    gcell: usize,
    /// The summed costs of the cell's batches so far.
    cost: Mutex<CostTally>,
}

impl CellSink {
    fn on_event(&self, event: JobEvent) {
        match event {
            JobEvent::Progress { event, cost } => {
                self.cost.lock().expect(LOCK_POISONED).merge(&cost);
                self.inner.watch.push(event.clone().with_cell(self.gcell));
                self.entry.push_event(event);
            }
            JobEvent::CellFinished { result, .. } => {
                // Every batch's progress, and so its cost, came first.
                let cost = *self.cost.lock().expect(LOCK_POISONED);
                let result = Arc::new(*result);
                self.inner.watch.push_finished(self.gcell, &result, &cost);
                self.entry.finish(result, cost);
            }
            JobEvent::Finished => {}
        }
    }
}

impl Drop for CellSink {
    fn drop(&mut self) {
        if self.entry.result().is_none() {
            abandon(&self.inner, &self.entry, &self.key);
        }
    }
}

/// Fail an owned cell that will never finish, so its followers stop
/// waiting, and evict it, so a later request can retry it.
fn abandon(inner: &Inner, entry: &CellEntry, key: &CellKey) {
    entry.fail();
    inner.cells.evict(key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::submit;
    use crate::protocol::CellRequest;
    use mbfi_core::{FaultModel, Technique};
    use mbfi_workloads::InputSize;
    use std::collections::HashMap;
    use std::sync::mpsc;

    #[test]
    fn config_reads_knobs_and_falls_back_on_malformed_values() {
        let vars = |pairs: &[(&str, &str)]| {
            let map: HashMap<String, String> = pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect();
            move |key: &str| map.get(key).cloned()
        };
        assert_eq!(ServerConfig::from_vars(vars(&[])), ServerConfig::default());
        let cfg = ServerConfig::from_vars(vars(&[
            ("MBFI_SERVE_PORT", "7070"),
            ("MBFI_SERVE_THREADS", " 3 "),
            ("MBFI_SERVE_READ_TIMEOUT_MS", "250"),
        ]));
        assert_eq!(
            cfg,
            ServerConfig {
                port: 7070,
                threads: 3,
                read_timeout_ms: 250,
            }
        );
        // Malformed values keep the defaults (with a stderr warning each,
        // not capturable here); the well-formed knob beside them still reads.
        let cfg = ServerConfig::from_vars(vars(&[
            ("MBFI_SERVE_PORT", "70000"),
            ("MBFI_SERVE_THREADS", ""),
            ("MBFI_SERVE_READ_TIMEOUT_MS", "9"),
        ]));
        assert_eq!(
            cfg,
            ServerConfig {
                read_timeout_ms: 9,
                ..ServerConfig::default()
            }
        );
    }

    #[test]
    fn finished_threads_are_reaped_as_requests_arrive() {
        let server = spawn(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port");
        for seed in 0..40 {
            // A fresh seed per submission: every one owns its cell and runs
            // an engine job as well as a connection handler.
            let outcome = submit(
                server.addr(),
                &SubmitRequest {
                    cells: vec![CellRequest {
                        workload: "CRC32".to_string(),
                        size: InputSize::Tiny,
                        technique: Technique::InjectOnRead,
                        model: FaultModel::single_bit(),
                        experiments: 1,
                        seed,
                        hang_factor: 20,
                        precision: None,
                    }],
                    ..SubmitRequest::default()
                },
            )
            .expect("submission succeeds");
            assert_eq!(outcome.deduped, 0);
        }
        let live = server.inner.connections.lock().unwrap().len();
        assert!(live <= 4, "{live} thread handles kept after 40 submissions");
        server.stop();
        server.join();
    }

    /// A submission whose ack cannot be written fails the cells it owns,
    /// so a later submission of the same cell runs it instead of waiting
    /// for an execution that never starts.
    #[test]
    fn a_failed_ack_releases_the_owned_cells() {
        let server = spawn(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port");
        let req = SubmitRequest {
            cells: vec![CellRequest {
                workload: "CRC32".to_string(),
                size: InputSize::Tiny,
                technique: Technique::InjectOnRead,
                model: FaultModel::single_bit(),
                experiments: 3,
                seed: 5,
                hang_factor: 20,
                precision: None,
            }],
            ..SubmitRequest::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (closed, _) = listener.accept().expect("accept");
        closed.shutdown(std::net::Shutdown::Write).unwrap();
        assert!(handle_submit(&server.inner, &closed, &req).is_err());

        let (tx, rx) = mpsc::channel();
        let addr = server.addr();
        let retry = req.clone();
        std::thread::spawn(move || {
            let _ = tx.send(submit(addr, &retry));
        });
        let Ok(outcome) = rx.recv_timeout(Duration::from_secs(30)) else {
            // The follower would keep the daemon's shutdown waiting too.
            std::mem::forget(server);
            panic!("the second submission of the cell never got its report");
        };
        let outcome = outcome.expect("the second submission succeeds");
        assert_eq!(outcome.report.results[0].result.total(), 3);
        server.stop();
        server.join();
    }

    /// A client that submits and then never reads cannot hold up shutdown:
    /// its handler's writes give up after the connection's I/O timeout.
    #[test]
    fn a_client_that_never_reads_cannot_stall_shutdown() {
        let server = spawn(ServerConfig {
            threads: 2,
            read_timeout_ms: 200,
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port");
        // The engine's pool size is fixed by `ServerConfig::threads`; the
        // request's `threads` only cuts batches, so a huge value gives one
        // `batch_done` line per experiment: about 10 MiB of stream, more
        // than the loopback socket buffers hold.  spmv has the shortest
        // golden run.
        let cell = CellRequest {
            workload: "spmv".to_string(),
            size: InputSize::Tiny,
            technique: Technique::InjectOnRead,
            model: FaultModel::single_bit(),
            experiments: 60_000,
            seed: 7,
            hang_factor: 20,
            precision: None,
        };
        let mut stalled = TcpStream::connect(server.addr()).expect("connect");
        let req = SubmitRequest {
            threads: 1_000_000,
            cells: vec![cell],
            ..SubmitRequest::default()
        };
        let line = Request::Submit(req.clone()).to_line();
        stalled.write_all(format!("{line}\n").as_bytes()).unwrap();
        // A reading client of the same cell returns once the cell has run,
        // so the engine is idle when the shutdown starts.
        let outcome = submit(server.addr(), &SubmitRequest { threads: 0, ..req })
            .expect("the reading client gets its report");
        assert_eq!(outcome.report.results[0].result.total(), 60_000);

        let (done_tx, done_rx) = mpsc::channel();
        let stopper = std::thread::spawn(move || {
            server.stop();
            server.join();
            let _ = done_tx.send(());
        });
        let stopped = done_rx.recv_timeout(Duration::from_secs(20)).is_ok();
        // Past the deadline, closing the client is what lets the daemon
        // exit, so the test fails instead of hanging.
        drop(stalled);
        stopper.join().unwrap();
        assert!(stopped, "a client that never reads stalled the shutdown");
    }
}
