//! The daemon: a std-only TCP accept loop over the persistent
//! [`SweepEngine`].
//!
//! Each connection speaks one request of the [`crate::protocol`] grammar and
//! is handled on its own thread.  Submitted grids are deduplicated through
//! the [`crate::cache`] layer — the first requester of a cell owns its
//! engine job; later requesters (same connection or another client) tail
//! the owner's buffered event stream.  A `watch` connection replays the
//! daemon's global telemetry log from the beginning and then follows it
//! live.
//!
//! Failure containment: a malformed request, an unknown workload or a
//! mid-stream disconnect terminates *that connection only*.  The engine,
//! the caches, and every other connection keep running.  Shutdown (the
//! `shutdown` verb or [`ServerHandle::stop`]) is graceful: admission stops,
//! in-flight jobs drain to completion, every submit stream receives its
//! full report, and only then do the threads join.

use crate::cache::{ArtifactCache, CellCache, CellEntry, CellKey, Claim};
use crate::protocol::{self, Request, SubmitRequest, MAX_LINE_BYTES};
use mbfi_core::{
    CampaignWarning, CellInfo, EngineConfig, EventKind, JobEvent, JobSpec, SweepCampaign,
    SweepCampaignResult, SweepConfig, SweepEngine, SweepReport, TelemetryEvent,
};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Engine worker threads (0 = all available parallelism).
    pub threads: usize,
    /// Per-client concurrent-batch quota (0 = one pool's worth).
    pub quota: usize,
    /// Admission bound: jobs active at once before submits block (0 = the
    /// engine default).
    pub max_pending: usize,
    /// Per-connection read timeout, milliseconds (a client that connects
    /// and never sends a request is dropped after this long).
    pub read_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            threads: 0,
            quota: 0,
            max_pending: 0,
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
    /// `MBFI_SERVE_QUOTA` / `MBFI_SERVE_PENDING` /
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
            quota: var_parsed(&var, "MBFI_SERVE_QUOTA", d.quota),
            max_pending: var_parsed(&var, "MBFI_SERVE_PENDING", d.max_pending),
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
/// log-assigned gap-free sequence numbers, buffered for replay so a `watch`
/// connection arriving late still sees the stream from event 0.
struct WatchLog {
    state: Mutex<WatchState>,
    cond: Condvar,
    start: Instant,
}

#[derive(Default)]
struct WatchState {
    lines: Vec<String>,
    closed: bool,
}

impl WatchLog {
    fn new() -> WatchLog {
        WatchLog {
            state: Mutex::new(WatchState::default()),
            cond: Condvar::new(),
            start: Instant::now(),
        }
    }

    /// Append one event; its sequence number is its index in the log.
    /// No-op once closed.
    fn push(&self, kind: EventKind) {
        let mut state = self.state.lock().expect(LOCK_POISONED);
        if state.closed {
            return;
        }
        let event = TelemetryEvent {
            seq: state.lines.len() as u64,
            t_ns: self.start.elapsed().as_nanos() as u64,
            kind,
        };
        state.lines.push(event.render_line());
        self.cond.notify_all();
    }

    /// Close the log and wake every watcher; they drain what is buffered
    /// and disconnect.
    fn close(&self) {
        let mut state = self.state.lock().expect(LOCK_POISONED);
        state.closed = true;
        self.cond.notify_all();
    }

    /// Replay the log from event 0 and follow it live until the log closes
    /// or `emit` fails (client went away).
    fn tail(&self, mut emit: impl FnMut(&str) -> bool) {
        let mut next = 0usize;
        let mut state = self.state.lock().expect(LOCK_POISONED);
        loop {
            while next < state.lines.len() {
                if !emit(&state.lines[next]) {
                    return;
                }
                next += 1;
            }
            if state.closed {
                return;
            }
            state = self.cond.wait(state).expect(LOCK_POISONED);
        }
    }
}

struct Inner {
    engine: SweepEngine,
    cells: CellCache,
    artifacts: ArtifactCache,
    watch: WatchLog,
    stop: AtomicBool,
    addr: SocketAddr,
    read_timeout: Duration,
    /// Serve-level submission ids (the `job` field of ack frames).
    next_job: AtomicU64,
    /// Global cell-index allocator for the watch stream.
    next_cell: AtomicU64,
    /// Cumulative planned experiments across all executed cells.
    watch_planned: AtomicU64,
    /// Cumulative finished experiments across all executed cells.
    watch_finished: AtomicU64,
    /// Detached per-cell collector threads: finished ones are joined as new
    /// ones start, the rest at shutdown.
    collectors: Mutex<Vec<JoinHandle<()>>>,
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
        engine: SweepEngine::new(EngineConfig {
            threads: config.threads,
            max_pending: config.max_pending,
            quota: config.quota,
        }),
        cells: CellCache::default(),
        artifacts: ArtifactCache::default(),
        watch: WatchLog::new(),
        stop: AtomicBool::new(false),
        addr,
        read_timeout: Duration::from_millis(config.read_timeout_ms.max(1)),
        next_job: AtomicU64::new(0),
        next_cell: AtomicU64::new(0),
        watch_planned: AtomicU64::new(0),
        watch_finished: AtomicU64::new(0),
        collectors: Mutex::new(Vec::new()),
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

/// Join every finished thread of `handles`, then keep `handle`: the list
/// holds only threads still running (or just finished), not one per
/// request the daemon ever served.
fn push_reaped(handles: &Mutex<Vec<JoinHandle<()>>>, handle: JoinHandle<()>) {
    let mut handles = handles.lock().expect(LOCK_POISONED);
    let (finished, running): (Vec<_>, Vec<_>) = std::mem::take(&mut *handles)
        .into_iter()
        .partition(JoinHandle::is_finished);
    for done in finished {
        let _ = done.join();
    }
    *handles = running;
    handles.push(handle);
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
            push_reaped(&inner.connections, handle);
        }
    }
    drop(listener);
    // Graceful drain: stop admission and run every in-flight job to
    // completion (the engine's worker join IS the drain barrier) ...
    inner.engine.shutdown();
    // ... then collect the per-cell collectors (all of their event channels
    // are now fully buffered, so these joins are prompt) ...
    loop {
        let batch: Vec<JoinHandle<()>> =
            std::mem::take(&mut *inner.collectors.lock().expect(LOCK_POISONED));
        if batch.is_empty() {
            break;
        }
        for handle in batch {
            let _ = handle.join();
        }
    }
    // ... then release the watchers and wait out the connection handlers
    // (submit streams have their results by now; watch streams drain and
    // exit on the closed log).
    inner.watch.close();
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
    let _ = stream.set_read_timeout(Some(inner.read_timeout));
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
            inner.watch.tail(|line| send_line(&stream, line).is_ok());
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

/// The experiment budget a cell announces in `cell_planned` (fixed n, or
/// the adaptive cap).
fn planned_budget(cell: &protocol::CellRequest) -> u64 {
    cell.precision
        .as_ref()
        .map(|p| p.max_experiments as u64)
        .unwrap_or(cell.experiments as u64)
}

fn cell_label(cell: &protocol::CellRequest) -> String {
    format!(
        "{}/{} {} {}",
        cell.workload.to_ascii_lowercase(),
        cell.size,
        cell.technique.short_name(),
        cell.model
    )
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
            .get_or_build(&cell.workload, cell.size, planned_budget(cell))
        {
            Ok(unit) => units.push(unit),
            Err(msg) => return send_line(stream, &protocol::error_line(&msg)),
        }
    }

    // Claim every cell: first requester (across ALL connections) owns the
    // execution, everyone else follows the owner's buffered stream.
    let claims: Vec<Claim> = req
        .cells
        .iter()
        .map(|cell| inner.cells.claim(CellKey::of(cell)))
        .collect();
    let deduped = claims
        .iter()
        .filter(|c| matches!(c, Claim::Follower(_)))
        .count() as u64;
    let owned: Vec<usize> = claims
        .iter()
        .enumerate()
        .filter_map(|(i, c)| matches!(c, Claim::Owner(_)).then_some(i))
        .collect();

    let job = inner.next_job.fetch_add(1, Ordering::SeqCst);
    send_line(
        stream,
        &protocol::Ack {
            job,
            cells: req.cells.len() as u64,
            deduped,
        }
        .to_line(),
    )?;

    // Announce the newly owned cells on the global watch stream.
    if !owned.is_empty() {
        let base = inner
            .next_cell
            .fetch_add(owned.len() as u64, Ordering::SeqCst);
        let planned_new: u64 = owned.iter().map(|&i| planned_budget(&req.cells[i])).sum();
        let planned_total =
            inner.watch_planned.fetch_add(planned_new, Ordering::SeqCst) + planned_new;
        inner.watch.push(EventKind::SweepStarted {
            cells: (base + owned.len() as u64) as usize,
            threads: inner.engine.threads(),
            planned: planned_total,
        });
        for (j, &i) in owned.iter().enumerate() {
            inner.watch.push(EventKind::CellPlanned {
                cell: (base + j as u64) as usize,
                info: CellInfo {
                    unit: (base + j as u64) as usize,
                    label: cell_label(&req.cells[i]),
                    planned: planned_budget(&req.cells[i]),
                },
            });
        }

        // Submit one engine job per owned cell and hand each to a detached
        // collector: execution is decoupled from this connection, so a
        // mid-stream disconnect never strands a follower on another
        // connection.
        let client = inner.engine.register_client(req.priority);
        for (j, &i) in owned.iter().enumerate() {
            let Claim::Owner(entry) = &claims[i] else {
                unreachable!("owned indices come from Owner claims")
            };
            let cell = &req.cells[i];
            let spec = JobSpec {
                client,
                units: vec![units[i].clone()],
                campaigns: vec![SweepCampaign {
                    unit: 0,
                    spec: cell.spec(),
                }],
                config: SweepConfig {
                    threads: req.threads,
                    batch_size: 0,
                    keep_records: false,
                    precision: cell.precision,
                },
            };
            match inner.engine.submit(spec) {
                Ok(handle) => {
                    let collector_inner = Arc::clone(inner);
                    let entry = Arc::clone(entry);
                    let key = CellKey::of(cell);
                    let gcell = (base + j as u64) as usize;
                    let collector = std::thread::Builder::new()
                        .name("mbfi-serve-cell".to_string())
                        .spawn(move || collect_cell(&collector_inner, handle, &entry, key, gcell));
                    if let Ok(handle) = collector {
                        push_reaped(&inner.collectors, handle);
                    }
                }
                Err(e) => {
                    // Engine is draining: release this and every remaining
                    // owned cell so followers fail fast instead of hanging,
                    // and report the rejection to this client.
                    for &k in &owned[j..] {
                        if let Claim::Owner(entry) = &claims[k] {
                            entry.fail();
                            inner.cells.evict(&CellKey::of(&req.cells[k]));
                        }
                    }
                    inner.engine.unregister_client(client);
                    return send_line(stream, &protocol::error_line(&e.to_string()));
                }
            }
        }
        // Jobs drain on their own; the client record is reaped once the
        // last one lands.
        inner.engine.unregister_client(client);
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
        planned: req.cells.iter().map(planned_budget).sum(),
    })?;
    for (i, cell) in req.cells.iter().enumerate() {
        events.emit(EventKind::CellPlanned {
            cell: i,
            info: CellInfo {
                unit: i,
                label: cell_label(cell),
                planned: planned_budget(cell),
            },
        })?;
    }

    let mut results: Vec<Arc<SweepCampaignResult>> = Vec::with_capacity(req.cells.len());
    for (i, claim) in claims.iter().enumerate() {
        let entry: &Arc<CellEntry> = match claim {
            Claim::Owner(e) | Claim::Follower(e) => e,
        };
        let mut io: std::io::Result<()> = Ok(());
        let result = entry.tail(|event| {
            if io.is_err() {
                return;
            }
            io = events.emit(event.clone().with_cell(i));
        });
        io?;
        let Some(result) = result else {
            return send_line(
                stream,
                &protocol::error_line(&format!(
                    "cell {i} was abandoned (daemon shut down before it ran)"
                )),
            );
        };
        events.emit(result.finished_event(i))?;
        results.push(result);
    }

    // The CoW tallies stay 0: a telemetry hub counts them, and engine jobs
    // carry none (experiments still restore from the unit's store).
    events.emit(EventKind::SweepFinished {
        cells: req.cells.len(),
        experiments: results.iter().map(|r| r.result.counts.total()).sum(),
        wall_ns: events.start.elapsed().as_nanos() as u64,
        cow_chunks_copied: 0,
        cow_restore_bytes_saved: 0,
    })?;

    // Assemble the final report exactly as `Sweep::run` would: results in
    // submission order, warnings deduplicated in submission order.
    let mut warnings: Vec<CampaignWarning> = Vec::new();
    for result in &results {
        for w in &result.result.warnings {
            if !warnings.contains(w) {
                warnings.push(*w);
            }
        }
    }
    let report = SweepReport {
        results: results.iter().map(|r| (**r).clone()).collect(),
        warnings,
    };
    send_line(stream, &protocol::report_line(&report))
}

/// Drain one single-cell engine job into its cache entry (and the global
/// watch stream).  Runs detached from the submitting connection.
fn collect_cell(
    inner: &Arc<Inner>,
    handle: mbfi_core::JobHandle,
    entry: &Arc<CellEntry>,
    key: CellKey,
    gcell: usize,
) {
    let mut finished = false;
    while let Some(event) = handle.next_event() {
        match event {
            JobEvent::Progress(kind) => {
                inner.watch.push(kind.clone().with_cell(gcell));
                entry.push_event(kind);
            }
            JobEvent::CellFinished { result, .. } => {
                let result = Arc::new(*result);
                let experiments = result.result.total();
                inner.watch.push(result.finished_event(gcell));
                let total = inner
                    .watch_finished
                    .fetch_add(experiments, Ordering::SeqCst)
                    + experiments;
                // Cumulative "sweep so far" summary: at quiescence the last
                // one reconciles with every batch a watcher accumulated, so
                // `mbfi-monitor --connect` verifies clean.
                inner.watch.push(EventKind::SweepFinished {
                    cells: inner.next_cell.load(Ordering::SeqCst) as usize,
                    experiments: total,
                    wall_ns: inner.watch.start.elapsed().as_nanos() as u64,
                    cow_chunks_copied: 0,
                    cow_restore_bytes_saved: 0,
                });
                entry.finish(result);
                finished = true;
            }
            JobEvent::Finished => break,
        }
    }
    if !finished {
        // The engine died without finalizing the cell (can only happen on a
        // non-graceful teardown); release followers and allow a retry.
        entry.fail();
        inner.cells.evict(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{submit, GridRequest};
    use crate::protocol::CellRequest;
    use mbfi_core::{FaultModel, Technique};
    use mbfi_workloads::InputSize;
    use std::collections::HashMap;

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
            ("MBFI_SERVE_QUOTA", "2"),
            ("MBFI_SERVE_PENDING", "5"),
            ("MBFI_SERVE_READ_TIMEOUT_MS", "250"),
        ]));
        assert_eq!(
            cfg,
            ServerConfig {
                port: 7070,
                threads: 3,
                quota: 2,
                max_pending: 5,
                read_timeout_ms: 250,
            }
        );
        // Malformed values keep the defaults (with a stderr warning each,
        // not capturable here); the well-formed knob beside them still reads.
        let cfg = ServerConfig::from_vars(vars(&[
            ("MBFI_SERVE_PORT", "70000"),
            ("MBFI_SERVE_THREADS", "four"),
            ("MBFI_SERVE_QUOTA", "-1"),
            ("MBFI_SERVE_PENDING", "9"),
            ("MBFI_SERVE_READ_TIMEOUT_MS", ""),
        ]));
        assert_eq!(
            cfg,
            ServerConfig {
                max_pending: 9,
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
            // A fresh seed per submission: every one owns its cell and so
            // starts a collector as well as a connection handler.
            let outcome = submit(
                server.addr(),
                &GridRequest {
                    threads: 0,
                    priority: 0,
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
                },
            )
            .expect("submission succeeds");
            assert_eq!(outcome.deduped, 0);
        }
        let live = server.inner.connections.lock().unwrap().len()
            + server.inner.collectors.lock().unwrap().len();
        assert!(live <= 4, "{live} thread handles kept after 40 submissions");
        server.stop();
        server.join();
    }
}
