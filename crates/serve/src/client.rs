//! Client side of the campaign service: connect, submit a grid, stream the
//! events, collect the report.  Used by `mbfi-serve submit`,
//! `mbfi-monitor --connect` and the served-path benchmark.

use crate::protocol::{self, Ack, CellRequest, Request, SubmitRequest};
use mbfi_core::{SweepReport, TelemetryEvent};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ServeError {
    /// Connection / transport failure.
    Io(std::io::Error),
    /// The daemon sent something the protocol does not allow.
    Protocol(String),
    /// The daemon rejected the request with an error frame.
    Remote(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "connection failed: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::Remote(msg) => write!(f, "daemon error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// A grid to submit: the body of the `submit` verb.
#[derive(Debug, Clone, PartialEq)]
pub struct GridRequest {
    /// Thread hint for batch sizing (0 = all parallelism).
    pub threads: usize,
    /// The cells.
    pub cells: Vec<CellRequest>,
}

/// Everything a completed submission returned.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Serve-level submission id.
    pub job: u64,
    /// Cells the daemon deduplicated onto another client's execution.
    pub deduped: u64,
    /// Telemetry events observed, in stream order.
    pub events: Vec<TelemetryEvent>,
    /// The final report, byte-identical to an in-process `Sweep::run` of
    /// the same grid.
    pub report: SweepReport,
}

fn connect(addr: impl ToSocketAddrs) -> Result<TcpStream, ServeError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    Ok(stream)
}

/// Submit a grid and wait for the report, discarding progress events.
pub fn submit(addr: impl ToSocketAddrs, req: &GridRequest) -> Result<ServeOutcome, ServeError> {
    submit_with(addr, req, &mut |_| {})
}

/// Submit a grid, invoking `on_event` for every telemetry event as it
/// arrives, and wait for the report.
pub fn submit_with(
    addr: impl ToSocketAddrs,
    req: &GridRequest,
    on_event: &mut dyn FnMut(&TelemetryEvent),
) -> Result<ServeOutcome, ServeError> {
    let mut stream = connect(addr)?;
    let line = Request::Submit(SubmitRequest {
        threads: req.threads,
        cells: req.cells.clone(),
        ..SubmitRequest::default()
    })
    .to_line();
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;

    let mut reader = BufReader::new(stream.try_clone()?);
    let mut first = String::new();
    if reader.read_line(&mut first)? == 0 {
        return Err(ServeError::Protocol(
            "connection closed before the ack".to_string(),
        ));
    }
    if let Some(msg) = protocol::parse_error(&first) {
        return Err(ServeError::Remote(msg));
    }
    let ack = Ack::parse(&first)
        .ok_or_else(|| ServeError::Protocol(format!("expected an ack, got {}", first.trim())))?;

    let mut events = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(ServeError::Protocol(
                "connection closed before the report".to_string(),
            ));
        }
        if let Some(msg) = protocol::parse_error(&line) {
            return Err(ServeError::Remote(msg));
        }
        if let Some(report) = protocol::parse_report(&line) {
            return Ok(ServeOutcome {
                job: ack.job,
                deduped: ack.deduped,
                events,
                report,
            });
        }
        match TelemetryEvent::parse_line(line.trim()) {
            Ok(event) => {
                on_event(&event);
                events.push(event);
            }
            Err(e) => return Err(ServeError::Protocol(e)),
        }
    }
}

/// Follow the daemon's global event stream, invoking `on_line` for every
/// raw JSONL line until the daemon closes the stream (shutdown) or the
/// connection drops.  Returns the number of lines observed.
pub fn watch(addr: impl ToSocketAddrs, on_line: &mut dyn FnMut(&str)) -> Result<u64, ServeError> {
    let mut stream = connect(addr)?;
    stream.write_all(Request::Watch.to_line().as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut seen = 0u64;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(seen);
        }
        if let Some(msg) = protocol::parse_error(&line) {
            return Err(ServeError::Remote(msg));
        }
        on_line(line.trim_end());
        seen += 1;
    }
}

/// Ask the daemon to drain in-flight jobs and exit.
pub fn shutdown(addr: impl ToSocketAddrs) -> Result<(), ServeError> {
    let mut stream = connect(addr)?;
    stream.write_all(Request::Shutdown.to_line().as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ServeError::Protocol(
            "connection closed before the shutdown ack".to_string(),
        ));
    }
    if let Some(msg) = protocol::parse_error(&line) {
        return Err(ServeError::Remote(msg));
    }
    Ok(())
}
