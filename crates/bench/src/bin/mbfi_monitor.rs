//! `mbfi-monitor` — live terminal dashboard (and headless verifier) for the
//! telemetry JSONL stream a `MBFI_TELEMETRY=full` sweep writes.
//!
//! ```text
//! mbfi-monitor <events.jsonl>             # one dashboard frame from a file
//! mbfi-monitor --follow <events.jsonl>    # tail the file, redrawing in place
//! mbfi-monitor --headless <events.jsonl>  # plain report + consistency check
//! some-sweep | mbfi-monitor --headless -  # read the stream from stdin
//! mbfi-monitor --connect HOST:PORT        # live dashboard of an mbfi-serve
//! mbfi-monitor --headless --connect ...   # daemon; verify at stream close
//! ```
//!
//! `--headless` prints the accumulated report without ANSI control codes and
//! then cross-checks the stream (see `MonitorState::verify`): per-cell totals
//! accumulated from `batch_done` events must exactly equal the authoritative
//! `cell_finished` tallies, the grand total must equal `sweep_finished`, and
//! the sequence-number set must be gap-free.  Any violation is printed and
//! the process exits non-zero — this is the CI assertion that the monitor
//! agrees with the `SweepReport`.
//!
//! A closed stdout (`mbfi-monitor --headless events.jsonl | head`) is not an
//! error: output stops, and `--headless` still exits non-zero if its checks
//! fail.

use std::io::{BufRead, BufReader, ErrorKind, Read, Seek, SeekFrom, Write};
use std::time::Duration;

use mbfi_bench::monitor::{render_dashboard, render_headless};
use mbfi_core::MonitorState;

struct Options {
    path: String,
    headless: bool,
    follow: bool,
    connect: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: mbfi-monitor [--headless] [--follow] <events.jsonl | ->\n\
                mbfi-monitor [--headless] --connect HOST:PORT"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut headless = false;
    let mut follow = false;
    let mut connect: Option<String> = None;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--headless" => headless = true,
            "--follow" => follow = true,
            "--connect" => match args.next() {
                Some(addr) => connect = Some(addr),
                None => {
                    eprintln!("mbfi-monitor: --connect needs HOST:PORT");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => usage(),
            other if path.is_none() => path = Some(other.to_string()),
            _ => usage(),
        }
    }
    if let Some(connect) = connect {
        // Connected mode is inherently live; --follow is meaningless and a
        // file path would be ignored — reject both.
        if follow || path.is_some() {
            eprintln!("mbfi-monitor: --connect takes no file argument or --follow");
            std::process::exit(2);
        }
        return Options {
            path: String::new(),
            headless,
            follow: false,
            connect: Some(connect),
        };
    }
    let Some(path) = path else { usage() };
    if follow && headless {
        eprintln!("mbfi-monitor: --follow and --headless are mutually exclusive");
        std::process::exit(2);
    }
    if follow && path == "-" {
        eprintln!("mbfi-monitor: --follow needs a file path, not stdin");
        std::process::exit(2);
    }
    Options {
        path,
        headless,
        follow,
        connect: None,
    }
}

/// Apply every line of `reader`; decode errors are accumulated in the state
/// (and fail `verify()` later) rather than aborting the stream.
fn apply_all(state: &mut MonitorState, reader: impl BufRead) {
    for line in reader.lines() {
        match line {
            Ok(line) => {
                let _ = state.apply_line(&line);
            }
            Err(e) => {
                state.errors.push(format!("read error: {e}"));
                break;
            }
        }
    }
}

fn load(path: &str) -> MonitorState {
    let mut state = MonitorState::new();
    if path == "-" {
        apply_all(&mut state, std::io::stdin().lock());
    } else {
        match std::fs::File::open(path) {
            Ok(f) => apply_all(&mut state, BufReader::new(f)),
            Err(e) => {
                eprintln!("mbfi-monitor: cannot open {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    state
}

/// Write `text` to stdout and flush it.  Returns `false` once the reader
/// has gone away (a broken pipe); any other write error is fatal.
fn emit(text: &str) -> bool {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => true,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => false,
        Err(e) => {
            eprintln!("mbfi-monitor: cannot write to stdout: {e}");
            std::process::exit(2);
        }
    }
}

/// Tail `path`, redrawing the dashboard whenever new bytes land, until the
/// stream reports `sweep_finished`.
fn follow(path: &str) {
    let mut state = MonitorState::new();
    let mut offset: u64 = 0;
    let mut buffer = String::new();
    loop {
        if let Ok(mut f) = std::fs::File::open(path) {
            if f.seek(SeekFrom::Start(offset)).is_ok() {
                let mut chunk = String::new();
                if f.read_to_string(&mut chunk).is_ok() && !chunk.is_empty() {
                    offset += chunk.len() as u64;
                    buffer.push_str(&chunk);
                    // Only complete lines are applied; a partial tail stays
                    // buffered for the next poll.
                    while let Some(nl) = buffer.find('\n') {
                        let line: String = buffer.drain(..=nl).collect();
                        let _ = state.apply_line(&line);
                    }
                    if !emit(&render_dashboard(&state)) {
                        return;
                    }
                }
            }
        }
        if state.finished {
            return;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// Attach to an `mbfi-serve` daemon's global `watch` stream, feeding every
/// event through the same accumulator the file modes use.  In dashboard mode
/// the frame is redrawn (throttled) as events arrive; the stream ends when
/// the daemon drains and shuts down.  In headless mode events are only
/// accumulated, and the usual report + consistency verdict is printed at
/// stream close — the daemon-facing twin of `--headless <file>`.
///
/// The daemon's log is cumulative (a fresh `sweep_finished` summary follows
/// every completed cell), so jobs submitted while we watch simply extend the
/// totals; `MonitorState` folds repeated summaries by overwriting.
fn connect(addr: &str, headless: bool) -> MonitorState {
    let mut state = MonitorState::new();
    let mut last_draw = std::time::Instant::now() - Duration::from_secs(1);
    let result = mbfi_serve::watch(addr, &mut |line| {
        let _ = state.apply_line(line);
        if !headless && last_draw.elapsed() >= Duration::from_millis(200) {
            if !emit(&render_dashboard(&state)) {
                std::process::exit(0);
            }
            last_draw = std::time::Instant::now();
        }
    });
    match result {
        Ok(events) => eprintln!("mbfi-monitor: daemon stream closed after {events} events"),
        Err(e) => {
            eprintln!("mbfi-monitor: {e}");
            std::process::exit(2);
        }
    }
    state
}

fn main() {
    let opts = parse_args();
    if opts.follow {
        follow(&opts.path);
        return;
    }
    let state = match &opts.connect {
        Some(addr) => connect(addr, opts.headless),
        None => load(&opts.path),
    };
    if opts.headless {
        emit(&render_headless(&state));
        let problems = state.verify();
        if problems.is_empty() {
            emit(&format!("verify: ok ({} events)\n", state.events));
        } else {
            for p in &problems {
                eprintln!("verify: {p}");
            }
            std::process::exit(1);
        }
    } else {
        emit(&render_dashboard(&state));
    }
}
