//! `mbfi-serve` — the campaign-service CLI.
//!
//! ```text
//! mbfi-serve daemon [--addr-file PATH]          start the daemon (default)
//! mbfi-serve submit --connect HOST:PORT [...]   submit a grid, print stats
//! mbfi-serve watch --connect HOST:PORT          stream the global event log
//! mbfi-serve shutdown --connect HOST:PORT       drain and stop the daemon
//! ```
//!
//! The daemon reads the `MBFI_SERVE_PORT` / `MBFI_SERVE_THREADS` /
//! `MBFI_SERVE_READ_TIMEOUT_MS` knobs.
//! `submit --compare` re-runs the same grid in-process through `Sweep::run`
//! and exits non-zero unless the served report is byte-identical — the CI
//! smoke test of the service path.

use mbfi_core::campaign::DEFAULT_HANG_FACTOR;
use mbfi_core::{FaultModel, Sweep, SweepCampaign, SweepConfig, Technique};
use mbfi_serve::cache::ArtifactCache;
use mbfi_serve::{CellRequest, ServerConfig, SubmitRequest};
use mbfi_workloads::InputSize;
use std::process::ExitCode;

const USAGE: &str = "usage: mbfi-serve [daemon|submit|watch|shutdown] [options]
  daemon    [--addr-file PATH]
  submit    --connect HOST:PORT [--workloads a,b,c] [--size tiny|small]
            [--technique read|write|both] [--experiments N] [--seed N]
            [--threads N] [--compare] [--quiet]
  watch     --connect HOST:PORT
  shutdown  --connect HOST:PORT";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        None => ("daemon", &args[..]),
        Some(c @ ("daemon" | "submit" | "watch" | "shutdown")) => (c, &args[1..]),
        Some(flag) if flag.starts_with("--") => ("daemon", &args[..]),
        Some(other) => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "daemon" => run_daemon(rest),
        "submit" => run_submit(rest),
        "watch" => run_watch(rest),
        "shutdown" => run_shutdown(rest),
        _ => unreachable!(),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("mbfi-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Pull the value of `--flag VALUE` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Pull the boolean `--flag` out of `args`.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn parse_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    default: T,
) -> Result<T, String> {
    match take_flag(args, flag)? {
        Some(v) => v
            .trim()
            .parse()
            .map_err(|_| format!("malformed {flag} value {v:?}")),
        None => Ok(default),
    }
}

fn reject_leftovers(args: &[String]) -> Result<(), String> {
    if let Some(stray) = args.first() {
        return Err(format!("unexpected argument {stray:?}\n{USAGE}"));
    }
    Ok(())
}

fn run_daemon(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let addr_file = take_flag(&mut args, "--addr-file")?;
    reject_leftovers(&args)?;
    let handle = mbfi_serve::spawn(ServerConfig::from_env()).map_err(|e| e.to_string())?;
    let addr = handle.addr();
    if let Some(path) = addr_file {
        std::fs::write(&path, format!("{addr}\n"))
            .map_err(|e| format!("writing {path:?} failed: {e}"))?;
    }
    println!("mbfi-serve listening on {addr}");
    handle.join();
    println!("mbfi-serve drained and stopped");
    Ok(ExitCode::SUCCESS)
}

fn parse_grid(args: &mut Vec<String>) -> Result<SubmitRequest, String> {
    let workloads = take_flag(args, "--workloads")?.unwrap_or_else(|| "qsort".to_string());
    let size = match take_flag(args, "--size")?.as_deref().unwrap_or("tiny") {
        "tiny" => InputSize::Tiny,
        "small" => InputSize::Small,
        other => return Err(format!("unknown --size {other:?} (tiny|small)")),
    };
    let techniques: Vec<Technique> =
        match take_flag(args, "--technique")?.as_deref().unwrap_or("read") {
            "read" => vec![Technique::InjectOnRead],
            "write" => vec![Technique::InjectOnWrite],
            "both" => Technique::ALL.to_vec(),
            other => return Err(format!("unknown --technique {other:?} (read|write|both)")),
        };
    let experiments = parse_flag(args, "--experiments", 100usize)?;
    let seed = parse_flag(args, "--seed", 0xB17F_11B5u64)?;
    let threads = parse_flag(args, "--threads", 0usize)?;
    let mut cells = Vec::new();
    for name in workloads
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
    {
        for &technique in &techniques {
            cells.push(CellRequest {
                workload: name.to_string(),
                size,
                technique,
                model: FaultModel::single_bit(),
                experiments,
                seed,
                hang_factor: DEFAULT_HANG_FACTOR,
                precision: None,
            });
        }
    }
    if cells.is_empty() {
        return Err("empty --workloads list".to_string());
    }
    Ok(SubmitRequest {
        threads,
        cells,
        ..SubmitRequest::default()
    })
}

fn run_submit(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let addr = take_flag(&mut args, "--connect")?.ok_or("submit needs --connect HOST:PORT")?;
    let compare = take_switch(&mut args, "--compare");
    let quiet = take_switch(&mut args, "--quiet");
    let grid = parse_grid(&mut args)?;
    reject_leftovers(&args)?;

    let outcome = mbfi_serve::submit(addr.as_str(), &grid).map_err(|e| e.to_string())?;
    if !quiet {
        for result in &outcome.report.results {
            let r = &result.result;
            println!(
                "{} {} n={} sdc={} detected={}",
                r.spec.technique.short_name(),
                r.spec.model,
                r.counts.total(),
                r.counts.sdc,
                r.counts.hw_exception + r.counts.hang
            );
        }
    }
    println!(
        "job {}: {} cells, {} deduped, {} events, {} experiments",
        outcome.job,
        grid.cells.len(),
        outcome.deduped,
        outcome.events.len(),
        outcome
            .report
            .results
            .iter()
            .map(|r| r.result.counts.total())
            .sum::<u64>()
    );

    if compare {
        let local = run_in_process(&grid)?;
        let served = outcome.report.to_json().render();
        let expected = local.to_json().render();
        if served == expected {
            println!("compare: served report is byte-identical to in-process Sweep::run");
        } else {
            eprintln!("compare: MISMATCH between served and in-process reports");
            eprintln!("  served:   {} bytes", served.len());
            eprintln!("  expected: {} bytes", expected.len());
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Run the same grid in-process, with the daemon's per-cell normalised
/// specs (`threads = 0`) and units from its artifact cache.  A planned
/// budget of 0 captures no checkpoint store, so the reference re-executes
/// every experiment from instruction zero.
fn run_in_process(grid: &SubmitRequest) -> Result<mbfi_core::SweepReport, String> {
    let cache = ArtifactCache::default();
    let mut units = Vec::new();
    let mut campaigns = Vec::new();
    for (unit, cell) in grid.cells.iter().enumerate() {
        units.push(cache.get_or_build(&cell.workload, cell.size, 0)?);
        campaigns.push(SweepCampaign {
            unit,
            spec: cell.spec(),
        });
    }
    // The daemon runs each cell as its own single-cell job and assembles
    // the report from per-cell results.  The executor is deterministic, so
    // one sweep of the whole grid yields byte-identical per-cell results —
    // which is exactly what --compare is checking.
    let views: Vec<mbfi_core::SweepUnit<'_>> = units.iter().map(|u| u.view()).collect();
    let config = SweepConfig {
        threads: grid.threads,
        ..SweepConfig::default()
    };
    Ok(Sweep::run(&views, &campaigns, &config))
}

fn run_watch(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let addr = take_flag(&mut args, "--connect")?.ok_or("watch needs --connect HOST:PORT")?;
    reject_leftovers(&args)?;
    let seen = mbfi_serve::watch(addr.as_str(), &mut |line| println!("{line}"))
        .map_err(|e| e.to_string())?;
    eprintln!("watch: stream closed after {seen} events");
    Ok(ExitCode::SUCCESS)
}

fn run_shutdown(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let addr = take_flag(&mut args, "--connect")?.ok_or("shutdown needs --connect HOST:PORT")?;
    reject_leftovers(&args)?;
    mbfi_serve::shutdown(addr.as_str()).map_err(|e| e.to_string())?;
    println!("shutdown requested");
    Ok(ExitCode::SUCCESS)
}
