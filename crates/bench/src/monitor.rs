//! Rendering for `mbfi-monitor`: turn a [`MonitorState`] accumulated from a
//! telemetry JSONL stream into either a live ANSI dashboard (per-cell
//! progress bars, outcome mix, throughput) or a plain headless report for CI
//! logs.  All layout logic is pure string building so it is testable without
//! a terminal.

use std::fmt::Write as _;

use mbfi_core::{MonitorState, Outcome};

/// Width of the per-cell progress bar, in character cells.
const BAR_WIDTH: usize = 24;

/// One-letter legend per outcome, in [`Outcome::ALL`] order: Benign,
/// Detected-by-hw-exception, Hang, No-output, SDC.
const OUTCOME_KEYS: [char; 5] = ['B', 'D', 'H', 'N', 'S'];

fn outcome_tallies(counts: &mbfi_core::OutcomeCounts) -> [u64; 5] {
    [
        counts.benign,
        counts.hw_exception,
        counts.hang,
        counts.no_output,
        counts.sdc,
    ]
}

/// `done/planned` as a `[####....]` bar.  Adaptive cells can finish under
/// budget (or the stream may still be in flight), so the fill saturates.
fn bar(done: u64, planned: u64) -> String {
    let filled = if planned == 0 {
        BAR_WIDTH
    } else {
        ((done as u128 * BAR_WIDTH as u128) / planned as u128).min(BAR_WIDTH as u128) as usize
    };
    let mut s = String::with_capacity(BAR_WIDTH + 2);
    s.push('[');
    for i in 0..BAR_WIDTH {
        s.push(if i < filled { '#' } else { '.' });
    }
    s.push(']');
    s
}

/// Outcome mix of one cell as `B:12 D:3 S:1` (zero tallies omitted).
fn mix(counts: &mbfi_core::OutcomeCounts) -> String {
    let mut s = String::new();
    for (key, n) in OUTCOME_KEYS.iter().zip(outcome_tallies(counts)) {
        if n > 0 {
            if !s.is_empty() {
                s.push(' ');
            }
            let _ = write!(s, "{key}:{n}");
        }
    }
    if s.is_empty() {
        s.push('-');
    }
    s
}

fn header_line(state: &MonitorState) -> String {
    let (total, counts) = state.totals();
    format!(
        "{} | {} cells, {} threads | {} experiments | {:.0} exp/s | SDC {:.2}%{}{}{}",
        if state.finished { "done" } else { "running" },
        state.cells.len(),
        state.threads,
        total,
        state.exps_per_sec(),
        counts.fraction(Outcome::Sdc) * 100.0,
        if state.cow_chunks_copied == 0 && state.cow_restore_bytes_saved == 0 {
            String::new()
        } else {
            format!(
                " | cow {} chunks, {:.1} MiB saved",
                state.cow_chunks_copied,
                state.cow_restore_bytes_saved as f64 / (1024.0 * 1024.0),
            )
        },
        if state.errors.is_empty() {
            String::new()
        } else {
            format!(" | {} decode errors", state.errors.len())
        },
        if state.out_of_order == 0 {
            String::new()
        } else {
            format!(" | {} out of order", state.out_of_order)
        },
    )
}

fn cell_lines(state: &MonitorState) -> Vec<String> {
    let label_width = state
        .cells
        .iter()
        .map(|c| c.label.chars().count())
        .max()
        .unwrap_or(0)
        .max(4);
    state
        .cells
        .iter()
        .map(|c| {
            let mut line = format!(
                "{:<label_width$} {} {:>6}/{:<6}",
                if c.label.is_empty() { "?" } else { &c.label },
                bar(c.done, c.planned),
                c.done,
                c.planned,
            );
            if let (Some(sdc), Some(det)) = (c.sdc_half_width_pct, c.detection_half_width_pct) {
                let _ = write!(line, " r{} ±{sdc:.2}/±{det:.2}", c.rounds);
            }
            let _ = write!(line, "  {}", mix(&c.counts));
            if c.finished {
                line.push_str("  ✓");
            }
            line
        })
        .collect()
}

/// The live dashboard: cursor-home + clear-to-end ANSI prefix, a header line
/// and one bar per cell.  Re-printing the returned string over the previous
/// frame redraws in place.
pub fn render_dashboard(state: &MonitorState) -> String {
    let mut out = String::from("\x1b[H\x1b[J");
    out.push_str(&header_line(state));
    out.push('\n');
    for line in cell_lines(state) {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The `--headless` one-shot report: no ANSI, header plus cells plus the
/// outcome legend, suitable for CI logs.
pub fn render_headless(state: &MonitorState) -> String {
    let mut out = header_line(state);
    out.push('\n');
    for line in cell_lines(state) {
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("legend: B benign, D detected-hw-exception, H hang, N no-output, S sdc\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbfi_core::OutcomeCounts;

    fn state_from(lines: &str) -> MonitorState {
        let mut state = MonitorState::new();
        for line in lines.lines() {
            state.apply_line(line).expect("fixture line must parse");
        }
        state
    }

    const STREAM: &str = r#"{"seq": 0, "t_ns": 10, "kind": "sweep_started", "cells": 2, "threads": 3, "planned": 30}
{"seq": 1, "t_ns": 20, "kind": "cell_planned", "cell": 0, "unit": 0, "label": "u0 read 1-bit", "planned": 10}
{"seq": 2, "t_ns": 30, "kind": "cell_planned", "cell": 1, "unit": 1, "label": "u1 write m=3,w=100", "planned": 20}
{"seq": 3, "t_ns": 500, "kind": "batch_done", "cell": 0, "batch": 0, "experiments": 10, "benign": 6, "hw_exception": 2, "hang": 0, "no_output": 0, "sdc": 2, "wall_ns": 400, "worker": 0}
{"seq": 4, "t_ns": 600, "kind": "cell_finished", "cell": 0, "experiments": 10, "benign": 6, "hw_exception": 2, "hang": 0, "no_output": 0, "sdc": 2, "rounds": 0}
{"seq": 5, "t_ns": 700, "kind": "batch_done", "cell": 1, "batch": 0, "experiments": 5, "benign": 5, "hw_exception": 0, "hang": 0, "no_output": 0, "sdc": 0, "wall_ns": 300, "worker": 1}
"#;

    #[test]
    fn bars_fill_proportionally_and_saturate() {
        assert_eq!(bar(0, 10), format!("[{}]", ".".repeat(BAR_WIDTH)));
        assert_eq!(bar(10, 10), format!("[{}]", "#".repeat(BAR_WIDTH)));
        assert_eq!(bar(25, 10), format!("[{}]", "#".repeat(BAR_WIDTH)));
        assert_eq!(bar(0, 0), format!("[{}]", "#".repeat(BAR_WIDTH)));
        let half = bar(5, 10);
        assert_eq!(half.matches('#').count(), BAR_WIDTH / 2);
    }

    #[test]
    fn outcome_mix_lists_nonzero_tallies_in_order() {
        let counts = OutcomeCounts {
            benign: 6,
            hw_exception: 2,
            sdc: 1,
            ..OutcomeCounts::default()
        };
        assert_eq!(mix(&counts), "B:6 D:2 S:1");
        assert_eq!(mix(&OutcomeCounts::default()), "-");
    }

    #[test]
    fn headless_report_shows_progress_and_outcomes() {
        let state = state_from(STREAM);
        let report = render_headless(&state);
        assert!(report.starts_with("running | 2 cells, 3 threads | 15 experiments"));
        assert!(report.contains("u0 read 1-bit"));
        assert!(report.contains("u1 write m=3,w=100"));
        assert!(report.contains("10/10"), "finished cell at full budget");
        assert!(report.contains("5/20"), "in-flight cell partial");
        assert!(report.contains("B:6 D:2 S:2"));
        assert!(report.contains('✓'), "finished cell is ticked");
        assert!(report.contains("legend:"));
        assert!(!report.contains('\x1b'), "headless output has no ANSI");
    }

    #[test]
    fn cow_totals_surface_in_header_once_the_sweep_finishes() {
        // No CoW activity recorded yet: the header stays compact.
        assert!(!header_line(&state_from(STREAM)).contains("cow"));
        let finished = format!(
            "{STREAM}{}\n",
            r#"{"seq": 6, "t_ns": 900, "kind": "sweep_finished", "cells": 2, "experiments": 15, "wall_ns": 890, "cow_chunks": 12, "cow_saved": 2097152}"#
        );
        let state = state_from(&finished);
        let report = render_headless(&state);
        assert!(report.contains("cow 12 chunks, 2.0 MiB saved"), "{report}");
    }

    #[test]
    fn out_of_order_events_surface_in_header() {
        assert!(!header_line(&state_from(STREAM)).contains("out of order"));
        // Event 3 arrives after event 4.
        let mut lines: Vec<&str> = STREAM.lines().collect();
        lines.swap(3, 4);
        let header = header_line(&state_from(&lines.join("\n")));
        assert!(header.ends_with(" | 1 out of order"), "{header}");
    }

    #[test]
    fn dashboard_prefixes_ansi_redraw_and_matches_headless_body() {
        let state = state_from(STREAM);
        let dash = render_dashboard(&state);
        assert!(dash.starts_with("\x1b[H\x1b[J"));
        assert!(dash.contains("u0 read 1-bit"));
        // Same body as the headless report, minus the legend footer.
        let body = dash.trim_start_matches("\x1b[H\x1b[J");
        assert!(render_headless(&state).starts_with(body));
    }
}
