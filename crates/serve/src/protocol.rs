//! The JSON-lines wire protocol of `mbfi-serve`.
//!
//! Every frame is one JSON object on one `\n`-terminated line, built and
//! parsed with the dependency-free [`mbfi_core::report::json`] pair (no
//! serde — the build works fully offline, and [`Json::parse`] is hardened
//! for untrusted input: byte-offset errors, recursion-depth limit,
//! input-size guard).
//!
//! ## Requests (client → server, exactly one per connection)
//!
//! ```json
//! {"cmd":"submit","threads":4,"cells":[{...}, ...]}
//! {"cmd":"watch"}
//! {"cmd":"shutdown"}
//! ```
//!
//! A cell spec names a workload and a campaign:
//!
//! ```json
//! {"workload":"qsort","size":"small","technique":"read",
//!  "model":{"max_mbf":3,"win_size":{"fixed":0}},
//!  "experiments":1000,"seed":12345,"hang_factor":10,"precision":null}
//! ```
//!
//! ## Responses (server → client)
//!
//! A submit connection receives an ack, then the cell's telemetry-schema
//! event stream (`sweep_started`/`cell_planned`/`batch_done`/`round_done`/
//! `cell_finished`/`sweep_finished`, exactly the JSONL schema of
//! [`mbfi_core::telemetry`]), then one final report frame:
//!
//! ```json
//! {"ok":true,"job":7,"cells":15,"deduped":4}
//! {"seq":0,"t_ns":...,"kind":"sweep_started",...}
//! ...
//! {"report":{...}}
//! ```
//!
//! Any failure is one error frame, after which the connection closes (and
//! the daemon keeps serving everyone else):
//!
//! ```json
//! {"ok":false,"error":"unknown workload \"qsrot\""}
//! ```

use mbfi_core::report::json::Json;
use mbfi_core::{CampaignSpec, FaultModel, Precision, SweepReport, Technique};
use mbfi_workloads::InputSize;

/// Upper bound on the byte length of one request line.  Far above any real
/// grid spec; a client pushing more than this gets an error frame instead
/// of an unbounded buffer.
pub const MAX_LINE_BYTES: usize = 1024 * 1024;

/// Upper bound on the experiments one cell may plan
/// ([`CellRequest::planned_budget`]) and on its `experiments` field, which
/// an adaptive cell ignores.  The connection thread
/// plans each cell with one batch slot per batch, and a large `threads`
/// hint cuts one-experiment batches, so an unbounded budget from the wire
/// could ask the allocator for terabytes and abort the daemon.  One million
/// is 100x the paper's 10,000 experiments per campaign and [`Precision`]'s
/// default cap.
pub const MAX_CELL_EXPERIMENTS: usize = 1_000_000;

/// One requested sweep cell: a workload plus a campaign on it.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRequest {
    /// Workload name, matched case-insensitively against the registry.
    pub workload: String,
    /// Input scale (`"tiny"` or `"small"`).
    pub size: InputSize,
    /// Injection technique.
    pub technique: Technique,
    /// Fault model.
    pub model: FaultModel,
    /// Fixed-n experiment budget (ignored when `precision` is set, exactly
    /// as in [`mbfi_core::SweepConfig`]).
    pub experiments: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Hang threshold multiple.
    pub hang_factor: u64,
    /// Optional adaptive precision target for this cell.
    pub precision: Option<Precision>,
}

impl CellRequest {
    /// The campaign spec this cell executes as.  `threads` is pinned to 0:
    /// it has no effect on results (the engine pool runs the job), and
    /// normalising it lets two clients that only differ in `threads` share
    /// one execution in the cell cache.
    pub fn spec(&self) -> CampaignSpec {
        CampaignSpec {
            technique: self.technique,
            model: self.model,
            experiments: self.experiments,
            seed: self.seed,
            hang_factor: self.hang_factor,
            threads: 0,
        }
    }

    /// The experiments this cell plans, as the sweep plans it: its fixed
    /// `experiments`, or with `precision` the adaptive cap as normalised
    /// (never below `min_experiments`).  The daemon announces it in
    /// `sweep_started` and `cell_planned` and decides the unit's checkpoint
    /// store on it.
    pub fn planned_budget(&self) -> u64 {
        let budget = self
            .precision
            .map_or(self.experiments, |p| p.normalized().max_experiments);
        budget as u64
    }

    /// Wire encoding.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("workload", self.workload.as_str());
        obj.set("size", self.size.to_string());
        obj.set("technique", self.technique.short_name());
        obj.set("model", self.model.to_json());
        obj.set("experiments", self.experiments);
        obj.set("seed", self.seed);
        obj.set("hang_factor", self.hang_factor);
        obj.set(
            "precision",
            match &self.precision {
                Some(p) => p.to_json(),
                None => Json::Null,
            },
        );
        obj
    }

    /// Parse the wire encoding back.
    pub fn from_json(v: &Json) -> Option<CellRequest> {
        Some(CellRequest {
            workload: v.get("workload")?.as_str()?.to_string(),
            size: parse_size(v.get("size")?.as_str()?)?,
            technique: Technique::from_short_name(v.get("technique")?.as_str()?)?,
            model: FaultModel::from_json(v.get("model")?)?,
            experiments: usize::try_from(v.get("experiments")?.as_u64()?).ok()?,
            seed: v.get("seed")?.as_u64()?,
            hang_factor: v.get("hang_factor")?.as_u64()?,
            precision: match v.get("precision")? {
                Json::Null => None,
                p => Some(Precision::from_json(p)?),
            },
        })
    }
}

/// Parse an [`InputSize`] label (`"tiny"` / `"small"`).
pub fn parse_size(label: &str) -> Option<InputSize> {
    InputSize::ALL
        .into_iter()
        .find(|s| s.to_string() == label.trim().to_ascii_lowercase())
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a grid; the connection then streams that job.
    Submit(SubmitRequest),
    /// Follow the daemon's global event stream from the beginning.
    Watch,
    /// Ask the daemon to drain and exit.
    Shutdown,
}

/// The body of a `submit` request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SubmitRequest {
    /// Thread hint: feeds the job's batch sizing exactly like
    /// [`mbfi_core::SweepConfig::threads`] (0 = all parallelism).  Does not
    /// size any pool — the engine's own workers run the job.
    pub threads: usize,
    /// Accepted on the wire (0..=255) and ignored: the engine runs jobs in
    /// admission order.  The field stays only because the benchmark builds
    /// this struct literally; it goes with the next benchmark change.
    pub priority: u8,
    /// The cells to run, in submission order.
    pub cells: Vec<CellRequest>,
}

impl SubmitRequest {
    /// Wire encoding.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("cmd", "submit");
        obj.set("threads", self.threads);
        obj.set("priority", u64::from(self.priority));
        obj.set(
            "cells",
            Json::Arr(self.cells.iter().map(|c| c.to_json()).collect()),
        );
        obj
    }
}

impl Request {
    /// Render the request as one wire line (without the trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Submit(req) => req.to_json().render(),
            Request::Watch => "{\"cmd\":\"watch\"}".to_string(),
            Request::Shutdown => "{\"cmd\":\"shutdown\"}".to_string(),
        }
    }

    /// Parse one request line.  `Err` carries the message for the error
    /// frame — the daemon rejects the request and keeps running.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        match v.get("cmd").and_then(Json::as_str) {
            Some("submit") => {
                let threads = v
                    .get("threads")
                    .map(|t| t.as_u64().ok_or("malformed \"threads\""))
                    .transpose()?
                    .unwrap_or(0) as usize;
                let priority = v
                    .get("priority")
                    .map(|p| {
                        p.as_u64()
                            .and_then(|p| u8::try_from(p).ok())
                            .ok_or("malformed \"priority\" (0..=255)")
                    })
                    .transpose()?
                    .unwrap_or(0);
                let cells = v
                    .get("cells")
                    .and_then(Json::as_array)
                    .ok_or("submit requires a \"cells\" array")?;
                if cells.is_empty() {
                    return Err("submit requires at least one cell".to_string());
                }
                let cells = cells
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let cell = CellRequest::from_json(c)
                            .ok_or_else(|| format!("malformed cell {i}"))?;
                        let budget = cell.planned_budget().max(cell.experiments as u64);
                        if budget > MAX_CELL_EXPERIMENTS as u64 {
                            return Err(format!(
                                "cell {i} plans {budget} experiments; a cell may plan at most \
                                 {MAX_CELL_EXPERIMENTS}"
                            ));
                        }
                        Ok(cell)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Submit(SubmitRequest {
                    threads,
                    priority,
                    cells,
                }))
            }
            Some("watch") => Ok(Request::Watch),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!("unknown cmd {other:?}")),
            None => Err("request needs a string \"cmd\" field".to_string()),
        }
    }
}

/// The ack frame a successful submit receives before its event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Serve-level submission id.
    pub job: u64,
    /// Number of cells in the job.
    pub cells: u64,
    /// How many of them were already executing (or done) for another
    /// client and were deduplicated onto that execution.
    pub deduped: u64,
}

impl Ack {
    /// Render the ack frame.
    pub fn to_line(&self) -> String {
        let mut obj = Json::object();
        obj.set("ok", true);
        obj.set("job", self.job);
        obj.set("cells", self.cells);
        obj.set("deduped", self.deduped);
        obj.render()
    }

    /// Parse an ack frame (`None` if the line is not a successful ack).
    pub fn parse(line: &str) -> Option<Ack> {
        let v = Json::parse(line.trim()).ok()?;
        if v.get("ok")?.as_bool()? {
            Some(Ack {
                job: v.get("job")?.as_u64()?,
                cells: v.get("cells")?.as_u64()?,
                deduped: v.get("deduped")?.as_u64()?,
            })
        } else {
            None
        }
    }
}

/// Render an error frame.
pub fn error_line(message: &str) -> String {
    let mut obj = Json::object();
    obj.set("ok", false);
    obj.set("error", message);
    obj.render()
}

/// Extract the error message if `line` is an error frame.
pub fn parse_error(line: &str) -> Option<String> {
    let v = Json::parse(line.trim()).ok()?;
    if v.get("ok")?.as_bool()? {
        return None;
    }
    Some(v.get("error")?.as_str()?.to_string())
}

/// Render the final report frame of a submit stream.
pub fn report_line(report: &SweepReport) -> String {
    let mut obj = Json::object();
    obj.set("report", report.to_json());
    obj.render()
}

/// Extract the report if `line` is a report frame.
pub fn parse_report(line: &str) -> Option<SweepReport> {
    SweepReport::from_json(Json::parse(line.trim()).ok()?.get("report")?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbfi_core::{IntervalMethod, WinSize};

    fn sample_cells() -> Vec<CellRequest> {
        vec![
            CellRequest {
                workload: "qsort".to_string(),
                size: InputSize::Tiny,
                technique: Technique::InjectOnRead,
                model: FaultModel::single_bit(),
                experiments: 100,
                seed: 0xB17,
                hang_factor: 20,
                precision: None,
            },
            CellRequest {
                workload: "sha".to_string(),
                size: InputSize::Small,
                technique: Technique::InjectOnWrite,
                model: FaultModel::multi_bit(4, WinSize::Random { lo: 2, hi: 10 }),
                experiments: 50,
                seed: 1,
                hang_factor: 8,
                precision: Some(Precision {
                    target_half_width_pct: 5.0,
                    min_experiments: 20,
                    max_experiments: 200,
                    interval: IntervalMethod::Wilson,
                }),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        let req = Request::Submit(SubmitRequest {
            threads: 4,
            priority: 7,
            cells: sample_cells(),
        });
        assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
        assert_eq!(
            Request::parse(&Request::Watch.to_line()).unwrap(),
            Request::Watch
        );
        assert_eq!(
            Request::parse(&Request::Shutdown.to_line()).unwrap(),
            Request::Shutdown
        );
        // Omitted threads/priority default to 0.
        let bare = Request::parse("{\"cmd\":\"submit\",\"cells\":[]}");
        assert!(bare.is_err(), "empty grid is rejected");
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"cmd\":42}",
            "{\"cmd\":\"nope\"}",
            "{\"cmd\":\"submit\"}",
            "{\"cmd\":\"submit\",\"cells\":[{}]}",
            "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"qsort\",\"size\":\"huge\"}]}",
            "{\"cmd\":\"submit\",\"priority\":999,\"cells\":[]}",
        ] {
            assert!(Request::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn oversized_cell_budgets_are_rejected_by_name() {
        let parse = |experiments, precision| {
            let cell = CellRequest {
                experiments,
                precision,
                ..sample_cells()[0].clone()
            };
            let cells = vec![sample_cells()[0].clone(), cell];
            Request::parse(
                &Request::Submit(SubmitRequest {
                    cells,
                    ..SubmitRequest::default()
                })
                .to_line(),
            )
        };
        let cap = |min_experiments, max_experiments| {
            Some(Precision {
                min_experiments,
                max_experiments,
                ..Precision::default()
            })
        };
        let over = MAX_CELL_EXPERIMENTS + 1;
        assert!(parse(MAX_CELL_EXPERIMENTS, None).is_ok());
        for parsed in [
            parse(over, None),
            parse(1, cap(1, over)),
            parse(1, cap(over, 10)),
        ] {
            let err = parsed.unwrap_err();
            assert!(err.starts_with("cell 1 plans"), "{err}");
        }
    }

    #[test]
    fn frames_round_trip() {
        let ack = Ack {
            job: 3,
            cells: 15,
            deduped: 4,
        };
        assert_eq!(Ack::parse(&ack.to_line()), Some(ack));
        assert_eq!(Ack::parse(&error_line("boom")), None);
        assert_eq!(parse_error(&error_line("boom")), Some("boom".to_string()));
        assert_eq!(parse_error(&ack.to_line()), None);

        let report = SweepReport {
            results: vec![],
            warnings: vec![],
        };
        assert_eq!(parse_report(&report_line(&report)), Some(report));
    }

    #[test]
    fn cell_spec_normalises_threads() {
        let cell = &sample_cells()[0];
        assert_eq!(cell.spec().threads, 0);
        assert_eq!(cell.spec().experiments, 100);
    }

    #[test]
    fn size_labels_parse() {
        assert_eq!(parse_size("tiny"), Some(InputSize::Tiny));
        assert_eq!(parse_size(" Small "), Some(InputSize::Small));
        assert_eq!(parse_size("huge"), None);
    }
}
