//! Shared machinery for the per-table / per-figure binaries, in three
//! layers:
//!
//! 1. **[`prepare`]** — per-workload artifacts ([`WorkloadData`]: built IR
//!    module, lowered bytecode, golden run, checkpoint store), built once
//!    for each workload the configuration selects and shared by every
//!    campaign that touches it.
//! 2. **[`CampaignGrid`]** — a request/run/extract pipeline: binaries
//!    *request* the campaign cells their figures need (duplicates collapse
//!    onto one cell), `run` submits every cell as **one**
//!    [`mbfi_core::Sweep`] on one global worker pool, and the
//!    extractors below pull each figure's slice out of the [`GridRun`].
//! 3. **Renderers** (`fig1`, `fig2`, ..., `table4`) — they turn extracted
//!    results into the paper's tables and figures.
//!
//! The sweep is deterministic (see `mbfi_core::sweep`), so every artifact is
//! byte-identical to running each cell through `Campaign::run` on its own.

use std::collections::HashMap;

use mbfi_core::cluster::{MAX_MBF_VALUES, WIN_SIZE_VALUES};
use mbfi_core::pruning::{
    ActivationAnalysis, LocationAnalysis, LocationRequest, PessimisticAnalysis,
};
use mbfi_core::replay::{CheckpointConfig, CheckpointStore};
use mbfi_core::report::{FigureData, Series, TextTable};
use mbfi_core::space::{ErrorSpace, REGISTER_BITS};
use mbfi_core::{
    CampaignResult, CampaignSpec, CampaignWarning, FaultModel, GoldenRun, IntervalMethod, Metric,
    Outcome, Precision, Sweep, SweepCampaign, SweepCell, SweepConfig, SweepUnit, Technique,
    TelemetryHub, TelemetryLevel, TelemetrySnapshot, WinSize,
};
use mbfi_ir::{CompiledModule, Module};
use mbfi_workloads::{all_workloads, InputSize, Workload};

/// Runtime configuration of the harness, read from environment variables so
/// that every binary shares the same knobs.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Experiments per campaign (the paper uses 10,000; default here is 60 so
    /// the full suite completes in minutes on a laptop).
    pub experiments: usize,
    /// Base seed for all campaigns.
    pub seed: u64,
    /// Input size for every workload.
    pub size: InputSize,
    /// Optional comma-separated workload filter.
    pub workload_filter: Option<Vec<String>>,
    /// Hang threshold as a multiple of the golden run length.
    pub hang_factor: u64,
    /// Worker threads for the sweep pool (0 = all cores).
    pub threads: usize,
    /// Use the full 10 × 9 parameter grid instead of the coarse sub-grid.
    pub full_grid: bool,
    /// Run campaigns through the checkpointed golden-run replay engine.
    /// On by default since the sweep refactor: one store per workload is
    /// shared read-only by every campaign of the grid, so the capture cost
    /// amortizes across the whole sweep (results are byte-identical either
    /// way, by the replay contract).
    pub replay: bool,
    /// Checkpoint interval in dynamic instructions; `None` picks a
    /// per-workload interval (1/128th of the golden run length).
    pub replay_interval: Option<u64>,
    /// Memory budget for each workload's checkpoint store, in bytes.
    pub replay_budget_bytes: usize,
    /// Experiments per sweep batch (0 = auto).
    pub sweep_batch: usize,
    /// Adaptive precision-targeted sampling: `Some` stops every sweep cell
    /// once its SDC and Detection 95 % interval half-widths meet the target
    /// (cell budget = `precision.max_experiments`; `experiments` is
    /// ignored).  `None` — the default, so figure regeneration stays
    /// byte-reproducible at a known fixed n — runs every cell at
    /// `experiments`.
    pub precision: Option<Precision>,
    /// Telemetry recording level for grid sweeps (`Off` by default; results
    /// are byte-identical at every level — telemetry only observes).
    pub telemetry: TelemetryLevel,
    /// Where [`TelemetryLevel::Full`] grid runs write their JSONL event
    /// stream (tail it with `mbfi-monitor`, or verify it with
    /// `mbfi-monitor --headless`).
    pub telemetry_out: String,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            experiments: 60,
            seed: 0x0B17,
            size: InputSize::Tiny,
            workload_filter: None,
            hang_factor: 20,
            threads: 0,
            full_grid: false,
            replay: true,
            replay_interval: None,
            replay_budget_bytes: CheckpointConfig::default().max_bytes,
            sweep_batch: 0,
            precision: None,
            telemetry: TelemetryLevel::Off,
            telemetry_out: "telemetry.jsonl".to_string(),
        }
    }
}

impl HarnessConfig {
    /// Build a configuration from environment variables:
    ///
    /// * `MBFI_EXPERIMENTS` — experiments per campaign (default 60)
    /// * `MBFI_SEED` — base seed (default 0x0B17)
    /// * `MBFI_SIZE` — `tiny` or `small` (default tiny)
    /// * `MBFI_WORKLOADS` — comma-separated names (default: all 15)
    /// * `MBFI_HANG_FACTOR` — hang threshold multiplier (default 20)
    /// * `MBFI_THREADS` — sweep worker threads (default: all cores)
    /// * `MBFI_GRID` — `full` for the 10 × 9 grid, `coarse` for the sub-grid
    ///   used by default
    /// * `MBFI_REPLAY` — `off` to re-execute every experiment from
    ///   instruction 0, `on` (the default) for checkpointed replay with an
    ///   auto-picked interval, or a number for an explicit checkpoint
    ///   interval
    /// * `MBFI_REPLAY_BUDGET_MB` — checkpoint-store memory budget per
    ///   workload in MiB (default 64)
    /// * `MBFI_SWEEP_BATCH` — experiments per sweep batch
    ///   (default: auto)
    /// * `MBFI_PRECISION` — `off` (the default: fixed-n sampling with
    ///   `MBFI_EXPERIMENTS` per cell) or
    ///   `<pct>[,<min>[,<max>[,wald|wilson]]]` for adaptive
    ///   precision-targeted sampling: stop each cell once the SDC and
    ///   Detection 95 % interval half-widths are ≤ `<pct>` points (never
    ///   before `<min>` experiments, never beyond `<max>`; unspecified
    ///   fields keep the [`Precision`] defaults).  E.g.
    ///   `MBFI_PRECISION=2.5` or `MBFI_PRECISION=2,100,5000,wilson`.
    /// * `MBFI_TELEMETRY` — `off` (default), `counters` for the near-zero-
    ///   cost metrics registry, or `full` for metrics plus the structured
    ///   JSONL event stream.  Results are byte-identical at every level.
    /// * `MBFI_TELEMETRY_OUT` — path for the `full`-level JSONL event stream
    ///   (default `telemetry.jsonl` in the working directory)
    ///
    /// A set-but-malformed value falls back to the default with a one-line
    /// warning on stderr naming the variable and the value kept.
    pub fn from_env() -> HarnessConfig {
        HarnessConfig::from_vars(|key| std::env::var(key).ok())
    }

    /// [`HarnessConfig::from_env`] over any variable lookup (`None` =
    /// unset), e.g. a map in a test instead of the process environment.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> HarnessConfig {
        let mut cfg = HarnessConfig::default();
        cfg.experiments = var_parsed(&var, "MBFI_EXPERIMENTS", cfg.experiments);
        cfg.seed = var_parsed(&var, "MBFI_SEED", cfg.seed);
        if let Some(v) = var("MBFI_SIZE") {
            cfg.size = match v.to_ascii_lowercase().as_str() {
                "small" => InputSize::Small,
                "tiny" => InputSize::Tiny,
                _ => {
                    eprintln!(
                        "warning: MBFI_SIZE={v:?} is not \"tiny\" or \"small\"; \
                         falling back to {}",
                        cfg.size
                    );
                    cfg.size
                }
            };
        }
        if let Some(v) = var("MBFI_WORKLOADS") {
            let names: Vec<String> = v
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if !names.is_empty() {
                cfg.workload_filter = Some(names);
            }
        }
        cfg.hang_factor = var_parsed(&var, "MBFI_HANG_FACTOR", cfg.hang_factor);
        cfg.threads = var_parsed(&var, "MBFI_THREADS", cfg.threads);
        if let Some(v) = var("MBFI_GRID") {
            cfg.full_grid = match v.to_ascii_lowercase().as_str() {
                "full" => true,
                "coarse" => false,
                _ => {
                    eprintln!(
                        "warning: MBFI_GRID={v:?} is not \"full\" or \"coarse\"; \
                         falling back to {}",
                        if cfg.full_grid { "full" } else { "coarse" }
                    );
                    cfg.full_grid
                }
            };
        }
        if let Some(v) = var("MBFI_REPLAY") {
            match v.to_ascii_lowercase().as_str() {
                "on" | "auto" | "1" | "true" => cfg.replay = true,
                "off" | "0" | "false" | "no" => cfg.replay = false,
                other => match other.parse::<u64>() {
                    Ok(n) => {
                        cfg.replay = true;
                        cfg.replay_interval = Some(n);
                    }
                    Err(_) => {
                        eprintln!(
                            "warning: MBFI_REPLAY={v:?} is not on/off or an interval; \
                             falling back to {}",
                            if cfg.replay { "on" } else { "off" }
                        );
                    }
                },
            }
        }
        let default_mb = cfg.replay_budget_bytes >> 20;
        let budget_mb = var_parsed(&var, "MBFI_REPLAY_BUDGET_MB", default_mb);
        cfg.replay_budget_bytes = budget_mb.checked_mul(1 << 20).unwrap_or_else(|| {
            eprintln!(
                "warning: MBFI_REPLAY_BUDGET_MB={budget_mb} MiB overflows a byte count; \
                 falling back to {default_mb}"
            );
            cfg.replay_budget_bytes
        });
        cfg.sweep_batch = var_parsed(&var, "MBFI_SWEEP_BATCH", cfg.sweep_batch);
        if let Some(v) = var("MBFI_PRECISION") {
            match parse_precision(&v) {
                Some(p) => cfg.precision = p,
                None => eprintln!(
                    "warning: MBFI_PRECISION={v:?} is not \"off\" or \
                     \"<pct>[,<min>[,<max>[,wald|wilson]]]\"; falling back to fixed-n sampling"
                ),
            }
        }
        if let Some(v) = var("MBFI_TELEMETRY") {
            match TelemetryLevel::parse(&v) {
                Some(level) => cfg.telemetry = level,
                None => eprintln!(
                    "warning: MBFI_TELEMETRY={v:?} is not off/counters/full; \
                     falling back to {}",
                    cfg.telemetry.label()
                ),
            }
        }
        if let Some(v) = var("MBFI_TELEMETRY_OUT") {
            if !v.trim().is_empty() {
                cfg.telemetry_out = v;
            }
        }
        cfg
    }

    /// The selected workloads.
    pub fn workloads(&self) -> Vec<Box<dyn Workload>> {
        let all = all_workloads();
        match &self.workload_filter {
            None => all,
            Some(names) => all
                .into_iter()
                .filter(|w| names.iter().any(|n| n.eq_ignore_ascii_case(w.name())))
                .collect(),
        }
    }

    /// The `max-MBF` values of the active grid.
    pub fn max_mbf_values(&self) -> Vec<u32> {
        if self.full_grid {
            MAX_MBF_VALUES.to_vec()
        } else {
            vec![2, 3, 4, 5, 10, 30]
        }
    }

    /// The multi-register `win-size` values of the active grid.
    pub fn win_size_values(&self) -> Vec<WinSize> {
        if self.full_grid {
            WIN_SIZE_VALUES
                .iter()
                .copied()
                .filter(|w| !w.is_same_register())
                .collect()
        } else {
            vec![
                WinSize::Fixed(1),
                WinSize::Fixed(10),
                WinSize::Fixed(100),
                WinSize::Fixed(1000),
            ]
        }
    }

    /// One-line description of the sampling mode for the bins' stderr
    /// banners: the fixed experiment count, or the adaptive precision spec
    /// (under which `experiments` is ignored).
    pub fn sampling_label(&self) -> String {
        match &self.precision {
            Some(p) => format!(
                "adaptive ±{} pts ({}, {}..{} exps/cell)",
                p.target_half_width_pct, p.interval, p.min_experiments, p.max_experiments
            ),
            None => format!("{} experiments/campaign", self.experiments),
        }
    }

    /// The sweep executor knobs this configuration asks for.
    pub fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            threads: self.threads,
            batch_size: self.sweep_batch,
            keep_records: false,
            precision: self.precision,
        }
    }

    /// The spec this configuration gives one campaign cell (shared by the
    /// grid and the equivalence tests, so the sweep-vs-serial comparisons
    /// can never drift).
    pub fn campaign_spec(&self, technique: Technique, model: FaultModel) -> CampaignSpec {
        CampaignSpec {
            technique,
            model,
            experiments: self.experiments,
            seed: self.seed,
            hang_factor: self.hang_factor,
            threads: self.threads,
        }
    }
}

/// Parse a knob through `var` (`None` = unset), warning on stderr and
/// falling back to `default` when the variable is set but malformed, so
/// every numeric knob has the same warn-on-garbage behaviour.
fn var_parsed<T: std::str::FromStr + std::fmt::Display>(
    var: impl Fn(&str) -> Option<String>,
    key: &str,
    default: T,
) -> T {
    match var(key) {
        None => default,
        Some(v) => match v.trim().parse::<T>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("warning: {key}={v:?} is not a valid value; falling back to {default}");
                default
            }
        },
    }
}

/// Parse an `MBFI_PRECISION` value: `Some(None)` for `off`,
/// `Some(Some(precision))` for `<pct>[,<min>[,<max>[,wald|wilson]]]`, and
/// `None` when the value is malformed (the caller warns and keeps fixed-n).
pub fn parse_precision(value: &str) -> Option<Option<Precision>> {
    let value = value.trim();
    match value.to_ascii_lowercase().as_str() {
        "off" | "0" | "false" | "no" | "none" => return Some(None),
        _ => {}
    }
    let mut parts = value.split(',').map(str::trim);
    let mut p = Precision::with_target(parts.next()?.parse().ok().filter(|t| *t > 0.0)?);
    if let Some(min) = parts.next() {
        p.min_experiments = min.parse().ok()?;
    }
    if let Some(max) = parts.next() {
        p.max_experiments = max.parse().ok()?;
    }
    if let Some(interval) = parts.next() {
        p.interval = match interval.to_ascii_lowercase().as_str() {
            "wald" => IntervalMethod::Wald,
            "wilson" => IntervalMethod::Wilson,
            _ => return None,
        };
    }
    if parts.next().is_some() {
        return None;
    }
    Some(Some(p))
}

/// A workload prepared for campaigns: its module (tree and compiled forms),
/// its golden run, and (when replay is enabled) its golden-run checkpoint
/// store.
pub struct WorkloadData {
    /// Workload name.
    pub name: String,
    /// Package within its suite.
    pub package: String,
    /// One-line description.
    pub description: String,
    /// The built IR module (kept for callers that need the tree form).
    pub module: Module,
    /// The flat bytecode every campaign executes — lowered once per workload
    /// and shared by all campaigns and worker threads.
    pub code: CompiledModule,
    /// The fault-free profiling run.
    pub golden: GoldenRun,
    /// Golden-run checkpoints shared by every campaign on this workload.
    pub store: Option<CheckpointStore>,
}

impl WorkloadData {
    /// The borrowed artifact bundle a sweep executes this workload through.
    pub fn sweep_unit(&self) -> SweepUnit<'_> {
        SweepUnit {
            code: &self.code,
            golden: &self.golden,
            store: self.store.as_ref(),
        }
    }
}

/// Build modules, lower them, capture golden runs (and checkpoint stores,
/// when replay is enabled) for the configured workloads, once each and in
/// registry order.
pub fn prepare(cfg: &HarnessConfig) -> Vec<WorkloadData> {
    cfg.workloads()
        .iter()
        .map(|w| prepare_workload(cfg, w.as_ref()))
        .collect()
}

fn prepare_workload(cfg: &HarnessConfig, workload: &dyn Workload) -> WorkloadData {
    let module = workload.build_module(cfg.size);
    let code = CompiledModule::lower(&module);
    let golden = GoldenRun::capture_compiled(&code)
        .unwrap_or_else(|e| panic!("golden run of {} failed: {e}", workload.name()));
    let store = cfg.replay.then(|| {
        let config = match cfg.replay_interval {
            Some(interval) => CheckpointConfig {
                interval,
                max_bytes: cfg.replay_budget_bytes,
            },
            None => CheckpointConfig::auto_for(&golden, cfg.replay_budget_bytes),
        };
        CheckpointStore::capture_compiled(&code, &golden, config)
            .unwrap_or_else(|e| panic!("checkpoint capture of {} failed: {e}", workload.name()))
    });
    WorkloadData {
        name: workload.name().to_string(),
        package: workload.package().to_string(),
        description: workload.description().to_string(),
        module,
        code,
        golden,
        store,
    }
}

// ---------------------------------------------------------------------------
// The campaign grid: request cells, run one sweep, extract figures.
// ---------------------------------------------------------------------------

/// A whole grid of campaign cells over prepared workloads, submitted as one
/// sweep.  Requesting the same `(workload, technique, model)` cell twice —
/// e.g. the single-bit campaign that Fig. 1, Fig. 2 and Fig. 4/5 all need —
/// collapses onto one cell, executed once.
pub struct CampaignGrid<'a> {
    cfg: &'a HarnessConfig,
    data: Vec<WorkloadData>,
    cells: Vec<SweepCampaign>,
    index: HashMap<(usize, Technique, FaultModel), usize>,
}

impl<'a> CampaignGrid<'a> {
    /// A grid over the configured workloads (prepared via [`prepare`]).
    pub fn new(cfg: &'a HarnessConfig) -> CampaignGrid<'a> {
        Self::from_data(cfg, prepare(cfg))
    }

    /// A grid over explicitly prepared workloads.
    pub fn from_data(cfg: &'a HarnessConfig, data: Vec<WorkloadData>) -> CampaignGrid<'a> {
        CampaignGrid {
            cfg,
            data,
            cells: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The prepared workloads this grid runs on.
    pub fn data(&self) -> &[WorkloadData] {
        &self.data
    }

    /// Number of distinct cells requested so far.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Request one campaign cell (deduplicating).
    pub fn request(&mut self, workload: usize, technique: Technique, model: FaultModel) {
        let key = (workload, technique, model);
        if self.index.contains_key(&key) {
            return;
        }
        self.index.insert(key, self.cells.len());
        self.cells.push(SweepCampaign {
            unit: workload,
            spec: self.cfg.campaign_spec(technique, model),
        });
    }

    /// Request the single bit-flip campaigns of Fig. 1 (both techniques, all
    /// workloads).
    pub fn request_single_bit(&mut self) {
        for w in 0..self.data.len() {
            for technique in Technique::ALL {
                self.request(w, technique, FaultModel::single_bit());
            }
        }
    }

    /// Request the Fig. 2 same-register sweep for one technique: the
    /// single-bit baseline plus every configured `max-MBF` at win-size 0.
    pub fn request_same_register(&mut self, technique: Technique) {
        for w in 0..self.data.len() {
            self.request(w, technique, FaultModel::single_bit());
            for &m in &self.cfg.max_mbf_values() {
                self.request(w, technique, FaultModel::multi_bit(m, WinSize::Fixed(0)));
            }
        }
    }

    /// Request the Fig. 3 activation campaigns for one technique: max-MBF 30
    /// over every configured multi-register window.
    pub fn request_activation(&mut self, technique: Technique) {
        for w in 0..self.data.len() {
            for &win in &self.cfg.win_size_values() {
                self.request(w, technique, FaultModel::multi_bit(30, win));
            }
        }
    }

    /// Request the Fig. 4/5 multi-register grid for one technique: the
    /// single-bit baseline plus every `(max-MBF, win-size)` point.
    pub fn request_multi_register(&mut self, technique: Technique) {
        for w in 0..self.data.len() {
            self.request(w, technique, FaultModel::single_bit());
            for &m in &self.cfg.max_mbf_values() {
                for &win in &self.cfg.win_size_values() {
                    self.request(w, technique, FaultModel::multi_bit(m, win));
                }
            }
        }
    }

    /// Request every cell `run_all` needs (all figures and tables).
    pub fn request_artifact_grid(&mut self) {
        self.request_single_bit();
        for technique in Technique::ALL {
            self.request_same_register(technique);
            self.request_activation(technique);
            self.request_multi_register(technique);
        }
    }

    /// Submit every requested cell as one sweep and collect the results.
    ///
    /// With [`HarnessConfig::telemetry`] above `off`, the sweep runs through
    /// a [`TelemetryHub`]: the final snapshot rides along in
    /// [`GridRun::telemetry`], a one-line summary goes to stderr, and at the
    /// `full` level the JSONL event stream is written to
    /// [`HarnessConfig::telemetry_out`].  Results are byte-identical to a
    /// telemetry-off run at every level.
    pub fn run(self) -> GridRun {
        let CampaignGrid {
            cfg,
            data,
            cells,
            index,
        } = self;
        let units: Vec<SweepUnit<'_>> = data.iter().map(WorkloadData::sweep_unit).collect();
        let hub = (cfg.telemetry > TelemetryLevel::Off).then(|| TelemetryHub::new(cfg.telemetry));
        let mut results: Vec<Option<CampaignResult>> = vec![None; cells.len()];
        let warnings = Sweep::run_streamed(
            &units,
            cells.iter().copied().map(SweepCell::Sampled).collect(),
            &cfg.sweep_config(),
            hub.as_ref(),
            |index, result| results[index] = Some(result.result),
        );
        drop(units);
        let telemetry = hub.map(|hub| {
            if cfg.telemetry == TelemetryLevel::Full {
                let jsonl = hub.drain_jsonl();
                match std::fs::write(&cfg.telemetry_out, &jsonl) {
                    Ok(()) => eprintln!(
                        "telemetry: wrote {} events to {}",
                        jsonl.lines().count(),
                        cfg.telemetry_out
                    ),
                    Err(e) => {
                        eprintln!("warning: cannot write {}: {e}", cfg.telemetry_out)
                    }
                }
            }
            let snapshot = hub.snapshot();
            eprintln!(
                "telemetry: {} experiments in {} batches, {:.0} exp/s, {} parks",
                snapshot.counter(Metric::ExperimentsRun),
                snapshot.counter(Metric::BatchesRun),
                snapshot.exps_per_sec(),
                snapshot.counter(Metric::WorkerParks),
            );
            snapshot
        });
        GridRun {
            data,
            results: results
                .into_iter()
                .map(|r| r.expect("sweep finished without producing every result"))
                .collect(),
            warnings,
            index,
            telemetry,
        }
    }
}

/// The executed grid: per-workload artifacts plus one [`CampaignResult`] per
/// requested cell, looked up by `(workload, technique, model)`.
pub struct GridRun {
    /// The prepared workloads, in grid order.
    pub data: Vec<WorkloadData>,
    /// Distinct validation warnings across the whole sweep.
    pub warnings: Vec<CampaignWarning>,
    /// Final telemetry snapshot when the grid ran with
    /// [`HarnessConfig::telemetry`] above `off` (`None` otherwise).
    pub telemetry: Option<TelemetrySnapshot>,
    results: Vec<CampaignResult>,
    index: HashMap<(usize, Technique, FaultModel), usize>,
}

impl GridRun {
    /// The result of one cell; panics if the cell was never requested.
    pub fn get(&self, workload: usize, technique: Technique, model: FaultModel) -> &CampaignResult {
        let slot = self
            .index
            .get(&(workload, technique, model))
            .unwrap_or_else(|| {
                panic!(
                "campaign cell ({}, {technique}, {}) was not requested before CampaignGrid::run",
                self.data
                    .get(workload)
                    .map(|w| w.name.as_str())
                    .unwrap_or("?"),
                model.label()
            )
            });
        &self.results[*slot]
    }

    /// Number of executed cells.
    pub fn cell_count(&self) -> usize {
        self.results.len()
    }

    /// Total experiments across all executed cells.
    pub fn total_experiments(&self) -> u64 {
        self.results.iter().map(CampaignResult::total).sum()
    }

    /// Every executed cell's result, in request order.
    pub fn results(&self) -> &[CampaignResult] {
        &self.results
    }

    /// Summary of an adaptive grid: `(cells that met the target, cells that
    /// exhausted max_experiments, worst realized half-width in points)`.
    /// `None` when the grid ran fixed-n.
    pub fn adaptive_summary(&self) -> Option<(usize, usize, f64)> {
        let mut met = 0usize;
        let mut capped = 0usize;
        let mut worst: f64 = 0.0;
        let mut any = false;
        for r in &self.results {
            if let Some(status) = &r.adaptive {
                any = true;
                if status.reached_target {
                    met += 1;
                } else {
                    capped += 1;
                }
                worst = worst.max(status.realized_half_width_pct());
            }
        }
        any.then_some((met, capped, worst))
    }
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

/// Table II: candidate instruction counts per workload and technique.
pub fn table2(cfg: &HarnessConfig, data: &[WorkloadData]) -> TextTable {
    let mut table = TextTable::new(
        format!(
            "Table II — candidate fault-injection instructions ({} input)",
            cfg.size
        ),
        &[
            "program",
            "package",
            "dynamic instrs",
            "inject-on-read",
            "inject-on-write",
            "1-bit space (log10)",
        ],
    );
    for w in data {
        let read = w.golden.candidates(Technique::InjectOnRead);
        let write = w.golden.candidates(Technique::InjectOnWrite);
        let space = ErrorSpace::new(read, REGISTER_BITS);
        table.add_row(vec![
            w.name.clone(),
            w.package.clone(),
            w.golden.dynamic_instrs.to_string(),
            read.to_string(),
            write.to_string(),
            format!("{:.2}", space.single_bit_log10()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 1 — single bit-flip outcome classification
// ---------------------------------------------------------------------------

/// Extract the single-bit campaigns per workload: `(name, read, write)`.
pub fn single_bit_results(run: &GridRun) -> Vec<(String, CampaignResult, CampaignResult)> {
    run.data
        .iter()
        .enumerate()
        .map(|(w, data)| {
            let read = run
                .get(w, Technique::InjectOnRead, FaultModel::single_bit())
                .clone();
            let write = run
                .get(w, Technique::InjectOnWrite, FaultModel::single_bit())
                .clone();
            (data.name.clone(), read, write)
        })
        .collect()
}

/// Fig. 1: outcome classification tables for both techniques.
pub fn fig1(results: &[(String, CampaignResult, CampaignResult)]) -> Vec<(Technique, TextTable)> {
    Technique::ALL
        .iter()
        .map(|technique| {
            let mut table = TextTable::new(
                format!("Fig. 1 — single bit-flip outcome classification ({technique})"),
                &["program", "SDC%", "±", "Detection%", "Benign%"],
            );
            for (name, read, write) in results {
                let r = if technique.is_write() { write } else { read };
                let sdc = r.sdc_proportion();
                table.add_row(vec![
                    name.clone(),
                    format!("{:.2}", r.sdc_pct()),
                    format!("{:.2}", sdc.half_width_pct()),
                    format!("{:.2}", r.counts.detection_pct()),
                    format!("{:.2}", r.counts.fraction(Outcome::Benign) * 100.0),
                ]);
            }
            (*technique, table)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 2 — multiple bits of the same register (win-size = 0)
// ---------------------------------------------------------------------------

/// Extract the same-register sweep per workload: campaigns for max-MBF = 1
/// (single) followed by the configured multi-bit values, all at win-size = 0.
pub fn same_register_results(
    cfg: &HarnessConfig,
    run: &GridRun,
    technique: Technique,
) -> Vec<(String, Vec<CampaignResult>)> {
    run.data
        .iter()
        .enumerate()
        .map(|(w, data)| {
            let mut results = vec![run.get(w, technique, FaultModel::single_bit()).clone()];
            for &m in &cfg.max_mbf_values() {
                results.push(
                    run.get(w, technique, FaultModel::multi_bit(m, WinSize::Fixed(0)))
                        .clone(),
                );
            }
            (data.name.clone(), results)
        })
        .collect()
}

/// Fig. 2: SDC% per program for 1..max flips of the same register.
pub fn fig2(technique: Technique, results: &[(String, Vec<CampaignResult>)]) -> TextTable {
    let headers: Vec<String> = std::iter::once("program".to_string())
        .chain(
            results
                .first()
                .map(|(_, rs)| rs.iter().map(|r| r.spec.model.label()).collect::<Vec<_>>())
                .unwrap_or_default(),
        )
        .collect();
    let mut table = TextTable::new(
        format!("Fig. 2 — SDC% for multiple bits of the same register ({technique})"),
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for (name, rs) in results {
        let mut row = vec![name.clone()];
        row.extend(rs.iter().map(|r| format!("{:.2}", r.sdc_pct())));
        table.add_row(row);
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 3 — activated errors at max-MBF = 30
// ---------------------------------------------------------------------------

/// Extract the max-MBF = 30 campaigns over all configured win-size > 0 values.
pub fn activation_results(
    cfg: &HarnessConfig,
    run: &GridRun,
    technique: Technique,
) -> Vec<CampaignResult> {
    let mut out = Vec::new();
    for w in 0..run.data.len() {
        for &win in &cfg.win_size_values() {
            out.push(
                run.get(w, technique, FaultModel::multi_bit(30, win))
                    .clone(),
            );
        }
    }
    out
}

/// Fig. 3: distribution of activated errors before a crash at max-MBF = 30.
pub fn fig3(technique: Technique, campaigns: &[CampaignResult]) -> (TextTable, ActivationAnalysis) {
    let crash = ActivationAnalysis::crashes_from_campaigns(campaigns.iter());
    let mut table = TextTable::new(
        format!("Fig. 3 — activated errors before a crash, max-MBF = 30 ({technique})"),
        &["activated errors", "fraction of crashes"],
    );
    for k in 0..crash.histogram.len() {
        if crash.histogram[k] == 0 {
            continue;
        }
        table.add_row(vec![k.to_string(), format!("{:.3}", crash.fraction(k))]);
    }
    let (le5, six_to_ten, gt10) = crash.fig3_buckets();
    table.add_row(vec!["<= 5 (bucket)".into(), format!("{le5:.3}")]);
    table.add_row(vec!["6..10 (bucket)".into(), format!("{six_to_ten:.3}")]);
    table.add_row(vec!["> 10 (bucket)".into(), format!("{gt10:.3}")]);
    (table, crash)
}

// ---------------------------------------------------------------------------
// Fig. 4 / Fig. 5 — SDC% across the max-MBF × win-size grid
// ---------------------------------------------------------------------------

/// Raw multi-register sweep for one workload: the single-bit baseline plus a
/// campaign per `(max-MBF, win-size)` point of the active grid.
pub struct MultiRegisterSweep {
    /// Workload name.
    pub name: String,
    /// Single bit-flip baseline.
    pub single: CampaignResult,
    /// Multi-bit campaigns over the grid.
    pub grid: Vec<CampaignResult>,
}

/// Extract the multi-register sweep (win-size > 0) for every workload.
pub fn multi_register_results(
    cfg: &HarnessConfig,
    run: &GridRun,
    technique: Technique,
) -> Vec<MultiRegisterSweep> {
    run.data
        .iter()
        .enumerate()
        .map(|(w, data)| {
            let single = run.get(w, technique, FaultModel::single_bit()).clone();
            let mut grid = Vec::new();
            for &m in &cfg.max_mbf_values() {
                for &win in &cfg.win_size_values() {
                    grid.push(run.get(w, technique, FaultModel::multi_bit(m, win)).clone());
                }
            }
            MultiRegisterSweep {
                name: data.name.clone(),
                single,
                grid,
            }
        })
        .collect()
}

/// Fig. 4 (read) / Fig. 5 (write): per-workload SDC% series, one series per
/// win-size, indexed by max-MBF, with the single-bit value as the first point.
pub fn fig45(technique: Technique, sweeps: &[MultiRegisterSweep]) -> Vec<FigureData> {
    let fig_no = if technique.is_write() { 5 } else { 4 };
    sweeps
        .iter()
        .map(|sweep| {
            let mut fig = FigureData::new(format!(
                "Fig. {fig_no} — SDC% targeting multiple registers ({technique}) — {}",
                sweep.name
            ));
            // Collect the win sizes present in the grid, preserving order.
            let mut wins: Vec<WinSize> = Vec::new();
            for r in &sweep.grid {
                if !wins.contains(&r.spec.model.win_size) {
                    wins.push(r.spec.model.win_size);
                }
            }
            for win in wins {
                let mut series = Series::new(format!("w={}", win.label()));
                series.push("1", sweep.single.sdc_pct());
                for r in sweep.grid.iter().filter(|r| r.spec.model.win_size == win) {
                    series.push(r.spec.model.max_mbf.to_string(), r.sdc_pct());
                }
                fig.series.push(series);
            }
            fig
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table III — configurations causing the highest SDC%
// ---------------------------------------------------------------------------

/// Table III: the `(max-MBF, win-size)` pair with the highest SDC% per program
/// and technique, alongside the single-bit baseline.
pub fn table3(read: &[MultiRegisterSweep], write: &[MultiRegisterSweep]) -> TextTable {
    let analysis = PessimisticAnalysis::default();
    let mut table = TextTable::new(
        "Table III — configuration with the highest SDC% among multi-bit campaigns",
        &[
            "program",
            "read: max-MBF",
            "read: win-size",
            "read: SDC%",
            "read: 1-bit SDC%",
            "write: max-MBF",
            "write: win-size",
            "write: SDC%",
            "write: 1-bit SDC%",
        ],
    );
    for (r, w) in read.iter().zip(write) {
        let re = analysis.table3_entry(&r.grid);
        let we = analysis.table3_entry(&w.grid);
        table.add_row(vec![
            r.name.clone(),
            re.model.max_mbf.to_string(),
            re.model.win_size.label(),
            format!("{:.2}", re.sdc_pct),
            format!("{:.2}", r.single.sdc_pct()),
            we.model.max_mbf.to_string(),
            we.model.win_size.label(),
            format!("{:.2}", we.sdc_pct),
            format!("{:.2}", w.single.sdc_pct()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Table IV — Transition I / II likelihoods (Fig. 6)
// ---------------------------------------------------------------------------

/// Table IV: Transition I (Detection→SDC) and Transition II (Benign→SDC)
/// likelihoods using each workload's worst-case configuration from Table III.
/// The location pairs run on the sweep executor with `cfg`'s threads, from
/// each workload's checkpoint store; the table is byte-identical to running
/// every pair serially without one.
pub fn table4(
    cfg: &HarnessConfig,
    data: &[WorkloadData],
    read: &[MultiRegisterSweep],
    write: &[MultiRegisterSweep],
) -> (TextTable, Vec<(String, LocationAnalysis, LocationAnalysis)>) {
    let analysis = PessimisticAnalysis::default();
    let mut table = TextTable::new(
        "Table IV — likelihood of Transition I (Detection→SDC) and Transition II (Benign→SDC)",
        &[
            "program",
            "read: Tran. I",
            "read: Tran. II",
            "read: prunable",
            "write: Tran. I",
            "write: Tran. II",
            "write: prunable",
        ],
    );
    // Every program's read and write analyses run as one job on the sweep
    // executor, from each program's checkpoint store; the pairs of each are
    // sampled serially, so the results do not depend on the schedule.
    let programs = data.len().min(read.len()).min(write.len());
    let units: Vec<SweepUnit<'_>> = data[..programs]
        .iter()
        .map(WorkloadData::sweep_unit)
        .collect();
    let mut requests = Vec::with_capacity(2 * programs);
    for (unit, (r_sweep, w_sweep)) in read.iter().zip(write).take(programs).enumerate() {
        for (technique, sweep, salt) in [
            (Technique::InjectOnRead, r_sweep, 0xF166),
            (Technique::InjectOnWrite, w_sweep, 0xF167),
        ] {
            requests.push(LocationRequest {
                unit,
                technique,
                worst_model: analysis.table3_entry(&sweep.grid).model,
                pairs: cfg.experiments,
                seed: cfg.seed ^ salt,
                hang_factor: cfg.hang_factor,
            });
        }
    }
    let mut analyses =
        LocationAnalysis::run_many(&units, &requests, &cfg.sweep_config()).into_iter();
    let mut raw = Vec::with_capacity(programs);
    for w in &data[..programs] {
        let read_loc = analyses.next().expect("one read analysis per program");
        let write_loc = analyses.next().expect("one write analysis per program");
        table.add_row(vec![
            w.name.clone(),
            format!("{:.1}%", read_loc.transition1() * 100.0),
            format!("{:.1}%", read_loc.transition2() * 100.0),
            format!("{:.1}%", read_loc.prunable_fraction() * 100.0),
            format!("{:.1}%", write_loc.transition1() * 100.0),
            format!("{:.1}%", write_loc.transition2() * 100.0),
            format!("{:.1}%", write_loc.prunable_fraction() * 100.0),
        ]);
        raw.push((w.name.clone(), read_loc, write_loc));
    }
    (table, raw)
}

// ---------------------------------------------------------------------------
// RQ summary
// ---------------------------------------------------------------------------

/// Aggregate answers to RQ1–RQ5 from the sweep results.
pub fn summary(
    read_activation: &ActivationAnalysis,
    write_activation: &ActivationAnalysis,
    read: &[MultiRegisterSweep],
    write: &[MultiRegisterSweep],
    locations: &[(String, LocationAnalysis, LocationAnalysis)],
) -> String {
    let analysis = PessimisticAnalysis::default();
    let mut pessimistic = 0usize;
    let mut total = 0usize;
    let mut sufficient_mbf: Vec<u32> = Vec::new();
    for sweep in read.iter().chain(write) {
        let cmp = analysis.compare(&sweep.single, &sweep.grid);
        total += 1;
        if cmp.single_bit_is_pessimistic {
            pessimistic += 1;
        }
        sufficient_mbf.push(cmp.sufficient_max_mbf);
    }
    let max_sufficient = sufficient_mbf.iter().copied().max().unwrap_or(0);
    let t1_mean: f64 = locations
        .iter()
        .map(|(_, r, w)| (r.transition1() + w.transition1()) / 2.0)
        .sum::<f64>()
        / locations.len().max(1) as f64;
    let t2_mean: f64 = locations
        .iter()
        .map(|(_, r, w)| (r.transition2() + w.transition2()) / 2.0)
        .sum::<f64>()
        / locations.len().max(1) as f64;
    let prunable_mean: f64 = locations
        .iter()
        .map(|(_, r, w)| (r.prunable_fraction() + w.prunable_fraction()) / 2.0)
        .sum::<f64>()
        / locations.len().max(1) as f64;

    format!(
        "RQ1: {:.1}% of inject-on-read and {:.1}% of inject-on-write max-MBF=30 crashes \
activated fewer than 10 errors (suggested bound: read {}, write {}).\n\
RQ2: the single bit-flip model is pessimistic (within 1 point) for {pessimistic}/{total} \
program/technique sweeps.\n\
RQ3: at most {max_sufficient} errors were needed to reach the highest SDC% in any sweep.\n\
RQ4: see the per-figure series — window size matters mainly for inject-on-write.\n\
RQ5: Transition I averages {:.1}% vs Transition II {:.1}%; on average {:.1}% of single-bit \
locations (Detection or SDC outcomes) can be pruned from multi-bit campaigns.\n",
        read_activation.cumulative_fraction(9) * 100.0,
        write_activation.cumulative_fraction(9) * 100.0,
        read_activation.suggested_bound(0.95),
        write_activation.suggested_bound(0.95),
        t1_mean * 100.0,
        t2_mean * 100.0,
        prunable_mean * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbfi_core::Campaign;

    fn tiny_cfg() -> HarnessConfig {
        HarnessConfig {
            experiments: 15,
            workload_filter: Some(vec!["qsort".to_string(), "histo".to_string()]),
            ..HarnessConfig::default()
        }
    }

    #[test]
    fn config_filters_workloads_case_insensitively() {
        let cfg = HarnessConfig {
            workload_filter: Some(vec!["QSORT".into(), "crc32".into()]),
            ..HarnessConfig::default()
        };
        let names: Vec<_> = cfg
            .workloads()
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names, vec!["qsort", "CRC32"]);
        assert_eq!(HarnessConfig::default().workloads().len(), 15);
    }

    #[test]
    fn coarse_grid_is_a_subset_of_the_full_grid() {
        let coarse = HarnessConfig::default();
        let full = HarnessConfig {
            full_grid: true,
            ..HarnessConfig::default()
        };
        assert!(coarse.max_mbf_values().len() < full.max_mbf_values().len());
        assert!(coarse.win_size_values().len() < full.win_size_values().len());
        for m in coarse.max_mbf_values() {
            assert!(full.max_mbf_values().contains(&m));
        }
        assert_eq!(full.max_mbf_values(), MAX_MBF_VALUES.to_vec());
        assert_eq!(full.win_size_values().len(), 8);
    }

    #[test]
    fn prepare_builds_each_selected_workload_once_in_registry_order() {
        // Filter order and repeats do not matter: one entry per selected
        // workload, in registry order.
        let cfg = HarnessConfig {
            replay: false,
            workload_filter: Some(vec!["histo".into(), "qsort".into(), "HISTO".into()]),
            ..HarnessConfig::default()
        };
        let data = prepare(&cfg);
        let names: Vec<&str> = data.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["qsort", "histo"]);
        assert!(
            data.iter().all(|d| d.store.is_none()),
            "replay off: no store"
        );

        let data = prepare(&HarnessConfig {
            replay: true,
            ..cfg
        });
        let names: Vec<&str> = data.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["qsort", "histo"]);
        assert!(
            data.iter().all(|d| d.store.is_some()),
            "replay on (the default): one store per workload"
        );
    }

    #[test]
    fn table2_lists_all_selected_workloads() {
        let cfg = tiny_cfg();
        let data = prepare(&cfg);
        let table = table2(&cfg, &data);
        assert_eq!(table.rows.len(), 2);
        assert!(table.render().contains("qsort"));
        assert!(table.render().contains("histo"));
    }

    #[test]
    fn grid_deduplicates_shared_cells_and_feeds_every_figure() {
        let cfg = HarnessConfig {
            experiments: 10,
            workload_filter: Some(vec!["stringsearch".into()]),
            ..HarnessConfig::default()
        };
        let mut grid = CampaignGrid::new(&cfg);
        grid.request_artifact_grid();
        // Per workload and technique: 1 single + |mbf| same-register +
        // |mbf| × |win| multi-register cells; the activation row (max-MBF 30)
        // and the single-bit baselines are shared, not re-run.
        let mbf = cfg.max_mbf_values().len();
        let win = cfg.win_size_values().len();
        assert_eq!(grid.cell_count(), 2 * (1 + mbf + mbf * win));
        let run = grid.run();
        assert_eq!(run.cell_count(), 2 * (1 + mbf + mbf * win));
        assert_eq!(
            run.total_experiments(),
            (run.cell_count() * cfg.experiments) as u64
        );

        let singles = single_bit_results(&run);
        let tables = fig1(&singles);
        assert_eq!(tables.len(), 2);
        assert!(tables[0].1.render().contains("SDC%"));

        let same_reg = same_register_results(&cfg, &run, Technique::InjectOnWrite);
        let t = fig2(Technique::InjectOnWrite, &same_reg);
        assert!(t.render().contains("1-bit"));
        assert!(t.render().contains("m=30,w=0"));

        let read = multi_register_results(&cfg, &run, Technique::InjectOnRead);
        let write = multi_register_results(&cfg, &run, Technique::InjectOnWrite);
        assert_eq!(read[0].grid.len(), mbf * win);

        let figs = fig45(Technique::InjectOnRead, &read);
        assert_eq!(figs.len(), 1);
        assert_eq!(figs[0].series.len(), win);

        let t3 = table3(&read, &write);
        assert_eq!(t3.rows.len(), 1);

        let (t4, raw) = table4(&cfg, &run.data, &read, &write);
        assert_eq!(t4.rows.len(), 1);
        assert_eq!(raw.len(), 1);
    }

    #[test]
    fn grid_cells_match_the_per_campaign_runner() {
        let cfg = HarnessConfig {
            experiments: 12,
            workload_filter: Some(vec!["crc32".into()]),
            ..HarnessConfig::default()
        };
        let mut grid = CampaignGrid::new(&cfg);
        grid.request_single_bit();
        let run = grid.run();
        let data = &run.data[0];
        for technique in Technique::ALL {
            let from_grid = run.get(0, technique, FaultModel::single_bit());
            let serial = Campaign::run(
                &data.code,
                &data.golden,
                &cfg.campaign_spec(technique, FaultModel::single_bit()),
                data.store.as_ref(),
            );
            assert_eq!(from_grid, &serial, "{technique}: grid cell diverged");
        }
    }

    #[test]
    fn replay_enabled_harness_produces_identical_campaigns() {
        let cfg_off = HarnessConfig {
            experiments: 12,
            workload_filter: Some(vec!["crc32".into()]),
            replay: false,
            ..HarnessConfig::default()
        };
        let cfg_on = HarnessConfig {
            replay: true,
            ..cfg_off.clone()
        };
        let data_off = prepare(&cfg_off);
        let data_on = prepare(&cfg_on);
        assert!(data_off[0].store.is_none());
        assert!(data_on[0].store.is_some());
        let run_off = {
            let mut g = CampaignGrid::from_data(&cfg_off, data_off);
            g.request_single_bit();
            g.run()
        };
        let run_on = {
            let mut g = CampaignGrid::from_data(&cfg_on, data_on);
            g.request_single_bit();
            g.run()
        };
        assert_eq!(
            single_bit_results(&run_off),
            single_bit_results(&run_on),
            "replay must not change any campaign result"
        );
    }

    /// A lookup over a fixed map, standing in for the process environment.
    fn vars(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |key| map.get(key).cloned()
    }

    #[test]
    fn env_config_round_trip_and_malformed_fallback() {
        let cfg = HarnessConfig::from_vars(vars(&[
            ("MBFI_EXPERIMENTS", "7"),
            ("MBFI_SIZE", "small"),
            ("MBFI_GRID", "full"),
            ("MBFI_WORKLOADS", "sha, bfs"),
            ("MBFI_REPLAY", "off"),
            ("MBFI_SWEEP_BATCH", "9"),
            ("MBFI_PRECISION", "2.5,80,4000,wald"),
            ("MBFI_TELEMETRY", "full"),
            ("MBFI_TELEMETRY_OUT", "events.jsonl"),
        ]));
        assert_eq!(cfg.experiments, 7);
        assert_eq!(cfg.telemetry, TelemetryLevel::Full);
        assert_eq!(cfg.telemetry_out, "events.jsonl");
        assert_eq!(cfg.size, InputSize::Small);
        assert!(cfg.full_grid);
        assert_eq!(cfg.workloads().len(), 2);
        assert!(!cfg.replay);
        assert_eq!(cfg.sweep_batch, 9);
        assert_eq!(cfg.sweep_config().batch_size, 9);
        assert_eq!(
            cfg.precision,
            Some(Precision {
                target_half_width_pct: 2.5,
                min_experiments: 80,
                max_experiments: 4000,
                interval: IntervalMethod::Wald,
            })
        );
        assert_eq!(cfg.sweep_config().precision, cfg.precision);

        // Malformed values fall back to the defaults (with a stderr warning,
        // not capturable here) instead of being silently dropped mid-parse.
        let cfg = HarnessConfig::from_vars(vars(&[
            ("MBFI_HANG_FACTOR", "twenty"),
            ("MBFI_REPLAY_BUDGET_MB", "-3"),
            ("MBFI_PRECISION", "tight"),
            ("MBFI_TELEMETRY", "verbose"),
        ]));
        assert_eq!(cfg.hang_factor, HarnessConfig::default().hang_factor);
        assert_eq!(
            cfg.replay_budget_bytes,
            HarnessConfig::default().replay_budget_bytes
        );
        assert_eq!(cfg.precision, None);
        assert_eq!(cfg.telemetry, TelemetryLevel::Off);
        assert_eq!(cfg.telemetry_out, "telemetry.jsonl");
        // 2^44 MiB is 2^64 bytes: it must fall back, not wrap to a 0-byte
        // budget.
        let cfg = HarnessConfig::from_vars(vars(&[("MBFI_REPLAY_BUDGET_MB", "17592186044416")]));
        assert_eq!(
            cfg.replay_budget_bytes,
            HarnessConfig::default().replay_budget_bytes
        );
        assert_eq!(var_parsed(vars(&[]), "MBFI_NOT_SET_EVER", 42usize), 42);
        assert_eq!(var_parsed(vars(&[("K", " 5 ")]), "K", 42usize), 5);
    }

    /// `parse_precision` grammar, without touching the process environment.
    #[test]
    fn precision_knob_grammar() {
        assert_eq!(parse_precision("off"), Some(None));
        assert_eq!(parse_precision("none"), Some(None));
        assert_eq!(
            parse_precision("3"),
            Some(Some(Precision::with_target(3.0)))
        );
        assert_eq!(
            parse_precision(" 1.5 , 50 "),
            Some(Some(Precision {
                min_experiments: 50,
                ..Precision::with_target(1.5)
            }))
        );
        assert_eq!(
            parse_precision("2,100,5000,wilson"),
            Some(Some(Precision {
                min_experiments: 100,
                max_experiments: 5000,
                interval: IntervalMethod::Wilson,
                ..Precision::with_target(2.0)
            }))
        );
        for bad in ["", "-2", "0", "2,x", "2,1,2,gauss", "2,1,2,wald,extra"] {
            // "0" parses as off (fixed-n), everything else is malformed.
            let parsed = parse_precision(bad);
            assert!(
                parsed.is_none() || parsed == Some(None),
                "{bad:?} must not produce a precision spec, got {parsed:?}"
            );
        }
        assert_eq!(parse_precision("-2"), None);
        assert_eq!(parse_precision("2,"), None);
    }
}
