//! Fault-injection campaigns: many experiments with the same fault model on
//! the same workload (§III-E of the paper).

use crate::adaptive::AdaptiveStatus;
use crate::cluster::CampaignPoint;
use crate::fault_model::FaultModel;
use crate::golden::GoldenRun;
use crate::outcome::{Outcome, OutcomeCounts};
use crate::replay::CheckpointStore;
use crate::stats::{wald_interval, Proportion};
use crate::sweep::{Sweep, SweepCampaign, SweepConfig, SweepUnit};
use crate::technique::Technique;
use mbfi_ir::CompiledModule;

/// Configuration of one campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSpec {
    /// Injection technique.
    pub technique: Technique,
    /// Fault model.
    pub model: FaultModel,
    /// Number of experiments (the paper uses 10,000; this reproduction
    /// defaults to a smaller, configurable number).
    pub experiments: usize,
    /// Seed from which every experiment's parameters are derived.
    pub seed: u64,
    /// Hang threshold as a multiple of the golden run length.
    pub hang_factor: u64,
    /// Number of worker threads (0 = use all available parallelism).
    pub threads: usize,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::single_bit(),
            experiments: 1_000,
            seed: 0xB17F_11B5,
            hang_factor: DEFAULT_HANG_FACTOR,
            threads: 0,
        }
    }
}

/// A problem found while validating a [`CampaignSpec`], fixed up with a
/// defensible default instead of failing the campaign.  Surfaced once at
/// campaign start (and printed to stderr) rather than silently patched per
/// experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignWarning {
    /// `hang_factor` was below [`MIN_HANG_FACTOR`] times the golden run
    /// length — a faulty run that merely slows down would be misclassified
    /// as a hang.
    HangFactorRaised {
        /// The value the spec asked for.
        requested: u64,
        /// The value the campaign runs with.
        used: u64,
    },
    /// The campaign's experiment budget exceeds the single bit-flip error
    /// space `d · b` — every additional experiment beyond the space size
    /// re-samples an already-coverable fault, so the sampling fraction is
    /// clamped to 1.0 (see [`crate::space::ErrorSpace::sampling_fraction`]).
    /// Possible for tiny inputs under an adaptive `max_experiments`.
    SamplingSaturated {
        /// The campaign's experiment budget.
        budget: u64,
        /// The single bit-flip error space size (`d · b`, saturated to u64).
        space: u64,
    },
}

impl CampaignWarning {
    /// Wire encoding: a tagged object (`kind` plus the variant's fields).
    pub fn to_json(&self) -> crate::report::json::Json {
        let mut obj = crate::report::json::Json::object();
        match self {
            CampaignWarning::HangFactorRaised { requested, used } => {
                obj.set("kind", "hang_factor_raised");
                obj.set("requested", *requested);
                obj.set("used", *used);
            }
            CampaignWarning::SamplingSaturated { budget, space } => {
                obj.set("kind", "sampling_saturated");
                obj.set("budget", *budget);
                obj.set("space", *space);
            }
        }
        obj
    }

    /// Parse the wire encoding back.
    pub fn from_json(v: &crate::report::json::Json) -> Option<CampaignWarning> {
        match v.get("kind")?.as_str()? {
            "hang_factor_raised" => Some(CampaignWarning::HangFactorRaised {
                requested: v.get("requested")?.as_u64()?,
                used: v.get("used")?.as_u64()?,
            }),
            "sampling_saturated" => Some(CampaignWarning::SamplingSaturated {
                budget: v.get("budget")?.as_u64()?,
                space: v.get("space")?.as_u64()?,
            }),
            _ => None,
        }
    }
}

impl std::fmt::Display for CampaignWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignWarning::HangFactorRaised { requested, used } => write!(
                f,
                "hang_factor {requested} is below the minimum; campaign runs with {used}"
            ),
            CampaignWarning::SamplingSaturated { budget, space } => write!(
                f,
                "experiment budget {budget} exceeds the single bit-flip error space {space}; \
                 the sampling fraction is clamped to 1"
            ),
        }
    }
}

impl CampaignSpec {
    /// Build a spec from a grid point, keeping the other defaults.
    pub fn from_point(point: CampaignPoint, experiments: usize, seed: u64) -> CampaignSpec {
        CampaignSpec {
            technique: point.technique,
            model: point.model,
            experiments,
            seed,
            ..CampaignSpec::default()
        }
    }

    /// Wire encoding of the spec (the `mbfi-serve` request/report schema).
    pub fn to_json(&self) -> crate::report::json::Json {
        let mut obj = crate::report::json::Json::object();
        obj.set("technique", self.technique.short_name());
        obj.set("model", self.model.to_json());
        obj.set("experiments", self.experiments);
        obj.set("seed", self.seed);
        obj.set("hang_factor", self.hang_factor);
        obj.set("threads", self.threads);
        obj
    }

    /// Parse the wire encoding back.
    pub fn from_json(v: &crate::report::json::Json) -> Option<CampaignSpec> {
        Some(CampaignSpec {
            technique: Technique::from_short_name(v.get("technique")?.as_str()?)?,
            model: FaultModel::from_json(v.get("model")?)?,
            experiments: usize::try_from(v.get("experiments")?.as_u64()?).ok()?,
            seed: v.get("seed")?.as_u64()?,
            hang_factor: v.get("hang_factor")?.as_u64()?,
            threads: usize::try_from(v.get("threads")?.as_u64()?).ok()?,
        })
    }

    /// Validate the spec once, returning the (possibly fixed-up) spec the
    /// campaign will actually run plus any warnings.  The sweep planner
    /// calls this once per cell at campaign start, so [`Campaign::run`]
    /// does too, and the warnings are logged once instead of each
    /// experiment clamping `hang_factor` silently.
    pub fn validate(&self) -> (CampaignSpec, Vec<CampaignWarning>) {
        let mut spec = *self;
        let mut warnings = Vec::new();
        if spec.hang_factor < MIN_HANG_FACTOR {
            warnings.push(CampaignWarning::HangFactorRaised {
                requested: spec.hang_factor,
                used: MIN_HANG_FACTOR,
            });
            spec.hang_factor = MIN_HANG_FACTOR;
        }
        (spec, warnings)
    }
}

/// The hang factor campaigns run with unless asked for another: the low end
/// of the 10–100x golden length the paper's §III-E takes from LLFI.  No run
/// that ended on the full grid at seeds 1–3 took more than 3.38x its golden
/// length, so every outcome is the same as at the range's high end.
pub const DEFAULT_HANG_FACTOR: u64 = 10;

/// The smallest hang factor any campaign runs with.  Runs that end take up
/// to 3.38x their golden length on the full grid; below 4x, such
/// slowed-down-but-correct runs would read as hangs.
pub const MIN_HANG_FACTOR: u64 = 4;

/// Aggregated results of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The campaign's configuration (after [`CampaignSpec::validate`] fix-ups).
    pub spec: CampaignSpec,
    /// Outcome counts over all experiments.
    pub counts: OutcomeCounts,
    /// Histogram of the number of activated errors per experiment
    /// (index = number of activated flips).
    pub activation_histogram: Vec<u64>,
    /// Histogram of activated errors restricted to experiments that ended in
    /// a hardware exception (used for Fig. 3 / RQ1).
    pub crash_activation_histogram: Vec<u64>,
    /// Validation warnings the campaign ran with, so library callers can
    /// inspect them without scraping stderr (each distinct warning is still
    /// printed to stderr once per run/sweep).
    pub warnings: Vec<CampaignWarning>,
    /// How adaptive precision-targeted sampling ended this cell (realized
    /// intervals, rounds, whether the target was met).  `None` for classic
    /// fixed-n campaigns — the default everywhere.
    pub adaptive: Option<AdaptiveStatus>,
}

impl CampaignResult {
    /// Total number of experiments.
    pub fn total(&self) -> u64 {
        self.counts.total()
    }

    /// SDC percentage.
    pub fn sdc_pct(&self) -> f64 {
        self.counts.sdc_pct()
    }

    /// SDC proportion with its 95 % confidence interval.
    pub fn sdc_proportion(&self) -> Proportion {
        wald_interval(self.counts.sdc, self.counts.total())
    }

    /// Proportion (with CI) of one outcome category.
    pub fn proportion(&self, outcome: Outcome) -> Proportion {
        wald_interval(self.counts.get(outcome), self.counts.total())
    }

    /// Wire encoding of the full result.  Every field round-trips exactly
    /// (floats use the shortest-round-trip writer), so a result that crossed
    /// the serve wire compares byte-identical to the in-process one.
    pub fn to_json(&self) -> crate::report::json::Json {
        let mut obj = crate::report::json::Json::object();
        obj.set("spec", self.spec.to_json());
        obj.set("counts", self.counts.to_json());
        obj.set("activation_histogram", self.activation_histogram.clone());
        obj.set(
            "crash_activation_histogram",
            self.crash_activation_histogram.clone(),
        );
        obj.set(
            "warnings",
            crate::report::json::Json::Arr(self.warnings.iter().map(|w| w.to_json()).collect()),
        );
        obj.set(
            "adaptive",
            match &self.adaptive {
                Some(status) => status.to_json(),
                None => crate::report::json::Json::Null,
            },
        );
        obj
    }

    /// Parse the wire encoding back.
    pub fn from_json(v: &crate::report::json::Json) -> Option<CampaignResult> {
        let histogram = |key: &str| -> Option<Vec<u64>> {
            v.get(key)?.as_array()?.iter().map(|x| x.as_u64()).collect()
        };
        Some(CampaignResult {
            spec: CampaignSpec::from_json(v.get("spec")?)?,
            counts: OutcomeCounts::from_json(v.get("counts")?)?,
            activation_histogram: histogram("activation_histogram")?,
            crash_activation_histogram: histogram("crash_activation_histogram")?,
            warnings: v
                .get("warnings")?
                .as_array()?
                .iter()
                .map(CampaignWarning::from_json)
                .collect::<Option<Vec<_>>>()?,
            adaptive: match v.get("adaptive")? {
                crate::report::json::Json::Null => None,
                status => Some(AdaptiveStatus::from_json(status)?),
            },
        })
    }

    /// Mean number of activated errors per experiment.
    pub fn mean_activated(&self) -> f64 {
        let total: u64 = self.activation_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .activation_histogram
            .iter()
            .enumerate()
            .map(|(k, n)| k as u64 * n)
            .sum();
        weighted as f64 / total as f64
    }
}

/// Campaign runner.
#[derive(Debug, Clone, Copy, Default)]
pub struct Campaign;

impl Campaign {
    /// Run `spec.experiments` experiments on a lowered module, spreading
    /// them over `spec.threads` worker threads (0 = all cores), and through
    /// `store` when one is given.
    ///
    /// This is a single-cell [`Sweep`]: the campaign's experiments are
    /// pre-sampled, cut into batches and drained by the sweep's worker pool.
    /// The result is byte-identical at every thread count and with or
    /// without the store — see the determinism contract in [`crate::sweep`].
    /// Adaptive, telemetered or multi-cell runs call [`Sweep::run`] or
    /// [`Sweep::run_streamed`] directly.
    pub fn run(
        code: &CompiledModule,
        golden: &GoldenRun,
        spec: &CampaignSpec,
        store: Option<&CheckpointStore>,
    ) -> CampaignResult {
        let units = [SweepUnit {
            code,
            golden,
            store,
        }];
        let campaigns = [SweepCampaign {
            unit: 0,
            spec: *spec,
        }];
        let config = SweepConfig {
            threads: spec.threads,
            ..SweepConfig::default()
        };
        Sweep::run(&units, &campaigns, &config)
            .results
            .pop()
            .expect("a one-cell sweep returns one result")
            .result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_model::WinSize;
    use mbfi_ir::{ModuleBuilder, Type};

    fn workload() -> CompiledModule {
        let mut mb = ModuleBuilder::new("w");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let data = f.alloca(Type::I64, 16i64);
            f.counted_loop(Type::I64, 0i64, 16i64, |f, i| {
                let v = f.mul(Type::I64, i, 3i64);
                f.store_elem(Type::I64, data, i, v);
            });
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 16i64, |f, i| {
                let v = f.load_elem(Type::I64, data, i);
                let cur = f.load(Type::I64, acc);
                let next = f.add(Type::I64, cur, v);
                f.store(Type::I64, next, acc);
            });
            let total = f.load(Type::I64, acc);
            f.print_i64(total);
            f.ret_void();
        }
        mb.set_entry(main);
        CompiledModule::lower(&mb.finish())
    }

    #[test]
    fn campaign_counts_add_up() {
        let m = workload();
        let golden = GoldenRun::capture_compiled(&m).unwrap();
        let spec = CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::single_bit(),
            experiments: 200,
            seed: 5,
            hang_factor: 10,
            threads: 2,
        };
        let r = Campaign::run(&m, &golden, &spec, None);
        assert_eq!(r.total(), 200);
        let hist_total: u64 = r.activation_histogram.iter().sum();
        assert_eq!(hist_total, 200);
        assert!(r.sdc_pct() >= 0.0 && r.sdc_pct() <= 100.0);
        assert!(r.mean_activated() <= 1.0);
    }

    #[test]
    fn campaign_is_deterministic_regardless_of_thread_count() {
        let m = workload();
        let golden = GoldenRun::capture_compiled(&m).unwrap();
        let base = CampaignSpec {
            technique: Technique::InjectOnWrite,
            model: FaultModel::multi_bit(3, WinSize::Fixed(1)),
            experiments: 120,
            seed: 77,
            hang_factor: 10,
            threads: 1,
        };
        let r1 = Campaign::run(&m, &golden, &base, None);
        let r2 = Campaign::run(&m, &golden, &CampaignSpec { threads: 4, ..base }, None);
        assert_eq!(r1.counts, r2.counts);
        assert_eq!(r1.activation_histogram, r2.activation_histogram);
    }

    #[test]
    fn multi_bit_campaign_activates_multiple_errors() {
        let m = workload();
        let golden = GoldenRun::capture_compiled(&m).unwrap();
        let spec = CampaignSpec {
            technique: Technique::InjectOnWrite,
            model: FaultModel::multi_bit(4, WinSize::Fixed(0)),
            experiments: 100,
            seed: 3,
            hang_factor: 10,
            threads: 2,
        };
        let r = Campaign::run(&m, &golden, &spec, None);
        assert_eq!(r.activation_histogram.len(), 5);
        // With win-size = 0 the full burst is applied at one instruction, so
        // many experiments should activate all 4 flips.
        assert!(r.activation_histogram[4] > 0);
        assert!(r.mean_activated() > 1.0);
    }

    #[test]
    fn crash_histogram_only_counts_crashes() {
        let m = workload();
        let golden = GoldenRun::capture_compiled(&m).unwrap();
        let spec = CampaignSpec {
            technique: Technique::InjectOnRead,
            model: FaultModel::single_bit(),
            experiments: 150,
            seed: 11,
            hang_factor: 10,
            threads: 2,
        };
        let r = Campaign::run(&m, &golden, &spec, None);
        let crash_total: u64 = r.crash_activation_histogram.iter().sum();
        assert_eq!(crash_total, r.counts.hw_exception);
    }

    #[test]
    fn hang_factor_is_validated_once_at_campaign_start() {
        let (spec, warnings) = CampaignSpec {
            hang_factor: 0,
            ..CampaignSpec::default()
        }
        .validate();
        assert_eq!(spec.hang_factor, MIN_HANG_FACTOR);
        assert_eq!(
            warnings,
            vec![CampaignWarning::HangFactorRaised {
                requested: 0,
                used: MIN_HANG_FACTOR
            }]
        );
        assert!(warnings[0].to_string().contains("below the minimum"));

        let (spec, warnings) = CampaignSpec::default().validate();
        assert_eq!(spec.hang_factor, CampaignSpec::default().hang_factor);
        assert!(warnings.is_empty());

        // A campaign with a too-low hang factor runs with the fixed-up value
        // and records it in the result's spec.
        let m = workload();
        let golden = GoldenRun::capture_compiled(&m).unwrap();
        let r = Campaign::run(
            &m,
            &golden,
            &CampaignSpec {
                experiments: 10,
                hang_factor: 1,
                threads: 1,
                ..CampaignSpec::default()
            },
            None,
        );
        assert_eq!(r.spec.hang_factor, MIN_HANG_FACTOR);
        assert_eq!(r.total(), 10);
    }

    #[test]
    fn replayed_campaign_is_byte_identical_to_full_execution() {
        let m = workload();
        let golden = GoldenRun::capture_compiled(&m).unwrap();
        let store = crate::replay::CheckpointStore::capture_compiled(
            &m,
            &golden,
            crate::replay::CheckpointConfig::with_interval(25),
        )
        .unwrap();
        for technique in Technique::ALL {
            let spec = CampaignSpec {
                technique,
                model: FaultModel::multi_bit(3, WinSize::Random { lo: 1, hi: 16 }),
                experiments: 120,
                seed: 0xBEE5,
                hang_factor: 10,
                threads: 3,
            };
            let full = Campaign::run(&m, &golden, &spec, None);
            let replayed = Campaign::run(&m, &golden, &spec, Some(&store));
            assert_eq!(
                full, replayed,
                "{technique}: replay changed the campaign result"
            );
        }
    }

    #[test]
    fn grid_points_run_as_one_sweep_with_one_result_per_point() {
        let m = workload();
        let golden = GoldenRun::capture_compiled(&m).unwrap();
        let points = [
            CampaignPoint {
                technique: Technique::InjectOnRead,
                model: FaultModel::single_bit(),
            },
            CampaignPoint {
                technique: Technique::InjectOnRead,
                model: FaultModel::multi_bit(2, WinSize::Fixed(1)),
            },
        ];
        let units = [SweepUnit {
            code: &m,
            golden: &golden,
            store: None,
        }];
        let campaigns: Vec<SweepCampaign> = points
            .iter()
            .map(|p| SweepCampaign {
                unit: 0,
                spec: CampaignSpec::from_point(*p, 50, 9),
            })
            .collect();
        let report = Sweep::run(&units, &campaigns, &SweepConfig::default());
        assert_eq!(report.results.len(), 2);
        for (cell, got) in campaigns.iter().zip(&report.results) {
            assert_eq!(got.result.total(), 50);
            assert_eq!(got.result, Campaign::run(&m, &golden, &cell.spec, None));
        }
    }
}
