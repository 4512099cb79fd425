//! Pruning layer 3: location sensitivity to multiple bit-flip errors
//! (RQ5, §IV-C3, Fig. 6 and Table IV).
//!
//! For every sampled injection location, a *pair* of experiments is run: a
//! single bit-flip experiment, and a multi-bit experiment (using the
//! worst-case `(max-MBF, win-size)` configuration from Table III) whose
//! *first* flip reuses the same location.  Comparing the two outcomes yields
//! a transition matrix; the two transitions that matter are
//!
//! * **Transition I** (`t_{d→s}`): single-bit Detection, multi-bit SDC, and
//! * **Transition II** (`t_{b→s}`): single-bit Benign, multi-bit SDC,
//!
//! because only those add SDCs beyond the single-bit model.  The paper finds
//! Transition I to be rare, so locations whose single-bit outcome is a
//! Detection (or already an SDC) can be excluded from multi-bit campaigns.
//!
//! ## Execution
//!
//! Pair sampling is serial and separate from execution:
//! [`LocationAnalysis::pair_specs`] draws every pair from one seeded stream.
//! The pairs then run as a listed cell on the sweep executor
//! ([`crate::Sweep::run_streamed`] with
//! [`crate::SweepConfig::keep_records`]), in parallel and, when the unit
//! carries a checkpoint store, restored from the deepest golden checkpoint
//! before their first flip.  Records come back in list order, and replay is
//! byte-transparent, so the matrix is identical to running every pair
//! serially from instruction 0, at any thread count.
//! [`LocationAnalysis::run_many`] submits many analyses (Table IV's 15
//! programs × 2 techniques) as one job, so they load-balance across workers;
//! each cell's records fold into its matrix as soon as the cell finishes.

use crate::campaign::MIN_HANG_FACTOR;
use crate::experiment::ExperimentSpec;
use crate::fault_model::FaultModel;
use crate::golden::GoldenRun;
use crate::outcome::Outcome;
use crate::rng::{Rng, SmallRng};
use crate::sweep::{ListedCell, Sweep, SweepCell, SweepConfig, SweepUnit};
use crate::technique::Technique;
use std::collections::BTreeMap;

/// Counts of (single-bit outcome → multi-bit outcome) transitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransitionMatrix {
    counts: BTreeMap<(Outcome, Outcome), u64>,
}

impl TransitionMatrix {
    /// Record one paired observation.
    pub fn record(&mut self, single: Outcome, multi: Outcome) {
        *self.counts.entry((single, multi)).or_insert(0) += 1;
    }

    /// Count of a specific transition.
    pub fn count(&self, single: Outcome, multi: Outcome) -> u64 {
        self.counts.get(&(single, multi)).copied().unwrap_or(0)
    }

    /// Total observations whose single-bit outcome was `single`.
    pub fn total_from(&self, single: Outcome) -> u64 {
        self.counts
            .iter()
            .filter(|((s, _), _)| *s == single)
            .map(|(_, n)| *n)
            .sum()
    }

    /// Total observations whose single-bit outcome was any Detection category.
    pub fn total_from_detection(&self) -> u64 {
        Outcome::ALL
            .iter()
            .filter(|o| o.is_detection())
            .map(|o| self.total_from(*o))
            .sum()
    }

    /// Total paired observations.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// `P(multi = to | single = from)`, 0 when no observations.
    pub fn probability(&self, from: Outcome, to: Outcome) -> f64 {
        let total = self.total_from(from);
        if total == 0 {
            0.0
        } else {
            self.count(from, to) as f64 / total as f64
        }
    }

    /// Transition I likelihood: single-bit Detection → multi-bit SDC.
    pub fn transition1(&self) -> f64 {
        let from = self.total_from_detection();
        if from == 0 {
            return 0.0;
        }
        let hits: u64 = Outcome::ALL
            .iter()
            .filter(|o| o.is_detection())
            .map(|o| self.count(*o, Outcome::Sdc))
            .sum();
        hits as f64 / from as f64
    }

    /// Transition II likelihood: single-bit Benign → multi-bit SDC.
    pub fn transition2(&self) -> f64 {
        self.probability(Outcome::Benign, Outcome::Sdc)
    }

    /// Fraction of locations whose single-bit outcome was an SDC or a
    /// Detection — the locations the paper proposes to exclude from
    /// multi-bit campaigns.
    pub fn prunable_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let prunable: u64 = Outcome::ALL
            .iter()
            .filter(|o| o.is_detection() || **o == Outcome::Sdc)
            .map(|o| self.total_from(*o))
            .sum();
        prunable as f64 / total as f64
    }
}

/// Result of a location-sensitivity analysis for one workload / technique.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationAnalysis {
    /// Technique used for both campaigns of every pair.
    pub technique: Technique,
    /// The worst-case multi-bit model used for the second experiment of each pair.
    pub worst_model: FaultModel,
    /// The transition matrix.
    pub matrix: TransitionMatrix,
}

/// One analysis of a [`LocationAnalysis::run_many`] job: the arguments of
/// [`LocationAnalysis::run`], with the unit given as an index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationRequest {
    /// Index into the units slice.
    pub unit: usize,
    /// Technique of both experiments of every pair.
    pub technique: Technique,
    /// Fault model of the multi-bit experiment of every pair.
    pub worst_model: FaultModel,
    /// Number of pairs.
    pub pairs: usize,
    /// Seed of the pair sampling stream.
    pub seed: u64,
    /// Hang threshold multiplier (raised to [`MIN_HANG_FACTOR`]).
    pub hang_factor: u64,
}

impl LocationAnalysis {
    /// The `(single-bit, multi-bit)` experiment pairs of an analysis, drawn
    /// serially from one stream seeded by `seed`.
    ///
    /// Each pair shares a first-injection location drawn uniformly from the
    /// golden run's candidate set; the multi-bit experiment uses
    /// `worst_model` and the seed of pair `i` is the single-bit seed plus
    /// `i`.
    pub fn pair_specs(
        golden: &GoldenRun,
        technique: Technique,
        worst_model: FaultModel,
        pairs: usize,
        seed: u64,
        hang_factor: u64,
    ) -> Vec<(ExperimentSpec, ExperimentSpec)> {
        let hang_factor = hang_factor.max(MIN_HANG_FACTOR);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x10CA_7104);
        let candidates = golden.candidates(technique).max(1);
        (0..pairs)
            .map(|i| {
                let first_target = rng.gen_range(0..candidates);
                let bit_seed = rng.next_u64();
                let win_value = worst_model.win_size.sample(&mut rng);
                let single = ExperimentSpec {
                    technique,
                    model: FaultModel::single_bit(),
                    first_target,
                    win_size_value: 0,
                    seed: bit_seed,
                    hang_factor,
                };
                let multi = ExperimentSpec {
                    technique,
                    model: worst_model,
                    first_target,
                    win_size_value: win_value,
                    seed: bit_seed.wrapping_add(i as u64),
                    hang_factor,
                };
                (single, multi)
            })
            .collect()
    }

    /// Run `pairs` paired experiments ([`LocationAnalysis::pair_specs`]) on
    /// one workload, on the sweep executor with `config`'s threads.
    pub fn run(
        unit: SweepUnit<'_>,
        technique: Technique,
        worst_model: FaultModel,
        pairs: usize,
        seed: u64,
        hang_factor: u64,
        config: &SweepConfig,
    ) -> LocationAnalysis {
        let request = LocationRequest {
            unit: 0,
            technique,
            worst_model,
            pairs,
            seed,
            hang_factor,
        };
        Self::run_many(&[unit], &[request], config).remove(0)
    }

    /// Run many analyses as one sweep job, one listed cell each; results in
    /// request order.
    pub fn run_many(
        units: &[SweepUnit<'_>],
        requests: &[LocationRequest],
        config: &SweepConfig,
    ) -> Vec<LocationAnalysis> {
        let cells = requests
            .iter()
            .map(|r| {
                SweepCell::Listed(ListedCell {
                    unit: r.unit,
                    specs: Self::pair_specs(
                        units[r.unit].golden,
                        r.technique,
                        r.worst_model,
                        r.pairs,
                        r.seed,
                        r.hang_factor,
                    )
                    .into_iter()
                    .flat_map(|(single, multi)| [single, multi])
                    .collect(),
                })
            })
            .collect();
        let config = SweepConfig {
            keep_records: true,
            ..*config
        };
        let mut matrices = vec![TransitionMatrix::default(); requests.len()];
        Sweep::run_streamed(units, cells, &config, None, |cell, result| {
            for pair in result.records.chunks_exact(2) {
                matrices[cell].record(pair[0].outcome, pair[1].outcome);
            }
        });
        matrices
            .into_iter()
            .zip(requests)
            .map(|(matrix, r)| LocationAnalysis {
                technique: r.technique,
                worst_model: r.worst_model,
                matrix,
            })
            .collect()
    }

    /// Transition I likelihood (Detection → SDC).
    pub fn transition1(&self) -> f64 {
        self.matrix.transition1()
    }

    /// Transition II likelihood (Benign → SDC).
    pub fn transition2(&self) -> f64 {
        self.matrix.transition2()
    }

    /// Fraction of single-bit locations that can be pruned from multi-bit
    /// campaigns (those whose single-bit outcome was SDC or Detection).
    pub fn prunable_fraction(&self) -> f64 {
        self.matrix.prunable_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_model::WinSize;
    use mbfi_ir::{CompiledModule, Module, ModuleBuilder, Type};

    #[test]
    fn matrix_counts_and_probabilities() {
        let mut m = TransitionMatrix::default();
        for _ in 0..8 {
            m.record(Outcome::Benign, Outcome::Benign);
        }
        for _ in 0..2 {
            m.record(Outcome::Benign, Outcome::Sdc);
        }
        for _ in 0..9 {
            m.record(Outcome::DetectedHwException, Outcome::DetectedHwException);
        }
        m.record(Outcome::DetectedHwException, Outcome::Sdc);
        for _ in 0..5 {
            m.record(Outcome::Sdc, Outcome::Sdc);
        }

        assert_eq!(m.total(), 25);
        assert_eq!(m.total_from(Outcome::Benign), 10);
        assert_eq!(m.total_from_detection(), 10);
        assert!((m.transition2() - 0.2).abs() < 1e-12);
        assert!((m.transition1() - 0.1).abs() < 1e-12);
        // Prunable: Detection (10) + single-bit SDC (5) out of 25.
        assert!((m.prunable_fraction() - 0.6).abs() < 1e-12);
        assert_eq!(m.count(Outcome::Benign, Outcome::Hang), 0);
        assert_eq!(m.probability(Outcome::Hang, Outcome::Sdc), 0.0);
    }

    fn workload() -> Module {
        let mut mb = ModuleBuilder::new("w");
        let main = mb.declare("main", &[], None);
        {
            let mut f = mb.define(main);
            let data = f.alloca(Type::I64, 24i64);
            f.counted_loop(Type::I64, 0i64, 24i64, |f, i| {
                let v = f.xor(Type::I64, i, 0x2ai64);
                f.store_elem(Type::I64, data, i, v);
            });
            let acc = f.slot(Type::I64);
            f.store(Type::I64, 0i64, acc);
            f.counted_loop(Type::I64, 0i64, 24i64, |f, i| {
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
        mb.finish()
    }

    #[test]
    fn paired_analysis_runs_on_a_real_workload() {
        let code = CompiledModule::lower(&workload());
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let unit = SweepUnit {
            code: &code,
            golden: &golden,
            store: None,
        };
        let analysis = LocationAnalysis::run(
            unit,
            Technique::InjectOnWrite,
            FaultModel::multi_bit(3, WinSize::Fixed(1)),
            120,
            42,
            10,
            &SweepConfig::default(),
        );
        assert_eq!(analysis.matrix.total(), 120);
        assert!(analysis.prunable_fraction() >= 0.0 && analysis.prunable_fraction() <= 1.0);
        assert!(analysis.transition1() >= 0.0 && analysis.transition1() <= 1.0);
        assert!(analysis.transition2() >= 0.0 && analysis.transition2() <= 1.0);
    }

    /// No pairs: an empty cell finishes up front, without a worker.
    #[test]
    fn zero_pairs_give_an_empty_matrix() {
        let code = CompiledModule::lower(&workload());
        let golden = GoldenRun::capture_compiled(&code).unwrap();
        let unit = SweepUnit {
            code: &code,
            golden: &golden,
            store: None,
        };
        let model = FaultModel::multi_bit(3, WinSize::Fixed(1));
        assert!(
            LocationAnalysis::pair_specs(&golden, Technique::InjectOnRead, model, 0, 1, 10)
                .is_empty()
        );
        for threads in [1, 4] {
            let config = SweepConfig {
                threads,
                ..SweepConfig::default()
            };
            let analysis =
                LocationAnalysis::run(unit, Technique::InjectOnRead, model, 0, 1, 10, &config);
            assert_eq!(analysis.matrix.total(), 0);
        }
    }

    /// The hang floor campaigns get applies to pairs too.
    #[test]
    fn pair_specs_raise_the_hang_factor_to_the_campaign_floor() {
        let golden = GoldenRun::capture(&workload()).unwrap();
        let model = FaultModel::multi_bit(3, WinSize::Fixed(1));
        for (single, multi) in
            LocationAnalysis::pair_specs(&golden, Technique::InjectOnRead, model, 4, 1, 0)
        {
            assert_eq!(single.hang_factor, MIN_HANG_FACTOR);
            assert_eq!(multi.hang_factor, MIN_HANG_FACTOR);
            assert_eq!(single.first_target, multi.first_target);
        }
    }

    #[test]
    fn empty_matrix_is_safe() {
        let m = TransitionMatrix::default();
        assert_eq!(m.transition1(), 0.0);
        assert_eq!(m.transition2(), 0.0);
        assert_eq!(m.prunable_fraction(), 0.0);
    }
}
