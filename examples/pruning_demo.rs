//! Demonstrates the paper's third pruning layer (RQ5): use single bit-flip
//! outcomes to decide where multi-bit injections are worth running.
//!
//! Run with: `cargo run --release -p mbfi-bench --example pruning_demo`

use mbfi_core::pruning::LocationAnalysis;
use mbfi_core::{FaultModel, GoldenRun, Outcome, SweepConfig, SweepUnit, Technique, WinSize};
use mbfi_ir::CompiledModule;
use mbfi_workloads::{workload_by_name, InputSize};

fn main() {
    let pairs: usize = std::env::var("MBFI_EXPERIMENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);

    for name in ["qsort", "stringsearch", "histo"] {
        let workload = workload_by_name(name).expect("registered workload");
        let code = CompiledModule::lower(&workload.build_module(InputSize::Tiny));
        let golden = GoldenRun::capture_compiled(&code).expect("golden run");
        let unit = SweepUnit {
            code: &code,
            golden: &golden,
            store: None,
        };

        println!("== {} ==", workload.name());
        for technique in Technique::ALL {
            // The worst-case multi-bit configuration the paper uses for this
            // analysis is taken from Table III; three flips one instruction
            // apart is representative for inject-on-write, two flips a larger
            // window apart for inject-on-read.
            let worst = if technique.is_write() {
                FaultModel::multi_bit(3, WinSize::Fixed(1))
            } else {
                FaultModel::multi_bit(2, WinSize::Fixed(100))
            };
            let analysis = LocationAnalysis::run(
                unit,
                technique,
                worst,
                pairs,
                9,
                20,
                &SweepConfig::default(),
            );

            println!(
                "  {technique}: Transition I (Detection→SDC) = {:.1}%, \
Transition II (Benign→SDC) = {:.1}%",
                analysis.transition1() * 100.0,
                analysis.transition2() * 100.0
            );
            println!(
                "    single-bit outcomes at the sampled locations: benign {:.0}%, detection {:.0}%, sdc {:.0}%",
                analysis.matrix.total_from(Outcome::Benign) as f64 / analysis.matrix.total() as f64 * 100.0,
                analysis.matrix.total_from_detection() as f64 / analysis.matrix.total() as f64 * 100.0,
                analysis.matrix.total_from(Outcome::Sdc) as f64 / analysis.matrix.total() as f64 * 100.0,
            );
            println!(
                "    => {:.1}% of locations can be pruned from multi-bit campaigns \
(their single-bit outcome was Detection or SDC)",
                analysis.prunable_fraction() * 100.0
            );
        }
        println!();
    }
}
