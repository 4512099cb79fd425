//! A miniature version of the paper's study on real workloads: compare the
//! single bit-flip model against multiple bit-flip configurations on a few
//! MiBench/Parboil-style programs and report which model is pessimistic.
//!
//! Run with: `cargo run --release -p mbfi-bench --example resilience_study`
//!
//! Environment knobs: `MBFI_EXPERIMENTS` (default 120), `MBFI_WORKLOADS`
//! (default "qsort,CRC32,dijkstra,histo").

use mbfi_core::pruning::PessimisticAnalysis;
use mbfi_core::{Campaign, CampaignSpec, FaultModel, GoldenRun, Technique, WinSize};
use mbfi_ir::CompiledModule;
use mbfi_workloads::{workload_by_name, InputSize};

fn main() {
    let experiments: usize = std::env::var("MBFI_EXPERIMENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);
    let names = std::env::var("MBFI_WORKLOADS")
        .unwrap_or_else(|_| "qsort,CRC32,dijkstra,histo".to_string());

    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>14} {:>8}",
        "program", "technique", "1-bit SDC%", "worst SDC%", "worst config", "enough"
    );
    println!("{}", "-".repeat(84));

    for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let workload = match workload_by_name(name) {
            Some(w) => w,
            None => {
                eprintln!("unknown workload '{name}', skipping");
                continue;
            }
        };
        let code = CompiledModule::lower(&workload.build_module(InputSize::Tiny));
        let golden = GoldenRun::capture_compiled(&code).expect("workload golden run");

        for technique in Technique::ALL {
            let spec = |model| CampaignSpec {
                technique,
                model,
                experiments,
                seed: 77,
                hang_factor: 20,
                threads: 0,
            };
            let single = Campaign::run(&code, &golden, &spec(FaultModel::single_bit()), None);
            let mut multi = Vec::new();
            for max_mbf in [2u32, 3, 5, 10] {
                for win in [WinSize::Fixed(1), WinSize::Fixed(100)] {
                    multi.push(Campaign::run(
                        &code,
                        &golden,
                        &spec(FaultModel::multi_bit(max_mbf, win)),
                        None,
                    ));
                }
            }
            let cmp = PessimisticAnalysis::default().compare(&single, &multi);
            println!(
                "{:<16} {:<14} {:>12.2} {:>12.2} {:>14} {:>8}",
                workload.name(),
                technique.short_name(),
                cmp.single_bit_sdc_pct,
                cmp.worst_multi.sdc_pct,
                cmp.worst_multi.model.label(),
                if cmp.single_bit_is_pessimistic {
                    "1 bit"
                } else {
                    "multi"
                }
            );
        }
    }

    println!(
        "\n'enough' = whether the single bit-flip model already gives a pessimistic \
(conservative) SDC estimate for that program/technique, the paper's RQ2."
    );
}
