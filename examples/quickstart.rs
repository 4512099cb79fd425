//! Quickstart: build a tiny program, run a single bit-flip campaign against
//! it with both injection techniques, and print the outcome breakdown.
//!
//! Run with: `cargo run -p mbfi-bench --example quickstart`

use mbfi_core::{Campaign, CampaignSpec, FaultModel, GoldenRun, Outcome, Technique};
use mbfi_ir::{CompiledModule, ModuleBuilder, Type};

fn main() {
    // 1. Build a program with the IR builder: it fills an array with squares
    //    and prints the sum (the observable output used for SDC detection).
    let mut mb = ModuleBuilder::new("quickstart");
    let main = mb.declare("main", &[], None);
    {
        let mut f = mb.define(main);
        let data = f.alloca(Type::I64, 64i64);
        f.counted_loop(Type::I64, 0i64, 64i64, |f, i| {
            let sq = f.mul(Type::I64, i, i);
            f.store_elem(Type::I64, data, i, sq);
        });
        let acc = f.slot(Type::I64);
        f.store(Type::I64, 0i64, acc);
        f.counted_loop(Type::I64, 0i64, 64i64, |f, i| {
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
    // Lower the program once to the flat bytecode every experiment executes.
    let code = CompiledModule::lower(&mb.finish());

    // 2. Capture the golden (fault-free) run: output, dynamic instruction
    //    count and the injection candidate counts.
    let golden =
        GoldenRun::capture_compiled(&code).expect("the quickstart program must run cleanly");
    println!(
        "golden output        : {}",
        String::from_utf8_lossy(&golden.output).trim()
    );
    println!("dynamic instructions : {}", golden.dynamic_instrs);
    println!(
        "injection candidates : {} (read), {} (write)\n",
        golden.candidates(Technique::InjectOnRead),
        golden.candidates(Technique::InjectOnWrite)
    );

    // 3. Run a single bit-flip campaign with each technique.
    for technique in Technique::ALL {
        let spec = CampaignSpec {
            technique,
            model: FaultModel::single_bit(),
            experiments: 400,
            seed: 2024,
            hang_factor: 20,
            threads: 0,
        };
        let result = Campaign::run(&code, &golden, &spec, None);
        println!("{technique} — {} experiments", result.total());
        for outcome in Outcome::ALL {
            println!(
                "  {:<14} {:>5.1}%",
                outcome.to_string(),
                result.counts.fraction(outcome) * 100.0
            );
        }
        let sdc = result.sdc_proportion();
        println!(
            "  SDC = {:.1}% ± {:.1} (95% CI), error resilience = {:.3}\n",
            sdc.percentage(),
            sdc.half_width_pct(),
            result.counts.resilience()
        );
    }
}
