//! Regenerates every table and figure of the paper in one run, followed by
//! the aggregated RQ1–RQ5 summary.
//!
//! Every campaign any figure or table needs is requested on one
//! [`harness::CampaignGrid`] — shared cells (the single-bit baselines, the
//! max-MBF = 30 activation row) deduplicate — and executed as **one**
//! whole-grid sweep on one global worker pool; the renderers
//! then extract their slices from the streamed results.  Artifacts are
//! byte-identical to the pre-sweep per-campaign walk.
//!
//! Pass `--show-grid` to print Table I (the parameter grid) and exit.

use mbfi_bench::{harness, Artefact};
use mbfi_core::{ParameterGrid, Technique};

fn main() {
    if std::env::args().any(|a| a == "--show-grid") {
        println!("{}", ParameterGrid::table1());
        println!(
            "campaigns per workload: {}",
            ParameterGrid::all_campaigns().len()
        );
        return;
    }

    let cfg = harness::HarnessConfig::from_env();
    eprintln!(
        "run_all: {} workloads, {}, {} input, grid = {}, replay = {}",
        cfg.workloads().len(),
        cfg.sampling_label(),
        cfg.size,
        if cfg.full_grid { "full" } else { "coarse" },
        if cfg.replay { "on" } else { "off" }
    );
    let mut artefact = Artefact::from_args("run_all");
    let mut grid = harness::CampaignGrid::new(&cfg);
    grid.request_artifact_grid();
    match &cfg.precision {
        Some(_) => eprintln!(
            "run_all: sweeping {} campaign cells (adaptive budgets) on one executor",
            grid.cell_count()
        ),
        None => eprintln!(
            "run_all: sweeping {} campaign cells ({} experiments) on one executor",
            grid.cell_count(),
            grid.cell_count() * cfg.experiments
        ),
    }
    let run = grid.run();
    if let Some((met, capped, worst)) = run.adaptive_summary() {
        eprintln!(
            "run_all: adaptive sampling ran {} experiments over {} cells \
             ({met} met the target, {capped} capped at max; worst realized half-width \
             {worst:.2} pts)",
            run.total_experiments(),
            run.cell_count(),
        );
    }

    // Table II.
    artefact.emit(harness::table2(&cfg, &run.data).render());

    // Fig. 1.
    let singles = harness::single_bit_results(&run);
    for (_, table) in harness::fig1(&singles) {
        artefact.emit(table.render());
    }

    // Fig. 2.
    for technique in Technique::ALL {
        let results = harness::same_register_results(&cfg, &run, technique);
        artefact.emit(harness::fig2(technique, &results).render());
    }

    // Fig. 3.
    let read_activation_campaigns =
        harness::activation_results(&cfg, &run, Technique::InjectOnRead);
    let (t, read_activation) = harness::fig3(Technique::InjectOnRead, &read_activation_campaigns);
    artefact.emit(t.render());
    let write_activation_campaigns =
        harness::activation_results(&cfg, &run, Technique::InjectOnWrite);
    let (t, write_activation) =
        harness::fig3(Technique::InjectOnWrite, &write_activation_campaigns);
    artefact.emit(t.render());

    // Fig. 4 / Fig. 5 and the tables derived from them.
    let read = harness::multi_register_results(&cfg, &run, Technique::InjectOnRead);
    let write = harness::multi_register_results(&cfg, &run, Technique::InjectOnWrite);
    for fig in harness::fig45(Technique::InjectOnRead, &read) {
        artefact.emit(fig.render());
    }
    for fig in harness::fig45(Technique::InjectOnWrite, &write) {
        artefact.emit(fig.render());
    }
    artefact.emit(harness::table3(&read, &write).render());
    let (t4, locations) = harness::table4(&cfg, &run.data, &read, &write);
    artefact.emit(t4.render());

    // RQ summary.
    artefact.emit(harness::summary(
        &read_activation,
        &write_activation,
        &read,
        &write,
        &locations,
    ));
    artefact.finish();
}
