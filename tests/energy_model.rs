//! End-to-end checks of the paper's energy-delay claims using real
//! cycle-level activity (the small-input `bst`, as in §3 methodology).

use tia::core::{Pipeline, UarchConfig, UarchPe};
use tia::energy::dse::{evaluate, explore, CpiMeasurement};
use tia::energy::pareto::{density_context, frontier_energy_improvement, pareto_frontier, span};
use tia::energy::tech::VtClass;
use tia::energy::{critical_path_fo4, max_frequency_mhz};
use tia::isa::Params;
use tia::workloads::{Scale, ALL_WORKLOADS};

fn suite_activity() -> impl FnMut(&UarchConfig) -> CpiMeasurement {
    let params = Params::default();
    move |config: &UarchConfig| {
        let mut cpi_sum = 0.0;
        let mut issue_sum = 0.0;
        for kind in ALL_WORKLOADS {
            let mut factory = |p: &Params, prog| UarchPe::new(p, *config, prog);
            let mut built = kind
                .build(&params, Scale::Test, &mut factory)
                .expect("workload builds");
            built.run_to_completion().expect("workload runs");
            let c = built.system.pe(built.worker).counters();
            cpi_sum += c.cpi();
            issue_sum += (c.retired + c.quashed) as f64 / c.cycles.max(1) as f64;
        }
        let n = ALL_WORKLOADS.len() as f64;
        CpiMeasurement {
            cpi: cpi_sum / n,
            issue_rate: issue_sum / n,
            ..CpiMeasurement::default()
        }
    }
}

#[test]
fn the_design_space_reproduces_the_papers_headline_spans() {
    let points = explore(&mut suite_activity());
    assert!(points.len() > 4_000, "{} points", points.len());
    let (e_span, d_span) = span(&points);
    // Paper: 71x energy, 225x delay. The shape claim: both spans are
    // enormous for a single architectural design point.
    assert!(e_span > 25.0, "energy span only {e_span:.1}x");
    assert!(d_span > 80.0, "delay span only {d_span:.1}x");
}

#[test]
fn optimizations_improve_the_balanced_frontier() {
    let points = explore(&mut suite_activity());
    let balanced: Vec<_> = points
        .iter()
        .copied()
        .filter(|p| p.ns_per_inst <= 10.0)
        .collect();
    let frontier_for = |p_on: bool, q_on: bool| {
        pareto_frontier(
            &balanced
                .iter()
                .copied()
                .filter(|p| {
                    p.config.predicate_prediction == p_on && p.config.effective_queue_status == q_on
                })
                .collect::<Vec<_>>(),
        )
    };
    let none = frontier_for(false, false);
    // The optimized family: +P, +Q and +P+Q together, as in the
    // paper's summary ("the two microarchitectural knobs offer clear
    // benefits — together in ultra low power and moderate cases and in
    // queue status alone in high performance").
    let optimized = pareto_frontier(
        &balanced
            .iter()
            .copied()
            .filter(|p| p.config.predicate_prediction || p.config.effective_queue_status)
            .collect::<Vec<_>>(),
    );
    let improvement = frontier_energy_improvement(&none, &optimized);
    // Paper: 20-25% better near the balanced region; require a solid
    // improvement without pinning the value.
    // The direction reproduces robustly; the magnitude is smaller than
    // the paper's because our cycle-level CPI gains (15-20%) are below
    // the FPGA-measured 35% (see EXPERIMENTS.md).
    assert!(
        improvement > 0.02,
        "frontier improvement only {:.1}%",
        100.0 * improvement
    );
    // +Q alone is timing- and power-free, so its frontier can never be
    // worse than the unoptimized one.
    let q_only = frontier_for(false, true);
    let q_improvement = frontier_energy_improvement(&none, &q_only);
    assert!(
        q_improvement >= -1e-9,
        "+Q-only frontier regressed by {:.1}%",
        -100.0 * q_improvement
    );
}

#[test]
fn pareto_designs_sit_below_cpu_and_gpu_power_density() {
    let points = explore(&mut suite_activity());
    let frontier = pareto_frontier(&points);
    assert!(!frontier.is_empty());
    for p in &frontier {
        assert!(
            p.power_density() < density_context::GPU_MAX,
            "{} at {:.0} mW/mm² exceeds the 65nm GPU ceiling",
            p.config,
            p.power_density()
        );
        assert!(p.power_density() < density_context::CPU_MEAN);
    }
}

#[test]
fn high_performance_extreme_is_a_split_alu_two_stager_in_lvt() {
    // Figure 8: the fastest design is TDX1|X2 +Q in low-VT at
    // ~1157 MHz with 1.37 ns/instruction.
    let points = explore(&mut suite_activity());
    let frontier = pareto_frontier(&points);
    let fastest = frontier.first().expect("non-empty");
    assert_eq!(fastest.vt, VtClass::Low, "fastest design uses low VT");
    assert!(
        fastest.config.pipeline.depth() >= 2,
        "fastest design is pipelined"
    );
    assert!(
        fastest.ns_per_inst < 3.0,
        "fastest: {:.2} ns/inst (paper: 1.37)",
        fastest.ns_per_inst
    );
    // And the lowest-energy extreme is high-VT at low voltage.
    let frugal = frontier.last().expect("non-empty");
    assert_eq!(frugal.vt, VtClass::High, "most frugal design uses high VT");
    assert!(frugal.vdd <= 0.6);
    assert!(
        frugal.pj_per_inst < 3.0,
        "frugal: {:.2} pJ/inst (paper: 0.89)",
        frugal.pj_per_inst
    );
}

#[test]
fn timing_anchors_hold_end_to_end() {
    let deep = UarchConfig::base(Pipeline::T_D_X1_X2);
    assert!((critical_path_fo4(&deep) - 53.6).abs() < 1e-9);
    let f = max_frequency_mhz(&deep, 1.0, VtClass::Standard);
    assert!((f - 1184.0).abs() < 15.0, "{f:.0} MHz");
    let spec = UarchConfig::with_p(Pipeline::T_D_X1_X2);
    assert!((critical_path_fo4(&spec) - 64.3).abs() < 1e-9);

    // A 500 MHz SVT design point for the deep pipeline burns ~2.85 mW
    // (§5.4 anchor), independent of workload activity at full issue.
    let p = evaluate(
        &deep,
        VtClass::Standard,
        1.0,
        500.0,
        CpiMeasurement::ideal(),
    )
    .expect("feasible");
    assert!((p.power_mw - 2.852).abs() < 0.2, "{:.3} mW", p.power_mw);
}
