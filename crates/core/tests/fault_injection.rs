//! End-to-end fault-injection gate for the fault-isolated training fleet.
//!
//! The contract under test: `FracModel::fit` + `score` never panic, always
//! return finite NS scores, and account for every degraded or dropped
//! target in `RunHealth` — under poisoned cells, forced solver divergence,
//! and forced trainer panics. And with no faults at all, the guarded path
//! is bitwise identical to the plain one.

use frac_core::fault::INJECTED_PANIC;
use frac_core::{
    FallbackKind, FaultPlan, FitOptions, FracConfig, FracModel, TargetOutcome, TrainingPlan,
};
use frac_dataset::dataset::{DatasetBuilder, MISSING_CODE};
use frac_dataset::Dataset;
use frac_synth::{ExpressionConfig, ExpressionGenerator};
use proptest::prelude::*;
use std::sync::Once;

/// Suppress the default "thread panicked" stderr spew for *injected* panics
/// only; real panics still report normally.
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(INJECTED_PANIC))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(INJECTED_PANIC));
            if !injected {
                prev(info);
            }
        }));
    });
}

fn expr_data(n_rows: usize, n_features: usize, seed: u64) -> Dataset {
    let (data, _) = ExpressionGenerator::new(ExpressionConfig {
        n_features,
        n_modules: 3,
        anomaly_modules: 1,
        structure_seed: seed,
        ..ExpressionConfig::default()
    })
    .generate(n_rows, 0, seed ^ 0x5EED);
    data
}

fn assert_all_finite(ns: &[f64]) {
    assert!(
        ns.iter().all(|s| s.is_finite()),
        "NS scores must stay finite: {ns:?}"
    );
}

#[test]
fn empty_fault_plan_is_bitwise_identical_to_plain_fit() {
    let data = expr_data(24, 10, 3);
    let train = data.select_rows(&(0..18).collect::<Vec<_>>());
    let test = data.select_rows(&(18..24).collect::<Vec<_>>());
    let plan = TrainingPlan::full(train.n_features());
    let cfg = FracConfig::default();

    let (plain, plain_report) = FracModel::fit(&train, &plan, &cfg);
    let none = FaultPlan::none();
    let options = FitOptions { faults: Some(&none), ..FitOptions::default() };
    let (guarded, guarded_report) = FracModel::fit_with(&train, &plan, &cfg, options);

    let (a, b) = (plain.score(&test), guarded.score(&test));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits(), "clean path must be bit-identical");
    }
    assert_eq!(plain_report.models_trained, guarded_report.models_trained);
    assert_eq!(plain_report.flops, guarded_report.flops);
    assert!(guarded_report.health.is_clean(), "{}", guarded_report.health.summary());
    assert_eq!(guarded_report.health.targets_planned, plan.targets.len());
    assert!(guarded_report.health.summary().contains("fitted cleanly"));
}

#[test]
fn zero_variance_real_target_is_quarantined_not_solved() {
    let mut b = DatasetBuilder::new()
        .real("const", vec![7.25; 20])
        .real("x", (0..20).map(|i| i as f64).collect());
    b = b.real("y", (0..20).map(|i| (i as f64) * 0.5 + 1.0).collect());
    let train = b.build();
    let plan = TrainingPlan::full(3);
    let (model, report) = FracModel::fit(&train, &plan, &FracConfig::default());

    let quarantined: Vec<_> = report
        .health
        .events_for(0)
        .filter(|e| matches!(e.outcome, TargetOutcome::Quarantined { .. }))
        .collect();
    assert_eq!(quarantined.len(), 1, "{}", report.health.summary());
    assert_eq!(report.health.n_quarantined(), 1);
    // Quarantine substitutes the baseline; the target still survives.
    assert_eq!(model.n_targets(), 3);
    assert_eq!(report.health.targets_survived, 3);
    assert_eq!(model.strength_for(0), 0.0);
    assert_all_finite(&model.score(&train));
}

#[test]
fn single_class_categorical_target_is_quarantined() {
    let codes: Vec<u32> = (0..24).map(|i| (i % 3) as u32).collect();
    let train = DatasetBuilder::new()
        .categorical("mono", 3, vec![1; 24])
        .categorical("snp", 3, codes.clone())
        .categorical("snp2", 3, codes.iter().map(|&c| (c + 1) % 3).collect())
        .build();
    let plan = TrainingPlan::full(3);
    let (model, report) = FracModel::fit(&train, &plan, &FracConfig::snp());

    assert!(report.health.events_for(0).any(|e| matches!(
        e.outcome,
        TargetOutcome::Quarantined { .. }
    )));
    assert_eq!(model.n_targets(), 3);
    assert_all_finite(&model.score(&train));
}

#[test]
fn inf_cells_are_sanitized_and_training_proceeds() {
    let mut vals: Vec<f64> = (0..20).map(|i| i as f64).collect();
    vals[3] = f64::INFINITY;
    vals[11] = f64::NEG_INFINITY;
    let train = DatasetBuilder::new()
        .real("poisoned", vals)
        .real("x", (0..20).map(|i| i as f64 * 2.0).collect())
        .build();
    let plan = TrainingPlan::full(2);
    let (model, report) = FracModel::fit(&train, &plan, &FracConfig::default());

    assert_eq!(report.health.sanitized_cells, 2);
    assert!(report.health.events_for(0).any(|e| matches!(
        e.outcome,
        TargetOutcome::Sanitized { cells: 2 }
    )));
    assert_eq!(report.health.targets_survived, 2);
    // Scoring a poisoned test set is likewise sanitized, not propagated.
    assert_all_finite(&model.score(&train));
}

#[test]
fn all_missing_target_is_dropped_and_ns_renormalized() {
    let data = expr_data(20, 6, 9);
    let mut cols: Vec<frac_dataset::Column> =
        (0..6).map(|j| data.column(j).clone()).collect();
    cols[2] = frac_dataset::Column::Real(vec![f64::NAN; 20].into());
    let train = Dataset::new(data.schema().clone(), cols);
    let plan = TrainingPlan::full(6);
    let (model, report) = FracModel::fit(&train, &plan, &FracConfig::default());

    assert_eq!(report.health.targets_planned, 6);
    assert_eq!(report.health.targets_survived, 5);
    assert_eq!(report.health.n_dropped(), 1);
    assert!(report.health.events_for(2).any(|e| matches!(
        e.outcome,
        TargetOutcome::Dropped { .. }
    )));
    assert_eq!(model.n_targets(), 5);
    assert_eq!(model.planned_targets(), 6);
    assert!((model.ns_renorm_factor() - 6.0 / 5.0).abs() < 1e-12);

    let contrib = model.contributions(&train);
    assert!((contrib.renorm - 6.0 / 5.0).abs() < 1e-12);
    // ns_scores applies the renorm on top of the per-feature sum.
    let raw: f64 = contrib.values.iter().map(|c| c[0]).sum();
    assert!((contrib.ns_scores()[0] - raw * 6.0 / 5.0).abs() < 1e-9);
    assert_all_finite(&model.score(&train));
}

#[test]
fn forced_divergence_falls_back_to_strict_solver() {
    let data = expr_data(24, 8, 5);
    let plan = TrainingPlan::full(8);
    let faults = FaultPlan::seeded(1).with_diverge_at([1, 4]);
    let options = FitOptions { faults: Some(&faults), ..FitOptions::default() };
    let (model, report) = FracModel::fit_with(&data, &plan, &FracConfig::default(), options);

    for t in [1usize, 4] {
        assert!(
            report.health.events_for(t).any(|e| matches!(
                e.outcome,
                TargetOutcome::Degraded { fallback: FallbackKind::StrictSolver, .. }
            )),
            "target {t} must record the strict-solver rescue: {}",
            report.health.summary()
        );
    }
    assert_eq!(report.health.targets_survived, 8);
    assert_all_finite(&model.score(&data));
}

#[test]
fn forced_panics_are_caught_and_baselined() {
    quiet_injected_panics();
    let data = expr_data(24, 10, 7);
    let plan = TrainingPlan::full(10);
    // ≥ 10% of targets panic mid-fit.
    let faults = FaultPlan::seeded(2).with_panic_at([0, 5, 9]);
    let options = FitOptions { faults: Some(&faults), ..FitOptions::default() };
    let (model, report) = FracModel::fit_with(&data, &plan, &FracConfig::default(), options);

    for t in [0usize, 5, 9] {
        let rescued = report.health.events_for(t).any(|e| match &e.outcome {
            TargetOutcome::Degraded { fallback: FallbackKind::Baseline, detail, .. } => {
                detail.contains(INJECTED_PANIC)
            }
            _ => false,
        });
        assert!(rescued, "target {t} must be baselined: {}", report.health.summary());
    }
    assert_eq!(report.health.targets_survived, 10);
    assert_eq!(model.n_targets(), 10);
    assert_all_finite(&model.score(&data));
}

#[test]
fn combined_disaster_never_panics_and_accounts_for_every_target() {
    quiet_injected_panics();
    let data = expr_data(40, 12, 13);
    let plan = TrainingPlan::full(12);
    let faults = FaultPlan::seeded(77)
        .with_poison(0.15)
        .with_diverge_at([2, 6])
        .with_panic_at([3, 8]);
    let poisoned = faults.poison(&data);
    let options = FitOptions { faults: Some(&faults), ..FitOptions::default() };
    let (model, report) = FracModel::fit_with(&poisoned, &plan, &FracConfig::default(), options);

    // Every explicitly faulted target has at least one health event.
    for t in [2usize, 3, 6, 8] {
        assert!(
            report.health.events_for(t).next().is_some(),
            "target {t} unaccounted: {}",
            report.health.summary()
        );
    }
    // Survivors + dropped = planned, and the model agrees.
    assert_eq!(
        report.health.targets_survived + report.health.n_dropped(),
        report.health.targets_planned
    );
    assert_eq!(model.n_targets(), report.health.targets_survived);
    assert_eq!(model.planned_targets(), 12);
    assert!(report.health.sanitized_cells > 0, "0.15 poison must hit some Inf cells");

    // Scoring the poisoned test set stays finite.
    assert_all_finite(&model.score(&poisoned));
    assert_all_finite(&model.score(&data));
}

#[test]
fn missing_code_cells_never_reach_a_panic() {
    // Categorical poison (missing codes) across most of a column.
    let mut codes: Vec<u32> = (0..30).map(|i| (i % 3) as u32).collect();
    for c in codes.iter_mut().skip(2) {
        *c = MISSING_CODE;
    }
    let train = DatasetBuilder::new()
        .categorical("sparse", 3, codes)
        .categorical("snp", 3, (0..30).map(|i| (i % 3) as u32).collect())
        .real("expr", (0..30).map(|i| i as f64 * 0.3).collect())
        .build();
    let plan = TrainingPlan::full(3);
    let (model, report) = FracModel::fit(&train, &plan, &FracConfig::snp());
    // Two present cells of classes {2, 0}: trains (possibly degraded) but
    // must not die; health explains whatever happened.
    assert_eq!(
        report.health.targets_survived + report.health.n_dropped(),
        report.health.targets_planned
    );
    assert_all_finite(&model.score(&train));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fit_and_score_survive_arbitrary_fault_plans(
        seed in 0u64..1_000,
        poison in 0.0f64..0.35,
        diverge in prop::collection::vec(0usize..8, 0..3),
        panic_at in prop::collection::vec(0usize..8, 0..3),
    ) {
        quiet_injected_panics();
        let data = expr_data(24, 8, 11);
        let plan = TrainingPlan::full(8);
        let faults = FaultPlan::seeded(seed)
            .with_poison(poison)
            .with_diverge_at(diverge.iter().copied())
            .with_panic_at(panic_at.iter().copied());
        let poisoned = faults.poison(&data);
        let options = FitOptions { faults: Some(&faults), ..FitOptions::default() };
        let (model, report) =
            FracModel::fit_with(&poisoned, &plan, &FracConfig::default(), options);

        // Accounting invariants hold under any fault plan.
        prop_assert_eq!(report.health.targets_planned, 8);
        prop_assert_eq!(
            report.health.targets_survived + report.health.n_dropped(),
            report.health.targets_planned
        );
        prop_assert_eq!(model.n_targets(), report.health.targets_survived);

        // Fit + score never panic and never emit a non-finite NS.
        let ns = model.score(&poisoned);
        prop_assert_eq!(ns.len(), poisoned.n_rows());
        prop_assert!(ns.iter().all(|s| s.is_finite()), "{:?}", ns);
    }
}
