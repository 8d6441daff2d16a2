//! Warm-start behavior: refitting the same per-feature problems through a
//! [`DualCache`] (as ensemble members do) must do less coordinate-descent
//! work than the first fit, without changing what the solves converge to.
//!
//! Note the *first* fit is not fully cold: the CV driver already threads
//! duals from fold to fold within each per-feature problem, so most of the
//! warm-start win is banked on the first pass. The cache measures the
//! *marginal* cross-fit savings — fold 1 and the not-yet-visited rows of
//! later folds start from the previous fit's solution instead of zero — so
//! the expected reduction is real but small, and we gate on coordinate
//! visits (the work metric shrinking actually controls).
//!
//! This file holds exactly one test: it reads the solver counters from a
//! telemetry session, and a process runs one session at a time.

use frac_core::telemetry::{Counter, TelemetrySession};
use frac_core::{DualCache, FitOptions, FracConfig, FracModel, RealModel, TrainingPlan};
use frac_dataset::Dataset;
use frac_learn::SvrConfig;
use frac_synth::{ExpressionConfig, ExpressionGenerator};

/// `(solves, epochs, visits)` a session recorded around one cached fit.
fn traced_fit(
    train: &Dataset,
    plan: &TrainingPlan,
    config: &FracConfig,
    cache: &mut DualCache,
) -> (FracModel, [u64; 3]) {
    let session = TelemetrySession::start().expect("no other session is live");
    let options = FitOptions { cache: Some(cache), ..FitOptions::default() };
    let (model, _) = FracModel::fit_with(train, plan, config, options);
    let report = session.finish();
    let work = [Counter::SolverSolves, Counter::SolverEpochs, Counter::SolverVisits]
        .map(|c| report.counter(c));
    (model, work)
}

#[test]
fn cached_refit_converges_in_fewer_epochs() {
    let (data, _) = ExpressionGenerator::new(ExpressionConfig {
        n_features: 16,
        n_modules: 4,
        relevant_fraction: 0.9,
        anomaly_modules: 1,
        anomaly_shift: 3.0,
        noise_sd: 0.5,
        structure_seed: 5,
        ..ExpressionConfig::default()
    })
    .generate(30, 0, 3);
    let train = data.select_rows(&(0..24).collect::<Vec<_>>());
    let test = data.select_rows(&(24..30).collect::<Vec<_>>());
    let plan = TrainingPlan::full(train.n_features());
    // Moderate stopping tolerance with ample epoch headroom: solves actually
    // reach the projected-gradient criterion (a capped solve sweeps the same
    // max_epochs warm or cold, masking any savings), and both fits land near
    // enough to the same optimum for the score check below.
    let config = FracConfig {
        real_model: RealModel::Svr(SvrConfig {
            tolerance: 1e-3,
            max_epochs: 10_000,
            ..SvrConfig::default()
        }),
        ..FracConfig::default()
    };

    let mut cache = DualCache::default();
    let (cold_model, [cold_solves, cold_epochs, cold_visits]) =
        traced_fit(&train, &plan, &config, &mut cache);
    assert!(!cache.is_empty(), "SVR fits must populate the dual cache");
    assert_eq!(cache.len(), train.n_features(), "one dual vector per target");
    assert!(cold_solves > 0 && cold_epochs > 0);

    let (warm_model, [warm_solves, warm_epochs, warm_visits]) =
        traced_fit(&train, &plan, &config, &mut cache);

    assert_eq!(cold_solves, warm_solves, "same number of solves either way");
    assert!(
        warm_visits < cold_visits,
        "warm-started refit should visit fewer coordinates ({warm_visits} warm vs \
         {cold_visits} cold)"
    );
    assert!(
        warm_epochs <= cold_epochs,
        "warm-started refit should not sweep more epochs ({warm_epochs} warm vs \
         {cold_epochs} cold)"
    );

    // The warm refit converges to the same solutions to solver tolerance.
    let cold_ns = cold_model.score(&test);
    let warm_ns = warm_model.score(&test);
    for (r, (c, w)) in cold_ns.iter().zip(&warm_ns).enumerate() {
        assert!(
            (c - w).abs() <= 1e-2 * (1.0 + c.abs()),
            "row {r}: warm refit diverged ({c} cold vs {w} warm)"
        );
    }
}
