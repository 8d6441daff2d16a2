//! Throwaway profiling harness: stage breakdown of the expression SVR fit
//! under the scalar-blocked vs vectorized tier, at a configurable size.

use std::time::Instant;

use frac_core::config::RealModel;
use frac_core::{FracConfig, FracModel, TrainingPlan};
use frac_dataset::kernels::{self, KernelTier};
use frac_learn::solver::stats;
use frac_learn::telemetry::TelemetrySession;
use frac_learn::SvrConfig;
use frac_synth::{ExpressionConfig, ExpressionGenerator};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn profile(label: &str, train: &frac_dataset::Dataset, config: &FracConfig) {
    let plan = TrainingPlan::full(train.n_features());
    // Warm-up fit so page faults / lazy init don't land in the trace.
    let _ = FracModel::fit(train, &plan, config);
    let session = TelemetrySession::start().expect("telemetry");
    let before = stats::snapshot();
    let t0 = Instant::now();
    let _ = FracModel::fit(train, &plan, config);
    let wall = t0.elapsed().as_secs_f64();
    let after = stats::snapshot();
    let trace = session.finish();
    println!(
        "== {label}: fit {wall:.3}s | solves {} epochs {} visits {} ==",
        after.solves - before.solves,
        after.epochs - before.epochs,
        after.visits - before.visits
    );
    for t in trace.stage_totals() {
        println!(
            "  {:>14}  spans {:>6}  total {:>8.3}s  {:>5.1}%",
            t.stage,
            t.count,
            t.total_ns as f64 / 1e9,
            100.0 * t.total_ns as f64 / trace.wall_ns.max(1) as f64
        );
    }
}

fn main() {
    let n_features = env_usize("PROF_FEATURES", 320);
    let n_rows = env_usize("PROF_ROWS", 80);
    let (expr, _) = ExpressionGenerator::new(ExpressionConfig {
        n_features,
        n_modules: 8,
        relevant_fraction: 0.8,
        anomaly_modules: 2,
        anomaly_shift: 2.5,
        noise_sd: 0.6,
        structure_seed: 43,
        ..ExpressionConfig::default()
    })
    .generate(n_rows, n_rows, 10);
    let train = expr.select_rows(&(0..n_rows).collect::<Vec<_>>());
    let cfg = FracConfig {
        real_model: RealModel::Svr(SvrConfig {
            tolerance: 1e-4,
            max_epochs: 1000,
            ..SvrConfig::default()
        }),
        ..FracConfig::default()
    };
    eprintln!("{n_features} features x {n_rows} rows");

    kernels::force_tier(Some(KernelTier::Unrolled));
    frac_learn::solver::force_unpacked_solver(true);
    profile("scalar-blocked", &train, &cfg);
    kernels::force_tier(None);
    frac_learn::solver::force_unpacked_solver(false);
    profile("vectorized", &train, &cfg);
}
