//! Regression tests for the two performance layers:
//!
//! * The shared encoded-feature pool must be a pure performance change.
//!   That the pooled views train and cross-validate every model family bit
//!   for bit like matrices from `DesignSpec::encode` is pinned where both
//!   sides are public: frac-learn's `pool_reference` (trees, CV) and
//!   `dual_cd_reference` (strict SVR/SVC) suites, and frac-dataset's pool
//!   tests. Here the strict end-to-end fit, on both paper model families,
//!   must charge its pool and score every test row alone bit for bit
//!   (`f64::to_bits`) as in a batch, and pooled NS scores must not depend
//!   on the thread count. [`SolverMode::Strict`] is pinned because its
//!   exact sequential kernels are the bitwise reference; the fast solver's
//!   blocked kernels group FP sums differently per segment, so it is gated
//!   by tolerance instead (below).
//! * The fast solver path (shrinking + warm starts + blocked kernels) must
//!   agree with the strict reference to solver tolerance: NS scores within
//!   a small relative tolerance and **identical anomaly rankings**, on both
//!   surrogates, at 1 and 4 threads.

use frac_core::{
    CatModel, FracConfig, FracModel, RealModel, SolverMode, SolverStrategy, TrainingPlan,
};
use frac_dataset::Dataset;
use frac_learn::{SvcConfig, SvrConfig};
use frac_synth::snp::{CohortGroup, SnpConfig, SnpGenerator, SubpopulationMix};
use frac_synth::{ExpressionConfig, ExpressionGenerator};

fn expression_surrogate() -> (Dataset, Dataset) {
    let (data, _) = ExpressionGenerator::new(ExpressionConfig {
        n_features: 24,
        n_modules: 4,
        relevant_fraction: 0.9,
        anomaly_modules: 2,
        anomaly_shift: 3.0,
        noise_sd: 0.5,
        structure_seed: 77,
        ..ExpressionConfig::default()
    })
    .generate(36, 6, 7);
    let train = data.select_rows(&(0..30).collect::<Vec<_>>());
    let test = data.select_rows(&(30..42).collect::<Vec<_>>());
    (train, test)
}

fn snp_surrogate() -> (Dataset, Dataset) {
    let gen = SnpGenerator::new(SnpConfig {
        n_snps: 30,
        ld_block_size: 4,
        ld_rho: 0.6,
        n_subpops: 2,
        fst: 0.1,
        n_disease_loci: 4,
        disease_effect: 0.2,
        structure_seed: 11,
        ..SnpConfig::default()
    });
    let groups = [
        CohortGroup { n: 36, mix: SubpopulationMix::uniform(2), is_case: false },
        CohortGroup { n: 6, mix: SubpopulationMix::uniform(2), is_case: true },
    ];
    let (data, _) = gen.generate(&groups, 13);
    let train = data.select_rows(&(0..30).collect::<Vec<_>>());
    let test = data.select_rows(&(30..42).collect::<Vec<_>>());
    (train, test)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (r, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: row {r} differs ({x:?} vs {y:?})"
        );
    }
}

/// Strict fit + score of `train`: the fit reports its shared pool, and
/// every test row scored on its own (a scoring pool over that row alone)
/// matches the batch bitwise.
fn check_strict_pooled_fit(train: &Dataset, test: &Dataset, config: &FracConfig, what: &str) {
    let plan = TrainingPlan::full(train.n_features());
    let (model, report) = FracModel::fit(train, &plan, config);
    assert!(report.pool_bytes > 0, "{what}: a fit must report its pool");

    let ns = model.score(test);
    let one_by_one: Vec<f64> =
        (0..test.n_rows()).map(|r| model.score(&test.select_rows(&[r]))[0]).collect();
    assert_bits_eq(&ns, &one_by_one, &format!("{what}: batch vs single-row scoring"));
}

#[test]
fn expression_ns_scores_bit_identical() {
    let (train, test) = expression_surrogate();
    let config = FracConfig::expression().with_solver_mode(SolverMode::Strict);
    check_strict_pooled_fit(&train, &test, &config, "expression");
}

#[test]
fn snp_ns_scores_bit_identical() {
    let (train, test) = snp_surrogate();
    let config = FracConfig::snp().with_solver_mode(SolverMode::Strict);
    check_strict_pooled_fit(&train, &test, &config, "snp");
}

#[test]
fn pooled_scores_identical_across_thread_counts() {
    let (train, test) = expression_surrogate();
    let plan = TrainingPlan::full(train.n_features());
    let config = FracConfig::expression();

    let run = |threads: usize| -> Vec<f64> {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                let (model, _) = FracModel::fit(&train, &plan, &config);
                model.score(&test)
            })
    };
    let serial = run(1);
    let parallel = run(4);
    assert_bits_eq(&serial, &parallel, "thread counts 1 vs 4");
}

/// Tight-tolerance SVR config: both solver paths essentially reach the dual
/// optimum, so their models (and NS scores) agree to small tolerance even
/// though iteration order and FP grouping differ.
fn expression_svm_config() -> FracConfig {
    FracConfig {
        real_model: RealModel::Svr(SvrConfig {
            tolerance: 1e-6,
            max_epochs: 4000,
            ..SvrConfig::default()
        }),
        ..FracConfig::default()
    }
}

/// Tight-tolerance SVC config for the categorical SNP surrogate.
fn snp_svm_config() -> FracConfig {
    FracConfig {
        cat_model: CatModel::Svc(SvcConfig {
            tolerance: 1e-6,
            max_epochs: 4000,
            ..SvcConfig::default()
        }),
        ..FracConfig::snp()
    }
}

/// Rank of each row by descending NS score (the anomaly ordering consumers
/// like AUC computations see).
fn ranking(ns: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ns.len()).collect();
    order.sort_by(|&a, &b| ns[b].partial_cmp(&ns[a]).unwrap());
    order
}

/// The fast solver must match the strict reference to tolerance and produce
/// the identical anomaly ranking, at the given thread count.
fn check_fast_matches_strict(
    train: &Dataset,
    test: &Dataset,
    base: &FracConfig,
    what: &str,
    threads: usize,
) {
    let plan = TrainingPlan::full(train.n_features());
    let run = |config: FracConfig| -> Vec<f64> {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                let (model, _) = FracModel::fit(train, &plan, &config);
                model.score(test)
            })
    };
    let strict = run(base.with_solver_mode(SolverMode::Strict));
    let fast = run(base.with_solver_mode(SolverMode::Fast));

    assert_eq!(strict.len(), fast.len(), "{what}: length mismatch");
    // Both solvers stop at projected-gradient tolerance 1e-6, but the NS
    // pipeline amplifies tiny prediction differences through the fitted
    // error models (surprisal is sensitive to σ), so the score gate is a
    // modest relative tolerance; the ranking gate below is exact.
    for (r, (s, f)) in strict.iter().zip(&fast).enumerate() {
        assert!(
            (s - f).abs() <= 1e-2 * (1.0 + s.abs()),
            "{what} ({threads} threads): row {r} NS diverged ({s} strict vs {f} fast)"
        );
    }
    assert_eq!(
        ranking(&strict),
        ranking(&fast),
        "{what} ({threads} threads): anomaly ranking changed"
    );
}

#[test]
fn fast_solver_matches_strict_expression() {
    let (train, test) = expression_surrogate();
    let config = expression_svm_config();
    check_fast_matches_strict(&train, &test, &config, "expression svr", 1);
    check_fast_matches_strict(&train, &test, &config, "expression svr", 4);
}

#[test]
fn fast_solver_matches_strict_snp() {
    let (train, test) = snp_surrogate();
    let config = snp_svm_config();
    check_fast_matches_strict(&train, &test, &config, "snp svc", 1);
    check_fast_matches_strict(&train, &test, &config, "snp svc", 4);
}

// The Gram-matrix dual strategy (DESIGN.md §13) rides the fast path, so it
// owes the same end-to-end contract as the primal fast loop: NS scores
// within tolerance of the strict reference and the identical anomaly
// ranking, at 1 and 4 threads. The strategy pin only affects the fast side
// of the A/B — strict never consults it.

#[test]
fn gram_strategy_matches_strict_expression() {
    let (train, test) = expression_surrogate();
    let config = expression_svm_config().with_solver_strategy(SolverStrategy::Gram);
    check_fast_matches_strict(&train, &test, &config, "expression svr gram", 1);
    check_fast_matches_strict(&train, &test, &config, "expression svr gram", 4);
}

#[test]
fn gram_strategy_matches_strict_snp() {
    let (train, test) = snp_surrogate();
    let config = snp_svm_config().with_solver_strategy(SolverStrategy::Gram);
    check_fast_matches_strict(&train, &test, &config, "snp svc gram", 1);
    check_fast_matches_strict(&train, &test, &config, "snp svc gram", 4);
}
