//! Linear ε-insensitive support vector regression.
//!
//! The paper learns every continuous feature with a linear-kernel SVM
//! (originally libSVM's ε-SVR), chosen because "the SVM is a regularized
//! model … not highly susceptible to overfitting", which matters for the
//! high-dimension / tiny-sample data sets of precision medicine.
//!
//! For a linear kernel the kernelized SMO of libSVM is equivalent to — but
//! far slower than — the **dual coordinate descent** method of liblinear
//! (Ho & Lin, *Large-scale Linear Support Vector Regression*, JMLR 2012).
//! We implement that solver for the L1-loss (hinge-ε) primal
//!
//! ```text
//!   min_w  ½‖w‖² + C Σ_i max(0, |wᵀx_i − y_i| − ε)
//! ```
//!
//! via its dual over β ∈ [−C, C]ⁿ, sweeping coordinates in a seeded random
//! permutation per epoch and maintaining `w = Σ βᵢ xᵢ` incrementally. A bias
//! term is handled by the standard constant-feature augmentation.
//!
//! The solve itself is the shared dual coordinate-descent loop of
//! [`crate::solver`] under its ε-insensitive loss: the **strict** reference
//! sweep above, or the default **fast** parameter set adding liblinear's two
//! classic accelerations — active-set shrinking with an unshrink-and-recheck
//! pass, and warm-started duals through [`RegressorTrainer::try_train`] — on
//! top of the blocked kernels.

use crate::budget::TargetBudget;
use crate::fault::{self, TrainError};
use crate::solver::{self, DualParams, EpsInsensitive, Rows, SolverMode, SolverStrategy};
use crate::telemetry;
use crate::traits::{Regressor, RegressorTrainer, Trained, TrainingCost};
use frac_dataset::codec::{RecordRead, RecordWrite};
use frac_dataset::DesignView;
use frac_dataset::textio::TextError;

/// Hyperparameters for [`LinearSvr`] training.
#[derive(Debug, Clone, Copy)]
pub struct SvrConfig {
    /// Soft-margin cost C (upper bound on |βᵢ|).
    pub c: f64,
    /// ε-insensitivity width.
    pub epsilon: f64,
    /// Maximum coordinate-descent epochs.
    pub max_epochs: usize,
    /// Stop when the largest projected-gradient violation in an epoch falls
    /// below this tolerance.
    pub tolerance: f64,
    /// Include a bias term (constant-feature augmentation).
    pub bias: bool,
    /// Seed for the per-epoch coordinate permutation.
    pub seed: u64,
    /// Solver path: fast (shrinking + warm starts, default) or strict.
    pub mode: SolverMode,
    /// Fast-path execution strategy: Gram-matrix dual maintenance, primal
    /// maintenance, or cost-model auto-selection (default). Strict mode
    /// ignores this and always runs the primal reference sweep.
    pub strategy: SolverStrategy,
}

impl Default for SvrConfig {
    fn default() -> Self {
        // C = 1, ε = 0.1 are libSVM's defaults, which the original FRaC code
        // used unchanged. The epoch cap and tolerance follow liblinear's
        // philosophy of loose stopping (its SVR default eps is 0.1): models
        // that cannot fit inside the ε-tube (e.g. tiny Diverse subsets of
        // mostly-irrelevant inputs) never drive their violation to zero, so
        // a tight tolerance would burn the full epoch budget on them and
        // distort the variant cost ratios of the paper's Tables III–IV.
        SvrConfig {
            c: 1.0,
            epsilon: 0.1,
            max_epochs: 100,
            tolerance: 0.01,
            bias: true,
            seed: 0x5f3c_9e1d,
            mode: SolverMode::Fast,
            strategy: SolverStrategy::Auto,
        }
    }
}

/// A fitted linear SVR model: `ŷ(x) = wᵀx + b`.
#[derive(Debug, Clone)]
pub struct LinearSvr {
    weights: Vec<f64>,
    bias: f64,
}

impl LinearSvr {
    /// The weight vector (one entry per design-matrix column).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Construct directly from fitted parameters (persistence path).
    pub fn from_parts(weights: Vec<f64>, bias: f64) -> Self {
        LinearSvr { weights, bias }
    }

    /// Serialize (model persistence, text or binary).
    pub fn write_to(&self, w: &mut impl RecordWrite) {
        w.float("svr_bias", self.bias);
        w.floats("svr_weights", &self.weights);
    }

    /// Parse a model previously produced by [`LinearSvr::write_to`].
    pub fn read_from(r: &mut impl RecordRead) -> Result<Self, TextError> {
        let bias = r.float("svr_bias")?;
        let weights = r.floats("svr_weights")?;
        Ok(LinearSvr { weights, bias })
    }
}

impl Regressor for LinearSvr {
    fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.weights.len());
        self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + self.bias
    }

    fn approx_bytes(&self) -> usize {
        self.weights.len() * std::mem::size_of::<f64>() + std::mem::size_of::<f64>()
    }
}

/// Trainer implementing the dual coordinate-descent ε-SVR solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvrTrainer {
    /// Hyperparameters.
    pub config: SvrConfig,
}

impl SvrTrainer {
    /// Trainer with the given configuration.
    pub fn new(config: SvrConfig) -> Self {
        SvrTrainer { config }
    }

    /// One ε-insensitive dual solve through [`crate::solver`], priced by
    /// the work actually done. Fails only when `budget` trips.
    fn solve(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<LinearSvr>, Vec<f64>), TrainError> {
        let cfg = &self.config;
        let n = x.n_rows();
        let d = x.n_cols();

        if n == 0 {
            return Ok((
                Trained {
                    model: LinearSvr { weights: vec![0.0; d], bias: 0.0 },
                    cost: TrainingCost::default(),
                },
                Vec::new(),
            ));
        }

        let span = telemetry::span(telemetry::Stage::Solve);
        let bias_sq = if cfg.bias { 1.0 } else { 0.0 };
        let (rows, build_flops) = Rows::prepare(x, cfg.mode, cfg.strategy, bias_sq, budget)?;
        let loss = EpsInsensitive { y, c: cfg.c, epsilon: cfg.epsilon };
        let params = DualParams {
            max_epochs: cfg.max_epochs,
            tolerance: cfg.tolerance,
            seed: cfg.seed,
            bias_sq,
        };
        let out = solver::solve(&loss, x, &rows, warm, &params, budget)?;
        drop(span);

        // Flops are priced per path inside the solve (the Gram loop's visit
        // is O(n), the primal loop's O(d)), plus a Q build only when this
        // call paid for it. Warm-start initialization is priced by the CV
        // driver once per dual vector, not here — a cached dual vector may
        // seed many solves (folds, ensemble members), and charging per
        // solve would double-count the same fold-in work. Under shrinking,
        // `visits` counts only coordinates actually swept, so the savings
        // show up in ResourceReport instead of being charged as dense work.
        let active_set_bytes = match cfg.mode {
            SolverMode::Fast => n * std::mem::size_of::<usize>(),
            SolverMode::Strict => 0,
        };
        let gram_bytes = if out.path_bits & solver::STRATEGY_GRAM_CODE != 0 {
            (n * n + n) * std::mem::size_of::<f64>()
        } else {
            0
        };
        let cost = TrainingCost {
            flops: out.flops + build_flops,
            peak_bytes: ((n + d + n) * std::mem::size_of::<f64>() + active_set_bytes + gram_bytes)
                as u64,
        };
        Ok((
            Trained {
                model: LinearSvr {
                    weights: out.w,
                    bias: if cfg.bias { out.w_bias } else { 0.0 },
                },
                cost,
            },
            out.alpha,
        ))
    }
}

impl RegressorTrainer for SvrTrainer {
    type Model = LinearSvr;

    /// Validates the problem up front, polls the budget once per epoch, and
    /// rejects diverged solves — NaN/Inf weights after the epoch budget —
    /// as [`TrainError::NonConvergence`].
    fn try_train(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<LinearSvr>, Option<Vec<f64>>), TrainError> {
        fault::check_regression_problem(x, y)?;
        let (trained, beta) = self.solve(x, y, warm, budget)?;
        if !fault::all_finite(trained.model.weights()) || !trained.model.bias().is_finite() {
            return Err(TrainError::NonConvergence {
                epochs: self.config.max_epochs as u64,
            });
        }
        Ok((trained, Some(beta)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frac_dataset::DesignMatrix;

    fn matrix(rows: &[&[f64]]) -> DesignMatrix {
        let n_cols = rows[0].len();
        let values: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        DesignMatrix::from_raw(rows.len(), n_cols, values)
    }

    #[test]
    fn fits_exact_linear_function() {
        // y = 2x − 1, noiseless, well within ε=0 reach.
        let x = matrix(&[&[0.0], &[1.0], &[2.0], &[3.0], &[4.0], &[5.0]]);
        let y: Vec<f64> = (0..6).map(|i| 2.0 * i as f64 - 1.0).collect();
        let cfg = SvrConfig { epsilon: 0.01, c: 100.0, ..SvrConfig::default() };
        let t = SvrTrainer::new(cfg).train(&x, &y);
        for (i, target) in y.iter().enumerate() {
            let pred = t.model.predict(&[i as f64]);
            assert!(
                (pred - target).abs() < 0.05,
                "pred {pred} vs true {target} at x={i}"
            );
        }
        assert!((t.model.weights()[0] - 2.0).abs() < 0.05);
        assert!((t.model.bias() - (-1.0)).abs() < 0.1);
    }

    #[test]
    fn multifeature_plane() {
        // y = x0 − 3x1 + 0.5.
        let pts: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 7) as f64 * 0.3, (i % 5) as f64 * 0.4])
            .collect();
        let rows: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        let x = matrix(&rows);
        let y: Vec<f64> = pts.iter().map(|p| p[0] - 3.0 * p[1] + 0.5).collect();
        let cfg = SvrConfig { epsilon: 0.01, c: 50.0, ..SvrConfig::default() };
        let t = SvrTrainer::new(cfg).train(&x, &y);
        for (p, &target) in pts.iter().zip(&y) {
            assert!((t.model.predict(p) - target).abs() < 0.1);
        }
    }

    #[test]
    fn epsilon_tube_tolerates_small_noise() {
        // Targets within a wide ε-tube: the solver must find a solution with
        // zero hinge loss (every prediction within ε of its target) and a
        // small weight norm — it must not chase the ±0.02 noise.
        let x = matrix(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let y = vec![1.0, 1.02, 0.98, 1.01];
        let cfg = SvrConfig { epsilon: 0.5, c: 10.0, ..SvrConfig::default() };
        let t = SvrTrainer::new(cfg).train(&x, &y);
        for (i, &target) in y.iter().enumerate() {
            let pred = t.model.predict(x.row(i));
            assert!(
                (pred - target).abs() <= cfg.epsilon + 0.02,
                "sample {i}: residual {} exceeds tube",
                (pred - target).abs()
            );
        }
        assert!(t.model.weights()[0].abs() < 0.5, "weights must stay small");
    }

    #[test]
    fn regularization_bounds_weights() {
        // One wild outlier: with small C its influence is capped.
        let x = matrix(&[&[0.0], &[1.0], &[2.0], &[3.0], &[100.0]]);
        let y = vec![0.0, 1.0, 2.0, 3.0, -500.0];
        let small_c = SvrTrainer::new(SvrConfig { c: 0.001, ..SvrConfig::default() })
            .train(&x, &y);
        let large_c = SvrTrainer::new(SvrConfig { c: 100.0, ..SvrConfig::default() })
            .train(&x, &y);
        assert!(
            small_c.model.weights()[0].abs() < large_c.model.weights()[0].abs() + 1e-9,
            "small C must shrink weights"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let x = matrix(&[&[0.1, 0.2], &[0.5, -0.3], &[-0.7, 0.9], &[0.2, 0.2]]);
        let y = vec![1.0, -0.5, 0.3, 0.9];
        let a = SvrTrainer::default().train(&x, &y);
        let b = SvrTrainer::default().train(&x, &y);
        assert_eq!(a.model.weights(), b.model.weights());
        assert_eq!(a.model.bias(), b.model.bias());
    }

    #[test]
    fn zero_column_matrix_learns_bias_only() {
        let x = DesignMatrix::empty(5);
        let y = vec![2.0; 5];
        let t = SvrTrainer::new(SvrConfig { epsilon: 0.0, c: 10.0, ..SvrConfig::default() })
            .train(&x, &y);
        assert!((t.model.predict(&[]) - 2.0).abs() < 0.05);
    }

    #[test]
    fn empty_training_set_yields_zero_model() {
        let x = DesignMatrix::from_raw(0, 3, vec![]);
        let t = SvrTrainer::default().train(&x, &[]);
        assert_eq!(t.model.predict(&[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(t.cost.flops, 0);
    }

    #[test]
    fn cost_scales_with_problem_size() {
        let small = matrix(&[&[1.0], &[2.0]]);
        let big = matrix(&[&[1.0, 2.0, 3.0, 4.0], &[2.0, 1.0, 0.0, 1.0]]);
        // Use a single epoch so convergence speed doesn't confound the size
        // comparison.
        let cfg = SvrConfig { max_epochs: 1, ..SvrConfig::default() };
        let a = SvrTrainer::new(cfg).train(&small, &[0.0, 1.0]);
        let b = SvrTrainer::new(cfg).train(&big, &[0.0, 1.0]);
        assert!(b.cost.flops > a.cost.flops);
        assert!(b.cost.peak_bytes > a.cost.peak_bytes);
    }

    #[test]
    fn try_train_matches_train_and_trips_when_expired() {
        use crate::budget::RunBudget;
        let x = matrix(&[&[0.1, 0.2], &[0.5, -0.3], &[-0.7, 0.9], &[0.2, 0.2]]);
        let y = vec![1.0, -0.5, 0.3, 0.9];
        let t = SvrTrainer::default();
        let (a, da) = t.try_train(&x, &y, None, &TargetBudget::unlimited()).unwrap();
        let b = t.train(&x, &y);
        assert_eq!(a.model.weights(), b.model.weights());
        assert_eq!(a.model.bias(), b.model.bias());
        assert_eq!(da.map(|d| d.len()), Some(4));

        let expired = RunBudget::with_deadline(std::time::Duration::from_secs(0)).start_target();
        assert_eq!(
            t.try_train(&x, &y, None, &expired).unwrap_err(),
            TrainError::DeadlineExceeded
        );
    }

    #[test]
    fn no_bias_config_fixes_bias_at_zero() {
        let x = matrix(&[&[1.0], &[2.0]]);
        let y = vec![5.0, 5.0];
        let t = SvrTrainer::new(SvrConfig { bias: false, ..SvrConfig::default() })
            .train(&x, &y);
        assert_eq!(t.model.bias(), 0.0);
    }
}
