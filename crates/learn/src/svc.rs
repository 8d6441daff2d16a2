//! Linear support vector classification.
//!
//! Dual coordinate descent for the L2-regularized L1-loss (hinge) linear SVM
//! (Hsieh et al., *A Dual Coordinate Descent Method for Large-scale Linear
//! SVM*, ICML 2008), with one-vs-rest reduction for multi-class targets.
//!
//! FRaC's SNP experiments found trees better suited to discrete data, but
//! the paper's methodology explicitly covers SVM classification of discrete
//! features, and the comparison (tree vs. SVM on SNP data, paper §III-B) is
//! one of the ablations our bench harness reproduces — so the classifier is
//! a first-class substrate here.
//!
//! Like [`crate::svr`], each binary problem runs the shared dual
//! coordinate-descent loop of [`crate::solver`], here under its hinge loss,
//! with the strict reference parameter set or the fast one (liblinear-style
//! active-set shrinking, warm-started per-class duals, blocked kernels).

use crate::budget::TargetBudget;
use crate::fault::{self, TrainError};
use crate::solver::{self, DualParams, Hinge, Rows, SolverMode, SolverStrategy};
use crate::telemetry;
use crate::traits::{Classifier, ClassifierTrainer, Trained, TrainingCost};
use frac_dataset::codec::{RecordRead, RecordWrite};
use frac_dataset::split::derive_seed;
use frac_dataset::DesignView;
use frac_dataset::textio::TextError;

/// Hyperparameters for [`LinearSvc`] training.
#[derive(Debug, Clone, Copy)]
pub struct SvcConfig {
    /// Soft-margin cost C.
    pub c: f64,
    /// Maximum coordinate-descent epochs per binary problem.
    pub max_epochs: usize,
    /// Stop when the largest projected-gradient violation falls below this.
    pub tolerance: f64,
    /// Include a bias term (constant-feature augmentation).
    pub bias: bool,
    /// Seed for per-epoch coordinate permutations.
    pub seed: u64,
    /// Solver path: fast (shrinking + warm starts, default) or strict.
    pub mode: SolverMode,
    /// Fast-path execution strategy: Gram-matrix dual maintenance, primal
    /// maintenance, or cost-model auto-selection (default). Strict mode
    /// ignores this and always runs the primal reference sweep. Under the
    /// Gram strategy all one-vs-rest classes share one Q build (the Gram
    /// matrix is label-independent).
    pub strategy: SolverStrategy,
}

impl Default for SvcConfig {
    fn default() -> Self {
        // Loose stopping for the same reason as `SvrConfig`: inseparable
        // problems never reach tight tolerances, and FRaC's accuracy is
        // insensitive to the last digits of the dual.
        SvcConfig {
            c: 1.0,
            max_epochs: 60,
            tolerance: 0.01,
            bias: true,
            seed: 0x0c1a_55e5,
            mode: SolverMode::Fast,
            strategy: SolverStrategy::Auto,
        }
    }
}

/// One-vs-rest linear SVM classifier: `argmax_k (w_kᵀx + b_k)`.
#[derive(Debug, Clone)]
pub struct LinearSvc {
    /// One (weights, bias) pair per class.
    hyperplanes: Vec<(Vec<f64>, f64)>,
}

impl LinearSvc {
    /// Decision value for class `k` on input `x`.
    pub fn decision_value(&self, k: usize, x: &[f64]) -> f64 {
        let (w, b) = &self.hyperplanes[k];
        w.iter().zip(x).map(|(a, v)| a * v).sum::<f64>() + b
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.hyperplanes.len()
    }

    /// Construct directly from fitted hyperplanes (persistence path).
    pub fn from_parts(hyperplanes: Vec<(Vec<f64>, f64)>) -> Self {
        LinearSvc { hyperplanes }
    }

    /// Serialize (model persistence, text or binary).
    pub fn write_to(&self, w: &mut impl RecordWrite) {
        w.uint("svc_classes", self.hyperplanes.len() as u64);
        for (weights, bias) in &self.hyperplanes {
            w.float("svc_bias", *bias);
            w.floats("svc_weights", weights);
        }
    }

    /// Parse a model previously produced by [`LinearSvc::write_to`].
    pub fn read_from(r: &mut impl RecordRead) -> Result<Self, TextError> {
        let k = r.count("svc_classes")?;
        let mut hyperplanes = Vec::with_capacity(k);
        for _ in 0..k {
            let bias = r.float("svc_bias")?;
            let weights = r.floats("svc_weights")?;
            hyperplanes.push((weights, bias));
        }
        Ok(LinearSvc { hyperplanes })
    }
}

impl Classifier for LinearSvc {
    fn predict(&self, x: &[f64]) -> u32 {
        let mut best = 0usize;
        let mut best_v = f64::NEG_INFINITY;
        for k in 0..self.hyperplanes.len() {
            let v = self.decision_value(k, x);
            if v > best_v {
                best_v = v;
                best = k;
            }
        }
        best as u32
    }

    fn approx_bytes(&self) -> usize {
        self.hyperplanes
            .iter()
            .map(|(w, _)| (w.len() + 1) * std::mem::size_of::<f64>())
            .sum()
    }
}

/// Trainer implementing one-vs-rest dual coordinate descent.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvcTrainer {
    /// Hyperparameters.
    pub config: SvcConfig,
}

impl SvcTrainer {
    /// Trainer with the given configuration.
    pub fn new(config: SvcConfig) -> Self {
        SvcTrainer { config }
    }

    /// One-vs-rest: one hinge-loss dual solve per class through
    /// [`crate::solver`]. The fast-path gather — and, under the Gram
    /// strategy, the O(n²d) Q build — is hoisted out of the per-class loop:
    /// Q depends only on the design (labels enter the maintained gradient,
    /// not the matrix), so every class shares one build. The budget is
    /// polled once per epoch of every binary solve.
    #[allow(clippy::type_complexity)]
    fn train_classes(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        warm: Option<&[Vec<f64>]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<LinearSvc>, Vec<Vec<f64>>), TrainError> {
        let cfg = &self.config;
        let n = x.n_rows();
        let d = x.n_cols();
        let k = arity as usize;
        // One span per training call: the shared gather and Q build plus
        // every class's solve.
        let span = (n > 0).then(|| telemetry::span(telemetry::Stage::Solve));
        let bias_sq = if cfg.bias { 1.0 } else { 0.0 };
        let (rows, mut total_flops) = Rows::prepare(x, cfg.mode, cfg.strategy, bias_sq, budget)?;

        let mut hyperplanes = Vec::with_capacity(k);
        let mut duals = Vec::with_capacity(k);
        let mut used_gram = false;
        for class in 0..k {
            let labels: Vec<f64> = y
                .iter()
                .map(|&c| if c as usize == class { 1.0 } else { -1.0 })
                .collect();
            if n == 0 {
                hyperplanes.push((vec![0.0; d], 0.0));
                duals.push(Vec::new());
                continue;
            }
            let class_warm = warm.and_then(|w| w.get(class)).map(|v| v.as_slice());
            let params = DualParams {
                max_epochs: cfg.max_epochs,
                tolerance: cfg.tolerance,
                seed: derive_seed(cfg.seed, class as u64),
                bias_sq,
            };
            let loss = Hinge { labels: &labels, c: cfg.c };
            let out = solver::solve(&loss, x, &rows, class_warm, &params, budget)?;
            total_flops += out.flops;
            used_gram |= out.path_bits & solver::STRATEGY_GRAM_CODE != 0;
            hyperplanes.push((out.w, if cfg.bias { out.w_bias } else { 0.0 }));
            duals.push(out.alpha);
        }
        drop(span);

        // Visit-based accounting (see svr.rs): flops are priced per path
        // inside each solve (plus the shared Q build, charged once);
        // shrinking's skipped coordinates are not charged; warm-init
        // fold-in is priced by the CV driver once per dual vector, never
        // per solve.
        let active_set_bytes = match cfg.mode {
            SolverMode::Fast => n * std::mem::size_of::<usize>(),
            SolverMode::Strict => 0,
        };
        let gram_bytes = if used_gram {
            (n * n + n) * std::mem::size_of::<f64>()
        } else {
            0
        };
        let cost = TrainingCost {
            flops: total_flops,
            peak_bytes: ((2 * n + d) * std::mem::size_of::<f64>() + active_set_bytes + gram_bytes)
                as u64,
        };
        Ok((Trained { model: LinearSvc { hyperplanes }, cost }, duals))
    }
}

impl ClassifierTrainer for SvcTrainer {
    type Model = LinearSvc;

    /// Validates the problem up front, polls the budget once per epoch of
    /// every binary sub-problem, and rejects diverged binary solves — any
    /// NaN/Inf hyperplane — as [`TrainError::NonConvergence`].
    fn try_train(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        warm: Option<&[Vec<f64>]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<LinearSvc>, Option<Vec<Vec<f64>>>), TrainError> {
        fault::check_classification_problem(x, y)?;
        budget.check()?;
        let (trained, duals) = self.train_classes(x, y, arity, warm, budget)?;
        let diverged = trained.model.hyperplanes.iter().any(|(w, b)| {
            !fault::all_finite(w) || !b.is_finite()
        });
        if diverged {
            return Err(TrainError::NonConvergence {
                epochs: self.config.max_epochs as u64,
            });
        }
        Ok((trained, Some(duals)))
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
    fn separates_binary_classes() {
        let x = matrix(&[
            &[-2.0, -1.5],
            &[-1.5, -2.0],
            &[-1.0, -1.0],
            &[1.0, 1.5],
            &[2.0, 1.0],
            &[1.5, 2.0],
        ]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let t = SvcTrainer::default().train(&x, &y, 2);
        for (i, &label) in y.iter().enumerate() {
            assert_eq!(t.model.predict(x.row(i)), label, "sample {i}");
        }
        assert_eq!(t.model.predict(&[-3.0, -3.0]), 0);
        assert_eq!(t.model.predict(&[3.0, 3.0]), 1);
    }

    #[test]
    fn three_class_one_vs_rest() {
        // Three well-separated clusters, mimicking ternary SNP structure.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let centers = [(-3.0, 0.0), (0.0, 3.0), (3.0, 0.0)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for k in 0..8 {
                let jx = (k % 3) as f64 * 0.1 - 0.1;
                let jy = (k % 4) as f64 * 0.1 - 0.15;
                rows.push(vec![cx + jx, cy + jy]);
                y.push(c as u32);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = matrix(&refs);
        let t = SvcTrainer::default().train(&x, &y, 3);
        assert_eq!(t.model.n_classes(), 3);
        let correct = y
            .iter()
            .enumerate()
            .filter(|&(i, &label)| t.model.predict(x.row(i)) == label)
            .count();
        assert_eq!(correct, y.len());
    }

    #[test]
    fn never_seen_class_still_has_hyperplane() {
        let x = matrix(&[&[0.0], &[1.0]]);
        let y = vec![0, 0];
        let t = SvcTrainer::default().train(&x, &y, 3);
        // Predictions remain valid codes even though classes 1,2 were absent.
        assert!(t.model.predict(&[0.5]) < 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let x = matrix(&[&[0.1], &[0.9], &[0.4], &[0.6]]);
        let y = vec![0, 1, 0, 1];
        let a = SvcTrainer::default().train(&x, &y, 2);
        let b = SvcTrainer::default().train(&x, &y, 2);
        for i in 0..4 {
            assert_eq!(
                a.model.decision_value(1, x.row(i)),
                b.model.decision_value(1, x.row(i))
            );
        }
    }

    #[test]
    fn empty_training_set_yields_valid_model() {
        let x = DesignMatrix::from_raw(0, 2, vec![]);
        let t = SvcTrainer::default().train(&x, &[], 3);
        assert!(t.model.predict(&[1.0, 1.0]) < 3);
        assert_eq!(t.cost.flops, 0);
    }

    #[test]
    fn small_c_is_more_regularized() {
        let x = matrix(&[&[-1.0], &[-0.5], &[0.5], &[1.0]]);
        let y = vec![0, 0, 1, 1];
        let small = SvcTrainer::new(SvcConfig { c: 1e-3, ..SvcConfig::default() })
            .train(&x, &y, 2);
        let large = SvcTrainer::new(SvcConfig { c: 100.0, ..SvcConfig::default() })
            .train(&x, &y, 2);
        let norm = |m: &LinearSvc| {
            m.hyperplanes[1].0.iter().map(|w| w * w).sum::<f64>().sqrt()
        };
        assert!(norm(&small.model) <= norm(&large.model) + 1e-9);
    }

    #[test]
    fn try_train_matches_train_and_trips_when_expired() {
        use crate::budget::RunBudget;
        let x = matrix(&[&[-1.0], &[-0.5], &[0.5], &[1.0]]);
        let y = vec![0, 0, 1, 1];
        let t = SvcTrainer::default();
        let (a, da) = t.try_train(&x, &y, 2, None, &TargetBudget::unlimited()).unwrap();
        let b = t.train(&x, &y, 2);
        for k in 0..2 {
            assert_eq!(a.model.hyperplanes[k], b.model.hyperplanes[k]);
        }
        assert_eq!(da.map(|d| d.len()), Some(2));

        let expired = RunBudget::with_deadline(std::time::Duration::from_secs(0)).start_target();
        assert_eq!(
            t.try_train(&x, &y, 2, None, &expired).unwrap_err(),
            TrainError::DeadlineExceeded
        );
    }

    #[test]
    fn approx_bytes_counts_all_hyperplanes() {
        let x = matrix(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let t = SvcTrainer::default().train(&x, &[0, 1], 4);
        assert_eq!(t.model.approx_bytes(), 4 * 3 * 8);
    }
}
