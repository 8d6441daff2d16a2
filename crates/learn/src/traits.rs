//! Model and trainer abstractions.
//!
//! FRaC is model-agnostic ("predictors can be any supervised learning
//! algorithm"); the core crate drives everything through these traits so any
//! regressor/classifier pair can be plugged in. Trainers also report a
//! [`TrainingCost`], the raw material for reproducing the paper's CPU-time
//! and memory columns.

use crate::budget::TargetBudget;
use crate::fault::TrainError;
use frac_dataset::{DesignMatrix, DesignView};

/// Analytic cost of one model-training call.
///
/// `flops` approximates the floating-point work performed; `peak_bytes`
/// approximates the solver's peak transient working set **excluding** the
/// design matrix itself (the caller owns and accounts for that). Both are
/// deterministic functions of the training run, so resource tables built
/// from them are reproducible, unlike wall-clock/RSS sampling at small
/// scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainingCost {
    /// Approximate floating-point operations performed.
    pub flops: u64,
    /// Approximate peak working-set bytes allocated by the trainer.
    pub peak_bytes: u64,
}

impl TrainingCost {
    /// Element-wise sum of two costs (flops add; peaks add, modelling
    /// concurrently live solver state within one FRaC model build).
    pub fn plus(self, other: TrainingCost) -> TrainingCost {
        TrainingCost {
            flops: self.flops + other.flops,
            peak_bytes: self.peak_bytes + other.peak_bytes,
        }
    }
}

/// A fitted model plus the cost of fitting it.
#[derive(Debug, Clone)]
pub struct Trained<M> {
    /// The fitted model.
    pub model: M,
    /// What it cost to fit.
    pub cost: TrainingCost,
}

/// A fitted real-valued predictor.
pub trait Regressor: Send + Sync {
    /// Predict the target for one encoded input row.
    fn predict(&self, x: &[f64]) -> f64;

    /// Predict every row of a design matrix.
    fn predict_batch(&self, m: &DesignMatrix) -> Vec<f64> {
        (0..m.n_rows()).map(|r| self.predict(m.row(r))).collect()
    }

    /// Approximate resident bytes of the fitted model.
    fn approx_bytes(&self) -> usize;
}

/// A fitted categorical predictor (outputs a class code).
pub trait Classifier: Send + Sync {
    /// Predict the class code for one encoded input row.
    fn predict(&self, x: &[f64]) -> u32;

    /// Predict every row of a design matrix.
    fn predict_batch(&self, m: &DesignMatrix) -> Vec<u32> {
        (0..m.n_rows()).map(|r| self.predict(m.row(r))).collect()
    }

    /// Approximate resident bytes of the fitted model.
    fn approx_bytes(&self) -> usize;
}

/// Trains regressors from `(design view, real targets)` pairs.
///
/// [`Self::try_train`] is the one entry point: it accepts any
/// [`DesignView`], so the caller can hand over a zero-copy slice of a
/// shared [`frac_dataset::EncodedPool`] (or a [`frac_dataset::RowSubset`]
/// of one) instead of materializing an owned matrix per target/fold.
pub trait RegressorTrainer: Send + Sync {
    /// The model type produced.
    type Model: Regressor;

    /// Fit a model from any design view, optionally warm-started, under a
    /// cooperative budget. Returns the model and, for trainers with a dual
    /// formulation, the final duals.
    ///
    /// Validates the problem (shape, allocation size, finite targets) and
    /// the fitted model instead of panicking or returning a poisoned fit;
    /// the budget is polled inside the trainer's inner loop, and a tripped
    /// budget surfaces as [`TrainError::DeadlineExceeded`]. With an
    /// unlimited budget nothing is ever polled out, so the result depends
    /// only on the problem, the config and `warm`.
    ///
    /// Warm-start contract: `warm`, when given, has `x.n_rows()` entries —
    /// one dual per **row of this view, in view order** — and may come
    /// from *any* prior solve (other fold, other replicate, other
    /// hyperparameters); the trainer clamps it into its own feasible box,
    /// so any real vector is a legal start and can only change where the
    /// solver starts, never what fixed point it converges to. The returned
    /// duals follow the same row-order convention. Trainers without a dual
    /// formulation ignore `warm` and return `None`, and callers degrade
    /// gracefully to cold starts.
    #[allow(clippy::type_complexity)]
    fn try_train(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<Self::Model>, Option<Vec<f64>>), TrainError>;

    /// Cold-start fit of an owned matrix under an unlimited budget — a
    /// convenience over [`Self::try_train`] for tests and benches.
    ///
    /// # Panics
    /// Panics if the fit fails (invalid input or a diverged solve).
    fn train(&self, x: &DesignMatrix, y: &[f64]) -> Trained<Self::Model> {
        match self.try_train(x, y, None, &TargetBudget::unlimited()) {
            Ok((trained, _)) => trained,
            Err(e) => panic!("regressor training failed: {e}"),
        }
    }
}

/// Trains classifiers from `(design view, class codes, arity)` triples.
pub trait ClassifierTrainer: Send + Sync {
    /// The model type produced.
    type Model: Classifier;

    /// Fit a model from any design view; all codes are `< arity`. Same
    /// contract as [`RegressorTrainer::try_train`], except the duals are
    /// **per one-vs-rest class**: `warm[k][i]` seeds class `k`'s dual for
    /// row `i` (in view order), and a `warm` slice shorter than the number
    /// of classes cold-starts the missing classes.
    #[allow(clippy::type_complexity)]
    fn try_train(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        warm: Option<&[Vec<f64>]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<Self::Model>, Option<Vec<Vec<f64>>>), TrainError>;

    /// Cold-start fit of an owned matrix under an unlimited budget; see
    /// [`RegressorTrainer::train`].
    ///
    /// # Panics
    /// Panics if the fit fails (invalid input or a diverged solve).
    fn train(&self, x: &DesignMatrix, y: &[u32], arity: u32) -> Trained<Self::Model> {
        match self.try_train(x, y, arity, None, &TargetBudget::unlimited()) {
            Ok((trained, _)) => trained,
            Err(e) => panic!("classifier training failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_plus_adds_componentwise() {
        let a = TrainingCost { flops: 10, peak_bytes: 100 };
        let b = TrainingCost { flops: 5, peak_bytes: 50 };
        let c = a.plus(b);
        assert_eq!(c.flops, 15);
        assert_eq!(c.peak_bytes, 150);
    }

    struct Zero;
    impl Regressor for Zero {
        fn predict(&self, _x: &[f64]) -> f64 {
            0.0
        }
        fn approx_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn default_batch_prediction_maps_rows() {
        let m = DesignMatrix::from_raw(3, 2, vec![1.0; 6]);
        assert_eq!(Zero.predict_batch(&m), vec![0.0; 3]);
    }
}
