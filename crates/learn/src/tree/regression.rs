//! Variance-minimizing regression trees.
//!
//! Used in the JL-pre-projection pipeline on SNP data: after projection every
//! feature is real-valued, and the paper notes it kept decision trees as the
//! model there ("using entropy-minimizing decision trees in the transformed
//! space") — for real targets that means regression trees.

use super::splitter::{best_regression_split, SplitScratch};
use super::{descend, Node, TreeConfig, BUDGET_CHECK_NODES};
use crate::budget::TargetBudget;
use crate::fault::{self, TrainError};
use crate::telemetry;
use crate::traits::{Regressor, RegressorTrainer, Trained, TrainingCost};
use frac_dataset::DesignView;

/// A fitted regression tree predicting leaf means.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node<f64>>,
}

impl RegressionTree {
    /// Number of nodes (splits + leaves).
    pub fn n_nodes(&self) -> usize {
        super::arena_len(&self.nodes)
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf(_))).count()
    }

    /// Serialize into a text writer (model persistence).
    pub fn write_text(&self, w: &mut frac_dataset::textio::TextWriter) {
        w.tag("rtree");
        super::write_nodes(w, &self.nodes, |v| format!("{v:?}"));
    }

    /// Parse a model previously produced by [`RegressionTree::write_text`].
    pub fn parse_text(
        r: &mut frac_dataset::textio::TextReader<'_>,
    ) -> Result<Self, frac_dataset::textio::TextError> {
        r.expect("rtree")?;
        let nodes = super::parse_nodes(r, |s| {
            s.parse::<f64>().map_err(|_| format!("bad leaf value `{s}`").into())
        })?;
        Ok(RegressionTree { nodes })
    }
}

impl Regressor for RegressionTree {
    fn predict(&self, x: &[f64]) -> f64 {
        *descend(&self.nodes, x)
    }

    fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node<f64>>()
    }
}

/// Greedy top-down trainer for [`RegressionTree`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RegressionTreeTrainer {
    /// Hyperparameters.
    pub config: TreeConfig,
}

impl RegressionTreeTrainer {
    /// Trainer with the given configuration.
    pub fn new(config: TreeConfig) -> Self {
        RegressionTreeTrainer { config }
    }

    /// Greedy top-down growth with cooperative budget polling every
    /// `BUDGET_CHECK_NODES` node expansions. With an unlimited budget the
    /// result is the arithmetic of [`RegressorTrainer::train_view`], bit for
    /// bit.
    fn grow(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        budget: &TargetBudget,
    ) -> Result<Trained<RegressionTree>, TrainError> {
        assert_eq!(x.n_rows(), y.len(), "target length must match rows");
        let _span = telemetry::span(telemetry::Stage::TreeGrow);
        let cfg = &self.config;
        let n = x.n_rows();
        let d = x.n_cols();

        let mut nodes: Vec<Node<f64>> = Vec::new();
        let mut flops = 0u64;

        if n == 0 {
            nodes.push(Node::Leaf(0.0));
            return Ok(Trained {
                model: RegressionTree { nodes },
                cost: TrainingCost::default(),
            });
        }

        let mut scratch = SplitScratch::default();
        let root_samples: Vec<usize> = (0..n).collect();
        nodes.push(Node::Leaf(0.0));
        let mut stack = vec![(0usize, root_samples, 0usize)];
        let mut expansions = 0usize;

        while let Some((node_idx, samples, depth)) = stack.pop() {
            if expansions.is_multiple_of(BUDGET_CHECK_NODES) {
                budget.check()?;
            }
            expansions += 1;
            let m = samples.len();
            flops += (d as u64)
                * (m as u64)
                * ((m.max(2) as f64).log2().ceil() as u64 + 2);

            let choice = if depth >= cfg.max_depth || m < cfg.min_samples_split {
                None
            } else {
                best_regression_split(
                    &samples,
                    x,
                    &|s| y[s],
                    cfg.min_samples_leaf,
                    cfg.min_gain,
                    &mut scratch,
                    budget,
                )?
            };

            match choice {
                None => {
                    let mean = samples.iter().map(|&s| y[s]).sum::<f64>() / m as f64;
                    nodes[node_idx] = Node::Leaf(mean);
                }
                Some(c) => {
                    let split_col = x.col(c.feature);
                    let (left_samples, right_samples): (Vec<usize>, Vec<usize>) = samples
                        .iter()
                        .partition(|&&s| split_col.get(s) <= c.threshold);
                    let left_idx = nodes.len();
                    nodes.push(Node::Leaf(0.0));
                    let right_idx = nodes.len();
                    nodes.push(Node::Leaf(0.0));
                    nodes[node_idx] = Node::Split {
                        feature: c.feature,
                        threshold: c.threshold,
                        left: left_idx,
                        right: right_idx,
                    };
                    stack.push((left_idx, left_samples, depth + 1));
                    stack.push((right_idx, right_samples, depth + 1));
                }
            }
        }

        let peak_bytes = (n * (std::mem::size_of::<usize>() + 16)
            + nodes.len() * std::mem::size_of::<Node<f64>>()) as u64;
        telemetry::counter_add(telemetry::Counter::TreeNodes, nodes.len() as u64);
        Ok(Trained {
            model: RegressionTree { nodes },
            cost: TrainingCost { flops, peak_bytes },
        })
    }
}

impl RegressorTrainer for RegressionTreeTrainer {
    type Model = RegressionTree;

    fn train_view(&self, x: &dyn DesignView, y: &[f64]) -> Trained<RegressionTree> {
        match self.grow(x, y, &TargetBudget::unlimited()) {
            Ok(trained) => trained,
            Err(_) => unreachable!("unlimited budget cannot trip"),
        }
    }

    /// Budget-polling growth: same arithmetic as the infallible path, with
    /// the budget checked every `BUDGET_CHECK_NODES` node expansions.
    fn try_train_view_budgeted(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        _warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<RegressionTree>, Option<Vec<f64>>), TrainError> {
        fault::check_regression_problem(x, y)?;
        Ok((self.grow(x, y, budget)?, None))
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
    fn fits_step_function() {
        let x = matrix(&[&[0.0], &[1.0], &[2.0], &[10.0], &[11.0], &[12.0]]);
        let y = vec![1.0, 1.0, 1.0, 5.0, 5.0, 5.0];
        let cfg = TreeConfig { min_samples_split: 2, min_samples_leaf: 1, ..TreeConfig::default() };
        let t = RegressionTreeTrainer::new(cfg).train(&x, &y);
        assert!((t.model.predict(&[0.5]) - 1.0).abs() < 1e-12);
        assert!((t.model.predict(&[11.5]) - 5.0).abs() < 1e-12);
        assert_eq!(t.model.n_leaves(), 2);
    }

    #[test]
    fn approximates_piecewise_trend() {
        let rows: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64 / 8.0]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = matrix(&refs);
        let y: Vec<f64> = rows.iter().map(|r| (r[0] * 2.0).floor()).collect();
        let cfg = TreeConfig { min_samples_split: 2, min_samples_leaf: 1, ..TreeConfig::default() };
        let t = RegressionTreeTrainer::new(cfg).train(&x, &y);
        let max_err = rows
            .iter()
            .zip(&y)
            .map(|(r, &target)| (t.model.predict(r) - target).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 0.5, "max_err = {max_err}");
    }

    #[test]
    fn constant_target_is_single_leaf() {
        let x = matrix(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let t = RegressionTreeTrainer::default().train(&x, &[7.0; 4]);
        assert_eq!(t.model.n_nodes(), 1);
        assert_eq!(t.model.predict(&[9.0]), 7.0);
    }

    #[test]
    fn respects_max_depth() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = matrix(&refs);
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let cfg = TreeConfig {
            max_depth: 2,
            min_samples_split: 2,
            min_samples_leaf: 1,
            ..TreeConfig::default()
        };
        let t = RegressionTreeTrainer::new(cfg).train(&x, &y);
        assert!(t.model.n_leaves() <= 4);
    }

    #[test]
    fn empty_training_set_predicts_zero() {
        let x = DesignMatrix::from_raw(0, 1, vec![]);
        let t = RegressionTreeTrainer::default().train(&x, &[]);
        assert_eq!(t.model.predict(&[1.0]), 0.0);
    }

    #[test]
    fn deterministic_training() {
        let x = matrix(&[&[0.3, 0.7], &[0.6, 0.1], &[0.9, 0.4], &[0.2, 0.8]]);
        let y = vec![0.1, 0.9, 0.8, 0.2];
        let a = RegressionTreeTrainer::default().train(&x, &y);
        let b = RegressionTreeTrainer::default().train(&x, &y);
        assert_eq!(a.model.nodes, b.model.nodes);
    }
}
