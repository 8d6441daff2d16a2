//! Entropy-minimizing classification trees (the paper's SNP model).

use super::splitter::{row_count, ClassSearch};
use super::{descend, Node, TreeConfig, BUDGET_CHECK_NODES};
use crate::budget::TargetBudget;
use crate::fault::{self, TrainError};
use crate::telemetry;
use crate::traits::{Classifier, ClassifierTrainer, Trained, TrainingCost};
use frac_dataset::DesignView;

/// A fitted classification tree predicting class codes.
#[derive(Debug, Clone)]
pub struct ClassificationTree {
    nodes: Vec<Node<u32>>,
    arity: u32,
}

impl ClassificationTree {
    /// Number of nodes (splits + leaves).
    pub fn n_nodes(&self) -> usize {
        super::arena_len(&self.nodes)
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf(_))).count()
    }

    /// Class arity this tree was trained for.
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// Serialize into a text writer (model persistence).
    pub fn write_text(&self, w: &mut frac_dataset::textio::TextWriter) {
        w.line("ctree_arity", [self.arity]);
        super::write_nodes(w, &self.nodes, u32::to_string);
    }

    /// Parse a model previously produced by
    /// [`ClassificationTree::write_text`].
    pub fn parse_text(
        r: &mut frac_dataset::textio::TextReader<'_>,
    ) -> Result<Self, frac_dataset::textio::TextError> {
        let arity: u32 = r.parse_one("ctree_arity")?;
        let nodes = super::parse_nodes(r, |s| {
            let c: u32 = s.parse().map_err(|_| format!("bad class `{s}`"))?;
            if c >= arity {
                return Err(format!("leaf class {c} out of range for arity {arity}").into());
            }
            Ok(c)
        })?;
        Ok(ClassificationTree { nodes, arity })
    }
}

impl Classifier for ClassificationTree {
    fn predict(&self, x: &[f64]) -> u32 {
        *descend(&self.nodes, x)
    }

    fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node<u32>>()
    }
}

/// Greedy top-down trainer for [`ClassificationTree`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassificationTreeTrainer {
    /// Hyperparameters.
    pub config: TreeConfig,
}

impl ClassificationTreeTrainer {
    /// Trainer with the given configuration.
    pub fn new(config: TreeConfig) -> Self {
        ClassificationTreeTrainer { config }
    }

    /// Greedy top-down growth with cooperative budget polling every
    /// `BUDGET_CHECK_NODES` node expansions; see
    /// [`super::regression::RegressionTreeTrainer`] for the contract.
    ///
    /// Nodes are row bitsets over `x` (see [`ClassSearch`]); a split
    /// partitions its node by `value <= threshold`, and children take the
    /// next arena slots, left before right.
    ///
    /// The reported [`TrainingCost::flops`] is the analytic cost of a
    /// sort-based search, `d·m·(⌈log₂ m⌉ + 2)` per node of `m` samples. It
    /// is not the work executed — two-valued columns are scored from
    /// popcounts — but the model the paper's cost extrapolation (Table II)
    /// is reproduced under, so it stays fixed.
    fn grow(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        budget: &TargetBudget,
    ) -> Result<Trained<ClassificationTree>, TrainError> {
        assert_eq!(x.n_rows(), y.len(), "target length must match rows");
        let _span = telemetry::span(telemetry::Stage::TreeGrow);
        let cfg = &self.config;
        let n = x.n_rows();
        let d = x.n_cols();

        let mut nodes: Vec<Node<u32>> = Vec::new();
        let mut flops = 0u64;

        if n == 0 {
            nodes.push(Node::Leaf(0));
            return Ok(Trained {
                model: ClassificationTree { nodes, arity },
                cost: TrainingCost::default(),
            });
        }

        let mut search = ClassSearch::new(x, y, arity as usize);
        // Work stack of (node index, node rows, depth).
        nodes.push(Node::Leaf(0)); // placeholder, patched below
        let mut stack = vec![(0usize, search.row_set(0..n), 0usize)];
        let mut expansions = 0usize;

        while let Some((node_idx, rows, depth)) = stack.pop() {
            if expansions.is_multiple_of(BUDGET_CHECK_NODES) {
                budget.check()?;
            }
            expansions += 1;
            let m = row_count(&rows);
            flops += (d as u64)
                * (m as u64)
                * ((m.max(2) as f64).log2().ceil() as u64 + 2);

            let choice = if depth >= cfg.max_depth || m < cfg.min_samples_split {
                None
            } else {
                search.best_split(&rows, m, cfg.min_samples_leaf, cfg.min_gain, budget)?
            };

            match choice {
                None => {
                    nodes[node_idx] = Node::Leaf(majority(&search.class_counts(&rows)));
                }
                Some(c) => {
                    let (left, right) = search.partition(&rows, c.feature, c.threshold);
                    let left_idx = nodes.len();
                    nodes.push(Node::Leaf(0));
                    let right_idx = nodes.len();
                    nodes.push(Node::Leaf(0));
                    nodes[node_idx] = Node::Split {
                        feature: c.feature,
                        threshold: c.threshold,
                        left: left_idx,
                        right: right_idx,
                    };
                    stack.push((left_idx, left, depth + 1));
                    stack.push((right_idx, right, depth + 1));
                }
            }
        }

        let peak_bytes = (n * (std::mem::size_of::<usize>() + 16)
            + nodes.len() * std::mem::size_of::<Node<u32>>()) as u64;
        telemetry::counter_add(telemetry::Counter::TreeNodes, nodes.len() as u64);
        Ok(Trained {
            model: ClassificationTree { nodes, arity },
            cost: TrainingCost { flops, peak_bytes },
        })
    }
}

/// The most frequent class; the lowest code wins ties, deterministically.
fn majority(counts: &[usize]) -> u32 {
    counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(c, _)| c as u32)
        .unwrap_or(0)
}

impl ClassifierTrainer for ClassificationTreeTrainer {
    type Model = ClassificationTree;

    fn train_view(&self, x: &dyn DesignView, y: &[u32], arity: u32) -> Trained<ClassificationTree> {
        match self.grow(x, y, arity, &TargetBudget::unlimited()) {
            Ok(trained) => trained,
            Err(_) => unreachable!("unlimited budget cannot trip"),
        }
    }

    /// Budget-polling growth: same arithmetic as the infallible path, with
    /// the budget checked every `BUDGET_CHECK_NODES` node expansions.
    fn try_train_view_budgeted(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        _warm: Option<&[Vec<f64>]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<ClassificationTree>, Option<Vec<Vec<f64>>>), TrainError> {
        fault::check_classification_problem(x, y)?;
        Ok((self.grow(x, y, arity, budget)?, None))
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
    fn learns_axis_aligned_boundary() {
        let x = matrix(&[&[0.0], &[0.1], &[0.2], &[0.8], &[0.9], &[1.0]]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let cfg = TreeConfig { min_samples_split: 2, min_samples_leaf: 1, ..TreeConfig::default() };
        let t = ClassificationTreeTrainer::new(cfg).train(&x, &y, 2);
        assert_eq!(t.model.predict(&[0.05]), 0);
        assert_eq!(t.model.predict(&[0.95]), 1);
        assert_eq!(t.model.n_leaves(), 2);
    }

    #[test]
    fn learns_interval_rule_with_depth_two() {
        // y = 1 iff x ∈ (0.3, 0.7): needs two stacked splits on one feature.
        let x = matrix(&[
            &[0.0],
            &[0.1],
            &[0.2],
            &[0.4],
            &[0.5],
            &[0.6],
            &[0.8],
            &[0.9],
        ]);
        let y = vec![0, 0, 0, 1, 1, 1, 0, 0];
        let cfg = TreeConfig { min_samples_split: 2, min_samples_leaf: 1, ..TreeConfig::default() };
        let t = ClassificationTreeTrainer::new(cfg).train(&x, &y, 2);
        for (i, &label) in y.iter().enumerate() {
            assert_eq!(t.model.predict(x.row(i)), label, "sample {i}");
        }
        assert!(t.model.n_leaves() >= 3);
    }

    #[test]
    fn learns_xor_when_zero_gain_splits_allowed() {
        // Balanced XOR has zero information gain at the root, so a greedy
        // tree with min_gain ≥ 0 yields a majority stump; allowing zero-gain
        // splits (negative min_gain) lets depth-2 recursion solve it.
        let x = matrix(&[
            &[0.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 0.0],
            &[1.0, 1.0],
            &[0.1, 0.1],
            &[0.1, 0.9],
            &[0.9, 0.1],
            &[0.9, 0.9],
        ]);
        let y = vec![0, 1, 1, 0, 0, 1, 1, 0];
        let cfg = TreeConfig {
            min_samples_split: 2,
            min_samples_leaf: 1,
            min_gain: -1.0,
            ..TreeConfig::default()
        };
        let t = ClassificationTreeTrainer::new(cfg).train(&x, &y, 2);
        for (i, &label) in y.iter().enumerate() {
            assert_eq!(t.model.predict(x.row(i)), label, "sample {i}");
        }
    }

    #[test]
    fn max_depth_zero_gives_majority_stump() {
        let x = matrix(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let y = vec![1, 1, 1, 0];
        let cfg = TreeConfig { max_depth: 0, ..TreeConfig::default() };
        let t = ClassificationTreeTrainer::new(cfg).train(&x, &y, 2);
        assert_eq!(t.model.n_nodes(), 1);
        for v in 0..4 {
            assert_eq!(t.model.predict(&[v as f64]), 1);
        }
    }

    #[test]
    fn one_hot_snp_inputs_are_splittable() {
        // Genotype of SNP B (one-hot, 3 cols) determines the label; SNP A is
        // noise. This is exactly the encoded shape FRaC feeds trees.
        let x = matrix(&[
            // A0 A1 A2 | B0 B1 B2
            &[1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0, 1.0, 0.0],
            &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            &[0.0, 0.0, 1.0, 0.0, 0.0, 1.0],
        ]);
        let y = vec![0, 0, 1, 1, 2, 2];
        let cfg = TreeConfig { min_samples_split: 2, min_samples_leaf: 1, ..TreeConfig::default() };
        let t = ClassificationTreeTrainer::new(cfg).train(&x, &y, 3);
        for (i, &label) in y.iter().enumerate() {
            assert_eq!(t.model.predict(x.row(i)), label, "sample {i}");
        }
    }

    #[test]
    fn deterministic_training() {
        let x = matrix(&[&[0.3, 0.7], &[0.6, 0.1], &[0.9, 0.4], &[0.2, 0.8]]);
        let y = vec![0, 1, 1, 0];
        let a = ClassificationTreeTrainer::default().train(&x, &y, 2);
        let b = ClassificationTreeTrainer::default().train(&x, &y, 2);
        assert_eq!(a.model.nodes, b.model.nodes);
    }

    #[test]
    fn empty_training_set_predicts_class_zero() {
        let x = DesignMatrix::from_raw(0, 2, vec![]);
        let t = ClassificationTreeTrainer::default().train(&x, &[], 3);
        assert_eq!(t.model.predict(&[0.0, 0.0]), 0);
    }

    #[test]
    fn majority_tie_breaks_to_lowest_code() {
        assert_eq!(majority(&[2, 2]), 0);
        assert_eq!(majority(&[0, 1, 2]), 2);
    }

    #[test]
    fn cost_grows_with_samples() {
        let small = matrix(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let big = matrix(&refs);
        let ys: Vec<u32> = (0..64).map(|i| (i / 32) as u32).collect();
        let a = ClassificationTreeTrainer::default().train(&small, &[0, 0, 1, 1], 2);
        let b = ClassificationTreeTrainer::default().train(&big, &ys, 2);
        assert!(b.cost.flops > a.cost.flops);
    }

    #[test]
    fn flops_follow_the_sort_based_cost_model() {
        // The analytic model behind `core.flops` and Table II, per node of
        // m samples: d·m·(⌈log₂ m⌉ + 2). A perfect one-split tree over
        // d = 2 columns and 8 rows: the root (2·8·5) and two leaves
        // (2·4·4 each).
        let rows: Vec<Vec<f64>> =
            (0..8).map(|i| vec![(i % 2) as f64, (i / 4) as f64 * 0.5]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let y: Vec<u32> = (0..8).map(|i| (i % 2) as u32).collect();
        let t = ClassificationTreeTrainer::default().train(&matrix(&refs), &y, 2);
        assert_eq!(t.model.n_nodes(), 3);
        assert_eq!(t.cost.flops, 80 + 32 + 32);

        // A deeper fit on a one-hot design with missing blocks and a real
        // column, pinned to the figure the sort-based splitter reported.
        let mut s = 0x853c_49e6_748f_ea9bu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let rows: Vec<Vec<f64>> = (0..150)
            .map(|_| {
                let mut row: Vec<f64> = (0..40)
                    .flat_map(|_| {
                        let code = next() % 4; // 3 = missing: an all-zero block
                        (0..3).map(move |k| f64::from(u8::from(code == k)))
                    })
                    .collect();
                row.push((next() % 1000) as f64 / 100.0);
                row
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let y: Vec<u32> = rows
            .iter()
            .map(|r| {
                if r[0] == 1.0 || r[4] == 1.0 {
                    2
                } else {
                    r[7] as u32 + u32::from(r[120] > 5.0)
                }
            })
            .collect();
        let t = ClassificationTreeTrainer::default().train(&matrix(&refs), &y, 3);
        assert_eq!((t.model.n_nodes(), t.cost.flops), (13, 592_779));
    }
}
