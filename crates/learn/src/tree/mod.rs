//! CART-style decision trees.
//!
//! The paper models discrete (SNP) features with decision trees — originally
//! the Waffles toolkit's entropy-minimizing trees — because "many modeling
//! techniques, such as SVMs, assume continuous data". We implement both
//! flavours over the all-real encoded design matrix:
//!
//! * [`ClassificationTree`] — greedy top-down induction minimizing the
//!   weighted Shannon entropy of children (information gain), axis-aligned
//!   threshold splits.
//! * [`RegressionTree`] — the same induction minimizing within-node variance
//!   (sum of squared errors).
//!
//! Both are deterministic: ties between equal-gain splits resolve to the
//! lowest feature index and smallest threshold.

mod classification;
mod regression;
mod splitter;

pub use classification::{ClassificationTree, ClassificationTreeTrainer};
pub use regression::{RegressionTree, RegressionTreeTrainer};

use frac_dataset::codec::{RecordRead, RecordWrite};
use frac_dataset::textio::TextError;

/// The growers' split search at one node, for checking it against a
/// reference implementation from outside the crate. Not a stable API.
#[doc(hidden)]
pub mod testing {
    use super::splitter::{best_regression_split, ClassSearch, SplitScratch};
    use crate::budget::TargetBudget;
    use frac_dataset::DesignView;

    pub use super::splitter::SplitChoice;

    /// The split a classification tree grown on `x` (labels `y < arity`)
    /// chooses at the node holding the distinct rows `samples`.
    pub fn classification_split(
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        samples: &[usize],
        min_leaf: usize,
        min_gain: f64,
    ) -> Option<SplitChoice> {
        let mut search = ClassSearch::new(x, y, arity as usize);
        let rows = search.row_set(samples.iter().copied());
        let budget = TargetBudget::unlimited();
        match search.best_split(&rows, samples.len(), min_leaf, min_gain, &budget) {
            Ok(choice) => choice,
            Err(_) => unreachable!("unlimited budget cannot trip"),
        }
    }

    /// The split a regression tree grown on `x` with targets `y` chooses at
    /// the node holding `samples`, in that order.
    pub fn regression_split(
        x: &dyn DesignView,
        y: &[f64],
        samples: &[usize],
        min_leaf: usize,
        min_gain: f64,
    ) -> Option<SplitChoice> {
        let (mut scratch, budget) = (SplitScratch::default(), TargetBudget::unlimited());
        let t = |s: usize| y[s];
        match best_regression_split(samples, x, &t, min_leaf, min_gain, &mut scratch, &budget) {
            Ok(choice) => choice,
            Err(_) => unreachable!("unlimited budget cannot trip"),
        }
    }
}

/// How many node expansions a tree grower performs between cooperative
/// budget checks. Each expansion is a full split search (O(d·m·log m)), so
/// 32 expansions keep the cancellation latency small relative to one solver
/// epoch while making the clock read negligible.
pub(crate) const BUDGET_CHECK_NODES: usize = 32;

/// Hyperparameters shared by both tree flavours.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0). Depth `d` allows at most `2^d`
    /// leaves.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples each child must receive.
    pub min_samples_leaf: usize,
    /// Minimum impurity decrease for a split to be kept.
    pub min_gain: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        // Depth 10 with ≥2-sample leaves matches the capacity regime of the
        // Waffles trees at FRaC's sample sizes (tens to low hundreds of
        // training rows).
        TreeConfig {
            max_depth: 10,
            min_samples_split: 4,
            min_samples_leaf: 2,
            min_gain: 1e-9,
        }
    }
}

/// A node of a fitted tree, indices into the flat node arena.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node<L> {
    /// Terminal node carrying a prediction payload.
    Leaf(L),
    /// Internal axis-aligned split: `x[feature] <= threshold` goes left.
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Walk a node arena from the root to the leaf payload for input `x`.
pub(crate) fn descend<'a, L>(nodes: &'a [Node<L>], x: &[f64]) -> &'a L {
    let mut idx = 0usize;
    loop {
        match &nodes[idx] {
            Node::Leaf(payload) => return payload,
            Node::Split { feature, threshold, left, right } => {
                idx = if x[*feature] <= *threshold { *left } else { *right };
            }
        }
    }
}

/// Count tree nodes reachable from the root (all of them, by construction).
pub(crate) fn arena_len<L>(nodes: &[Node<L>]) -> usize {
    nodes.len()
}

/// Serialize a node arena (model persistence). `leaf` appends a leaf's
/// payload as one field of the open `leaf` record.
pub(crate) fn write_nodes<L, W: RecordWrite>(
    w: &mut W,
    nodes: &[Node<L>],
    leaf: impl Fn(&mut W, &L),
) {
    w.uint("tree_nodes", nodes.len() as u64);
    for node in nodes {
        match node {
            Node::Leaf(payload) => {
                w.begin("leaf");
                leaf(w, payload);
            }
            Node::Split { feature, threshold, left, right } => {
                w.begin("split");
                w.put_uint(*feature as u64);
                w.put_float(*threshold);
                w.put_uint(*left as u64);
                w.put_uint(*right as u64);
            }
        }
        w.end();
    }
}

/// Parse a node arena previously produced by [`write_nodes`]; `leaf` reads
/// the payload field of an open `leaf` record.
pub(crate) fn read_nodes<L, R: RecordRead>(
    r: &mut R,
    leaf: impl Fn(&mut R) -> Result<L, TextError>,
) -> Result<Vec<Node<L>>, TextError> {
    let n = r.count("tree_nodes")?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        if r.peek_is("leaf") {
            r.begin("leaf")?;
            nodes.push(Node::Leaf(leaf(r)?));
        } else {
            r.begin("split")?;
            nodes.push(Node::Split {
                feature: r.get_uint()?,
                threshold: r.get_float()?,
                left: r.get_uint()?,
                right: r.get_uint()?,
            });
        }
        r.end()?;
    }
    // Structural sanity: child indices in range.
    for node in &nodes {
        if let Node::Split { left, right, .. } = node {
            if *left >= nodes.len() || *right >= nodes.len() {
                return Err(r.error("split child index out of range".into()));
            }
        }
    }
    Ok(nodes)
}
