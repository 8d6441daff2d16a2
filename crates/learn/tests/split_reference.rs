//! The trees' split search against a brute-force reference splitter.
//!
//! The reference enumerates every distinct threshold of every column and
//! recounts both children from scratch. Classification must match it
//! exactly — feature, threshold, left size and gain bits — on every path
//! the library takes (bitset counts for two-valued columns, gather-sort
//! sweeps for real ones), and whole trees must equal trees grown greedily
//! with the reference. Regression must match it exactly on two-valued
//! columns and up to float rounding of the gain on real ones (the library
//! sweeps sorted prefix sums, the reference sums in sample order).

use frac_dataset::dataset::{DatasetBuilder, MISSING_CODE};
use frac_dataset::textio::TextWriter;
use frac_dataset::{DesignMatrix, DesignView, PoolSpec, RowSubset};
use frac_learn::traits::ClassifierTrainer;
use frac_learn::tree::testing::{classification_split, regression_split, SplitChoice};
use frac_learn::tree::{ClassificationTreeTrainer, TreeConfig};
use frac_learn::TargetBudget;

const ARITY: u32 = 3;
const MIN_GAIN: f64 = 1e-12;

/// Deterministic xorshift stream for test designs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------- reference

fn entropy(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total as f64;
            -p * p.ln()
        })
        .sum()
}

fn sse(sum: f64, sum_sq: f64, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    (sum_sq - sum * sum / n as f64).max(0.0)
}

/// The library's tie rule: gains within 1e-15 tie, and the lowest
/// (feature, threshold) wins.
fn beats(best: &Option<SplitChoice>, gain: f64, feature: usize, threshold: f64) -> bool {
    best.is_none_or(|b| {
        gain > b.gain + 1e-15
            || ((gain - b.gain).abs() <= 1e-15 && (feature, threshold) < (b.feature, b.threshold))
    })
}

/// Distinct values of column `f` over `samples`, ascending (`-0.0` and
/// `0.0` are one value).
fn distinct(x: &dyn DesignView, f: usize, samples: &[usize]) -> Vec<f64> {
    let mut values: Vec<f64> = samples.iter().map(|&s| x.get(s, f)).collect();
    values.sort_by(f64::total_cmp);
    values.dedup_by(|a, b| a == b);
    values
}

/// Every candidate `(feature, threshold, left samples)` of a node, in scan
/// order: the left side of the i-th threshold holds the values up to the
/// i-th distinct value.
fn for_each_candidate(
    x: &dyn DesignView,
    samples: &[usize],
    mut visit: impl FnMut(usize, f64, &[usize]),
) {
    for f in 0..x.n_cols() {
        let values = distinct(x, f, samples);
        for pair in values.windows(2) {
            let left: Vec<usize> = samples
                .iter()
                .copied()
                .filter(|&s| x.get(s, f) <= pair[0])
                .collect();
            visit(f, 0.5 * (pair[0] + pair[1]), &left);
        }
    }
}

fn class_counts(y: &[u32], rows: &[usize]) -> Vec<usize> {
    let mut counts = vec![0; ARITY as usize];
    for &r in rows {
        counts[y[r] as usize] += 1;
    }
    counts
}

fn reference_classification_split(
    x: &dyn DesignView,
    y: &[u32],
    samples: &[usize],
    min_leaf: usize,
    min_gain: f64,
) -> Option<SplitChoice> {
    let m = samples.len();
    if m < 2 * min_leaf {
        return None;
    }
    let node = class_counts(y, samples);
    let parent = entropy(&node, m);
    if parent <= 0.0 {
        return None;
    }
    let mut best = None;
    for_each_candidate(x, samples, |feature, threshold, left| {
        let n_left = left.len();
        if n_left < min_leaf || m - n_left < min_leaf {
            return;
        }
        let lc = class_counts(y, left);
        let rc: Vec<usize> = node.iter().zip(&lc).map(|(&t, &l)| t - l).collect();
        let weighted = (n_left as f64 * entropy(&lc, n_left)
            + (m - n_left) as f64 * entropy(&rc, m - n_left))
            / m as f64;
        let gain = parent - weighted;
        if gain > min_gain && beats(&best, gain, feature, threshold) {
            best = Some(SplitChoice {
                feature,
                threshold,
                gain,
                n_left,
            });
        }
    });
    best
}

fn reference_regression_split(
    x: &dyn DesignView,
    t: &[f64],
    samples: &[usize],
    min_leaf: usize,
    min_gain: f64,
) -> Option<SplitChoice> {
    let m = samples.len();
    if m < 2 * min_leaf {
        return None;
    }
    let moments = |rows: &[usize]| {
        rows.iter()
            .fold((0.0, 0.0), |(s, q), &r| (s + t[r], q + t[r] * t[r]))
    };
    let (total, total_sq) = moments(samples);
    let parent = sse(total, total_sq, m);
    if parent <= 0.0 {
        return None;
    }
    let mut best = None;
    for_each_candidate(x, samples, |feature, threshold, left| {
        let n_left = left.len();
        if n_left < min_leaf || m - n_left < min_leaf {
            return;
        }
        let (ls, lq) = moments(left);
        let gain = parent - (sse(ls, lq, n_left) + sse(total - ls, total_sq - lq, m - n_left));
        if gain > min_gain && beats(&best, gain, feature, threshold) {
            best = Some(SplitChoice {
                feature,
                threshold,
                gain,
                n_left,
            });
        }
    });
    best
}

/// A classification tree grown greedily with the reference splitter, in
/// the library's arena order (children appended left then right, the
/// right child expanded first), rendered in the library's text format.
fn reference_tree_text(x: &dyn DesignView, y: &[u32], cfg: &TreeConfig) -> String {
    enum RefNode {
        Leaf(u32),
        Split(usize, f64, usize, usize),
    }
    let mut nodes = vec![RefNode::Leaf(0)];
    let mut stack = vec![(0usize, (0..x.n_rows()).collect::<Vec<_>>(), 0usize)];
    while let Some((idx, samples, depth)) = stack.pop() {
        let choice = if depth >= cfg.max_depth || samples.len() < cfg.min_samples_split {
            None
        } else {
            reference_classification_split(x, y, &samples, cfg.min_samples_leaf, cfg.min_gain)
        };
        match choice {
            None => {
                let counts = class_counts(y, &samples);
                let top = (0..counts.len())
                    .rev()
                    .max_by_key(|&c| counts[c])
                    .unwrap_or(0);
                nodes[idx] = RefNode::Leaf(top as u32);
            }
            Some(c) => {
                let (left, right): (Vec<usize>, Vec<usize>) = samples
                    .iter()
                    .partition(|&&s| x.get(s, c.feature) <= c.threshold);
                let (l, r) = (nodes.len(), nodes.len() + 1);
                nodes.push(RefNode::Leaf(0));
                nodes.push(RefNode::Leaf(0));
                nodes[idx] = RefNode::Split(c.feature, c.threshold, l, r);
                stack.push((l, left, depth + 1));
                stack.push((r, right, depth + 1));
            }
        }
    }
    let mut w = TextWriter::new();
    w.line("ctree_arity", [ARITY]);
    w.line("tree_nodes", [nodes.len()]);
    for node in &nodes {
        match node {
            RefNode::Leaf(c) => w.line("leaf", [c.to_string()]),
            RefNode::Split(f, t, l, r) => w.line(
                "split",
                [
                    f.to_string(),
                    format!("{t:?}"),
                    l.to_string(),
                    r.to_string(),
                ],
            ),
        }
    }
    w.finish()
}

// ------------------------------------------------------------------ designs

/// Column shapes of the random designs.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    /// Three one-hot indicators of a ternary feature; ~10% of rows missing
    /// (an all-zero block).
    OneHot,
    /// A standardized indicator: two irrational values.
    Standardized,
    /// `{-0.0, 0.0}` against `1.0`, and `-1.5` against `{-0.0, 0.0}`.
    SignedZeros,
    /// `2.5` everywhere, and a `{-0.0, 0.0}` mix (constant under `==`).
    Constant,
    /// A continuous column and a five-level column with tie groups.
    Real,
}

fn design(n: usize, shapes: &[Shape], rng: &mut Rng) -> DesignMatrix {
    let mut cols: Vec<Vec<f64>> = Vec::new();
    for &shape in shapes {
        match shape {
            Shape::OneHot => {
                let codes: Vec<Option<u64>> = (0..n)
                    .map(|_| (rng.below(10) > 0).then(|| rng.below(3)))
                    .collect();
                for k in 0..3 {
                    cols.push(
                        codes
                            .iter()
                            .map(|&c| f64::from(u8::from(c == Some(k))))
                            .collect(),
                    );
                }
            }
            Shape::Standardized => cols.push(
                (0..n)
                    .map(|_| {
                        if rng.below(4) == 0 {
                            1.7320508
                        } else {
                            -0.5773503
                        }
                    })
                    .collect(),
            ),
            Shape::SignedZeros => {
                let zero = |rng: &mut Rng| if rng.below(2) == 0 { -0.0 } else { 0.0 };
                cols.push(
                    (0..n)
                        .map(|_| if rng.below(3) == 0 { 1.0 } else { zero(rng) })
                        .collect(),
                );
                cols.push(
                    (0..n)
                        .map(|_| if rng.below(3) == 0 { -1.5 } else { zero(rng) })
                        .collect(),
                );
            }
            Shape::Constant => {
                cols.push(vec![2.5; n]);
                cols.push(
                    (0..n)
                        .map(|_| if rng.below(2) == 0 { -0.0 } else { 0.0 })
                        .collect(),
                );
            }
            Shape::Real => {
                cols.push((0..n).map(|_| rng.unit() * 4.0 - 2.0).collect());
                cols.push((0..n).map(|_| rng.below(5) as f64 * 0.25).collect());
            }
        }
    }
    let d = cols.len();
    let values = (0..n)
        .flat_map(|r| cols.iter().map(move |c| c[r]))
        .collect();
    DesignMatrix::from_raw(n, d, values)
}

/// Labels that follow column 0 (or 1) most of the time, so trees grow.
fn labels(x: &dyn DesignView, rng: &mut Rng) -> Vec<u32> {
    (0..x.n_rows())
        .map(|r| {
            if rng.below(4) == 0 {
                rng.below(u64::from(ARITY)) as u32
            } else {
                u32::from(x.get(r, 0) > 0.5) + u32::from(x.get(r, 1.min(x.n_cols() - 1)) > 0.5)
            }
        })
        .collect()
}

fn targets(x: &dyn DesignView, rng: &mut Rng) -> Vec<f64> {
    (0..x.n_rows())
        .map(|r| x.get(r, 0) * 2.0 - x.get(r, x.n_cols() - 1) + rng.unit())
        .collect()
}

/// A random subset of `0..n` (ascending), about `keep` of it.
fn subset(n: usize, keep: f64, rng: &mut Rng) -> Vec<usize> {
    (0..n).filter(|_| rng.unit() < keep).collect()
}

fn all_two_valued(shapes: &[Shape]) -> bool {
    !shapes.contains(&Shape::Real)
}

const SHAPE_SETS: &[&[Shape]] = &[
    &[Shape::OneHot, Shape::OneHot, Shape::OneHot, Shape::Constant],
    &[
        Shape::OneHot,
        Shape::Standardized,
        Shape::SignedZeros,
        Shape::Constant,
        Shape::OneHot,
    ],
    &[
        Shape::OneHot,
        Shape::Real,
        Shape::SignedZeros,
        Shape::Standardized,
    ],
    &[Shape::Real, Shape::Real],
];

/// Row counts around the 64- and 128-bit word boundaries.
const SIZES: &[usize] = &[9, 40, 63, 64, 65, 100, 127, 128, 129, 150];

// -------------------------------------------------------------------- checks

fn assert_same(lib: Option<SplitChoice>, reference: Option<SplitChoice>, what: &str) {
    assert_eq!(lib, reference, "{what}");
    if let (Some(a), Some(b)) = (lib, reference) {
        assert_eq!(a.gain.to_bits(), b.gain.to_bits(), "{what}: gain bits");
        assert_eq!(
            a.threshold.to_bits(),
            b.threshold.to_bits(),
            "{what}: threshold bits"
        );
    }
}

/// Every check on one view: root and random-node classification splits,
/// whole trees at every `min_leaf`, and regression splits.
fn check_view(x: &dyn DesignView, two_valued: bool, rng: &mut Rng, what: &str) {
    let n = x.n_rows();
    let y = labels(x, rng);
    let t = targets(x, rng);
    let nodes: Vec<Vec<usize>> = std::iter::once((0..n).collect())
        .chain((0..4).map(|_| subset(n, 0.5, rng)))
        .collect();
    for min_leaf in [1usize, 2, 5] {
        for (i, samples) in nodes.iter().enumerate() {
            let what = format!("{what}, node {i}, min_leaf {min_leaf}");
            assert_same(
                classification_split(x, &y, ARITY, samples, min_leaf, MIN_GAIN),
                reference_classification_split(x, &y, samples, min_leaf, MIN_GAIN),
                &format!("classification, {what}"),
            );
            let lib = regression_split(x, &t, samples, min_leaf, MIN_GAIN);
            let reference = reference_regression_split(x, &t, samples, min_leaf, MIN_GAIN);
            if two_valued {
                assert_same(lib, reference, &format!("regression, {what}"));
            } else {
                assert_eq!(lib.is_some(), reference.is_some(), "regression, {what}");
                if let (Some(a), Some(b)) = (lib, reference) {
                    assert_eq!(
                        (a.feature, a.threshold.to_bits(), a.n_left),
                        (b.feature, b.threshold.to_bits(), b.n_left),
                        "regression, {what}"
                    );
                    assert!(
                        (a.gain - b.gain).abs() <= 1e-9 * (1.0 + b.gain.abs()),
                        "regression gain, {what}: {} vs {}",
                        a.gain,
                        b.gain
                    );
                }
            }
        }
        let cfg = TreeConfig {
            min_samples_leaf: min_leaf,
            ..TreeConfig::default()
        };
        let (tree, _) = ClassificationTreeTrainer::new(cfg)
            .try_train(x, &y, ARITY, None, &TargetBudget::unlimited())
            .unwrap();
        let mut w = TextWriter::new();
        tree.model.write_to(&mut w);
        assert_eq!(
            w.finish(),
            reference_tree_text(x, &y, &cfg),
            "tree arena, {what}, min_leaf {min_leaf}"
        );
        // The labels follow the first columns, so every tree past a few
        // dozen rows grows: the arena comparison is not between stumps.
        if n >= 40 {
            assert!(tree.model.n_nodes() > 2, "{what}, min_leaf {min_leaf}: a stump");
        }
    }
}

#[test]
fn owned_designs_match_reference() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for shapes in SHAPE_SETS {
        for &n in SIZES {
            let x = design(n, shapes, &mut rng);
            check_view(
                &x,
                all_two_valued(shapes),
                &mut rng,
                &format!("owned n={n}"),
            );
        }
    }
}

#[test]
fn row_subset_views_match_reference() {
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    for shapes in SHAPE_SETS {
        for &n in SIZES {
            let x = design(n + n / 2, shapes, &mut rng);
            let rows = subset(x.n_rows(), 0.7, &mut rng);
            let view = RowSubset::new(&x, &rows);
            check_view(
                &view,
                all_two_valued(shapes),
                &mut rng,
                &format!("subset of n={n}"),
            );
        }
    }
}

#[test]
fn pool_views_under_a_cv_fold_match_reference() {
    // The shape FRaC trains on: a pool view of categorical (one-hot, with
    // missing codes) and real (standardized) features, restricted to the
    // target's present rows, then to one CV fold's training rows.
    let mut rng = Rng(0xdead_beef_cafe_f00d);
    for &n in SIZES {
        let rows = n * 2;
        let mut b = DatasetBuilder::new();
        for j in 0..6 {
            let codes = (0..rows)
                .map(|_| {
                    if rng.below(12) == 0 {
                        MISSING_CODE
                    } else {
                        rng.below(3) as u32
                    }
                })
                .collect();
            b = b.categorical(format!("snp{j}"), 3, codes);
        }
        b = b.real(
            "binary",
            (0..rows).map(|_| rng.below(2) as f64 * 3.0).collect(),
        );
        b = b.real("expr", (0..rows).map(|_| rng.unit()).collect());
        let data = b.build();
        let features: Vec<usize> = (0..data.n_features()).collect();
        let pool = PoolSpec::fit(&data, &features, true).encode(&data);
        for inputs in [vec![0usize, 1, 2, 3, 4, 5, 6], vec![0, 2, 3, 5, 6, 7]] {
            let view = pool.view(&inputs);
            let present = subset(rows, 0.8, &mut rng);
            let presence = RowSubset::new(&view, &present);
            let fold: Vec<usize> = (0..present.len()).filter(|i| i % 5 != 2).collect();
            let fold_view = RowSubset::new(&presence, &fold);
            let two_valued = !inputs.contains(&7);
            check_view(
                &fold_view,
                two_valued,
                &mut rng,
                &format!("pool fold n={n}"),
            );
        }
    }
}
