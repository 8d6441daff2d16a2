//! Best-split search shared by both tree flavours.
//!
//! **Classification** ([`ClassSearch`]) encodes the tree's design once, in
//! one row-contiguous pass, before the first node is searched. Every column
//! holding at most two distinct values under `==` and no NaN — each one-hot
//! indicator, all-zero missing blocks and standardized indicators included,
//! i.e. the entire design of a categorical-only fit — becomes a row bitset
//! of its low-value rows. Node membership and the per-class row sets are
//! bitsets too, so such a column is scored from integer counts alone: the
//! left size is `popcount(col & node)` and the left count of class `c` is
//! `popcount(col & node & class_c)`, ⌈n/64⌉ words each. The column's only
//! threshold is `0.5·(lo + hi)`. A column whose left size is 0 or the node
//! size is constant at that node and skipped. Columns with more values
//! (real inputs) gather the node's `(value, label)` pairs through the
//! borrowed [`frac_dataset::ColRef`] path, sort them with an unstable
//! total-order sort and sweep every distinct threshold.
//!
//! Both paths are exact. Their boundary statistics are integer class
//! counts, and the entropy of a count vector is summed from memoised
//! `-p·ln p` terms ([`EntropyTerms`]) in class order, so the gain of a
//! split is bit-identical whichever path scored it and however the node's
//! samples were ordered. The `-0.0`/`0.0` pair is one value under `==`
//! and in the sweep's `v_next <= v` tie test, and the midpoint threshold
//! does not depend on which zero represents its group.
//!
//! **Regression** keeps the gather path for every column: targets are
//! cached once per node, two-valued columns are evaluated in one counting
//! pass, the rest are sorted and swept with float prefix sums. Those sums
//! depend on the intra-tie accumulation order, so regression gains are
//! reproducible within one process but equal to a stable-sort sweep's only
//! up to rounding.
//!
//! Budget cooperation: both searches poll the [`TargetBudget`] every
//! [`SCAN_CHECK_ELEMS`] node samples scanned (a column of an `m`-sample
//! node counts `m`, on either path), so a single pathological column (or a
//! very wide node) cannot blow past a deadline between the growers'
//! per-expansion checks.

use crate::budget::TargetBudget;
use crate::fault::TrainError;
use frac_dataset::DesignView;

/// Node samples scanned between cooperative budget polls inside the split
/// search. Small enough that one interval is microseconds of work, large
/// enough that the `Instant::now()` in a limited budget stays invisible.
const SCAN_CHECK_ELEMS: usize = 4096;

/// Largest count total whose `-p·ln p` terms are memoised. The table holds
/// `t·(t+1)/2` terms for totals up to `t`, so this caps it at 65 KB per
/// tree; larger totals, which only the few nodes of more than 128 samples
/// produce, compute their terms directly.
const MEMO_MAX_TOTAL: usize = 128;

/// Columns whose class counts are computed together, between the
/// per-column gain evaluations.
const COUNT_BLOCK: usize = 256;

/// A chosen split: feature, threshold, and the impurity decrease it buys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitChoice {
    /// Design column the node splits on.
    pub feature: usize,
    /// Samples with `value <= threshold` go left.
    pub threshold: f64,
    /// Impurity decrease: entropy (nats) for classification, SSE for
    /// regression.
    pub gain: f64,
    /// Samples going left (`value <= threshold`).
    pub n_left: usize,
}

/// One entropy term, `-p·ln p` with `p = c / total`.
#[inline]
fn plogp(c: usize, total: usize) -> f64 {
    let p = c as f64 / total as f64;
    -p * p.ln()
}

/// Memoised `-p·ln p` terms for the count totals of one tree.
///
/// Lazily filled: a slot holding `+0.0` bits is empty, and no term is ever
/// `+0.0` (`p ∈ (0, 1]` gives a positive term, or `-0.0` at `p = 1`).
struct EntropyTerms {
    cap: usize,
    table: Vec<f64>,
}

impl EntropyTerms {
    /// Memo for totals up to `min(n, MEMO_MAX_TOTAL)`.
    pub fn new(n: usize) -> Self {
        let cap = n.min(MEMO_MAX_TOTAL);
        EntropyTerms { cap, table: vec![0.0; cap * (cap + 1) / 2] }
    }

    /// `-p·ln p` for `p = c / total`, `1 <= c <= total`; bit-identical to
    /// computing it directly.
    #[inline]
    fn term(&mut self, c: usize, total: usize) -> f64 {
        if total > self.cap {
            return plogp(c, total);
        }
        let slot = &mut self.table[total * (total - 1) / 2 + c - 1];
        if slot.to_bits() == 0 {
            *slot = plogp(c, total);
        }
        *slot
    }
}

/// Shannon entropy (nats) of a count vector, terms summed in class order.
#[inline]
fn counts_entropy(counts: &[usize], total: usize, terms: &mut EntropyTerms) -> f64 {
    if total == 0 {
        return 0.0;
    }
    counts.iter().filter(|&&c| c > 0).map(|&c| terms.term(c, total)).sum()
}

/// Sum of squared deviations from the mean, from raw moments.
#[inline]
fn sse(sum: f64, sum_sq: f64, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    (sum_sq - sum * sum / nf).max(0.0)
}

/// Does `gain` at `(feature, threshold)` beat the incumbent? Gains within
/// 1e-15 are ties, broken toward the lowest (feature, threshold) pair for
/// determinism across scan orders.
#[inline]
fn beats(best: &Option<SplitChoice>, gain: f64, feature: usize, threshold: f64) -> bool {
    best.is_none_or(|b| {
        gain > b.gain + 1e-15
            || ((gain - b.gain).abs() <= 1e-15 && (feature, threshold) < (b.feature, b.threshold))
    })
}

/// Number of rows in a row set.
#[inline]
pub(crate) fn row_count(rows: &[u64]) -> usize {
    rows.iter().map(|w| w.count_ones() as usize).sum()
}

/// `popcount(a & b)` over two equal-length bitsets.
#[inline]
fn and_count(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).map(|(&x, &y)| (x & y).count_ones() as usize).sum()
}

/// The node a classification search is scanning.
#[derive(Debug, Clone, Copy)]
struct NodeScan {
    /// Samples at the node.
    m: usize,
    parent_entropy: f64,
    /// Smallest legal child, at least 1.
    min_leaf: usize,
    min_gain: f64,
}

/// How the classification search scores one design column.
#[derive(Debug, Clone, Copy)]
enum ColKind {
    /// One distinct value: never a threshold.
    Constant,
    /// Exactly two distinct values, `lo < hi`; the column's bitset marks
    /// the `lo` rows.
    TwoValued { lo: f64, hi: f64 },
    /// More than two distinct values, or a NaN: gather-sort sweep.
    Real,
}

/// Classification split search over one tree's design: the per-tree column
/// encoding, class row sets and entropy memo, plus per-node scratch.
///
/// Row sets (nodes, classes, columns) are bitsets of ⌈n/64⌉ words over the
/// view's `n` rows; bits past `n` are always clear in node and class sets.
pub(crate) struct ClassSearch<'a> {
    x: &'a dyn DesignView,
    y: &'a [u32],
    words: usize,
    kinds: Vec<ColKind>,
    has_real: bool,
    /// The `lo` rows of every column, word-major: word `w` of column `f`
    /// at `[w·d + f]`, so one word of consecutive columns is contiguous.
    col_bits: Vec<u64>,
    /// Class `c`'s rows at `[c·words, (c+1)·words)`.
    class_bits: Vec<u64>,
    terms: EntropyTerms,
    /// The current node's class-`c` rows, laid out like `class_bits`.
    node_class: Vec<u64>,
    node_counts: Vec<usize>,
    left_counts: Vec<usize>,
    /// Left class counts of the current block of columns: class `c`,
    /// column `start + i` at `[c·COUNT_BLOCK + i]`.
    block_counts: Vec<u32>,
    /// The current node's samples and labels, ascending (gather path only).
    samples: Vec<usize>,
    labels: Vec<u32>,
    cpairs: Vec<(f64, u32)>,
}

impl<'a> ClassSearch<'a> {
    /// Encode `x` (labels `y < arity`) in one pass over its rows.
    pub fn new(x: &'a dyn DesignView, y: &'a [u32], arity: usize) -> Self {
        let (n, d) = (x.n_rows(), x.n_cols());
        let words = n.div_ceil(64);
        let mut col_bits = vec![0u64; d * words];
        // Per column: row 0's value, the second distinct value (NaN until
        // seen), and whether a third value or a NaN turned up. The rows
        // equal to row 0's value collect in `acc`, one 64-row word at a time.
        let mut first = vec![f64::NAN; d];
        let mut second = vec![f64::NAN; d];
        let mut real = vec![false; d];
        let mut row = vec![0.0; d];
        let mut acc = vec![0u64; d];
        for r in 0..n {
            x.copy_row_into(r, &mut row);
            if r == 0 {
                first.copy_from_slice(&row);
            }
            let shift = r % 64;
            // Branch-free over the row; only a row holding a value new to
            // some column takes the scalar pass below.
            let mut fresh = false;
            for ((&v, a), (&lo, &hi)) in row.iter().zip(&mut acc).zip(first.iter().zip(&second)) {
                *a |= u64::from(v == lo) << shift;
                fresh |= (v != lo) & (v != hi);
            }
            if fresh {
                for (f, &v) in row.iter().enumerate() {
                    if v != first[f] && v != second[f] {
                        if second[f].is_nan() && !v.is_nan() {
                            second[f] = v;
                        } else {
                            real[f] = true;
                        }
                    }
                }
            }
            if shift == 63 || r + 1 == n {
                let w = r / 64;
                for (bits, a) in col_bits[w * d..(w + 1) * d].iter_mut().zip(&mut acc) {
                    *bits = std::mem::take(a);
                }
            }
        }
        let kinds: Vec<ColKind> = (0..d)
            .map(|f| {
                let (a, b) = (first[f], second[f]);
                if real[f] || a.is_nan() {
                    ColKind::Real
                } else if b.is_nan() {
                    ColKind::Constant
                } else if a < b {
                    ColKind::TwoValued { lo: a, hi: b }
                } else {
                    // The bitset marks row 0's value, the high one: flip it
                    // to the low rows. Bits past `n` may end up set; node
                    // sets never hold them, so no count sees them.
                    for w in 0..words {
                        col_bits[w * d + f] ^= !0;
                    }
                    ColKind::TwoValued { lo: b, hi: a }
                }
            })
            .collect();
        let mut class_bits = vec![0u64; arity * words];
        for (r, &c) in y.iter().enumerate() {
            class_bits[c as usize * words + r / 64] |= 1u64 << (r % 64);
        }
        ClassSearch {
            x,
            y,
            words,
            has_real: kinds.iter().any(|k| matches!(k, ColKind::Real)),
            kinds,
            col_bits,
            class_bits,
            terms: EntropyTerms::new(n),
            node_class: vec![0; arity * words],
            node_counts: vec![0; arity],
            left_counts: vec![0; arity],
            block_counts: vec![0; arity * COUNT_BLOCK],
            samples: Vec::new(),
            labels: Vec::new(),
            cpairs: Vec::new(),
        }
    }

    /// The row set holding `rows` (each `< n`).
    pub fn row_set(&self, rows: impl IntoIterator<Item = usize>) -> Vec<u64> {
        let mut set = vec![0u64; self.words];
        for r in rows {
            set[r / 64] |= 1u64 << (r % 64);
        }
        set
    }

    /// The children of the node `rows` split by `value <= threshold` on
    /// column `feature`, as (left, right) row sets.
    pub fn partition(&self, rows: &[u64], feature: usize, threshold: f64) -> (Vec<u64>, Vec<u64>) {
        let col = self.x.col(feature);
        let (mut left, mut right) = (vec![0u64; rows.len()], vec![0u64; rows.len()]);
        for (w, &word) in rows.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                let r = w * 64 + bit.trailing_zeros() as usize;
                let side = if col.get(r) <= threshold { &mut left } else { &mut right };
                side[w] |= bit;
                bits ^= bit;
            }
        }
        (left, right)
    }

    /// Per-class sample counts of the node `rows`.
    pub fn class_counts(&self, rows: &[u64]) -> Vec<usize> {
        self.class_bits.chunks_exact(self.words).map(|c| and_count(c, rows)).collect()
    }

    /// Best entropy-gain split of the node `rows` (`m` samples). Returns
    /// `Ok(None)` when no split satisfies `min_leaf` or improves entropy by
    /// more than `min_gain`; `Err` only when `budget` trips mid-scan.
    pub fn best_split(
        &mut self,
        rows: &[u64],
        m: usize,
        min_leaf: usize,
        min_gain: f64,
        budget: &TargetBudget,
    ) -> Result<Option<SplitChoice>, TrainError> {
        if m < 2 * min_leaf {
            return Ok(None);
        }
        let words = self.words;
        for (c, count) in self.node_counts.iter_mut().enumerate() {
            let class = &self.class_bits[c * words..(c + 1) * words];
            let node_class = &mut self.node_class[c * words..(c + 1) * words];
            for ((nc, &cb), &rb) in node_class.iter_mut().zip(class).zip(rows) {
                *nc = cb & rb;
            }
            *count = row_count(node_class);
        }
        let parent_entropy = counts_entropy(&self.node_counts, m, &mut self.terms);
        if parent_entropy <= 0.0 {
            return Ok(None); // pure node
        }
        if self.has_real {
            self.samples.clear();
            for (w, &word) in rows.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    self.samples.push(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
            let y = self.y;
            self.labels.clear();
            self.labels.extend(self.samples.iter().map(|&s| y[s]));
        }

        let node = NodeScan { m, parent_entropy, min_leaf: min_leaf.max(1), min_gain };
        let mut best: Option<SplitChoice> = None;
        let mut since_check = 0usize;
        let d = self.kinds.len();
        for start in (0..d).step_by(COUNT_BLOCK) {
            let end = (start + COUNT_BLOCK).min(d);
            self.count_block(start, end);
            for f in start..end {
                since_check += m;
                if since_check >= SCAN_CHECK_ELEMS {
                    budget.check()?;
                    since_check = 0;
                }
                match self.kinds[f] {
                    ColKind::Constant => {}
                    ColKind::TwoValued { lo, hi } => {
                        let mut n_left = 0;
                        for (c, left) in self.left_counts.iter_mut().enumerate() {
                            *left = self.block_counts[c * COUNT_BLOCK + f - start] as usize;
                            n_left += *left;
                        }
                        self.consider(&mut best, node, n_left, f, 0.5 * (lo + hi));
                    }
                    ColKind::Real => self.sweep(&mut best, node, f),
                }
            }
        }
        Ok(best)
    }

    /// Fill `block_counts` with `popcount(col & node & class_c)` for the
    /// columns `start..end`: one pass per (class, word) over contiguous
    /// column words, skipping classes and words the node leaves empty.
    fn count_block(&mut self, start: usize, end: usize) {
        let (d, words) = (self.kinds.len(), self.words);
        for (c, counts) in self.block_counts.chunks_exact_mut(COUNT_BLOCK).enumerate() {
            let counts = &mut counts[..end - start];
            counts.fill(0);
            if self.node_counts[c] == 0 {
                continue;
            }
            for w in 0..words {
                let set = self.node_class[c * words + w];
                if set == 0 {
                    continue;
                }
                let col_words = &self.col_bits[w * d + start..w * d + end];
                for (count, &bits) in counts.iter_mut().zip(col_words) {
                    *count += (bits & set).count_ones();
                }
            }
        }
    }

    /// Score the split whose left class counts are in `left_counts`, and
    /// keep it if it beats `best`. A child smaller than `min_leaf` — or
    /// empty: the column is constant at this node — rules the split out.
    #[inline]
    fn consider(
        &mut self,
        best: &mut Option<SplitChoice>,
        node: NodeScan,
        n_left: usize,
        feature: usize,
        threshold: f64,
    ) {
        let NodeScan { m, parent_entropy, min_leaf, min_gain } = node;
        if n_left < min_leaf || m - n_left < min_leaf {
            return;
        }
        // Both children's entropies, each summed in class order.
        let n_right = m - n_left;
        let (mut h_left, mut h_right) = (0.0, 0.0);
        for (&l, &t) in self.left_counts.iter().zip(&self.node_counts) {
            if l > 0 {
                h_left += self.terms.term(l, n_left);
            }
            if t > l {
                h_right += self.terms.term(t - l, n_right);
            }
        }
        let weighted = (n_left as f64 * h_left + n_right as f64 * h_right) / m as f64;
        let gain = parent_entropy - weighted;
        if gain > min_gain && beats(best, gain, feature, threshold) {
            *best = Some(SplitChoice { feature, threshold, gain, n_left });
        }
    }

    /// Gather-sort sweep of one real column over the node's samples.
    fn sweep(&mut self, best: &mut Option<SplitChoice>, node: NodeScan, f: usize) {
        let x = self.x;
        let col = x.col(f);
        let mut cpairs = std::mem::take(&mut self.cpairs);
        cpairs.clear();
        let (mut vmin, mut vmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for (&s, &l) in self.samples.iter().zip(&self.labels) {
            let v = col.get(s);
            vmin = vmin.min(v);
            vmax = vmax.max(v);
            cpairs.push((v, l));
        }
        if vmax > vmin {
            cpairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            self.left_counts.iter_mut().for_each(|c| *c = 0);
            for i in 0..node.m - 1 {
                let (v, l) = cpairs[i];
                self.left_counts[l as usize] += 1;
                let v_next = cpairs[i + 1].0;
                if v_next > v {
                    self.consider(best, node, i + 1, f, 0.5 * (v + v_next));
                } // else not a distinct threshold
            }
        } // else constant at this node (±0.0 mixes included) — no threshold
        self.cpairs = cpairs;
    }
}

/// Scratch buffers the regression search reuses across nodes.
#[derive(Default)]
pub(crate) struct SplitScratch {
    /// (feature value, regression target) pairs.
    rpairs: Vec<(f64, f64)>,
    /// Regression target of each node sample, cached once per node.
    targets: Vec<f64>,
}

/// Best variance-reduction split for a regression node. Gain is measured as
/// SSE decrease. `Err` only when `budget` trips mid-scan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn best_regression_split(
    samples: &[usize],
    x: &dyn DesignView,
    target: &dyn Fn(usize) -> f64,
    min_leaf: usize,
    min_gain: f64,
    scratch: &mut SplitScratch,
    budget: &TargetBudget,
) -> Result<Option<SplitChoice>, TrainError> {
    let n = samples.len();
    if n < 2 * min_leaf {
        return Ok(None);
    }
    let SplitScratch { rpairs, targets } = scratch;
    targets.clear();
    targets.extend(samples.iter().map(|&s| target(s)));
    let (mut total_sum, mut total_sq) = (0.0f64, 0.0f64);
    for &y in targets.iter() {
        total_sum += y;
        total_sq += y * y;
    }
    let parent_sse = sse(total_sum, total_sq, n);
    if parent_sse <= 0.0 {
        return Ok(None); // constant target
    }

    let mut best: Option<SplitChoice> = None;
    let mut since_check = 0usize;
    for f in 0..x.n_cols() {
        since_check += n;
        if since_check >= SCAN_CHECK_ELEMS {
            budget.check()?;
            since_check = 0;
        }
        let col = x.col(f);
        rpairs.clear();
        let (mut vmin, mut vmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, &s) in samples.iter().enumerate() {
            let v = col.get(s);
            if v < vmin {
                vmin = v;
            }
            if v > vmax {
                vmax = v;
            }
            rpairs.push((v, targets[i]));
        }
        if vmax <= vmin {
            continue; // constant column — no threshold
        }

        // Two-valued column: evaluate the lone threshold in one counting
        // pass (left moments accumulate in gather order, which is the
        // node's sample order on every view kind).
        let (mut n_min, mut n_max) = (0usize, 0usize);
        let (mut min_sum, mut min_sq) = (0.0f64, 0.0f64);
        for &(v, y) in rpairs.iter() {
            if v == vmin {
                min_sum += y;
                min_sq += y * y;
                n_min += 1;
            } else if v == vmax {
                n_max += 1;
            }
        }
        if n_min + n_max == n {
            if n_min >= min_leaf && n - n_min >= min_leaf {
                let child_sse = sse(min_sum, min_sq, n_min)
                    + sse(total_sum - min_sum, total_sq - min_sq, n - n_min);
                let gain = parent_sse - child_sse;
                let threshold = 0.5 * (vmin + vmax);
                if gain > min_gain && beats(&best, gain, f, threshold) {
                    best = Some(SplitChoice { feature: f, threshold, gain, n_left: n_min });
                }
            }
            continue;
        }

        rpairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let (mut left_sum, mut left_sq) = (0.0f64, 0.0f64);
        let mut n_left = 0usize;
        for i in 0..n - 1 {
            let (v, y) = rpairs[i];
            left_sum += y;
            left_sq += y * y;
            n_left += 1;
            let v_next = rpairs[i + 1].0;
            if v_next <= v {
                continue;
            }
            if n_left < min_leaf || n - n_left < min_leaf {
                continue;
            }
            let child_sse = sse(left_sum, left_sq, n_left)
                + sse(total_sum - left_sum, total_sq - left_sq, n - n_left);
            let gain = parent_sse - child_sse;
            let threshold = 0.5 * (v + v_next);
            if gain > min_gain && beats(&best, gain, f, threshold) {
                best = Some(SplitChoice { feature: f, threshold, gain, n_left });
            }
        }
    }
    Ok(best)
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

    fn class_split_with(
        samples: &[usize],
        x: &dyn DesignView,
        ys: &[u32],
        arity: usize,
        min_leaf: usize,
        budget: &TargetBudget,
    ) -> Result<Option<SplitChoice>, TrainError> {
        let mut search = ClassSearch::new(x, ys, arity);
        let rows = search.row_set(samples.iter().copied());
        search.best_split(&rows, samples.len(), min_leaf, 1e-12, budget)
    }

    fn class_split(
        samples: &[usize],
        x: &dyn DesignView,
        ys: &[u32],
        arity: usize,
        min_leaf: usize,
    ) -> Option<SplitChoice> {
        class_split_with(samples, x, ys, arity, min_leaf, &TargetBudget::unlimited()).unwrap()
    }

    fn reg_split(
        samples: &[usize],
        x: &dyn DesignView,
        ys: &dyn Fn(usize) -> f64,
        min_leaf: usize,
    ) -> Option<SplitChoice> {
        best_regression_split(
            samples,
            x,
            ys,
            min_leaf,
            1e-12,
            &mut SplitScratch::default(),
            &TargetBudget::unlimited(),
        )
        .unwrap()
    }

    #[test]
    fn entropy_of_counts() {
        let mut terms = EntropyTerms::new(8);
        assert_eq!(counts_entropy(&[4, 0], 4, &mut terms), 0.0);
        assert!((counts_entropy(&[2, 2], 4, &mut terms) - 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn memoised_terms_match_direct_terms_past_the_cap() {
        // Totals inside and outside the memo give the directly computed
        // term, on first use and on reuse.
        let mut terms = EntropyTerms::new(MEMO_MAX_TOTAL + 10);
        for total in [1, 2, 3, 64, MEMO_MAX_TOTAL, MEMO_MAX_TOTAL + 1, MEMO_MAX_TOTAL + 9] {
            for c in [1, total / 2 + 1, total] {
                for _ in 0..2 {
                    assert_eq!(terms.term(c, total).to_bits(), plogp(c, total).to_bits());
                }
            }
        }
        assert_eq!(terms.table.len(), MEMO_MAX_TOTAL * (MEMO_MAX_TOTAL + 1) / 2);
    }

    #[test]
    fn classification_split_finds_obvious_boundary() {
        // Feature 0 separates perfectly at 0.5; feature 1 is noise.
        let x = matrix(&[&[0.0, 7.0], &[0.2, 3.0], &[0.9, 5.0], &[1.0, 4.0]]);
        let ys = [0u32, 0, 1, 1];
        let samples: Vec<usize> = (0..4).collect();
        let choice = class_split(&samples, &x, &ys, 2, 1).unwrap();
        assert_eq!(choice.feature, 0);
        assert!((choice.threshold - 0.55).abs() < 1e-12);
        assert!((choice.gain - 2.0f64.ln()).abs() < 1e-12);
        assert_eq!(choice.n_left, 2);
    }

    #[test]
    fn two_valued_columns_take_the_bitset_path() {
        // Indicators with either value in row 0, signed zeros, a constant
        // column, and a real column; only the last one is gathered.
        let x = matrix(&[
            &[0.0, 1.0, -0.0, 3.0, 0.5],
            &[1.0, 0.0, 0.0, 3.0, 0.1],
            &[0.0, 0.0, 2.0, 3.0, 0.9],
            &[1.0, 1.0, -0.0, 3.0, 0.2],
        ]);
        let search = ClassSearch::new(&x, &[0, 1, 0, 1], 2);
        let kinds: Vec<String> = search.kinds.iter().map(|k| format!("{k:?}")).collect();
        assert_eq!(
            kinds,
            [
                "TwoValued { lo: 0.0, hi: 1.0 }",
                "TwoValued { lo: 0.0, hi: 1.0 }",
                "TwoValued { lo: -0.0, hi: 2.0 }",
                "Constant",
                "Real"
            ]
        );
        // Low rows: {0, 2}, {1, 2} (row 0 held the high value), {0, 1, 3};
        // one word per column at n = 4.
        let low_rows: Vec<u64> = search.col_bits[..3].iter().map(|w| w & 0b1111).collect();
        assert_eq!(low_rows, [0b0101, 0b0110, 0b1011]);
        assert!(search.has_real);
    }

    #[test]
    fn pure_node_returns_none() {
        let x = matrix(&[&[0.0], &[1.0]]);
        let ys = [1u32, 1];
        assert!(class_split(&[0, 1], &x, &ys, 2, 1).is_none());
    }

    #[test]
    fn min_leaf_blocks_tiny_children() {
        let x = matrix(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let ys = [0u32, 1, 1, 1];
        // min_leaf = 2 forbids the perfect 1|3 split; the 2|2 split has less
        // gain but is the only legal one.
        let choice = class_split(&[0, 1, 2, 3], &x, &ys, 2, 2).unwrap();
        assert_eq!(choice.n_left, 2);
    }

    #[test]
    fn regression_split_reduces_variance() {
        let x = matrix(&[&[0.0], &[1.0], &[10.0], &[11.0]]);
        let ys = [1.0, 1.1, 5.0, 5.2];
        let choice = reg_split(&[0, 1, 2, 3], &x, &|s| ys[s], 1).unwrap();
        assert_eq!(choice.feature, 0);
        assert!((choice.threshold - 5.5).abs() < 1e-12);
        assert_eq!(choice.n_left, 2);
    }

    #[test]
    fn constant_target_returns_none() {
        let x = matrix(&[&[0.0], &[1.0], &[2.0]]);
        assert!(reg_split(&[0, 1, 2], &x, &|_| 3.0, 1).is_none());
    }

    #[test]
    fn tied_feature_values_are_never_thresholds() {
        // All values equal: no distinct threshold exists.
        let x = matrix(&[&[1.0], &[1.0], &[1.0], &[1.0]]);
        let ys = [0u32, 1, 0, 1];
        assert!(class_split(&[0, 1, 2, 3], &x, &ys, 2, 1).is_none());
    }

    #[test]
    fn split_search_agrees_across_view_kinds() {
        // The same samples served through a RowSubset view must choose the
        // identical split as the owned matrix restricted to those rows.
        let full = matrix(&[
            &[9.0, 9.0], // excluded
            &[0.0, 7.0],
            &[0.2, 3.0],
            &[9.0, 9.0], // excluded
            &[0.9, 5.0],
            &[1.0, 4.0],
        ]);
        let keep = [1usize, 2, 4, 5];
        let owned = full.select_rows(&keep);
        let view = frac_dataset::RowSubset::new(&full, &keep);
        let ys = [0u32, 0, 1, 1];
        let samples: Vec<usize> = (0..4).collect();
        let a = class_split(&samples, &owned, &ys, 2, 1);
        let b = class_split(&samples, &view, &ys, 2, 1);
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    fn expired() -> TargetBudget {
        crate::budget::RunBudget::with_deadline(std::time::Duration::ZERO).start_target()
    }

    #[test]
    fn wide_scan_trips_expired_budget() {
        // A budget that is already exhausted must be noticed inside the
        // column scan, not only between node expansions.
        let n_rows = 64usize;
        let n_cols = 80usize; // 64 * 80 > SCAN_CHECK_ELEMS
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|i| (0..n_cols).map(|j| ((i * 31 + j * 17) % 101) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = matrix(&refs);
        let ys: Vec<u32> = (0..n_rows).map(|i| (i % 2) as u32).collect();
        let samples: Vec<usize> = (0..n_rows).collect();
        let r = class_split_with(&samples, &x, &ys, 2, 1, &expired());
        assert!(r.is_err(), "expired budget must abort the scan");
    }

    #[test]
    fn wide_two_valued_scan_trips_expired_budget() {
        // The bitset path polls at the same cadence as the gathered one:
        // an all-indicator design wider than one poll interval must abort.
        let n_rows = 64usize;
        let n_cols = 80usize; // 64 * 80 > SCAN_CHECK_ELEMS
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|i| (0..n_cols).map(|j| ((i * 31 + j * 17) % 3 == 0) as u8 as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = matrix(&refs);
        let ys: Vec<u32> = (0..n_rows).map(|i| (i % 2) as u32).collect();
        let samples: Vec<usize> = (0..n_rows).collect();
        let search = ClassSearch::new(&x, &ys, 2);
        assert!(search.kinds.iter().all(|k| matches!(k, ColKind::TwoValued { .. })));
        assert!(!search.has_real);
        let r = class_split_with(&samples, &x, &ys, 2, 1, &expired());
        assert!(r.is_err(), "expired budget must abort the bitset scan");
        let ok = class_split_with(&samples, &x, &ys, 2, 1, &TargetBudget::unlimited());
        assert!(ok.is_ok());
    }
}
