//! Trees and cross-validation over the shared encoded pool match an owned
//! `DesignSpec::encode` matrix bit for bit.
//!
//! `FracModel` fits each target through a row subset of a pool view: the
//! rows where the target is present, and within them each CV fold's
//! training rows. Here the same problems are also posed on matrices that
//! `DesignSpec::encode` builds from exactly those rows of the data set,
//! the owned reference. Regression and classification trees must
//! serialize to identical bytes, and `cv_regression_folds` /
//! `cv_classification_folds` must return bit-identical out-of-fold
//! predictions either way. (The strict SVR/SVC solvers owe the same over
//! every view type; `dual_cd_reference.rs` pins them.)

use frac_dataset::codec::BinWriter;
use frac_dataset::dataset::{DatasetBuilder, MISSING_CODE};
use frac_dataset::design::DesignSpec;
use frac_dataset::split::{k_fold, Fold};
use frac_dataset::{Column, Dataset, DesignMatrix, DesignView, PoolSpec, RowSubset};
use frac_learn::cv::{cv_classification_folds, cv_regression_folds};
use frac_learn::traits::{ClassifierTrainer, RegressorTrainer};
use frac_learn::tree::{ClassificationTreeTrainer, RegressionTreeTrainer};
use frac_learn::{TargetBudget, TreeConfig};

/// SplitMix64: the generator's own stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in [-2, 2), missing one time in `missing_every`.
    fn value(&mut self, missing_every: u64) -> f64 {
        if self.below(missing_every) == 0 {
            f64::NAN
        } else {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        }
    }

    /// A code below `arity`, missing one time in `missing_every`.
    fn code(&mut self, arity: u32, missing_every: u64) -> u32 {
        if self.below(missing_every) == 0 {
            MISSING_CODE
        } else {
            self.below(u64::from(arity)) as u32
        }
    }
}

/// Mixed real and categorical columns with missing cells everywhere. The
/// real target `y` follows `x0` and the categorical target `g` follows the
/// sign of `x1`, so the trees grow several levels deep.
fn data(seed: u64) -> Dataset {
    let n = 60;
    let mut mix = Mix(seed);
    let x0: Vec<f64> = (0..n).map(|_| mix.value(9)).collect();
    let x1: Vec<f64> = (0..n).map(|_| mix.value(7)).collect();
    let s3: Vec<u32> = (0..n).map(|_| mix.code(3, 8)).collect();
    let s2: Vec<u32> = (0..n).map(|_| mix.code(2, 10)).collect();
    let y: Vec<f64> = x0
        .iter()
        .map(|&v| if mix.below(6) == 0 { f64::NAN } else { 2.0 * v + mix.value(u64::MAX) * 0.1 })
        .collect();
    let g: Vec<u32> = x1
        .iter()
        .map(|&v| match mix.below(6) {
            0 => MISSING_CODE,
            1 => mix.below(3) as u32,
            _ if v.is_nan() => 2,
            _ => u32::from(v > 0.0),
        })
        .collect();
    DatasetBuilder::new()
        .real("x0", x0)
        .real("x1", x1)
        .categorical("s3", 3, s3)
        .categorical("s2", 2, s2)
        .real("y", y)
        .categorical("g", 3, g)
        .build()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The owned reference: `rows` of `data`, encoded by a spec fitted (like
/// the pool's) on the whole data set.
fn encoded_rows(data: &Dataset, spec: &DesignSpec, rows: &[usize]) -> DesignMatrix {
    spec.encode(&data.select_rows(rows))
}

/// One target's problem both ways: the pool path's presence subset of a
/// pool view, and the owned matrix of the present rows.
fn for_target(
    data: &Dataset,
    target: usize,
    check: impl Fn(&dyn DesignView, &dyn DesignView, &[usize], &[Fold]),
) {
    let inputs: Vec<usize> = (0..data.n_features()).filter(|&j| j != target).collect();
    let all: Vec<usize> = (0..data.n_features()).collect();
    let pool = PoolSpec::fit(data, &all, true).encode(data);
    let view = pool.view(&inputs);
    let spec = DesignSpec::fit(data, &inputs, true);
    let present: Vec<usize> = match data.column(target) {
        Column::Real(v) => (0..data.n_rows()).filter(|&r| !v[r].is_nan()).collect(),
        Column::Categorical { codes, .. } => {
            (0..data.n_rows()).filter(|&r| codes[r] != MISSING_CODE).collect()
        }
    };
    assert!(present.len() < data.n_rows(), "the target must have missing rows");
    let pooled = RowSubset::new(&view, &present);
    let owned = encoded_rows(data, &spec, &present);
    let folds = k_fold(present.len(), 3, 0xF01D);
    check(&pooled, &owned, &present, &folds);

    // Each fold's training rows: a row subset of the presence subset, and
    // the same data-set rows encoded from scratch.
    for fold in &folds {
        let fold_rows: Vec<usize> = fold.train.iter().map(|&p| present[p]).collect();
        let pooled_fold = RowSubset::new(&pooled, &fold.train);
        let owned_fold = encoded_rows(data, &spec, &fold_rows);
        check(&pooled_fold, &owned_fold, &fold_rows, &[]);
    }
}

#[test]
fn trees_and_cv_over_pool_views_match_owned_encode_bitwise() {
    let config = TreeConfig::default();
    let budget = TargetBudget::unlimited();
    for seed in 1..=4u64 {
        let data = data(seed);
        let n_features = data.n_features();

        let Column::Real(y_all) = data.column(n_features - 2) else { unreachable!() };
        let trainer = RegressionTreeTrainer::new(config);
        for_target(&data, n_features - 2, |pooled, owned, rows, folds| {
            let y: Vec<f64> = rows.iter().map(|&r| y_all[r]).collect();
            let tree_bytes = |x: &dyn DesignView| {
                let (trained, _) = trainer.try_train(x, &y, None, &budget).unwrap();
                assert!(trained.model.n_nodes() > 1, "seed {seed}: a stump proves little");
                let mut w = BinWriter::new(Vec::new());
                trained.model.write_to(&mut w);
                w.finish()
            };
            assert_eq!(tree_bytes(pooled), tree_bytes(owned), "seed {seed}: regression tree");
            if !folds.is_empty() {
                let cv = |x: &dyn DesignView| {
                    bits(&cv_regression_folds(&trainer, x, &y, folds, None, &budget).unwrap().0)
                };
                assert_eq!(cv(pooled), cv(owned), "seed {seed}: regression CV predictions");
            }
        });

        let Column::Categorical { arity, codes } = data.column(n_features - 1) else {
            unreachable!()
        };
        let trainer = ClassificationTreeTrainer::new(config);
        for_target(&data, n_features - 1, |pooled, owned, rows, folds| {
            let y: Vec<u32> = rows.iter().map(|&r| codes[r]).collect();
            let tree_bytes = |x: &dyn DesignView| {
                let (trained, _) = trainer.try_train(x, &y, *arity, None, &budget).unwrap();
                assert!(trained.model.n_nodes() > 1, "seed {seed}: a stump proves little");
                let mut w = BinWriter::new(Vec::new());
                trained.model.write_to(&mut w);
                w.finish()
            };
            assert_eq!(tree_bytes(pooled), tree_bytes(owned), "seed {seed}: classification tree");
            if !folds.is_empty() {
                let cv = |x: &dyn DesignView| {
                    cv_classification_folds(&trainer, x, &y, *arity, folds, None, &budget)
                        .unwrap()
                        .0
                };
                assert_eq!(cv(pooled), cv(owned), "seed {seed}: classification CV predictions");
            }
        });
    }
}
