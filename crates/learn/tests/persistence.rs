//! Round-trip tests of every model type's serialization, through both the
//! text and the binary record codec: a fitted and a reloaded model must
//! agree *exactly* on all predictions.

use frac_dataset::codec::{BinReader, BinWriter, RecordRead, RecordWrite};
use frac_dataset::textio::{TextError, TextReader, TextWriter};
use frac_dataset::DesignMatrix;
use frac_learn::baseline::{
    ConstantRegressor, ConstantRegressorTrainer, MajorityClassifier, MajorityClassifierTrainer,
};
use frac_learn::error::{ConfusionErrorModel, GaussianErrorModel};
use frac_learn::svc::SvcTrainer;
use frac_learn::svr::{LinearSvr, SvrTrainer};
use frac_learn::traits::{Classifier, ClassifierTrainer, Regressor, RegressorTrainer};
use frac_learn::tree::{
    ClassificationTree, ClassificationTreeTrainer, RegressionTree, RegressionTreeTrainer,
};
use frac_learn::LinearSvc;

fn matrix(n: usize, d: usize, seed: u64) -> DesignMatrix {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    DesignMatrix::from_raw(n, d, (0..n * d).map(|_| next()).collect())
}

/// A model type's one writer and one parser, which every codec shares.
trait Persist: Sized {
    fn write<W: RecordWrite>(&self, w: &mut W);
    fn read<R: RecordRead>(r: &mut R) -> Result<Self, TextError>;
}

macro_rules! persist {
    ($($t:ty),*) => {$(
        impl Persist for $t {
            fn write<W: RecordWrite>(&self, w: &mut W) {
                self.write_to(w)
            }
            fn read<R: RecordRead>(r: &mut R) -> Result<Self, TextError> {
                <$t>::read_from(r)
            }
        }
    )*};
}
persist!(
    LinearSvr,
    LinearSvc,
    RegressionTree,
    ClassificationTree,
    ConstantRegressor,
    MajorityClassifier,
    GaussianErrorModel,
    ConfusionErrorModel
);

/// Round-trip through text, then through binary; returns both reloads.
fn roundtrip<T: Persist>(model: &T) -> [T; 2] {
    let mut w = TextWriter::new();
    model.write(&mut w);
    let text = w.finish();
    let from_text = T::read(&mut TextReader::new(&text)).expect("text roundtrip");

    let mut w = BinWriter::default();
    model.write(&mut w);
    let bytes = w.finish();
    let mut r = BinReader::new(&bytes);
    let from_bin = T::read(&mut r).expect("binary roundtrip");
    r.finish().expect("binary body fully consumed");
    // Every strict prefix of the binary body is rejected, never a panic.
    for cut in 0..bytes.len() {
        assert!(T::read(&mut BinReader::new(&bytes[..cut])).is_err(), "prefix {cut}");
    }
    [from_text, from_bin]
}

#[test]
fn svr_roundtrip_is_prediction_exact() {
    let x = matrix(30, 7, 1);
    let y: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
    let t = SvrTrainer::default().train(&x, &y);
    for back in roundtrip(&t.model) {
        for r in 0..30 {
            assert_eq!(
                t.model.predict(x.row(r)).to_bits(),
                back.predict(x.row(r)).to_bits(),
                "row {r}"
            );
        }
    }
}

#[test]
fn svc_roundtrip_is_prediction_exact() {
    let x = matrix(40, 5, 2);
    let y: Vec<u32> = (0..40).map(|i| (i % 3) as u32).collect();
    let t = SvcTrainer::default().train(&x, &y, 3);
    for back in roundtrip(&t.model) {
        assert_eq!(back.n_classes(), 3);
        for r in 0..40 {
            assert_eq!(t.model.predict(x.row(r)), back.predict(x.row(r)));
            for k in 0..3 {
                assert_eq!(
                    t.model.decision_value(k, x.row(r)).to_bits(),
                    back.decision_value(k, x.row(r)).to_bits()
                );
            }
        }
    }
}

#[test]
fn tree_roundtrips_preserve_structure() {
    let x = matrix(60, 4, 3);
    let yc: Vec<u32> = (0..60).map(|i| u32::from(x.get(i, 0) > 0.0)).collect();
    let yr: Vec<f64> = (0..60).map(|i| x.get(i, 1) * 2.0).collect();

    let ct = ClassificationTreeTrainer::default().train(&x, &yc, 2);
    let rt = RegressionTreeTrainer::default().train(&x, &yr);
    for (ct_back, rt_back) in roundtrip(&ct.model).into_iter().zip(roundtrip(&rt.model)) {
        assert_eq!(ct.model.n_nodes(), ct_back.n_nodes());
        assert_eq!(ct.model.n_leaves(), ct_back.n_leaves());
        for r in 0..60 {
            assert_eq!(ct.model.predict(x.row(r)), ct_back.predict(x.row(r)));
            assert_eq!(
                rt.model.predict(x.row(r)).to_bits(),
                rt_back.predict(x.row(r)).to_bits()
            );
        }
    }
}

#[test]
fn error_model_roundtrips() {
    let pairs: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 * 0.1, i as f64 * 0.09)).collect();
    let g = GaussianErrorModel::fit(&pairs);
    for g_back in roundtrip(&g) {
        assert_eq!(g.surprisal(1.0, 0.5).to_bits(), g_back.surprisal(1.0, 0.5).to_bits());
    }

    let cpairs: Vec<(u32, u32)> = (0..60).map(|i| ((i % 3) as u32, ((i / 2) % 3) as u32)).collect();
    let c = ConfusionErrorModel::fit(&cpairs, 3);
    for c_back in roundtrip(&c) {
        for t in 0..3 {
            for p in 0..3 {
                assert_eq!(c.surprisal(t, p).to_bits(), c_back.surprisal(t, p).to_bits());
            }
        }
    }
}

#[test]
fn baseline_roundtrips() {
    let x = matrix(10, 1, 5);
    let cr = ConstantRegressorTrainer.train(&x, &[1.0; 10]).model;
    for cr_back in roundtrip(&cr) {
        assert_eq!(cr.mean(), cr_back.mean());
    }

    let mc = MajorityClassifierTrainer.train(&x, &[2; 10], 3).model;
    for mc_back in roundtrip(&mc) {
        assert_eq!(mc.class(), mc_back.class());
    }
}

#[test]
fn corrupted_model_text_is_rejected() {
    // Out-of-range leaf class.
    let text = "ctree_arity 2\ntree_nodes 1\nleaf 7\n";
    let mut r = TextReader::new(text);
    assert!(ClassificationTree::read_from(&mut r).is_err());
    // Split child out of range.
    let text = "rtree\ntree_nodes 1\nsplit 0 0.5 3 4\n";
    let mut r = TextReader::new(text);
    assert!(RegressionTree::read_from(&mut r).is_err());
    // Wrong counts length.
    let text = "conf_err 3 1.0\nconf_counts 1 2 3\n";
    let mut r = TextReader::new(text);
    assert!(ConfusionErrorModel::read_from(&mut r).is_err());
    // The one mixed-type record keeps its exact text rendering.
    let c = ConfusionErrorModel::fit(&[(0, 1), (1, 1)], 2);
    let mut w = TextWriter::new();
    c.write_to(&mut w);
    assert_eq!(w.finish(), "conf_err 2 1.0\nconf_counts 0 0 1 1\n");
}
