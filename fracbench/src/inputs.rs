//! Input generation: paper surrogates from `frac-synth`, split by the
//! paper protocol and written to files. Runs in the parent process and is
//! never timed; the measured process only reads what is written here.

use frac_core::{FracConfig, FracModel, TrainingPlan};
use frac_dataset::{fcb, io, Dataset};
use frac_synth::make_dataset;
use std::path::Path;

/// Training set, test set and test labels (`true` = planted anomaly).
pub struct Split {
    pub train: Dataset,
    pub test: Dataset,
    pub labels: Vec<bool>,
}

/// The paper protocol `frac generate` follows: train on the first two
/// thirds of the normal rows; test on the remaining normals plus every
/// anomaly.
pub fn split(dataset: &str, seed: u64) -> Split {
    let ld = make_dataset(dataset, seed);
    let normals = ld.normal_indices();
    let n_train = normals.len() * 2 / 3;
    let mut test_rows = normals[n_train..].to_vec();
    test_rows.extend(ld.anomaly_indices());
    Split {
        train: ld.data.select_rows(&normals[..n_train]),
        test: ld.data.select_rows(&test_rows),
        labels: test_rows.iter().map(|&r| ld.labels[r]).collect(),
    }
}

fn write_labels(labels: &[bool], path: &Path) -> std::io::Result<()> {
    let text: String = labels
        .iter()
        .map(|&a| if a { "1\n" } else { "0\n" })
        .collect();
    std::fs::write(path, text)
}

/// Read a labels file written by [`write_labels`].
pub fn read_labels(path: &Path) -> Result<Vec<bool>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|l| match l {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("{}: bad label `{other}`", path.display())),
        })
        .collect()
}

/// Write the inputs of `workload` for `seed` into `dir`.
pub fn generate(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| format!("generating {workload} inputs: {e}");
    match workload {
        "expr_full" => {
            let s = split("biomarkers", seed);
            io::write_tsv(&s.train, dir.join("train.tsv")).map_err(|e| err(&e))?;
            io::write_tsv(&s.test, dir.join("test.tsv")).map_err(|e| err(&e))?;
            write_labels(&s.labels, &dir.join("labels.txt")).map_err(|e| err(&e))
        }
        "snp_filter_ens" => {
            let s = split("schizophrenia", seed);
            fcb::pack_dataset(&s.train, dir.join("train.fcb")).map_err(|e| err(&e))?;
            fcb::pack_dataset(&s.test, dir.join("test.fcb")).map_err(|e| err(&e))?;
            write_labels(&s.labels, &dir.join("labels.txt")).map_err(|e| err(&e))
        }
        "serve_stream" => {
            let s = split("breast.basal", seed);
            let plan = TrainingPlan::full(s.train.n_features());
            let (model, _) =
                FracModel::fit(&s.train, &plan, &FracConfig::default().with_seed(seed));
            model.save(dir.join("model.frac")).map_err(|e| err(&e))?;
            io::write_tsv(&s.test, dir.join("test.tsv")).map_err(|e| err(&e))?;
            write_labels(&s.labels, &dir.join("labels.txt")).map_err(|e| err(&e))
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}
