//! Exhaustive corruption suite for the write-ahead run journal (DESIGN.md
//! §10): a small journaled fit is cut at every byte offset and has every
//! single bit flipped, and each damaged copy is opened the way `--journal`
//! and `frac resume` open it (`RunJournal::open_for_run`).
//!
//! - A cut inside the header is a torn header write: the journal starts
//!   fresh. A cut anywhere else restores exactly the records wholly before
//!   it. Either way the file is left at that record boundary.
//! - A flip inside the header must be refused with the file left byte for
//!   byte as it was: the records behind a damaged header may be all that
//!   is left of a long run. A flip inside a record restores exactly the
//!   records before that one and truncates the file to their end.

use frac_core::{
    FitOptions, FracConfig, FracModel, RunJournal, TargetRecord, TrainingPlan,
};
use frac_dataset::dataset::DatasetBuilder;
use frac_dataset::Dataset;
use std::path::{Path, PathBuf};

/// Four real features: three learnable ones and one that is missing in
/// every row, so the journal holds fitted records and a dropped one.
fn data() -> Dataset {
    let n = 10usize;
    DatasetBuilder::new()
        .real("a", (0..n).map(|i| i as f64).collect())
        .real("b", (0..n).map(|i| i as f64 * 1.5 + 0.25).collect())
        .real("gone", vec![f64::NAN; n])
        .real("c", (0..n).map(|i| ((i * 7) % 5) as f64).collect())
        .build()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("frac-journal-corruption-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The clean journal: its bytes, the header end, each record's end offset
/// and target, in file order.
struct Clean {
    bytes: Vec<u8>,
    header_end: usize,
    record_ends: Vec<usize>,
    targets: Vec<usize>,
}

impl Clean {
    /// File offset just past the first `k` records.
    fn boundary(&self, k: usize) -> usize {
        if k == 0 {
            self.header_end
        } else {
            self.record_ends[k - 1]
        }
    }
}

fn clean_journal(train: &Dataset, plan: &TrainingPlan, config: &FracConfig) -> Clean {
    let path = scratch("clean.frj");
    let _ = std::fs::remove_file(&path);
    let (journal, preloaded) = RunJournal::open_for_run(&path, train, plan, config).unwrap();
    assert!(preloaded.is_empty());
    let options = FitOptions { journal: Some(&journal), ..FitOptions::default() };
    FracModel::fit_with(train, plan, config, options);
    assert!(!journal.is_broken());
    drop(journal);
    let scan = RunJournal::scan(&path).unwrap();
    let clean = Clean {
        bytes: std::fs::read(&path).unwrap(),
        header_end: scan.header_end as usize,
        record_ends: scan.record_ends.iter().map(|&e| e as usize).collect(),
        targets: scan.records.iter().map(|r| r.target).collect(),
    };
    assert_eq!(clean.targets.len(), plan.n_targets(), "every target journaled");
    assert_eq!(clean.boundary(clean.targets.len()), clean.bytes.len());
    assert!(
        (1_000..16_000).contains(&clean.bytes.len()),
        "a few KB keeps the exhaustive loops fast: {} bytes",
        clean.bytes.len()
    );
    clean
}

fn targets(records: &[TargetRecord]) -> Vec<usize> {
    records.iter().map(|r| r.target).collect()
}

/// Open `damaged` as a run would and check it restored exactly the first
/// `k` clean records and left the file at their end.
fn expect_prefix(path: &Path, clean: &Clean, opened: Vec<TargetRecord>, k: usize, what: &str) {
    assert_eq!(targets(&opened), clean.targets[..k], "{what}: restored records");
    let on_disk = std::fs::read(path).unwrap();
    assert!(
        on_disk == clean.bytes[..clean.boundary(k)],
        "{what}: file must end at the boundary of record {k} ({} bytes, found {})",
        clean.boundary(k),
        on_disk.len()
    );
}

#[test]
fn every_truncation_and_bit_flip_is_handled_exactly() {
    let train = data();
    let plan = TrainingPlan::full(train.n_features());
    let config = FracConfig::default();
    let clean = clean_journal(&train, &plan, &config);
    let path = scratch("damaged.frj");
    let open = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        RunJournal::open_for_run(&path, &train, &plan, &config).map(|(_, records)| records)
    };

    // Every truncation offset, including 0 and the full file.
    for cut in 0..=clean.bytes.len() {
        let what = format!("cut at byte {cut}");
        let records = open(&clean.bytes[..cut]).unwrap_or_else(|e| panic!("{what}: {e}"));
        // Records wholly before the cut; none when the header is torn.
        let k = if cut < clean.header_end {
            0
        } else {
            clean.record_ends.iter().filter(|&&end| end <= cut).count()
        };
        expect_prefix(&path, &clean, records, k, &what);
    }

    // Every single-bit flip.
    let mut flipped = clean.bytes.clone();
    for i in 0..clean.bytes.len() {
        for bit in 0..8 {
            flipped[i] ^= 1 << bit;
            let what = format!("bit {bit} of byte {i} flipped");
            let opened = open(&flipped);
            if i < clean.header_end {
                assert!(opened.is_err(), "{what}: a damaged header must be refused");
                assert!(
                    std::fs::read(&path).unwrap() == flipped,
                    "{what}: a refused journal must be left byte for byte as it was"
                );
            } else {
                // The flipped byte lies in record k, which must be dropped
                // with everything after it.
                let k = clean.record_ends.iter().filter(|&&end| end <= i).count();
                let records = opened.unwrap_or_else(|e| panic!("{what}: {e}"));
                expect_prefix(&path, &clean, records, k, &what);
            }
            flipped[i] ^= 1 << bit;
        }
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
