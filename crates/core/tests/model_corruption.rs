//! Corruption suite for model files (FORMATS.md §3): however a saved model
//! is damaged — cut at any byte, any single bit flipped, a length field
//! inflated, or replaced by byte soup — `FracModel::load` must return an
//! error naming the path: never `Ok`, never a panic, never an allocation
//! sized by a corrupt length. A committed v4 text model must keep loading
//! and score bit-identically to the same fit saved as v5.

use frac_core::{FracConfig, FracModel, TrainingPlan};
use frac_dataset::crc::crc32;
use frac_dataset::dataset::DatasetBuilder;
use frac_dataset::Dataset;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// A small mixed data set built from exact arithmetic only; `v4-mixed.frac`
/// is the model `FracConfig::default()` fits on rows `0..30`.
fn fixture_data(rows: std::ops::Range<usize>) -> Dataset {
    let g1: Vec<f64> = rows
        .clone()
        .map(|i| ((i * 37) % 17) as f64 / 4.0 - 2.0)
        .collect();
    let g2: Vec<f64> = rows
        .clone()
        .zip(&g1)
        .map(|(i, &a)| a * 0.75 + (i % 3) as f64 * 0.25)
        .collect();
    DatasetBuilder::new()
        .real("g1", g1)
        .real("g2", g2)
        .real(
            "g3",
            rows.clone().map(|i| ((i * 7) % 11) as f64 / 11.0).collect(),
        )
        .categorical("s1", 3, rows.clone().map(|i| (i % 3) as u32).collect())
        .categorical("s2", 3, rows.map(|i| ((i / 2) % 3) as u32).collect())
        .build()
}

const V4_FIXTURE: &str = include_str!("data/v4-mixed.frac");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("frac-model-corruption-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The canonical v5 image of a small model: two real features, so a few
/// hundred bytes and every record kind of the SVR path.
fn small_v5() -> Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES
        .get_or_init(|| {
            let train = DatasetBuilder::new()
                .real("x", (0..10).map(|i| i as f64).collect())
                .real("y", (0..10).map(|i| i as f64 * 1.5 + 0.25).collect())
                .build();
            let (model, _) = FracModel::fit(&train, &TrainingPlan::full(2), &FracConfig::default());
            let path = scratch("small.frac");
            model.save(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes
        })
        .clone()
}

/// Write `bytes` to `path` and load it; the load must fail naming `path`.
fn load_err(path: &Path, bytes: &[u8]) -> String {
    std::fs::write(path, bytes).unwrap();
    match FracModel::load(path) {
        Ok(_) => panic!("{} bytes of damaged model loaded", bytes.len()),
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains(&path.display().to_string()),
                "error must name the path: {msg}"
            );
            msg
        }
    }
}

/// Re-seal a v5 image after editing its body: fix the header's body
/// length and recompute the CRC trailer.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len() - 4;
    bytes[16..24].copy_from_slice(&(n as u64 - 24).to_le_bytes());
    let crc = crc32(&bytes[..n]);
    bytes[n..].copy_from_slice(&crc.to_le_bytes());
}

/// Replace the LEB128 varint at `at` with `value`'s encoding and re-seal.
fn set_varint(bytes: &mut Vec<u8>, at: usize, mut value: u64) {
    let old_len = bytes[at..].iter().position(|b| b & 0x80 == 0).unwrap() + 1;
    let mut enc = Vec::new();
    while value >= 0x80 {
        enc.push(value as u8 | 0x80);
        value >>= 7;
    }
    enc.push(value as u8);
    bytes.splice(at..at + old_len, enc);
    reseal(bytes);
}

/// Byte offset of the first record tagged `tag` in a v5 image.
fn record_at(bytes: &[u8], tag: &str) -> usize {
    let mut needle = vec![tag.len() as u8];
    needle.extend_from_slice(tag.as_bytes());
    bytes
        .windows(needle.len())
        .position(|w| w == needle.as_slice())
        .expect("record")
}

#[test]
fn committed_v4_model_scores_bit_identically_to_v5() {
    let train = fixture_data(0..30);
    let test = fixture_data(30..40);
    let (fitted, _) = FracModel::fit(&train, &TrainingPlan::full(5), &FracConfig::default());
    let v5_path = scratch("fixture-refit.frac");
    fitted.save(&v5_path).unwrap();
    let v4 =
        FracModel::load(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/v4-mixed.frac"))
            .unwrap();
    let v5 = FracModel::load(&v5_path).unwrap();
    let (a, b) = (v4.score(&test), v5.score(&test));
    assert_eq!(a.len(), 10);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(v4.feature_strengths(), v5.feature_strengths());
    std::fs::remove_file(&v5_path).ok();
}

#[test]
fn every_truncation_offset_is_rejected() {
    let bytes = small_v5();
    assert!((200..8192).contains(&bytes.len()), "{} bytes", bytes.len());
    let path = scratch("truncated.frac");
    for cut in 0..bytes.len() {
        load_err(&path, &bytes[..cut]);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_single_bit_flip_is_rejected() {
    let bytes = small_v5();
    let path = scratch("flipped.frac");
    let mut flipped = bytes.clone();
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            flipped[pos] ^= 1 << bit;
            load_err(&path, &flipped);
            flipped[pos] ^= 1 << bit;
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn length_field_bombs_error_without_allocating() {
    let bytes = small_v5();
    let path = scratch("bomb.frac");
    // A list claiming 2^60 floats behind a valid checksum.
    let mut bomb = bytes.clone();
    let at = record_at(&bomb, "svr_weights") + 1 + "svr_weights".len();
    set_varint(&mut bomb, at, 1 << 60);
    let err = load_err(&path, &bomb);
    assert!(err.contains("corrupt") && err.contains("claims"), "{err}");
    // A record count claiming 2^60 feature sections.
    let mut bomb = bytes.clone();
    let at = record_at(&bomb, "features") + 1 + "features".len();
    set_varint(&mut bomb, at, 1 << 60);
    let err = load_err(&path, &bomb);
    assert!(err.contains("claims"), "{err}");
    // A header declaring a 2^60-byte body.
    let mut bomb = bytes;
    bomb[16..24].copy_from_slice(&(1u64 << 60).to_le_bytes());
    let n = bomb.len() - 4;
    let crc = crc32(&bomb[..n]);
    bomb[n..].copy_from_slice(&crc.to_le_bytes());
    let err = load_err(&path, &bomb);
    assert!(err.contains("truncated"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn foreign_and_trailing_bytes_are_named() {
    let path = scratch("foreign.frac");
    let err = load_err(&path, b"FRACFCB\0 not a model");
    assert!(err.contains("not a readable FRaC model file"), "{err}");
    let mut long = small_v5();
    long.push(0);
    let err = load_err(&path, &long);
    assert!(
        err.contains("corrupt") && err.contains("trailing bytes"),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random byte overwrites inside a valid v5 body, re-sealed so the
    /// checksum passes and the record decoder itself sees the soup: it
    /// may reject or (rarely) accept, but must never panic.
    #[test]
    fn resealed_v5_byte_soup_never_panics(
        edits in prop::collection::vec((0.0f64..1.0, 0u32..256), 1..16),
    ) {
        let mut bytes = small_v5();
        let body = 24..bytes.len() - 4;
        for (frac, value) in edits {
            let pos = body.start + ((body.len() as f64 * frac) as usize).min(body.len() - 1);
            bytes[pos] = value as u8;
        }
        reseal(&mut bytes);
        let path = scratch("soup-v5.frac");
        std::fs::write(&path, &bytes).unwrap();
        let _ = FracModel::load(&path);
        std::fs::remove_file(&path).ok();
    }

    /// The same for the legacy text reader: random byte overwrites of the
    /// v4 fixture with its `crc` trailer recomputed.
    #[test]
    fn resealed_v4_text_soup_never_panics(
        edits in prop::collection::vec((0.0f64..1.0, 0u32..256), 1..16),
    ) {
        let body_end = V4_FIXTURE.rfind("\nend\n").unwrap() + "\nend\n".len();
        let mut body = V4_FIXTURE.as_bytes()[..body_end].to_vec();
        for (frac, value) in edits {
            let pos = ((body.len() as f64 * frac) as usize).min(body.len() - 1);
            body[pos] = value as u8;
        }
        let mut bytes = body.clone();
        bytes.extend_from_slice(format!("crc {:08x}\n", crc32(&body)).as_bytes());
        let path = scratch("soup-v4.frac");
        std::fs::write(&path, &bytes).unwrap();
        let _ = FracModel::load(&path);
        std::fs::remove_file(&path).ok();
    }

    /// Arbitrary bytes behind either leading signature never load.
    #[test]
    fn arbitrary_bytes_never_load(
        words in prop::collection::vec(0u32..256, 0..512),
        lead in 0u32..3,
    ) {
        let mut bytes: Vec<u8> = match lead {
            0 => Vec::new(),
            1 => b"FRACMDL\0".to_vec(),
            _ => b"fracmodel 4\n".to_vec(),
        };
        bytes.extend(words.iter().map(|&w| w as u8));
        let path = scratch("arbitrary.frac");
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(FracModel::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
