//! Model persistence: save a fitted [`FracModel`] to a file and reload it
//! for later scoring.
//!
//! FRaC's operational pattern in a clinic is train-once / screen-forever:
//! the reference cohort changes rarely, new patients arrive continuously,
//! and every screen starts by loading the saved model. Models are saved as
//! **v5**, a checksummed little-endian binary image (`FORMATS.md` §3): a
//! fixed header (magic, version, body length), a body of
//! [`frac_dataset::codec`] records that mirror [`FracModel`] as it is held
//! in memory, and a CRC-32 trailer over every byte before it. Floats are
//! stored as their `f64::to_bits`, so a reloaded model produces *identical*
//! NS scores (tested), and encode/decode run at copy speed — a text codec
//! spends most of a screen formatting and parsing floats.
//!
//! [`FracModel::load`] picks the decoder from the leading bytes: the v5
//! magic goes to the binary decoder, `fracmodel <v>` to the v1–v4 text
//! reader ([`FracModel::from_text`]), anything else is foreign. Each model
//! type has exactly one writer and one parser, generic over the record
//! codec, so the binary body and the legacy text share them.

use crate::model::{
    CatPredictor, ErrorModel, FeatureModel, FeaturePredictor, FracModel, PredictorModel,
    RealPredictor,
};
use frac_dataset::codec::{BinReader, BinWriter, RecordRead, RecordWrite};
use frac_dataset::crc::crc32;
use frac_dataset::design::DesignSpec;
use frac_dataset::textio::{TextError, TextReader};

/// First 8 bytes of every v5 model file.
const MAGIC: [u8; 8] = *b"FRACMDL\0";
/// The version [`FracModel::save`] writes.
const VERSION: u32 = 5;
/// Leading token of the legacy text format.
const TEXT_MAGIC: &str = "fracmodel";
/// Newest text version. Version 2 added the `planned` line (targets the
/// training plan asked for, including ones dropped by fault isolation);
/// version 3 added the `crc` trailer (CRC-32 of everything through the
/// `end` line, verified on load); version 4 added the optional `shards`
/// line (per-shard worker restart counts of a `--shards N` run). v1
/// defaults `planned` to the surviving feature count, v1/v2 load without a
/// checksum, and a missing `shards` line means a single-process fit.
const TEXT_VERSION: u32 = 4;
/// v5 header: magic, version `u32`, reserved `u32` (zero), body length `u64`.
const HEADER_LEN: usize = 24;
/// v5 trailer: CRC-32 (`u32` LE) of the header and body.
const TRAILER_LEN: usize = 4;

/// What a model file is, beyond the model it holds (`frac info`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelFileInfo {
    /// Format version: 1–4 are text, 5 is binary.
    pub version: u32,
    /// Size of the file in bytes.
    pub file_bytes: u64,
    /// The stored CRC-32 the file was verified against (v3 and later).
    pub file_crc: Option<u32>,
}

/// Whether `head` (the first bytes of a file) starts like a model file of
/// any version — the same sniffing [`FracModel::load`] dispatches on.
pub fn is_model_file(head: &[u8]) -> bool {
    head.starts_with(&MAGIC) || head.starts_with(TEXT_MAGIC.as_bytes())
}

/// Serialize one per-target feature section (the unit shared by the model
/// file and the run journal's per-target records).
pub(crate) fn write_feature(w: &mut impl RecordWrite, fm: &FeatureModel) {
    w.uint("feature", fm.target as u64);
    w.float("entropy", fm.entropy);
    w.float("strength", fm.strength);
    w.uint("predictors", fm.predictors.len() as u64);
    for fp in &fm.predictors {
        fp.spec.write_to(w);
        w.tag(predictor_tag(&fp.model));
        match (&fp.model, &fp.error) {
            (PredictorModel::Real(m), ErrorModel::Gaussian(e)) => {
                match m {
                    RealPredictor::Svr(svr) => svr.write_to(w),
                    RealPredictor::Tree(t) => t.write_to(w),
                    RealPredictor::Constant(c) => c.write_to(w),
                }
                e.write_to(w);
            }
            (PredictorModel::Cat(m), ErrorModel::Confusion(e)) => {
                match m {
                    CatPredictor::Tree(t) => t.write_to(w),
                    CatPredictor::Svc(svc) => svc.write_to(w),
                    CatPredictor::Majority(mc) => mc.write_to(w),
                }
                e.write_to(w);
            }
            _ => unreachable!("model/error kinds are constructed consistently"),
        }
    }
}

/// The record tag that introduces a predictor of this kind.
fn predictor_tag(model: &PredictorModel) -> &'static str {
    match model {
        PredictorModel::Real(RealPredictor::Svr(_)) => "model_svr",
        PredictorModel::Real(RealPredictor::Tree(_)) => "model_rtree",
        PredictorModel::Real(RealPredictor::Constant(_)) => "model_const",
        PredictorModel::Cat(CatPredictor::Tree(_)) => "model_ctree",
        PredictorModel::Cat(CatPredictor::Svc(_)) => "model_svc",
        PredictorModel::Cat(CatPredictor::Majority(_)) => "model_majority",
    }
}

/// Parse one feature section previously produced by [`write_feature`].
pub(crate) fn parse_feature(r: &mut impl RecordRead) -> Result<FeatureModel, TextError> {
    let target: usize = r.uint("feature")?;
    parse_feature_body(r, target)
}

/// Parse the remainder of a feature section once its `feature <target>`
/// record has been consumed (the caller may need the target early, e.g. for
/// duplicate detection).
fn parse_feature_body(
    r: &mut impl RecordRead,
    target: usize,
) -> Result<FeatureModel, TextError> {
    use frac_learn::{
        ClassificationTree, ConfusionErrorModel, ConstantRegressor, GaussianErrorModel,
        LinearSvc, LinearSvr, MajorityClassifier, RegressionTree,
    };
    let entropy = r.float("entropy")?;
    let strength = r.float("strength")?;
    let n_predictors = r.count("predictors")?;
    let mut predictors = Vec::with_capacity(n_predictors);
    for _ in 0..n_predictors {
        let spec = DesignSpec::read_from(r)?;
        let model = if r.peek_is("model_svr") {
            r.tag("model_svr")?;
            PredictorModel::Real(RealPredictor::Svr(LinearSvr::read_from(r)?))
        } else if r.peek_is("model_rtree") {
            r.tag("model_rtree")?;
            PredictorModel::Real(RealPredictor::Tree(RegressionTree::read_from(r)?))
        } else if r.peek_is("model_const") {
            r.tag("model_const")?;
            PredictorModel::Real(RealPredictor::Constant(ConstantRegressor::read_from(r)?))
        } else if r.peek_is("model_ctree") {
            r.tag("model_ctree")?;
            PredictorModel::Cat(CatPredictor::Tree(ClassificationTree::read_from(r)?))
        } else if r.peek_is("model_svc") {
            r.tag("model_svc")?;
            PredictorModel::Cat(CatPredictor::Svc(LinearSvc::read_from(r)?))
        } else if r.peek_is("model_majority") {
            r.tag("model_majority")?;
            PredictorModel::Cat(CatPredictor::Majority(MajorityClassifier::read_from(r)?))
        } else {
            return Err(r.error("unknown model tag".into()));
        };
        let error = match model {
            PredictorModel::Real(_) => ErrorModel::Gaussian(GaussianErrorModel::read_from(r)?),
            PredictorModel::Cat(_) => ErrorModel::Confusion(ConfusionErrorModel::read_from(r)?),
        };
        predictors.push(FeaturePredictor { spec, model, error });
    }
    Ok(FeatureModel { target, entropy, strength, predictors })
}

/// The v5 body: the model's sections in memory order (the v1–v4 text body
/// holds the same records, which [`read_body`] also parses).
fn write_body(w: &mut impl RecordWrite, model: &FracModel) {
    w.uint("planned", model.planned_targets as u64);
    w.uints("shards", model.shard_restarts.iter().map(|&n| n as u64));
    w.uint("features", model.features.len() as u64);
    for fm in &model.features {
        write_feature(w, fm);
    }
    w.tag("end");
}

/// Parse the sections [`write_body`] writes, as laid out in `version`.
///
/// Rejects duplicate per-target sections: a well-formed writer never emits
/// them, and accepting the last one silently would mask a corrupted or
/// spliced file.
fn read_body(r: &mut impl RecordRead, version: u32) -> Result<FracModel, TextError> {
    let planned: Option<usize> = if version >= 2 { Some(r.uint("planned")?) } else { None };
    let shard_restarts: Vec<usize> =
        if version >= 5 || (version == 4 && r.peek_is("shards")) {
            r.uints("shards")?
        } else {
            Vec::new()
        };
    let n_features = r.count("features")?;
    let mut features = Vec::with_capacity(n_features);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..n_features {
        let target: usize = r.uint("feature")?;
        if !seen.insert(target) {
            return Err(r.error(format!("duplicate section for target feature {target}")));
        }
        features.push(parse_feature_body(r, target)?);
    }
    r.tag("end")?;
    let planned_targets = planned.unwrap_or(features.len());
    Ok(FracModel { features, planned_targets, shard_restarts })
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Decode a v5 image: header, then the length and the CRC trailer, and only
/// then the body — a damaged file is rejected before any value is trusted.
fn decode_v5(bytes: &[u8]) -> Result<(FracModel, ModelFileInfo), String> {
    let truncated = |detail: String| format!("truncated model file: {detail}");
    let corrupt = |detail: String| format!("corrupt model file: {detail}");
    let len = bytes.len();
    if len < HEADER_LEN {
        return Err(truncated(format!("{len} bytes end inside the {HEADER_LEN}-byte header")));
    }
    let version = le_u32(&bytes[8..12]);
    if version != VERSION {
        return Err(format!(
            "not a readable FRaC model file: unsupported fracmodel version {version}"
        ));
    }
    let reserved = le_u32(&bytes[12..16]);
    if reserved != 0 {
        return Err(corrupt(format!("reserved header field is {reserved:#x}, expected 0")));
    }
    let body_len = u64::from_le_bytes([
        bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23],
    ]);
    let want = body_len
        .checked_add((HEADER_LEN + TRAILER_LEN) as u64)
        .ok_or_else(|| corrupt(format!("body length {body_len} overflows")))?;
    let have = len as u64;
    if have < want {
        let what = match want - have {
            n if n == TRAILER_LEN as u64 => "missing CRC trailer",
            n if n < TRAILER_LEN as u64 => "short CRC trailer",
            _ => "body cut short",
        };
        return Err(truncated(format!(
            "{what}: the file is {have} bytes, its header declares {want}"
        )));
    }
    if have > want {
        return Err(corrupt(format!("{} trailing bytes after the CRC trailer", have - want)));
    }
    let (image, trailer) = bytes.split_at(len - TRAILER_LEN);
    let (stored, computed) = (le_u32(trailer), crc32(image));
    if stored != computed {
        return Err(corrupt(format!(
            "checksum mismatch: stored {stored:08x}, computed {computed:08x}"
        )));
    }
    let mut r = BinReader::new(&image[HEADER_LEN..]);
    let model = read_body(&mut r, VERSION)
        .and_then(|m| r.finish().map(|()| m))
        .map_err(|e| corrupt(format!("body {e}")))?;
    Ok((model, ModelFileInfo { version, file_bytes: have, file_crc: Some(stored) }))
}

/// Check a v3+ text file's `crc` trailer against the body through the
/// `end` line and return the stored value. Safe to split at the *last*
/// `end` line: `end` is a reserved tag that appears exactly once in a model
/// body.
fn verify_crc_trailer(text: &str) -> Result<u32, TextError> {
    let body_len = match text.rfind("\nend\n") {
        Some(idx) => idx + "\nend\n".len(),
        None => {
            return Err(format!(
                "model body stops before its `end` line after {} byte(s) — \
                 the file was truncated before the CRC32 trailer",
                text.len()
            )
            .into())
        }
    };
    let (body, trailer) = text.split_at(body_len);
    let trailer_preview = trailer.trim();
    if trailer_preview.is_empty() {
        return Err("missing CRC trailer: expected `crc <8 hex digits>` after the \
                    `end` line — the file was truncated at the trailer"
            .into());
    }
    let mut r = TextReader::new(trailer);
    let stored_hex: String = r.parse_one("crc").map_err(|_| {
        TextError::from(format!(
            "short or malformed CRC trailer `{trailer_preview}`: expected \
             `crc <8 hex digits>` after the `end` line (file truncated?)"
        ))
    })?;
    if stored_hex.len() != 8 {
        return Err(format!(
            "short CRC trailer `crc {stored_hex}`: expected 8 hex digits, \
             got {} — the file was truncated inside the trailer",
            stored_hex.len()
        )
        .into());
    }
    let stored = u32::from_str_radix(&stored_hex, 16)
        .map_err(|_| TextError::from(format!("bad crc field `{stored_hex}`")))?;
    let computed = crc32(body.as_bytes());
    if stored != computed {
        return Err(format!(
            "model file checksum mismatch: stored {stored:08x}, computed {computed:08x} \
             (file is corrupt or was truncated)"
        )
        .into());
    }
    Ok(stored)
}

/// Parse a v1–v4 text model; returns the version and stored CRC too.
fn decode_text(text: &str) -> Result<(FracModel, u32, Option<u32>), TextError> {
    let mut r = TextReader::new(text);
    let version: u32 = r.parse_one(TEXT_MAGIC)?;
    if !(1..=TEXT_VERSION).contains(&version) {
        return Err(format!("unsupported fracmodel version {version}").into());
    }
    let crc = if version >= 3 { Some(verify_crc_trailer(text)?) } else { None };
    Ok((read_body(&mut r, version)?, version, crc))
}

/// Decode a model file of any version, dispatching on its leading bytes.
fn decode(bytes: &[u8]) -> Result<(FracModel, ModelFileInfo), TextError> {
    if bytes.starts_with(&MAGIC) {
        return decode_v5(bytes).map_err(TextError::from);
    }
    if bytes.starts_with(TEXT_MAGIC.as_bytes()) {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| TextError::from(format!("corrupt model file: text is not UTF-8: {e}")))?;
        let (model, version, file_crc) = decode_text(text)?;
        return Ok((model, ModelFileInfo { version, file_bytes: bytes.len() as u64, file_crc }));
    }
    Err("not a readable FRaC model file: unrecognized leading bytes \
         (expected the v5 magic or a `fracmodel` text header)"
        .into())
}

impl FracModel {
    /// The v5 image [`FracModel::save`] writes: header, body, CRC trailer.
    fn to_v5_bytes(&self) -> Vec<u8> {
        let mut w = BinWriter::new(vec![0; HEADER_LEN]);
        write_body(&mut w, self);
        let mut bytes = w.finish();
        let body_len = (bytes.len() - HEADER_LEN) as u64;
        bytes[..8].copy_from_slice(&MAGIC);
        bytes[8..12].copy_from_slice(&VERSION.to_le_bytes());
        bytes[16..24].copy_from_slice(&body_len.to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Parse a legacy text model (versions 1–4). v3 and v4 files have their
    /// CRC-32 trailer verified before any parsed value is trusted.
    pub fn from_text(text: &str) -> Result<FracModel, TextError> {
        decode_text(text).map(|(model, _, _)| model)
    }

    /// Save as model v5, atomically and durably: the image is written to
    /// `<path>.tmp`, fsynced, then renamed over `path`, so a crash at any
    /// instant leaves either the old file or the complete new one — never a
    /// torn mix. The parent directory is fsynced best-effort so the rename
    /// itself survives power loss.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        use std::io::Write as _;
        let path = path.as_ref();
        let tmp = {
            let mut os = path.as_os_str().to_os_string();
            os.push(".tmp");
            std::path::PathBuf::from(os)
        };
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.to_v5_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Ok(dir) = std::fs::File::open(parent) {
                    let _ = dir.sync_all();
                }
            }
        }
        Ok(())
    }

    /// Load a model file of any version (v5 binary or v1–v4 text).
    ///
    /// Every error — I/O, truncation, checksum, parse, foreign bytes —
    /// names the path, so callers (the CLI, the serving daemon's
    /// hot-reload) can surface it verbatim without re-wrapping.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<FracModel, TextError> {
        FracModel::load_with_info(path).map(|(model, _)| model)
    }

    /// [`FracModel::load`], also reporting the file's version, size and
    /// stored checksum.
    pub fn load_with_info(
        path: impl AsRef<std::path::Path>,
    ) -> Result<(FracModel, ModelFileInfo), TextError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| {
            TextError::from(format!("{}: I/O error: {e}", path.display()))
        })?;
        decode(&bytes).map_err(|e| TextError {
            message: format!("{}: {}", path.display(), e.message),
            ..e
        })
    }

    /// How many predictors of each kind the model holds, by kind name
    /// (`svr`, `rtree`, `const`, `ctree`, `svc`, `majority`) in name order;
    /// kinds the model does not use are left out.
    pub fn predictor_kinds(&self) -> Vec<(&'static str, usize)> {
        let mut tally = std::collections::BTreeMap::new();
        for fp in self.features.iter().flat_map(|fm| &fm.predictors) {
            let kind = &predictor_tag(&fp.model)["model_".len()..];
            *tally.entry(kind).or_insert(0) += 1;
        }
        tally.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::{decode, HEADER_LEN};
    use crate::config::FracConfig;
    use crate::model::FracModel;
    use crate::plan::TrainingPlan;
    use frac_dataset::crc::crc32;
    use frac_dataset::dataset::{DatasetBuilder, MISSING_CODE};
    use frac_synth::{ExpressionConfig, ExpressionGenerator};

    /// A small v4 text model written by the last text-format release.
    const V4_FIXTURE: &str = include_str!("../tests/data/v4-mixed.frac");

    fn roundtrip(model: &FracModel) -> FracModel {
        decode(&model.to_v5_bytes()).unwrap().0
    }

    #[test]
    fn expression_model_roundtrips_bit_exact() {
        let g = ExpressionGenerator::new(ExpressionConfig {
            n_features: 15,
            n_modules: 3,
            anomaly_modules: 1,
            structure_seed: 5,
            ..ExpressionConfig::default()
        });
        let (data, _) = g.generate(25, 5, 2);
        let train = data.select_rows(&(0..20).collect::<Vec<_>>());
        let test = data.select_rows(&(20..30).collect::<Vec<_>>());
        let plan = TrainingPlan::full(train.n_features());
        let (model, _) = FracModel::fit(&train, &plan, &FracConfig::default());

        let back = roundtrip(&model);
        let ns_a = model.score(&test);
        let ns_b = back.score(&test);
        for (a, b) in ns_a.iter().zip(&ns_b) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(model.feature_strengths(), back.feature_strengths());
        // The layout is canonical: re-encoding reproduces the image.
        assert_eq!(back.to_v5_bytes(), model.to_v5_bytes());
    }

    #[test]
    fn snp_model_roundtrips_bit_exact() {
        let codes: Vec<u32> = (0..24).map(|i| (i % 3) as u32).collect();
        let shifted: Vec<u32> = codes.iter().map(|&c| (c + 1) % 3).collect();
        let train = DatasetBuilder::new()
            .categorical("a", 3, codes)
            .categorical("b", 3, shifted)
            .real("expr", (0..24).map(|i| i as f64 * 0.3).collect())
            .build();
        let plan = TrainingPlan::full(3);
        let (model, _) = FracModel::fit(&train, &plan, &FracConfig::snp());
        let test = DatasetBuilder::new()
            .categorical("a", 3, vec![0, 1, MISSING_CODE])
            .categorical("b", 3, vec![1, 0, 2])
            .real("expr", vec![1.0, f64::NAN, 5.0])
            .build();

        let back = roundtrip(&model);
        let (ns_a, ns_b) = (model.score(&test), back.score(&test));
        for (a, b) in ns_a.iter().zip(&ns_b) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn file_roundtrip() {
        let train = DatasetBuilder::new()
            .real("x", (0..12).map(|i| i as f64).collect())
            .real("y", (0..12).map(|i| i as f64 * 2.0).collect())
            .build();
        let plan = TrainingPlan::full(2);
        let (model, _) = FracModel::fit(&train, &plan, &FracConfig::default());
        let dir = std::env::temp_dir().join("frac-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.frac");
        model.save(&path).unwrap();
        let (back, info) = FracModel::load_with_info(&path).unwrap();
        assert_eq!(model.score(&train), back.score(&train));
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(&super::MAGIC));
        assert_eq!((info.version, info.file_bytes), (5, bytes.len() as u64));
        assert_eq!(info.file_crc, Some(crc32(&bytes[..bytes.len() - 4])));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_version_and_garbage() {
        assert!(FracModel::from_text("fracmodel 99\n").is_err());
        assert!(FracModel::from_text("fracmodel 5\n").is_err());
        assert!(FracModel::from_text("not a model").is_err());
        assert!(FracModel::from_text("").is_err());
        let foreign = decode(b"not a model").map(|_| ()).unwrap_err().to_string();
        assert!(foreign.contains("not a readable FRaC model file"), "{foreign}");
        // A v5 header announcing another version is foreign, not corrupt.
        let mut bytes = small_model().to_v5_bytes();
        bytes[8] = 6;
        let err = decode(&bytes).map(|_| ()).unwrap_err().to_string();
        assert!(err.contains("unsupported fracmodel version 6"), "{err}");
        // Truncated model, either format.
        let bytes = small_model().to_v5_bytes();
        assert!(decode(&bytes[..bytes.len() / 2]).is_err());
        assert!(FracModel::from_text(&V4_FIXTURE[..V4_FIXTURE.len() / 2]).is_err());
    }

    fn parse_err(text: &str) -> frac_dataset::textio::TextError {
        match FracModel::from_text(text) {
            Err(e) => e,
            Ok(_) => panic!("expected parse error"),
        }
    }

    fn decode_err(bytes: &[u8]) -> String {
        match decode(bytes) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected decode error"),
        }
    }

    fn small_model() -> FracModel {
        let train = DatasetBuilder::new()
            .real("x", (0..10).map(|i| i as f64).collect())
            .real("y", (0..10).map(|i| i as f64 * 1.5 + 0.25).collect())
            .build();
        let (model, _) =
            FracModel::fit(&train, &TrainingPlan::full(2), &FracConfig::default());
        model
    }

    /// Byte offset of the first record tagged `tag` in a v5 image.
    fn record_at(bytes: &[u8], tag: &str) -> usize {
        let mut needle = vec![tag.len() as u8];
        needle.extend_from_slice(tag.as_bytes());
        bytes.windows(needle.len()).position(|w| w == needle.as_slice()).expect("record")
    }

    #[test]
    fn v5_crc_trailer_catches_corruption() {
        let model = small_model();
        let bytes = model.to_v5_bytes();
        let (image, trailer) = bytes.split_at(bytes.len() - 4);
        assert_eq!(
            u32::from_le_bytes(trailer.try_into().unwrap()),
            crc32(image),
            "v5 files end in a CRC-32 of everything before the trailer"
        );
        assert!(decode(&bytes).is_ok());

        // Flip one bit of the first entropy value: the checksum must catch
        // it even though the body still decodes structurally.
        let pos = record_at(&bytes, "entropy") + 1 + "entropy".len() + 3;
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0x10;
        let err = decode_err(&corrupted);
        assert!(err.contains("checksum mismatch"), "{err}");

        // A missing trailer is also rejected, naming the trailer rather
        // than a generic decode failure.
        let err = decode_err(image);
        assert!(err.contains("missing CRC trailer"), "{err}");

        // The text reader keeps its own trailer check (legacy v3/v4 files).
        let pos = V4_FIXTURE.find("entropy ").expect("entropy line") + "entropy ".len() + 1;
        let mut text = V4_FIXTURE.as_bytes().to_vec();
        text[pos] = if text[pos] == b'1' { b'2' } else { b'1' };
        let err = parse_err(std::str::from_utf8(&text).unwrap());
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let body_end = V4_FIXTURE.rfind("\nend\n").unwrap() + "\nend\n".len();
        let err = parse_err(&V4_FIXTURE[..body_end]);
        assert!(err.to_string().contains("missing CRC trailer"), "{err}");
    }

    /// Guarantee: a file truncated anywhere after the header
    /// fails with an error that names the path and the truncation — never
    /// a generic "unknown tag"-style decode error from half a feature
    /// section, because the length and trailer are checked before any body
    /// decoding.
    #[test]
    fn truncation_at_any_offset_names_path_and_trailer() {
        let model = small_model();
        let dir = std::env::temp_dir().join("frac-persist-truncation-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.frac");
        model.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let body_end = bytes.len() - 4;

        // Offsets spanning the interesting regions: just past the header,
        // mid-body, just before `end`, after `end` but before the trailer,
        // and inside the trailer.
        let offsets = [
            HEADER_LEN + 2,  // inside the `planned` record
            bytes.len() / 3, // mid-body
            bytes.len() / 2, // mid-body
            body_end - 3,    // inside the `end` record
            body_end,        // trailer fully missing
            body_end + 2,    // trailer cut short
        ];
        for &off in &offsets {
            let cut = path.with_extension(format!("cut{off}"));
            std::fs::write(&cut, &bytes[..off]).unwrap();
            let err = match FracModel::load(&cut) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("offset {off}: truncated file loaded"),
            };
            assert!(
                err.contains(&cut.display().to_string()),
                "offset {off}: error must name the path: {err}"
            );
            assert!(
                err.to_lowercase().contains("truncat"),
                "offset {off}: error must name the truncation: {err}"
            );
            assert!(
                !err.contains("unknown model tag"),
                "offset {off}: generic parse error leaked through: {err}"
            );
            std::fs::remove_file(&cut).ok();
        }

        // v5 is canonical: one extra byte after the trailer is corrupt.
        let long = path.with_extension("long");
        std::fs::write(&long, [&bytes[..], b"\n"].concat()).unwrap();
        let err = FracModel::load(&long).map(|_| ()).unwrap_err().to_string();
        assert!(err.contains("trailing bytes"), "{err}");
        std::fs::remove_file(&long).ok();
        // A legacy text file that lost only its final newline keeps a
        // complete trailer: it still verifies and loads.
        let trimmed = path.with_extension("nonl");
        std::fs::write(&trimmed, &V4_FIXTURE.as_bytes()[..V4_FIXTURE.len() - 1]).unwrap();
        assert!(FracModel::load(&trimmed).is_ok());
        std::fs::remove_file(&trimmed).ok();
        std::fs::remove_file(&path).ok();
    }

    /// Recompute a text model's `crc` trailer after editing its body.
    fn with_trailer(body: &str) -> String {
        format!("{body}crc {:08x}\n", crc32(body.as_bytes()))
    }

    #[test]
    fn older_versions_still_load() {
        let v4 = FracModel::from_text(V4_FIXTURE).unwrap();
        assert_eq!((v4.n_targets(), v4.planned_targets), (5, 5));
        let body_end = V4_FIXTURE.rfind("\nend\n").unwrap() + "\nend\n".len();
        // Reconstruct a v3 file: old version line, trailer recomputed over
        // the edited body.
        let v3 = with_trailer(&V4_FIXTURE[..body_end].replacen("fracmodel 4", "fracmodel 3", 1));
        let back = FracModel::from_text(&v3).unwrap();
        assert_eq!(back.planned_targets, v4.planned_targets);
        // A v2 file: old version line, no crc trailer.
        let v2 = V4_FIXTURE[..body_end].replacen("fracmodel 4", "fracmodel 2", 1);
        let back = FracModel::from_text(&v2).unwrap();
        assert_eq!(back.planned_targets, v4.planned_targets);
        // And a v1 file: no `planned` line either.
        let planned_line = format!("planned {}\n", v4.planned_targets);
        let v1 = v2
            .replacen("fracmodel 2", "fracmodel 1", 1)
            .replacen(&planned_line, "", 1);
        let back = FracModel::from_text(&v1).unwrap();
        assert_eq!(back.features.len(), v4.features.len());
    }

    #[test]
    fn text_feature_sections_render_byte_identically() {
        // The journal still writes feature sections as text: the shared
        // writer must reproduce what the text-format release wrote.
        let model = FracModel::from_text(V4_FIXTURE).unwrap();
        let mut w = frac_dataset::textio::TextWriter::new();
        for fm in &model.features {
            super::write_feature(&mut w, fm);
        }
        let start = V4_FIXTURE.find("\nfeature ").unwrap() + 1;
        let end = V4_FIXTURE.rfind("\nend\n").unwrap() + 1;
        assert_eq!(w.finish(), &V4_FIXTURE[start..end]);
    }

    #[test]
    fn shard_restarts_roundtrip_and_default_empty() {
        // A single-process model loads with an empty provenance.
        let model = small_model();
        assert!(roundtrip(&model).shard_restarts().is_empty());

        // A sharded model's restart counts survive the roundtrip.
        let mut sharded = small_model();
        sharded.shard_restarts = vec![0, 2, 1];
        let back = roundtrip(&sharded);
        assert_eq!(back.shard_restarts(), &[0, 2, 1]);
        // Scores are unaffected by provenance.
        let train = DatasetBuilder::new()
            .real("x", (0..10).map(|i| i as f64).collect())
            .real("y", (0..10).map(|i| i as f64 * 1.5 + 0.25).collect())
            .build();
        assert_eq!(sharded.score(&train), back.score(&train));

        // The optional v4 text line still loads, and is absent by default.
        assert!(!V4_FIXTURE.contains("\nshards "));
        let body_end = V4_FIXTURE.rfind("\nend\n").unwrap() + "\nend\n".len();
        let sharded_body =
            V4_FIXTURE[..body_end].replacen("\nfeatures ", "\nshards 0 2 1\nfeatures ", 1);
        let text = with_trailer(&sharded_body);
        assert_eq!(FracModel::from_text(&text).unwrap().shard_restarts(), &[0, 2, 1]);
    }

    #[test]
    fn duplicate_target_sections_are_rejected_with_location() {
        let text = V4_FIXTURE;
        // Duplicate the first feature section verbatim and fix up the count;
        // recompute the trailer so the error comes from the duplicate check,
        // not the checksum.
        let start = text.find("\nfeature ").expect("feature section") + 1;
        let end = start
            + text[start..].find("\nfeature ").map(|i| i + 1).unwrap_or_else(|| {
                text[start..].rfind("\nend\n").expect("end tag") + 1
            });
        let section = &text[start..end];
        let n = FracModel::from_text(text).unwrap().features.len();
        let doubled = text
            .replacen(&format!("features {n}"), &format!("features {}", n + 1), 1)
            .replacen(section, &format!("{section}{section}"), 1);
        let body_end = doubled.rfind("\nend\n").unwrap() + "\nend\n".len();
        let err = parse_err(&with_trailer(&doubled[..body_end]));
        let msg = err.to_string();
        assert!(msg.contains("duplicate section for target feature"), "{msg}");
        assert!(err.line > 0, "duplicate error should carry a line number: {msg}");

        // The binary body runs the same check, anchored at a byte offset.
        let mut model = small_model();
        let twin = roundtrip(&model).features.swap_remove(0);
        model.features.push(twin);
        let err = decode_err(&model.to_v5_bytes());
        assert!(err.contains("duplicate section for target feature"), "{err}");
        assert!(err.contains("byte "), "{err}");
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let model = small_model();
        let dir = std::env::temp_dir().join("frac-persist-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.frac");
        // Overwrite an existing (stale) file to exercise the rename path.
        std::fs::write(&path, "stale").unwrap();
        model.save(&path).unwrap();
        assert!(!dir.join("model.frac.tmp").exists(), "tmp file must be renamed away");
        let back = FracModel::load(&path).unwrap();
        assert_eq!(back.planned_targets, model.planned_targets);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn predictor_kinds_tally_the_model() {
        let model = FracModel::from_text(V4_FIXTURE).unwrap();
        assert_eq!(model.predictor_kinds(), vec![("ctree", 2), ("svr", 3)]);
    }
}
