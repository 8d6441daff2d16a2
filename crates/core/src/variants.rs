//! The scalable FRaC variants (paper §II) and their shared runner.
//!
//! [`run_variant`] takes a training set (all-normal samples), a test set, a
//! [`Variant`] description, and a [`FracConfig`]; it returns NS scores,
//! per-feature contributions, and a deterministic resource report. Every
//! variant reduces to: derive a feature selection / training plan /
//! projection, fit a [`FracModel`], score.

use crate::config::FracConfig;
use crate::model::{ContributionMatrix, DualCache, FitOptions, FracModel};
use crate::plan::TrainingPlan;
use crate::resources::ResourceReport;
use crate::selector::FeatureSelector;
use frac_dataset::stats::median;
use frac_dataset::split::derive_seed;
use frac_dataset::Dataset;
use frac_projection::{JlMatrixKind, JlTransform};
use std::collections::BTreeMap;
use std::time::Instant;

/// A FRaC variant to run.
#[derive(Debug, Clone)]
pub enum Variant {
    /// The original algorithm: every feature predicted from all others.
    Full,
    /// Full filtering (§II-A): keep `⌈p·f⌉` features by `selector`; both
    /// targets and inputs are restricted to the kept features.
    FullFilter {
        /// How to choose kept features.
        selector: FeatureSelector,
        /// Fraction kept (paper uses 0.05).
        p: f64,
    },
    /// Partial filtering (§II-A): only kept features get predictive models,
    /// but every predictor still sees all other features.
    PartialFilter {
        /// How to choose kept features.
        selector: FeatureSelector,
        /// Fraction kept.
        p: f64,
    },
    /// Diverse FRaC (§II-B): every feature is a target; each of its
    /// predictors sees an independent Bernoulli(`p`) feature subset.
    Diverse {
        /// Per-feature inclusion probability (paper uses ½, and 1/20 inside
        /// ensembles).
        p: f64,
        /// Predictors per target feature.
        models_per_feature: usize,
    },
    /// Ensemble (§II-C): run `members` independent copies of `base`
    /// (different derived seeds); per-feature scores are combined by median,
    /// then summed.
    Ensemble {
        /// The variant each member runs.
        base: Box<Variant>,
        /// Number of members (paper uses 10).
        members: usize,
    },
    /// JL pre-projection (§II-D): one-hot + concatenate + random-project to
    /// `dim` components, then ordinary FRaC in the projected space.
    JlProject {
        /// Projected dimension (paper uses 1024/2048/4096).
        dim: usize,
        /// Projection-matrix entry distribution.
        kind: JlMatrixKind,
    },
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::Full => write!(f, "full"),
            Variant::FullFilter { selector, p } => write!(f, "{selector:?}-filter(p={p})"),
            Variant::PartialFilter { selector, p } => {
                write!(f, "{selector:?}-partial(p={p})")
            }
            Variant::Diverse { p, models_per_feature } => {
                write!(f, "diverse(p={p},m={models_per_feature})")
            }
            Variant::Ensemble { base, members } => write!(f, "ensemble({members}x {base})"),
            Variant::JlProject { dim, kind } => write!(f, "jl(d={dim},{kind:?})"),
        }
    }
}

/// The result of one variant run.
#[derive(Debug)]
pub struct VariantOutcome {
    /// NS anomaly score per test row (higher = more anomalous).
    pub ns: Vec<f64>,
    /// Per-feature contributions. For [`Variant::JlProject`] the feature ids
    /// index the *projected* space — the interpretability loss the paper
    /// discusses.
    pub contributions: ContributionMatrix,
    /// `(feature, cross-validated predictive strength)` of the fitted models
    /// (union over ensemble members, strength averaged).
    pub feature_strengths: Vec<(usize, f64)>,
    /// Features kept by a filtering variant (`None` otherwise).
    pub selected_features: Option<Vec<usize>>,
    /// Deterministic resource accounting for the run.
    pub resources: ResourceReport,
}

/// Run `variant` trained on `train` and scored on `test`.
///
/// `train` and `test` must share a schema. All randomness (selection,
/// diverse subsets, JL matrix, ensemble members) derives from `config.seed`.
pub fn run_variant(
    train: &Dataset,
    test: &Dataset,
    variant: &Variant,
    config: &FracConfig,
) -> VariantOutcome {
    run_variant_cached(train, test, variant, config, None)
}

/// [`run_variant`] with an optional [`DualCache`] threaded through the
/// variants whose members re-fit the same `(dataset, feature id)` problems
/// (full, partial filtering, diverse). Feature-re-indexing variants (full
/// filtering) and data-transforming variants (JL) skip the cache — their
/// per-member problems are not row/target-aligned across calls.
fn run_variant_cached(
    train: &Dataset,
    test: &Dataset,
    variant: &Variant,
    config: &FracConfig,
    cache: Option<&mut DualCache>,
) -> VariantOutcome {
    assert_eq!(
        train.schema(),
        test.schema(),
        "train and test must share a schema"
    );
    let t0 = Instant::now();
    let mut outcome = match variant {
        Variant::Full => {
            let plan = TrainingPlan::full(train.n_features());
            fit_and_score(train, test, &plan, config, None, cache)
        }
        Variant::FullFilter { selector, p } => {
            let sel_seed = derive_seed(config.seed, 0x5E1);
            let selected = selector.select(train, *p, sel_seed);
            let train_sub = train.select_features(&selected);
            let test_sub = test.select_features(&selected);
            let plan = TrainingPlan::full(selected.len());
            // Local target ids remap per selection, so no dual reuse here.
            let mut out = fit_and_score(&train_sub, &test_sub, &plan, config, None, None);
            out.resources.flops += selector.selection_flops(train);
            // Map contribution/strength ids back into the original space.
            remap_feature_ids(&mut out, &selected);
            out.selected_features = Some(selected);
            out
        }
        Variant::PartialFilter { selector, p } => {
            let sel_seed = derive_seed(config.seed, 0x5E1);
            let selected = selector.select(train, *p, sel_seed);
            let plan = TrainingPlan::partial_filtered(&selected, train.n_features());
            let mut out = fit_and_score(train, test, &plan, config, None, cache);
            out.resources.flops += selector.selection_flops(train);
            out.selected_features = Some(selected);
            out
        }
        Variant::Diverse { p, models_per_feature } => {
            let plan_seed = derive_seed(config.seed, 0xD1F);
            let plan =
                TrainingPlan::diverse(train.n_features(), *p, *models_per_feature, plan_seed);
            fit_and_score(train, test, &plan, config, None, cache)
        }
        Variant::Ensemble { base, members } => run_ensemble(train, test, base, *members, config),
        Variant::JlProject { dim, kind } => {
            let jl = JlTransform::new(*dim, *kind, derive_seed(config.seed, 0x11));
            let train_p = jl.project_dataset(train);
            let test_p = jl.project_dataset(test);
            let plan = TrainingPlan::full(*dim);
            let mut out = fit_and_score(&train_p, &test_p, &plan, config, None, None);
            // Projection cost: (rows × one-hot width × k) multiply-adds.
            let d_onehot = train.schema().one_hot_width() as u64;
            let rows = (train.n_rows() + test.n_rows()) as u64;
            out.resources.flops += 2 * rows * d_onehot * (*dim as u64);
            // Both the source and projected data are live during projection.
            out.resources.dataset_bytes =
                train.approx_bytes() as u64 + train_p.approx_bytes() as u64;
            out
        }
    };
    outcome.resources.wall = t0.elapsed();
    outcome
}

/// Common fit-then-score path.
fn fit_and_score(
    train: &Dataset,
    test: &Dataset,
    plan: &TrainingPlan,
    config: &FracConfig,
    selected: Option<Vec<usize>>,
    cache: Option<&mut DualCache>,
) -> VariantOutcome {
    let (model, resources) =
        FracModel::fit_with(train, plan, config, FitOptions { cache, ..FitOptions::default() });
    let contributions = model.contributions(test);
    let ns = contributions.ns_scores();
    VariantOutcome {
        ns,
        feature_strengths: model.feature_strengths(),
        contributions,
        selected_features: selected,
        resources,
    }
}

/// Rewrite contribution/strength feature ids through a selection map
/// (`local index → original feature index`).
fn remap_feature_ids(out: &mut VariantOutcome, selected: &[usize]) {
    for id in &mut out.contributions.feature_ids {
        *id = selected[*id];
    }
    for (id, _) in &mut out.feature_strengths {
        *id = selected[*id];
    }
}

/// §II-C ensembles: independent members, per-feature median combination.
fn run_ensemble(
    train: &Dataset,
    test: &Dataset,
    base: &Variant,
    members: usize,
    config: &FracConfig,
) -> VariantOutcome {
    assert!(members >= 1, "ensemble needs at least one member");
    let n_rows = test.n_rows();
    // feature id → (per-member contribution columns, strengths)
    let mut columns: BTreeMap<usize, Vec<Vec<f64>>> = BTreeMap::new();
    let mut strengths: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut resources = ResourceReport::default();
    let mut selected_union: Vec<usize> = Vec::new();
    // Ensemble members re-fit the same per-feature problems under different
    // seeds/input sets; each member's SVM solves warm-start from the
    // previous member's duals through this cache.
    let mut dual_cache = DualCache::default();

    for m in 0..members {
        let member_cfg = FracConfig {
            seed: derive_seed(config.seed, 0xE45_0000 + m as u64),
            ..*config
        };
        let out = run_variant_cached(train, test, base, &member_cfg, Some(&mut dual_cache));
        if m == 0 {
            resources = out.resources;
        } else {
            resources.merge_sequential(&out.resources);
        }
        for (idx, fid) in out.contributions.feature_ids.iter().enumerate() {
            columns
                .entry(*fid)
                .or_default()
                .push(out.contributions.values[idx].clone());
        }
        for (fid, s) in out.feature_strengths {
            strengths.entry(fid).or_default().push(s);
        }
        if let Some(sel) = out.selected_features {
            selected_union.extend(sel);
        }
    }

    // Per-feature median across the members that scored it (paper §II-C).
    let mut feature_ids = Vec::with_capacity(columns.len());
    let mut values = Vec::with_capacity(columns.len());
    for (fid, member_cols) in columns {
        let mut combined = vec![0.0f64; n_rows];
        let mut buf = Vec::with_capacity(member_cols.len());
        for (r, slot) in combined.iter_mut().enumerate() {
            buf.clear();
            buf.extend(member_cols.iter().map(|c| c[r]));
            *slot = median(&buf).unwrap_or(0.0);
        }
        feature_ids.push(fid);
        values.push(combined);
    }
    // The median combines per-feature columns across members; any target a
    // member dropped simply contributes no column, so no renorm is applied
    // at the ensemble level.
    let contributions = ContributionMatrix { feature_ids, values, n_rows, renorm: 1.0 };
    let ns = contributions.ns_scores();
    let feature_strengths = strengths
        .into_iter()
        .map(|(fid, ss)| (fid, ss.iter().sum::<f64>() / ss.len() as f64))
        .collect();

    selected_union.sort_unstable();
    selected_union.dedup();
    VariantOutcome {
        ns,
        contributions,
        feature_strengths,
        selected_features: if selected_union.is_empty() {
            None
        } else {
            Some(selected_union)
        },
        resources,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frac_synth::{ExpressionConfig, ExpressionGenerator};

    fn expr_split() -> (Dataset, Dataset, Vec<bool>) {
        let g = ExpressionGenerator::new(ExpressionConfig {
            n_features: 30,
            n_modules: 5,
            relevant_fraction: 0.9,
            anomaly_modules: 2,
            anomaly_shift: 3.0,
            noise_sd: 0.5,
            structure_seed: 21,
            ..ExpressionConfig::default()
        });
        let (data, labels) = g.generate(36, 8, 3);
        let train = data.select_rows(&(0..24).collect::<Vec<_>>());
        let test_rows: Vec<usize> = (24..44).collect();
        let test = data.select_rows(&test_rows);
        let test_labels: Vec<bool> = test_rows.iter().map(|&r| labels[r]).collect();
        (train, test, test_labels)
    }

    fn separates(ns: &[f64], labels: &[bool]) -> bool {
        let mean = |anom: bool| -> f64 {
            let v: Vec<f64> = ns
                .iter()
                .zip(labels)
                .filter(|(_, &l)| l == anom)
                .map(|(&s, _)| s)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        mean(true) > mean(false)
    }

    #[test]
    fn all_variants_run_and_separate() {
        let (train, test, labels) = expr_split();
        let cfg = FracConfig::default();
        let variants: Vec<Variant> = vec![
            Variant::Full,
            Variant::FullFilter { selector: FeatureSelector::Random, p: 0.5 },
            Variant::PartialFilter { selector: FeatureSelector::Entropy, p: 0.5 },
            Variant::Diverse { p: 0.5, models_per_feature: 1 },
            Variant::JlProject { dim: 16, kind: JlMatrixKind::Gaussian },
            Variant::Ensemble {
                base: Box::new(Variant::FullFilter {
                    selector: FeatureSelector::Random,
                    p: 0.3,
                }),
                members: 3,
            },
        ];
        for v in &variants {
            let out = run_variant(&train, &test, v, &cfg);
            assert_eq!(out.ns.len(), test.n_rows(), "{v}");
            assert!(out.ns.iter().all(|s| s.is_finite()), "{v}");
            assert!(separates(&out.ns, &labels), "{v} failed to separate");
            assert!(out.resources.flops > 0, "{v}");
            assert!(out.resources.models_trained > 0, "{v}");
        }
    }

    #[test]
    fn filtering_reduces_cost_quadratically() {
        let (train, test, _) = expr_split();
        let cfg = FracConfig::default();
        let full = run_variant(&train, &test, &Variant::Full, &cfg);
        let filtered = run_variant(
            &train,
            &test,
            &Variant::FullFilter { selector: FeatureSelector::Random, p: 0.2 },
            &cfg,
        );
        let frac = filtered.resources.flops_fraction_of(&full.resources);
        // p = 0.2 → models × inputs both shrink: ≈ p² = 0.04 of full, with
        // generous tolerance for per-model convergence variation.
        assert!(frac < 0.2, "flops fraction {frac}");
        let mem = filtered.resources.mem_fraction_of(&full.resources);
        assert!(mem < 0.5, "memory fraction {mem}");
    }

    #[test]
    fn partial_filter_costs_more_than_full_filter() {
        let (train, test, _) = expr_split();
        let cfg = FracConfig::default();
        let full_f = run_variant(
            &train,
            &test,
            &Variant::FullFilter { selector: FeatureSelector::Random, p: 0.3 },
            &cfg,
        );
        let partial = run_variant(
            &train,
            &test,
            &Variant::PartialFilter { selector: FeatureSelector::Random, p: 0.3 },
            &cfg,
        );
        // Same number of targets, but partial's inputs are the whole feature
        // space — strictly more work per model (paper: "consistently worse…
        // in time [and] space").
        assert!(partial.resources.flops > full_f.resources.flops);
    }

    #[test]
    fn ensemble_is_deterministic_and_members_differ() {
        let (train, test, _) = expr_split();
        let cfg = FracConfig::default();
        let ens = Variant::Ensemble {
            base: Box::new(Variant::FullFilter {
                selector: FeatureSelector::Random,
                p: 0.3,
            }),
            members: 3,
        };
        let a = run_variant(&train, &test, &ens, &cfg);
        let b = run_variant(&train, &test, &ens, &cfg);
        assert_eq!(a.ns, b.ns);
        // Members selected different subsets, so the union exceeds one
        // member's selection size.
        let union = a.selected_features.unwrap();
        assert!(union.len() > 9, "union of member selections: {}", union.len());
    }

    #[test]
    fn ensemble_median_bounds_by_member_range() {
        // For a single-member "ensemble", median = the member itself.
        let (train, test, _) = expr_split();
        let cfg = FracConfig::default();
        let base = Variant::Diverse { p: 0.5, models_per_feature: 1 };
        let single = run_variant(
            &train,
            &test,
            &Variant::Ensemble { base: Box::new(base.clone()), members: 1 },
            &cfg,
        );
        let member_cfg = FracConfig {
            seed: derive_seed(cfg.seed, 0xE45_0000),
            ..cfg
        };
        let direct = run_variant(&train, &test, &base, &member_cfg);
        for (a, b) in single.ns.iter().zip(&direct.ns) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn jl_feature_ids_live_in_projected_space() {
        let (train, test, _) = expr_split();
        let out = run_variant(
            &train,
            &test,
            &Variant::JlProject { dim: 8, kind: JlMatrixKind::AchlioptasSparse },
            &FracConfig::default(),
        );
        assert_eq!(out.contributions.feature_ids, (0..8).collect::<Vec<_>>());
        assert_eq!(out.feature_strengths.len(), 8);
    }

    #[test]
    fn filter_outcome_reports_original_feature_ids() {
        let (train, test, _) = expr_split();
        let out = run_variant(
            &train,
            &test,
            &Variant::FullFilter { selector: FeatureSelector::Random, p: 0.3 },
            &FracConfig::default(),
        );
        let selected = out.selected_features.unwrap();
        assert_eq!(out.contributions.feature_ids, selected);
        assert!(selected.iter().all(|&f| f < train.n_features()));
    }

    #[test]
    fn variant_display_names() {
        assert_eq!(Variant::Full.to_string(), "full");
        let v = Variant::Ensemble {
            base: Box::new(Variant::FullFilter {
                selector: FeatureSelector::Random,
                p: 0.05,
            }),
            members: 10,
        };
        assert_eq!(v.to_string(), "ensemble(10x Random-filter(p=0.05))");
    }

    #[test]
    #[should_panic(expected = "share a schema")]
    fn schema_mismatch_rejected() {
        let (train, _, _) = expr_split();
        let other = Dataset::from_real_rows(&[vec![1.0]]);
        run_variant(&train, &other, &Variant::Full, &FracConfig::default());
    }
}
