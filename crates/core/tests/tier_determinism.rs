//! Determinism across kernel tiers and repeated fits.
//!
//! Tree fits never touch the reduction kernels, so a SNP model must score
//! bit for bit the same under the portable unrolled tier and under the
//! best tier this CPU supports, and every repeated fit must reproduce the
//! first. This file holds exactly one test: the kernel tier is a process
//! global, and swapping it under a concurrent fast-path fit would mix
//! summation groupings.

use frac_core::{FracConfig, FracModel, TrainingPlan};
use frac_dataset::kernels::{self, KernelTier};
use frac_dataset::Dataset;
use frac_synth::snp::CohortGroup;
use frac_synth::{SnpConfig, SnpGenerator, SubpopulationMix};

fn snp_surrogate() -> (Dataset, Dataset) {
    let gen = SnpGenerator::new(SnpConfig {
        n_snps: 40,
        ld_block_size: 4,
        n_subpops: 2,
        n_disease_loci: 4,
        structure_seed: 17,
        ..SnpConfig::default()
    });
    let groups = [
        CohortGroup { n: 40, mix: SubpopulationMix::uniform(2), is_case: false },
        CohortGroup { n: 8, mix: SubpopulationMix::uniform(2), is_case: true },
    ];
    let (data, _) = gen.generate(&groups, 5);
    let train = data.select_rows(&(0..32).collect::<Vec<_>>());
    let test = data.select_rows(&(32..48).collect::<Vec<_>>());
    (train, test)
}

fn ns_bits(train: &Dataset, test: &Dataset) -> Vec<u64> {
    let plan = TrainingPlan::full(train.n_features());
    let (model, _) = FracModel::fit(train, &plan, &FracConfig::snp());
    model.score(test).iter().map(|v| v.to_bits()).collect()
}

#[test]
fn snp_scores_are_bit_identical_across_tiers_and_repeated_fits() {
    let (train, test) = snp_surrogate();
    let initial = kernels::active_tier();
    kernels::force_tier(Some(KernelTier::Unrolled));
    let unrolled = ns_bits(&train, &test);
    let best = kernels::force_tier(None);
    let first = ns_bits(&train, &test);
    let again = ns_bits(&train, &test);
    kernels::force_tier(Some(initial));

    assert!(!first.is_empty());
    assert_eq!(first, again, "a repeated fit under {best} changed the scores");
    assert_eq!(unrolled, first, "SNP scores moved between the unrolled and {best} tiers");
}
