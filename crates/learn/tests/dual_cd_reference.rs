//! Bitwise reference for the strict dual coordinate-descent parameter set.
//!
//! `SolverMode::Strict` runs through the same generic loop as the fast
//! path (`frac_learn::solver`), configured with the sequential kernels, the
//! reference shuffle, no shrinking and warm starts ignored. Before that
//! loop existed, SVR and SVC each had a hand-written strict solver. They
//! are copied below as plain functions — unchanged apart from taking the
//! config as a parameter, returning only the fit (no work counters), and
//! dropping the per-epoch budget poll, which an unlimited budget never
//! trips — and the trainers' strict output must match them bit for bit:
//! weights, bias and every dual.
//!
//! Each generated problem is presented three ways (an owned
//! `DesignMatrix`, a `RowSubset` of a larger matrix in shuffled row order,
//! and a row subset of a segmented pool view), and covers zero rows
//! (Q_ii = 0 without a bias), `bias: false`, duals pinned at 0 and ±C,
//! multi-class SVC, and n from 1 to 150.

use frac_dataset::codec::BinWriter;
use frac_dataset::dataset::{DatasetBuilder, MISSING_CODE};
use frac_dataset::split::derive_seed;
use frac_dataset::{DesignMatrix, DesignView, PoolSpec, RowSubset};
use frac_learn::svc::{LinearSvc, SvcConfig, SvcTrainer};
use frac_learn::svr::{SvrConfig, SvrTrainer};
use frac_learn::traits::{ClassifierTrainer, RegressorTrainer};
use frac_learn::{SolverMode, TargetBudget};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

const ARITY: u32 = 3;

/// The strict ε-SVR solver: every coordinate every epoch in a seeded
/// reference permutation, exact sequential kernels. Returns `(w, bias,
/// beta)` as the trainer reports them.
fn reference_svr(cfg: &SvrConfig, x: &dyn DesignView, y: &[f64]) -> (Vec<f64>, f64, Vec<f64>) {
    let n = x.n_rows();
    let d = x.n_cols();
    let bias_sq = if cfg.bias { 1.0 } else { 0.0 };
    // Q_ii = x_i·x_i (+1 for the bias augmentation).
    let q_diag: Vec<f64> = (0..n).map(|i| x.row_sq_norm(i) + bias_sq).collect();

    let mut beta = vec![0.0f64; n];
    let mut w = vec![0.0f64; d];
    let mut w_bias = 0.0f64;
    let mut order: Vec<usize> = (0..n).collect();

    for epoch in 0..cfg.max_epochs {
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, epoch as u64));
        order.shuffle(&mut rng);
        let mut max_violation = 0.0f64;

        for &i in &order {
            let h = q_diag[i];
            // G = wᵀx_i − y_i (folded in ascending column order — any
            // view must reproduce the owned accumulation bit for bit).
            let g = x.row_dot_acc(i, &w, -y[i] + w_bias * bias_sq);
            let gp = g + cfg.epsilon;
            let gn = g - cfg.epsilon;

            // Projected-gradient violation (liblinear's criterion): at a
            // bound, only a gradient pointing back *into* the feasible
            // interval counts — a blocked direction is KKT-optimal.
            let b = beta[i];
            let violation = svr_violation(b, gp, gn, cfg.c);
            max_violation = max_violation.max(violation);

            if h <= 0.0 {
                // Zero row: objective is linear in β_i; any movement is
                // unbounded or useless. Reset to 0.
                beta[i] = 0.0;
                continue;
            }

            // Newton step on the piecewise-quadratic dual coordinate.
            let dstep = if gp < h * b {
                -gp / h
            } else if gn > h * b {
                -gn / h
            } else {
                -b
            };
            if dstep.abs() < 1e-14 {
                continue;
            }
            let beta_new = (b + dstep).clamp(-cfg.c, cfg.c);
            let delta = beta_new - b;
            if delta != 0.0 {
                beta[i] = beta_new;
                x.axpy_row(i, delta, &mut w);
                w_bias += delta * bias_sq;
            }
        }

        if max_violation < cfg.tolerance {
            break;
        }
    }

    (w, if cfg.bias { w_bias } else { 0.0 }, beta)
}

/// Projected-gradient violation of one SVR dual coordinate.
fn svr_violation(b: f64, gp: f64, gn: f64, c: f64) -> f64 {
    if b == 0.0 {
        if gp < 0.0 {
            -gp
        } else if gn > 0.0 {
            gn
        } else {
            0.0
        }
    } else if b >= c {
        gp.max(0.0)
    } else if b <= -c {
        (-gn).max(0.0)
    } else if b > 0.0 {
        gp.abs()
    } else {
        gn.abs()
    }
}

/// The strict hinge-loss solver for one binary (±1) problem. Returns
/// `(w, w_bias, alpha)`.
fn reference_svc_binary(
    cfg: &SvcConfig,
    x: &dyn DesignView,
    labels: &[f64],
    class_seed: u64,
) -> (Vec<f64>, f64, Vec<f64>) {
    let n = x.n_rows();
    let d = x.n_cols();
    let bias_sq = if cfg.bias { 1.0 } else { 0.0 };
    let q_diag: Vec<f64> = (0..n).map(|i| x.row_sq_norm(i) + bias_sq).collect();

    let mut alpha = vec![0.0f64; n];
    let mut w = vec![0.0f64; d];
    let mut w_bias = 0.0f64;
    let mut order: Vec<usize> = (0..n).collect();

    for epoch in 0..cfg.max_epochs {
        let mut rng = StdRng::seed_from_u64(derive_seed(class_seed, epoch as u64));
        order.shuffle(&mut rng);
        let mut max_violation = 0.0f64;

        for &i in &order {
            let yi = labels[i];
            // G = y_i wᵀx_i − 1 (ascending-column fold)
            let mut g = x.row_dot_acc(i, &w, w_bias * bias_sq);
            g = yi * g - 1.0;

            let a = alpha[i];
            let pg = if a == 0.0 {
                g.min(0.0)
            } else if a >= cfg.c {
                g.max(0.0)
            } else {
                g
            };
            max_violation = max_violation.max(pg.abs());

            if pg.abs() > 1e-14 && q_diag[i] > 0.0 {
                let a_new = (a - g / q_diag[i]).clamp(0.0, cfg.c);
                let delta = (a_new - a) * yi;
                if delta != 0.0 {
                    alpha[i] = a_new;
                    x.axpy_row(i, delta, &mut w);
                    w_bias += delta * bias_sq;
                }
            }
        }

        if max_violation < cfg.tolerance {
            break;
        }
    }
    (w, w_bias, alpha)
}

/// One-vs-rest over [`reference_svc_binary`], as the trainer reduces it.
fn reference_svc(
    cfg: &SvcConfig,
    x: &dyn DesignView,
    y: &[u32],
    arity: u32,
) -> (LinearSvc, Vec<Vec<f64>>) {
    let mut hyperplanes = Vec::new();
    let mut duals = Vec::new();
    for class in 0..arity as usize {
        let labels: Vec<f64> =
            y.iter().map(|&c| if c as usize == class { 1.0 } else { -1.0 }).collect();
        let (w, w_bias, alpha) =
            reference_svc_binary(cfg, x, &labels, derive_seed(cfg.seed, class as u64));
        hyperplanes.push((w, if cfg.bias { w_bias } else { 0.0 }));
        duals.push(alpha);
    }
    (LinearSvc::from_parts(hyperplanes), duals)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn svc_bytes(m: &LinearSvc) -> Vec<u8> {
    let mut w = BinWriter::new(Vec::new());
    m.write_to(&mut w);
    w.finish()
}

/// SplitMix64: the problem generator's own stream, independent of the
/// solver's RNG.
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

    /// Uniform in [-2, 2).
    fn value(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
    }
}

/// One generated problem: `n_all` pool rows with `d_real` real columns
/// (unstandardized, so encoded values are the raw draws) and one ternary
/// categorical column, of which the problem uses `rows` (distinct, in
/// shuffled order). Every `zero_every`-th used row is all zeros (reals 0,
/// category missing); 0 disables that.
struct Problem {
    pool: frac_dataset::EncodedPool,
    inputs: Vec<usize>,
    rows: Vec<usize>,
    y_real: Vec<f64>,
    y_class: Vec<u32>,
}

fn problem(n: usize, d_real: usize, zero_every: usize, seed: u64) -> Problem {
    let mut mix = Mix(seed);
    let n_all = n + n / 3 + 1;
    let mut perm: Vec<usize> = (0..n_all).collect();
    for i in (1..n_all).rev() {
        perm.swap(i, mix.below(i as u64 + 1) as usize);
    }
    let rows: Vec<usize> = perm[..n].to_vec();
    let zero: Vec<bool> = {
        let mut z = vec![false; n_all];
        for (k, &r) in rows.iter().enumerate() {
            z[r] = zero_every > 0 && k % zero_every == 0;
        }
        z
    };
    let mut b = DatasetBuilder::new();
    for j in 0..d_real {
        let col = (0..n_all).map(|r| if zero[r] { 0.0 } else { mix.value() }).collect();
        b = b.real(format!("x{j}"), col);
    }
    let codes = (0..n_all)
        .map(|r| if zero[r] || mix.below(5) == 0 { MISSING_CODE } else { mix.below(3) as u32 })
        .collect();
    b = b.categorical("snp", ARITY, codes);
    let data = b.build();
    let features: Vec<usize> = (0..data.n_features()).collect();
    let pool = PoolSpec::fit(&data, &features, false).encode(&data);
    // Leave one real column out (when there are two or more) so the view
    // has more than one segment.
    let inputs: Vec<usize> =
        (0..data.n_features()).filter(|&j| d_real < 2 || j != d_real / 2).collect();
    Problem {
        pool,
        inputs,
        rows,
        y_real: (0..n).map(|_| mix.value()).collect(),
        y_class: (0..n).map(|_| mix.below(u64::from(ARITY)) as u32).collect(),
    }
}

/// Materialize every row of `view` into an owned matrix.
fn owned(view: &dyn DesignView) -> DesignMatrix {
    let (n, d) = (view.n_rows(), view.n_cols());
    let mut values = vec![0.0; n * d];
    for (r, buf) in values.chunks_exact_mut(d.max(1)).enumerate().take(n) {
        view.copy_row_into(r, buf);
    }
    DesignMatrix::from_raw(n, d, values)
}

/// Run `check` on the problem presented as a pool-view row subset, an
/// owned matrix, and a row subset of a larger owned matrix.
fn for_each_view(
    p: &Problem,
    mut check: impl FnMut(&dyn DesignView, &str) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let pool_view = p.pool.view(&p.inputs);
    let pool_rows = RowSubset::new(&pool_view, &p.rows);
    check(&pool_rows, "pool view")?;
    let matrix = owned(&pool_rows);
    check(&matrix, "design matrix")?;
    let all = owned(&pool_view);
    check(&RowSubset::new(&all, &p.rows), "row subset")
}

fn check_svr(cfg: &SvrConfig, p: &Problem, warm: &[f64]) -> Result<(), TestCaseError> {
    let trainer = SvrTrainer::new(*cfg);
    let mut first: Option<(Vec<u64>, u64, Vec<u64>)> = None;
    for_each_view(p, |x, what| {
        let (rw, rb, rbeta) = reference_svr(cfg, x, &p.y_real);
        // Strict ignores the warm start by contract.
        let (t, duals) = trainer
            .try_train(x, &p.y_real, Some(warm), &TargetBudget::unlimited())
            .map_err(|e| TestCaseError::Fail(format!("{what}: {e}")))?;
        let duals = duals.unwrap_or_default();
        prop_assert_eq!(bits(t.model.weights()), bits(&rw), "svr weights, {}", what);
        prop_assert_eq!(t.model.bias().to_bits(), rb.to_bits(), "svr bias, {}", what);
        prop_assert_eq!(bits(&duals), bits(&rbeta), "svr duals, {}", what);
        let got = (bits(&rw), rb.to_bits(), bits(&rbeta));
        match &first {
            None => first = Some(got),
            Some(f) => prop_assert!(*f == got, "svr reference differs across views ({})", what),
        }
        Ok(())
    })
}

fn check_svc(cfg: &SvcConfig, p: &Problem, warm: &[Vec<f64>]) -> Result<(), TestCaseError> {
    let trainer = SvcTrainer::new(*cfg);
    let mut first: Option<Vec<u8>> = None;
    for_each_view(p, |x, what| {
        let (reference, rduals) = reference_svc(cfg, x, &p.y_class, ARITY);
        let (t, duals) = trainer
            .try_train(x, &p.y_class, ARITY, Some(warm), &TargetBudget::unlimited())
            .map_err(|e| TestCaseError::Fail(format!("{what}: {e}")))?;
        let duals = duals.unwrap_or_default();
        prop_assert_eq!(t.model.n_classes(), ARITY as usize);
        prop_assert!(svc_bytes(&t.model) == svc_bytes(&reference), "svc hyperplanes, {}", what);
        prop_assert_eq!(duals.len(), rduals.len());
        for (k, (d, r)) in duals.iter().zip(&rduals).enumerate() {
            prop_assert_eq!(bits(d), bits(r), "svc class {} duals, {}", k, what);
        }
        let got = svc_bytes(&reference);
        match &first {
            None => first = Some(got),
            Some(f) => prop_assert!(*f == got, "svc reference differs across views ({})", what),
        }
        Ok(())
    })
}

const CS: [f64; 4] = [0.01, 0.1, 1.0, 10.0];
const EPSILONS: [f64; 3] = [0.0, 0.1, 0.5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn strict_svr_matches_the_reference_bitwise(
        n in 1usize..151,
        d_real in 1usize..6,
        c in 0usize..4,
        eps in 0usize..3,
        bias in any::<bool>(),
        tight in any::<bool>(),
        zero_every in 0usize..5,
        seed in any::<u64>(),
    ) {
        let p = problem(n, d_real, zero_every, seed);
        let cfg = SvrConfig {
            c: CS[c],
            epsilon: EPSILONS[eps],
            bias,
            tolerance: if tight { 1e-6 } else { 0.01 },
            max_epochs: if tight { 300 } else { 100 },
            seed: seed.rotate_left(17),
            mode: SolverMode::Strict,
            ..SvrConfig::default()
        };
        let warm: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        check_svr(&cfg, &p, &warm)?;
    }

    #[test]
    fn strict_svc_matches_the_reference_bitwise(
        n in 1usize..151,
        d_real in 1usize..6,
        c in 0usize..4,
        bias in any::<bool>(),
        tight in any::<bool>(),
        zero_every in 0usize..5,
        seed in any::<u64>(),
    ) {
        let p = problem(n, d_real, zero_every, seed);
        let cfg = SvcConfig {
            c: CS[c],
            bias,
            tolerance: if tight { 1e-6 } else { 0.01 },
            max_epochs: if tight { 200 } else { 60 },
            seed: seed.rotate_left(29),
            mode: SolverMode::Strict,
            ..SvcConfig::default()
        };
        let warm: Vec<Vec<f64>> = (0..ARITY as usize)
            .map(|k| (0..n).map(|i| ((i + k) as f64 * 0.3).cos()).collect())
            .collect();
        check_svc(&cfg, &p, &warm)?;
    }
}

#[test]
fn the_generated_problems_reach_every_dual_regime() {
    // Guard against a generator that never exercises the cases the
    // bitwise comparison is meant to cover: duals pinned at 0 and at ±C
    // and strictly inside the box, and zero rows without a bias.
    let p = problem(120, 3, 4, 7);
    let x = owned(&RowSubset::new(&p.pool.view(&p.inputs), &p.rows));
    let cfg = SvrConfig { c: 0.1, epsilon: 0.1, bias: false, mode: SolverMode::Strict, ..SvrConfig::default() };
    let (_, _, beta) = reference_svr(&cfg, &x, &p.y_real);
    assert!(beta.contains(&0.0), "some β at 0");
    assert!(beta.contains(&cfg.c), "some β at +C");
    assert!(beta.contains(&-cfg.c), "some β at −C");
    assert!(beta.iter().any(|&b| b != 0.0 && b.abs() < cfg.c), "some β inside");
    assert!((0..x.n_rows()).any(|i| x.row_sq_norm(i) == 0.0), "some zero row");
    check_svr(&cfg, &p, &vec![1.0; 120]).unwrap();

    let cfg = SvcConfig { c: 1.0, bias: true, mode: SolverMode::Strict, ..SvcConfig::default() };
    let (_, duals) = reference_svc(&cfg, &x, &p.y_class, ARITY);
    let all: Vec<f64> = duals.concat();
    assert!(all.contains(&0.0), "some α at 0");
    assert!(all.contains(&cfg.c), "some α at C");
    assert!(all.iter().any(|&a| a > 0.0 && a < cfg.c), "some α inside");
    check_svc(&cfg, &p, &[]).unwrap();
}
