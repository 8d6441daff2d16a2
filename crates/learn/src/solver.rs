//! The dual coordinate-descent solver behind the linear SVM trainers.
//!
//! [`crate::svr::SvrTrainer`] and [`crate::svc::SvcTrainer`] both solve a
//! box-constrained dual with one coordinate per training row, the single
//! solver of liblinear (Hsieh et al. 2008; Ho & Lin 2012) parameterised by
//! its loss. This module holds the one loop they share, monomorphized over
//! two halves:
//!
//! * a `Loss` — ε-insensitive on the box [−C, C] (`EpsInsensitive`, SVR)
//!   or hinge on [0, C] with ±1 labels (`Hinge`, SVC) — which assembles
//!   each gradient and owns the violation, the shrink rule and the Newton
//!   step;
//! * a gradient source — primal rows that maintain `w = Σ αᵢ sᵢ xᵢ` (sᵢ
//!   the ±1 label under hinge loss, 1 for SVR) and pay an O(d) row dot per
//!   visit, or Gram rows that maintain `Qα` and
//!   read the gradient in O(1) (see [`SolverStrategy`]).
//!
//! The loop (`dual_cd`) owns the per-epoch shuffle, the active set, the
//! unshrink-and-recheck pass, stopping, budget polls and counters. The two
//! [`SolverMode`]s are parameter sets of that same loop:
//!
//! * [`SolverMode::Fast`] (the default) — liblinear-style active-set
//!   **shrinking** (bound-pinned coordinates whose projected gradient
//!   exceeds the previous epoch's worst violation are dropped from the
//!   sweep, with a full unshrink-and-recheck pass before convergence is
//!   declared), warm-started duals, the blocked
//!   [`frac_dataset::DesignView::row_dot_blocked`] kernels over a packed
//!   gather, and a division-free shuffle. Iteration order differs from the
//!   reference, so results agree with it only to solver tolerance — the
//!   equivalence tests gate on the dual objective, not bits.
//! * [`SolverMode::Strict`] — the reference: the exact sequential
//!   `row_dot_acc` / `axpy_row` kernels, the reference `SliceRandom`
//!   shuffle, no shrinking, warm starts ignored. Its results depend only on
//!   (data, config) and are bit-reproducible across machines;
//!   `crates/learn/tests/dual_cd_reference.rs` pins them against a
//!   standalone copy of the original strict solvers.
//!
//! Every solve reports its work to the run's telemetry session once, off
//! the inner loop: one `solver_solves`, its epochs and coordinate visits,
//! and one `solver_capped` when it stopped on its epoch cap before meeting
//! the tolerance (see [`crate::telemetry::Counter`]).

use std::rc::Rc;

use crate::budget::TargetBudget;
use crate::fault::TrainError;
use crate::telemetry;
use frac_dataset::split::derive_seed;
use frac_dataset::{DesignView, PackedDesign};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Row access for the primal gradient source.
///
/// Three implementors: [`frac_dataset::PackedDesign`] — rows gathered into
/// one contiguous buffer per solve, so the monomorphized hot loop makes a
/// single unsegmented kernel call per visit; `dyn DesignView`, the
/// zero-copy fallback for designs beyond the packing budget
/// ([`PackedDesign::MAX_ELEMS`]); and [`Sequential`], the strict reference
/// kernels.
pub(crate) trait SolverRows {
    /// Number of rows.
    fn n_rows(&self) -> usize;
    /// Number of design columns.
    fn n_cols(&self) -> usize;
    /// `init + w · row(r)`.
    fn dot(&self, r: usize, w: &[f64], init: f64) -> f64;
    /// `Σ_j row(r)[j]²`.
    fn sq_norm(&self, r: usize) -> f64;
    /// `w += alpha · row(r)`.
    fn axpy(&self, r: usize, alpha: f64, w: &mut [f64]);
}

impl SolverRows for PackedDesign {
    fn n_rows(&self) -> usize {
        PackedDesign::n_rows(self)
    }

    fn n_cols(&self) -> usize {
        PackedDesign::n_cols(self)
    }

    fn dot(&self, r: usize, w: &[f64], init: f64) -> f64 {
        self.row_dot_blocked(r, w, init)
    }

    fn sq_norm(&self, r: usize) -> f64 {
        self.row_sq_norm_blocked(r)
    }

    fn axpy(&self, r: usize, alpha: f64, w: &mut [f64]) {
        self.axpy_row_blocked(r, alpha, w);
    }
}

impl SolverRows for dyn DesignView + '_ {
    fn n_rows(&self) -> usize {
        DesignView::n_rows(self)
    }

    fn n_cols(&self) -> usize {
        DesignView::n_cols(self)
    }

    fn dot(&self, r: usize, w: &[f64], init: f64) -> f64 {
        self.row_dot_blocked(r, w, init)
    }

    fn sq_norm(&self, r: usize) -> f64 {
        self.row_sq_norm_blocked(r)
    }

    fn axpy(&self, r: usize, alpha: f64, w: &mut [f64]) {
        self.axpy_row_blocked(r, alpha, w);
    }
}

/// The strict parameter set's rows: a view through its exact sequential
/// kernels, which fold in ascending column order on every view type.
pub(crate) struct Sequential<'a>(pub &'a dyn DesignView);

impl SolverRows for Sequential<'_> {
    fn n_rows(&self) -> usize {
        self.0.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.0.n_cols()
    }

    fn dot(&self, r: usize, w: &[f64], init: f64) -> f64 {
        self.0.row_dot_acc(r, w, init)
    }

    fn sq_norm(&self, r: usize) -> f64 {
        self.0.row_sq_norm(r)
    }

    fn axpy(&self, r: usize, alpha: f64, w: &mut [f64]) {
        self.0.axpy_row(r, alpha, w);
    }
}

/// Gather `x` for the fast loop, or `None` when it exceeds the packing
/// budget (the caller then keeps the zero-copy view path).
///
/// When a solve context is active (see [`pack_cache`]) and a cached gather
/// matches it exactly, the cached [`PackedDesign`] is reused instead of
/// re-gathered — ensemble members and one-vs-rest classes of the same
/// (target, fold) problem then share one gather.
pub(crate) fn pack_for_solve(x: &dyn DesignView) -> Option<Rc<PackedDesign>> {
    if let Some(hit) = pack_cache::lookup(x.n_rows(), x.n_cols()) {
        return Some(hit);
    }
    let rc = Rc::new(PackedDesign::from_view(x)?);
    pack_cache::store(&rc);
    Some(rc)
}

/// The Gram matrix for `packed` with the bias augmentation folded in, from
/// the solve-context cache when one matches (members and one-vs-rest
/// classes then share one O(n²d) build) or built fresh. The budget is
/// polled once per Gram row during a build. The flag is true when this
/// call actually built Q (the caller charges the build flops then).
pub(crate) fn gram_for_solve(
    packed: &Rc<PackedDesign>,
    bias_sq: f64,
    budget: &TargetBudget,
) -> Result<(Rc<GramMatrix>, bool), TrainError> {
    if let Some(hit) = pack_cache::lookup_gram(packed, bias_sq) {
        return Ok((hit, false));
    }
    let gram = Rc::new(GramMatrix::build(packed, bias_sq, budget)?);
    pack_cache::store_gram(packed, bias_sq, &gram);
    Ok((gram, true))
}

/// Which gradient source the fast dual coordinate-descent loop uses.
///
/// * `Primal` — maintain `w = Xᵀα` and evaluate each gradient with an
///   O(d) row dot (the PR 2/PR 6 path).
/// * `Gram` — precompute `Q = XXᵀ` (bias folded in) once per solve and
///   maintain the dual gradient vector, making a coordinate visit an O(1)
///   gradient read plus an O(n) row-of-Q update; `w` is reconstructed once
///   at convergence. Wins when n ≪ d and Q fits in cache.
/// * `Auto` — pick per solve via [`GramPolicy::should_use_gram`] on the
///   default policy.
///
/// Honoured only by [`SolverMode::Fast`]; the strict reference path always
/// runs the exact sequential primal sweep. Gram and primal converge to the
/// same objective (the equivalence gate checks 1e-8), but their rounding
/// and iteration histories differ — like fast-vs-strict, agreement is to
/// solver tolerance, not bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverStrategy {
    /// Cost-model selection per solve (default).
    #[default]
    Auto,
    /// Always use the Gram-matrix dual loop (falls back to primal only
    /// when the design cannot be packed).
    Gram,
    /// Always use the primal-maintenance loop.
    Primal,
}

impl SolverStrategy {
    /// Stable display / serialization name.
    pub fn as_str(self) -> &'static str {
        match self {
            SolverStrategy::Auto => "auto",
            SolverStrategy::Gram => "gram",
            SolverStrategy::Primal => "primal",
        }
    }

    /// Parse a strategy name (`auto` / `gram` / `primal`).
    pub fn parse(s: &str) -> Option<SolverStrategy> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Some(SolverStrategy::Auto),
            "gram" => Some(SolverStrategy::Gram),
            "primal" => Some(SolverStrategy::Primal),
            _ => None,
        }
    }
}

impl std::fmt::Display for SolverStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `solver_strategy` telemetry bit: a fast solve ran the primal loop.
pub const STRATEGY_PRIMAL_CODE: u64 = 1;
/// `solver_strategy` telemetry bit: a fast solve ran the Gram dual loop.
pub const STRATEGY_GRAM_CODE: u64 = 2;

/// Human name(s) for a `solver_strategy` telemetry mask (the OR of the
/// `STRATEGY_*_CODE` bits), comma-joined in flag order. `None` for an
/// empty mask or one with unknown bits (bits 4 and 8 were the retired f32
/// mode's, so traces that carry them decode as unknown).
pub fn describe_strategy_mask(mask: u64) -> Option<String> {
    const FLAGS: [(u64, &str); 2] = [(STRATEGY_PRIMAL_CODE, "primal"), (STRATEGY_GRAM_CODE, "gram")];
    const KNOWN: u64 = STRATEGY_PRIMAL_CODE | STRATEGY_GRAM_CODE;
    if mask == 0 || mask & !KNOWN != 0 {
        return None;
    }
    let names: Vec<&str> =
        FLAGS.iter().filter(|&&(bit, _)| mask & bit != 0).map(|&(_, name)| name).collect();
    Some(names.join(","))
}

/// Cost model deciding when [`SolverStrategy::Auto`] takes the Gram loop.
/// `Auto` always reads [`GramPolicy::default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GramPolicy {
    /// Use Gram only when `n² · 8` bytes fit this budget (inclusive), so Q
    /// stays L1/L2-resident. Default 1 MiB (n ≤ 362).
    pub cache_budget_bytes: usize,
    /// Use Gram only when `d ≥ ratio · n`: below this the O(n) row-of-Q
    /// update is no cheaper than the O(d) primal dot and the build never
    /// amortizes. Default 0.25: per-visit arithmetic alone would put the
    /// crossover near d ≈ n, but a Gram visit whose Newton step is null
    /// costs O(1) (gradient read, no row update) where the primal loop
    /// still pays its O(d) dot, so the crossover measured by a d/n sweep
    /// of solve time sits well below 1.
    pub crossover_ratio: f64,
}

impl Default for GramPolicy {
    fn default() -> Self {
        GramPolicy { cache_budget_bytes: 1 << 20, crossover_ratio: 0.25 }
    }
}

impl GramPolicy {
    /// Whether a fast solve of `n` rows × `d` columns should take the Gram
    /// loop. The byte test is inclusive: `n·n·8 == cache_budget_bytes`
    /// still fits.
    pub fn should_use_gram(&self, n: usize, d: usize) -> bool {
        n > 0
            && d > 0
            && n.saturating_mul(n).saturating_mul(8) <= self.cache_budget_bytes
            && (d as f64) >= self.crossover_ratio * (n as f64)
    }
}

/// A solve's Gram matrix `Q = XXᵀ + bias·𝟙` — n² doubles, symmetric, with
/// the bias augmentation folded into every entry so the dual loops never
/// special-case it. Built with the dispatched SIMD dot kernel over packed
/// rows (upper triangle mirrored), O(n²d/2) once per solve — or once per
/// (target, fold) when the [`pack_cache`] can share it.
#[derive(Debug)]
pub struct GramMatrix {
    q: Vec<f64>,
    n: usize,
}

impl GramMatrix {
    /// Build from packed rows, polling `budget` once per Gram row.
    pub(crate) fn build(
        x: &PackedDesign,
        bias_sq: f64,
        budget: &TargetBudget,
    ) -> Result<GramMatrix, TrainError> {
        let n = x.n_rows();
        let mut q = vec![0.0f64; n * n];
        for i in 0..n {
            budget.check()?;
            let ri = x.row(i);
            for j in 0..=i {
                let v = frac_dataset::kernels::dot_blocked(ri, x.row(j), bias_sq);
                q[i * n + j] = v;
                q[j * n + i] = v;
            }
        }
        Ok(GramMatrix { q, n })
    }

    /// Number of rows (= columns).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row `i` of Q as one contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.q[i * self.n..(i + 1) * self.n]
    }

    /// `Q_ii` (the dual coordinate's curvature, bias included).
    #[inline]
    pub fn diag(&self, i: usize) -> f64 {
        self.q[i * self.n + i]
    }

    /// Resident bytes (for the pack cache's byte cap).
    pub fn approx_bytes(&self) -> usize {
        self.q.len() * std::mem::size_of::<f64>()
    }

    /// Flops of one build over `d` columns: n(n+1)/2 dots of 2d flops.
    pub fn build_flops(n: usize, d: usize) -> u64 {
        (n as u64) * (n as u64 + 1) / 2 * (d as u64) * 2
    }
}

/// Per-thread cache of solve-scoped [`PackedDesign`] gathers and their
/// [`GramMatrix`] builds.
///
/// The fit driver re-solves the same (target, fold) design many times —
/// once per ensemble member, once per one-vs-rest class, plus the final
/// full fit — and each fast solve used to re-gather the rows. The driver
/// brackets those solves with [`pack_cache::begin_scope`] (one scope per
/// fitted predictor problem) and [`pack_cache::set_rows`] (the exact
/// train-row indices of the
/// upcoming solve); `pack_for_solve` then reuses a cached gather only when
/// the stored row indices and the view shape match exactly, so a stale or
/// missing context degrades to a fresh gather, never a wrong one.
///
/// Thread-local on purpose: the fit fleet runs one target per rayon
/// thread, so entries never cross targets mid-problem, and `Rc` keeps the
/// hot path free of atomics.
pub mod pack_cache {
    use super::GramMatrix;
    use frac_dataset::PackedDesign;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Byte cap per thread across packed buffers and Gram matrices; the
    /// oldest entries are evicted past it.
    const MAX_BYTES: usize = 16 << 20;

    struct Entry {
        slot: u64,
        rows: Vec<usize>,
        packed: Rc<PackedDesign>,
        gram: Option<(u64, Rc<GramMatrix>)>,
    }

    impl Entry {
        fn bytes(&self) -> usize {
            self.packed.approx_bytes()
                + self.gram.as_ref().map_or(0, |(_, g)| g.approx_bytes())
                + self.rows.len() * std::mem::size_of::<usize>()
        }
    }

    struct State {
        /// Whether any scope was ever begun on this thread: `set_rows` is
        /// inert until then, so code paths shared with direct trainer users
        /// (the CV drivers) can declare rows unconditionally without risking
        /// stale hits outside a scoped fit.
        begun: bool,
        scope: u64,
        active: Option<(u64, Vec<usize>)>,
        entries: Vec<Entry>,
    }

    thread_local! {
        static STATE: RefCell<State> = const {
            RefCell::new(State { begun: false, scope: 0, active: None, entries: Vec::new() })
        };
    }

    /// Enter a solve scope (one per fitted predictor problem: target ×
    /// input set × fit). A scope change drops every cached entry; the
    /// caller must pick keys that never collide across different designs
    /// (e.g. hash of a per-fit nonce, target id, and input set).
    pub fn begin_scope(scope: u64) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            if !s.begun || s.scope != scope {
                s.scope = scope;
                s.entries.clear();
            }
            s.begun = true;
            s.active = None;
        });
    }

    /// Declare the train rows of the next solve(s): `slot` names the fold
    /// (or final fit) and `rows` are the exact row indices, compared
    /// verbatim on lookup. Stays active until the next `set_rows` /
    /// `clear_rows` / `begin_scope`.
    pub fn set_rows(slot: u64, rows: &[usize]) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            if s.begun {
                s.active = Some((slot, rows.to_vec()));
            }
        });
    }

    /// Clear the active solve context (subsequent solves bypass the cache).
    pub fn clear_rows() {
        STATE.with(|s| s.borrow_mut().active = None);
    }

    pub(crate) fn lookup(n_rows: usize, n_cols: usize) -> Option<Rc<PackedDesign>> {
        STATE.with(|s| {
            let s = s.borrow();
            let (slot, rows) = s.active.as_ref()?;
            if rows.len() != n_rows {
                return None;
            }
            s.entries
                .iter()
                .find(|e| {
                    e.slot == *slot
                        && e.rows == *rows
                        && e.packed.n_rows() == n_rows
                        && e.packed.n_cols() == n_cols
                })
                .map(|e| Rc::clone(&e.packed))
        })
    }

    pub(crate) fn store(packed: &Rc<PackedDesign>) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let Some((slot, rows)) = s.active.clone() else { return };
            if rows.len() != packed.n_rows() {
                return;
            }
            s.entries.retain(|e| e.slot != slot);
            s.entries.push(Entry { slot, rows, packed: Rc::clone(packed), gram: None });
            evict(&mut s.entries);
        });
    }

    pub(crate) fn lookup_gram(packed: &Rc<PackedDesign>, bias_sq: f64) -> Option<Rc<GramMatrix>> {
        STATE.with(|s| {
            s.borrow()
                .entries
                .iter()
                .find(|e| Rc::ptr_eq(&e.packed, packed))
                .and_then(|e| e.gram.as_ref())
                .filter(|(bits, _)| *bits == bias_sq.to_bits())
                .map(|(_, g)| Rc::clone(g))
        })
    }

    pub(crate) fn store_gram(packed: &Rc<PackedDesign>, bias_sq: f64, gram: &Rc<GramMatrix>) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(e) = s.entries.iter_mut().find(|e| Rc::ptr_eq(&e.packed, packed)) {
                e.gram = Some((bias_sq.to_bits(), Rc::clone(gram)));
            }
            evict(&mut s.entries);
        });
    }

    fn evict(entries: &mut Vec<Entry>) {
        let mut total: usize = entries.iter().map(Entry::bytes).sum();
        while total > MAX_BYTES && entries.len() > 1 {
            total -= entries.remove(0).bytes();
        }
    }
}

/// Which parameter set the dual coordinate-descent loop runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// Shrinking + warm starts + blocked kernels (default).
    #[default]
    Fast,
    /// The reference: full sweeps, exact sequential kernels.
    Strict,
}

/// Fisher–Yates with multiply-shift index sampling (Lemire) — no integer
/// division. The fast parameter set shuffles the active set every epoch,
/// so the reference shuffle's rejection sampling (two 64-bit divisions per
/// element) is measurable next to a blocked dot over a short row. The
/// permutation is still a pure function of the RNG stream, just a
/// different one than `SliceRandom::shuffle` draws — covered by the fast
/// path's "iteration order differs from the reference" contract. Strict
/// keeps the reference shuffle.
fn shuffle_fast(v: &mut [usize], rng: &mut impl rand::RngCore) {
    for i in (1..v.len()).rev() {
        let j = (((rng.next_u64() as u128) * (i as u128 + 1)) >> 64) as usize;
        v.swap(i, j);
    }
}

/// What one coordinate's Newton step does to its dual.
pub(crate) enum Step {
    /// Leave the dual where it is.
    Hold,
    /// Move the dual to this value (clamped into the box) and fold the
    /// change into the gradient source.
    To(f64),
    /// Zero the dual without touching the gradient source: the row is
    /// empty, so the objective is linear in this coordinate.
    Zero,
}

/// The loss half of a dual coordinate-descent solve: the box, the
/// gradient assembly, the violation, the shrink rule and the Newton step.
pub(crate) trait Loss {
    /// Clamp a warm-start dual into the feasible box.
    fn clamp(&self, a: f64) -> f64;
    /// The multiplier `sᵢ` with `w = Σ αᵢ sᵢ xᵢ` (the label under hinge
    /// loss, 1 under ε-insensitive loss).
    fn sign(&self, i: usize) -> f64;
    /// The dual gradient of coordinate `i`.
    fn gradient<G: GradientSource>(&self, src: &G, i: usize) -> f64;
    /// Whether a coordinate pinned at a bound has a gradient pointing out
    /// of the box by more than `thr`, so the sweep can drop it until the
    /// recheck.
    fn shrink(&self, a: f64, g: f64, thr: f64) -> bool;
    /// Projected-gradient violation (liblinear's stopping criterion): at a
    /// bound, only a gradient pointing back into the box counts.
    fn violation(&self, a: f64, g: f64) -> f64;
    /// The Newton step on coordinate curvature `h`, given the violation
    /// just computed.
    fn step(&self, a: f64, g: f64, h: f64, violation: f64) -> Step;
}

/// ε-insensitive loss (SVR): duals βᵢ ∈ [−C, C], gradient `w·xᵢ − yᵢ`
/// shifted by ±ε on either side of zero.
pub(crate) struct EpsInsensitive<'a> {
    /// Regression targets.
    pub y: &'a [f64],
    /// Box bound C.
    pub c: f64,
    /// Tube half-width ε.
    pub epsilon: f64,
}

impl Loss for EpsInsensitive<'_> {
    #[inline]
    fn clamp(&self, a: f64) -> f64 {
        a.clamp(-self.c, self.c)
    }

    #[inline]
    fn sign(&self, _i: usize) -> f64 {
        1.0
    }

    /// The primal source folds `−yᵢ` into its dot's initial value; the
    /// Gram source adds it after reading `(Qβ)ᵢ`.
    #[inline]
    fn gradient<G: GradientSource>(&self, src: &G, i: usize) -> f64 {
        src.margin(i, -self.y[i])
    }

    #[inline]
    fn shrink(&self, b: f64, g: f64, thr: f64) -> bool {
        let (gp, gn) = (g + self.epsilon, g - self.epsilon);
        if b == 0.0 {
            gp > thr && gn < -thr
        } else if b >= self.c {
            gp < -thr
        } else if b <= -self.c {
            gn > thr
        } else {
            false
        }
    }

    #[inline]
    fn violation(&self, b: f64, g: f64) -> f64 {
        let (gp, gn) = (g + self.epsilon, g - self.epsilon);
        if b == 0.0 {
            if gp < 0.0 {
                -gp
            } else if gn > 0.0 {
                gn
            } else {
                0.0
            }
        } else if b >= self.c {
            gp.max(0.0)
        } else if b <= -self.c {
            (-gn).max(0.0)
        } else if b > 0.0 {
            gp.abs()
        } else {
            gn.abs()
        }
    }

    /// Newton step on the piecewise-quadratic dual coordinate.
    #[inline]
    fn step(&self, b: f64, g: f64, h: f64, _violation: f64) -> Step {
        if h <= 0.0 {
            return Step::Zero;
        }
        let (gp, gn) = (g + self.epsilon, g - self.epsilon);
        let dstep = if gp < h * b {
            -gp / h
        } else if gn > h * b {
            -gn / h
        } else {
            -b
        };
        if dstep.abs() >= 1e-14 {
            Step::To((b + dstep).clamp(-self.c, self.c))
        } else {
            Step::Hold
        }
    }
}

/// Hinge loss (binary C-SVC): duals αᵢ ∈ [0, C], labels ±1, gradient
/// `yᵢ (w·xᵢ) − 1`.
pub(crate) struct Hinge<'a> {
    /// ±1 labels.
    pub labels: &'a [f64],
    /// Box bound C.
    pub c: f64,
}

impl Loss for Hinge<'_> {
    #[inline]
    fn clamp(&self, a: f64) -> f64 {
        a.clamp(0.0, self.c)
    }

    #[inline]
    fn sign(&self, i: usize) -> f64 {
        self.labels[i]
    }

    /// `−0.0` is the exact additive identity, so the margin carries no
    /// offset on either source.
    #[inline]
    fn gradient<G: GradientSource>(&self, src: &G, i: usize) -> f64 {
        self.labels[i] * src.margin(i, -0.0) - 1.0
    }

    #[inline]
    fn shrink(&self, a: f64, g: f64, thr: f64) -> bool {
        if a == 0.0 {
            g > thr
        } else if a >= self.c {
            g < -thr
        } else {
            false
        }
    }

    #[inline]
    fn violation(&self, a: f64, g: f64) -> f64 {
        let pg = if a == 0.0 {
            g.min(0.0)
        } else if a >= self.c {
            g.max(0.0)
        } else {
            g
        };
        pg.abs()
    }

    #[inline]
    fn step(&self, a: f64, g: f64, h: f64, violation: f64) -> Step {
        if violation > 1e-14 && h > 0.0 {
            Step::To((a - g / h).clamp(0.0, self.c))
        } else {
            Step::Hold
        }
    }
}

/// The gradient half of a dual coordinate-descent solve.
pub(crate) trait GradientSource {
    /// `Q_ii`, the coordinate's curvature (bias included).
    fn diag(&self, i: usize) -> f64;
    /// `init + w·xᵢ + w_bias·bias²` (primal, `init` folded into the dot)
    /// or `(Qα)ᵢ + init` (Gram).
    fn margin(&self, i: usize, init: f64) -> f64;
    /// Fold a dual change, already multiplied by the loss's sign, into the
    /// maintained state.
    fn update(&mut self, i: usize, coef: f64);
}

/// Primal rows: maintains `w` and `w_bias` (bias as a constant feature).
struct Primal<'a, R: SolverRows + ?Sized> {
    rows: &'a R,
    q_diag: Vec<f64>,
    w: Vec<f64>,
    w_bias: f64,
    bias_sq: f64,
}

impl<'a, R: SolverRows + ?Sized> Primal<'a, R> {
    fn new(rows: &'a R, bias_sq: f64) -> Self {
        // Q_ii = x_i·x_i (+1 for the bias augmentation).
        let q_diag = (0..rows.n_rows()).map(|i| rows.sq_norm(i) + bias_sq).collect();
        Primal { rows, q_diag, w: vec![0.0; rows.n_cols()], w_bias: 0.0, bias_sq }
    }
}

impl<R: SolverRows + ?Sized> GradientSource for Primal<'_, R> {
    #[inline]
    fn diag(&self, i: usize) -> f64 {
        self.q_diag[i]
    }

    #[inline]
    fn margin(&self, i: usize, init: f64) -> f64 {
        self.rows.dot(i, &self.w, init + self.w_bias * self.bias_sq)
    }

    #[inline]
    fn update(&mut self, i: usize, coef: f64) {
        self.rows.axpy(i, coef, &mut self.w);
        self.w_bias += coef * self.bias_sq;
    }
}

/// Gram rows: maintains `qa = Qα` (each entry already `w·xᵢ + w_bias·bias²`
/// because Q folds the bias in); `w` is rebuilt once at the end.
struct GramRows<'a> {
    q: &'a GramMatrix,
    qa: Vec<f64>,
}

impl GradientSource for GramRows<'_> {
    #[inline]
    fn diag(&self, i: usize) -> f64 {
        self.q.diag(i)
    }

    #[inline]
    fn margin(&self, i: usize, init: f64) -> f64 {
        self.qa[i] + init
    }

    #[inline]
    fn update(&mut self, i: usize, coef: f64) {
        frac_dataset::kernels::axpy_blocked(coef, self.q.row(i), &mut self.qa);
    }
}

/// Loop parameters shared by every loss and source.
struct Sweep {
    max_epochs: u64,
    tolerance: f64,
    seed: u64,
    /// The strict parameter set: reference shuffle, no shrinking, warm
    /// start ignored.
    strict: bool,
}

/// The work one [`dual_cd`] run did.
pub(crate) struct Work {
    /// Epochs run.
    pub epochs: u64,
    /// Coordinates whose gradient was evaluated (`epochs · n` under
    /// strict; fewer under shrinking).
    pub visits: u64,
    /// The loop stopped on `max_epochs` without meeting the tolerance.
    pub capped: bool,
}

/// The dual coordinate-descent loop: returns the duals and the [`Work`]
/// it took. The budget is polled once per epoch.
fn dual_cd<L: Loss, G: GradientSource>(
    loss: &L,
    src: &mut G,
    n: usize,
    warm: Option<&[f64]>,
    sweep: &Sweep,
    budget: &TargetBudget,
) -> Result<(Vec<f64>, Work), TrainError> {
    let mut alpha = vec![0.0f64; n];
    if let Some(warm) = warm.filter(|_| !sweep.strict) {
        debug_assert_eq!(warm.len(), n, "warm-start dual length must match rows");
        for (i, &wv) in warm.iter().enumerate() {
            // Any feasible point is a valid start, so a caller may pass
            // duals fit under a different C.
            let a = loss.clamp(wv);
            if a != 0.0 {
                alpha[i] = a;
                src.update(i, a * loss.sign(i));
            }
        }
    }

    let mut active: Vec<usize> = (0..n).collect();
    let mut shrink_thr = f64::INFINITY;
    let mut epochs = 0u64;
    let mut visits = 0u64;
    let mut converged = false;
    while epochs < sweep.max_epochs {
        budget.check()?;
        let mut rng = StdRng::seed_from_u64(derive_seed(sweep.seed, epochs));
        if sweep.strict {
            active.shuffle(&mut rng);
        } else {
            shuffle_fast(&mut active, &mut rng);
        }
        let mut max_violation = 0.0f64;

        let mut idx = 0usize;
        while idx < active.len() {
            let i = active[idx];
            let g = loss.gradient(src, i);
            visits += 1;
            let a = alpha[i];
            if loss.shrink(a, g, shrink_thr) {
                active.swap_remove(idx);
                continue;
            }
            let violation = loss.violation(a, g);
            max_violation = max_violation.max(violation);
            match loss.step(a, g, src.diag(i), violation) {
                Step::Hold => {}
                Step::Zero => alpha[i] = 0.0,
                Step::To(a_new) => {
                    let delta = a_new - a;
                    if delta != 0.0 {
                        alpha[i] = a_new;
                        src.update(i, delta * loss.sign(i));
                    }
                }
            }
            idx += 1;
        }

        epochs += 1;
        if max_violation < sweep.tolerance {
            if active.len() == n {
                converged = true;
                break;
            }
            // Unshrink and recheck: restore every coordinate and run one
            // full pass with shrinking disabled (infinite threshold).
            active = (0..n).collect();
            shrink_thr = f64::INFINITY;
        } else if !sweep.strict {
            shrink_thr = max_violation;
        }
    }
    Ok((alpha, Work { epochs, visits, capped: !converged }))
}

/// How a training call's rows reach the loop, chosen once per call so
/// one-vs-rest classes share one gather and one Gram build.
pub(crate) enum Rows {
    /// The strict parameter set over the exact sequential kernels.
    Strict,
    /// Fast, over the zero-copy view (the design was too large to pack).
    View,
    /// Fast primal over a packed gather.
    Packed(Rc<PackedDesign>),
    /// Fast Gram over a packed gather and its Q.
    Gram(Rc<PackedDesign>, Rc<GramMatrix>),
}

impl Rows {
    /// Pick the rows for `x` under `mode` and `strategy`. Also returns the
    /// flops of a Gram build this call paid for (0 on a cache hit).
    pub(crate) fn prepare(
        x: &dyn DesignView,
        mode: SolverMode,
        strategy: SolverStrategy,
        bias_sq: f64,
        budget: &TargetBudget,
    ) -> Result<(Rows, u64), TrainError> {
        let (n, d) = (x.n_rows(), x.n_cols());
        if mode == SolverMode::Strict {
            return Ok((Rows::Strict, 0));
        }
        let packed = if n > 0 { pack_for_solve(x) } else { None };
        let Some(packed) = packed else { return Ok((Rows::View, 0)) };
        let use_gram = match strategy {
            SolverStrategy::Primal => false,
            SolverStrategy::Gram => true,
            SolverStrategy::Auto => GramPolicy::default().should_use_gram(n, d),
        };
        if !use_gram {
            return Ok((Rows::Packed(packed), 0));
        }
        let (gram, built) = gram_for_solve(&packed, bias_sq, budget)?;
        let flops = if built { GramMatrix::build_flops(n, d) } else { 0 };
        Ok((Rows::Gram(packed, gram), flops))
    }
}

/// Per-solve settings taken from a trainer's config.
pub(crate) struct DualParams {
    /// Epoch cap.
    pub max_epochs: usize,
    /// Stop once an epoch's worst violation falls below this.
    pub tolerance: f64,
    /// Seed of the per-epoch permutations.
    pub seed: u64,
    /// 1 with a bias term (constant-feature augmentation), else 0.
    pub bias_sq: f64,
}

/// The result of one dual solve.
pub(crate) struct DualSolve {
    /// Primal weights.
    pub w: Vec<f64>,
    /// Bias weight (meaningful only when the bias is on).
    pub w_bias: f64,
    /// Final duals, one per row.
    pub alpha: Vec<f64>,
    /// The loop's work, reported to telemetry by [`solve`].
    pub work: Work,
    /// `STRATEGY_*` bits of the source used (0 under strict).
    pub path_bits: u64,
    /// Flops performed, priced per source: O(d) per primal visit, O(n)
    /// per Gram visit plus the final `w` rebuild. A Gram build is charged
    /// by [`Rows::prepare`]'s caller, not here.
    pub flops: u64,
}

/// Run one dual solve of `loss` over `x` through `rows`, and record its
/// work in the telemetry counters. The caller holds the
/// [`telemetry::Stage::Solve`] span, which also covers [`Rows::prepare`].
pub(crate) fn solve<L: Loss>(
    loss: &L,
    x: &dyn DesignView,
    rows: &Rows,
    warm: Option<&[f64]>,
    params: &DualParams,
    budget: &TargetBudget,
) -> Result<DualSolve, TrainError> {
    let (n, d) = (x.n_rows(), x.n_cols());
    let sweep = Sweep {
        max_epochs: params.max_epochs as u64,
        tolerance: params.tolerance,
        seed: params.seed,
        strict: matches!(rows, Rows::Strict),
    };
    let out = match rows {
        Rows::Strict => run_primal(loss, &Sequential(x), warm, &sweep, params.bias_sq, budget, 0)?,
        Rows::View => {
            run_primal(loss, x, warm, &sweep, params.bias_sq, budget, STRATEGY_PRIMAL_CODE)?
        }
        Rows::Packed(p) => run_primal(
            loss,
            p.as_ref(),
            warm,
            &sweep,
            params.bias_sq,
            budget,
            STRATEGY_PRIMAL_CODE,
        )?,
        Rows::Gram(p, q) => {
            let mut src = GramRows { q, qa: vec![0.0; n] };
            let (alpha, work) = dual_cd(loss, &mut src, n, warm, &sweep, budget)?;
            // Rebuild the primal once: w = Σ αᵢ sᵢ xᵢ over the support.
            let mut w = vec![0.0f64; d];
            let mut w_bias = 0.0f64;
            let mut nnz = 0u64;
            for (i, &a) in alpha.iter().enumerate() {
                if a != 0.0 {
                    let scaled = a * loss.sign(i);
                    p.axpy_row_blocked(i, scaled, &mut w);
                    w_bias += scaled * params.bias_sq;
                    nnz += 1;
                }
            }
            // Per visit: O(1) gradient + O(n+1) row-of-Q axpy (~4 flops
            // per entry); plus the O(nnz·d) rebuild.
            let flops = work.visits * ((n as u64) + 1) * 4 + nnz * ((d as u64) + 1) * 2;
            DualSolve { w, w_bias, alpha, work, path_bits: STRATEGY_GRAM_CODE, flops }
        }
    };
    telemetry::counter_add(telemetry::Counter::SolverSolves, 1);
    telemetry::counter_add(telemetry::Counter::SolverEpochs, out.work.epochs);
    telemetry::counter_add(telemetry::Counter::SolverVisits, out.work.visits);
    telemetry::counter_add(telemetry::Counter::SolverCapped, u64::from(out.work.capped));
    if out.path_bits != 0 {
        telemetry::counter_add(telemetry::Counter::SolverStrategy, out.path_bits);
    }
    Ok(out)
}

/// [`dual_cd`] over primal rows.
fn run_primal<L: Loss, R: SolverRows + ?Sized>(
    loss: &L,
    rows: &R,
    warm: Option<&[f64]>,
    sweep: &Sweep,
    bias_sq: f64,
    budget: &TargetBudget,
    path_bits: u64,
) -> Result<DualSolve, TrainError> {
    let mut src = Primal::new(rows, bias_sq);
    let (alpha, work) = dual_cd(loss, &mut src, rows.n_rows(), warm, sweep, budget)?;
    // Every visit touches its (d+1) augmented columns twice (gradient +
    // update), ~4 flops each.
    let flops = work.visits * ((rows.n_cols() as u64) + 1) * 4;
    Ok(DualSolve { w: src.w, w_bias: src.w_bias, alpha, work, path_bits, flops })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_fast() {
        assert_eq!(SolverMode::default(), SolverMode::Fast);
    }

    #[test]
    fn strategy_parse_round_trips() {
        for s in [SolverStrategy::Auto, SolverStrategy::Gram, SolverStrategy::Primal] {
            assert_eq!(SolverStrategy::parse(s.as_str()), Some(s));
        }
        assert_eq!(SolverStrategy::parse("GRAM"), Some(SolverStrategy::Gram));
        assert_eq!(SolverStrategy::parse("dual"), None);
        assert_eq!(SolverStrategy::default(), SolverStrategy::Auto);
    }

    #[test]
    fn describe_strategy_mask_names_flags() {
        assert_eq!(describe_strategy_mask(STRATEGY_PRIMAL_CODE).as_deref(), Some("primal"));
        assert_eq!(describe_strategy_mask(STRATEGY_GRAM_CODE).as_deref(), Some("gram"));
        assert_eq!(
            describe_strategy_mask(STRATEGY_PRIMAL_CODE | STRATEGY_GRAM_CODE).as_deref(),
            Some("primal,gram")
        );
        assert_eq!(describe_strategy_mask(0), None);
        // Bits 4 and 8 belonged to the retired f32 mode: unknown now.
        assert_eq!(describe_strategy_mask(4), None);
        assert_eq!(describe_strategy_mask(STRATEGY_GRAM_CODE | 8), None);
        assert_eq!(describe_strategy_mask(16), None);
        assert_eq!(describe_strategy_mask(1 | 16), None);
    }

    #[test]
    fn gram_policy_crossover_cost_model() {
        let p = GramPolicy { cache_budget_bytes: 8 * 10 * 10, crossover_ratio: 2.0 };
        // Tiny n, wide d: Gram.
        assert!(p.should_use_gram(10, 400));
        // Exact byte boundary is inclusive: n·n·8 == budget still fits.
        assert_eq!(10 * 10 * 8, p.cache_budget_bytes);
        assert!(p.should_use_gram(10, 20));
        // One row over the budget: primal.
        assert!(!p.should_use_gram(11, 400));
        // Wide-enough budget but d/n below the crossover ratio: primal.
        assert!(!p.should_use_gram(10, 19));
        // Exact crossover ratio is inclusive.
        assert!(p.should_use_gram(10, 20));
        // Degenerate shapes never take Gram.
        assert!(!p.should_use_gram(0, 400));
        assert!(!p.should_use_gram(10, 0));
        // Large n always falls back regardless of width.
        assert!(!GramPolicy::default().should_use_gram(100_000, usize::MAX / 100_000));
        // The shipped default: 1 MiB budget (n ≤ 362), measured crossover
        // ratio 0.25 (a d/n sweep of solve time).
        let default = GramPolicy::default();
        assert_eq!(default.cache_budget_bytes, 1 << 20);
        assert_eq!(default.crossover_ratio, 0.25);
        assert!(default.should_use_gram(48, 12)); // d/n exactly at ratio
        assert!(!default.should_use_gram(48, 11)); // just below
        assert!(default.should_use_gram(362, 91)); // n at the byte budget
        assert!(!default.should_use_gram(363, 91)); // one row over
    }

    #[test]
    fn gram_matrix_is_symmetric_with_bias_folded() {
        use frac_dataset::DesignMatrix;
        let x = DesignMatrix::from_raw(3, 2, vec![1.0, 2.0, -0.5, 0.25, 3.0, -1.0]);
        let packed = std::rc::Rc::new(PackedDesign::from_view(&x).unwrap());
        let q = GramMatrix::build(&packed, 1.0, &TargetBudget::unlimited()).unwrap();
        assert_eq!(q.n(), 3);
        for i in 0..3 {
            for j in 0..3 {
                let expect: f64 = (0..2).map(|c| x.get(i, c) * x.get(j, c)).sum::<f64>() + 1.0;
                assert!((q.row(i)[j] - expect).abs() < 1e-12, "Q[{i},{j}]");
                assert_eq!(q.row(i)[j].to_bits(), q.row(j)[i].to_bits(), "symmetry");
            }
        }
        assert_eq!(q.diag(1), q.row(1)[1]);
    }

    #[test]
    fn pack_cache_reuses_gather_only_on_exact_row_match() {
        use frac_dataset::DesignMatrix;
        let x = DesignMatrix::from_raw(4, 2, vec![0.0; 8]);
        pack_cache::begin_scope(0xDEAD);
        pack_cache::set_rows(7, &[0, 1, 2, 3]);
        let a = pack_for_solve(&x).unwrap();
        let b = pack_for_solve(&x).unwrap();
        assert!(Rc::ptr_eq(&a, &b), "same scope+slot+rows must reuse the gather");
        // Same slot, different rows: exact row comparison rejects reuse.
        pack_cache::set_rows(7, &[0, 1, 3, 2]);
        let c = pack_for_solve(&x).unwrap();
        assert!(!Rc::ptr_eq(&a, &c));
        // Scope change drops everything.
        pack_cache::begin_scope(0xBEEF);
        pack_cache::set_rows(7, &[0, 1, 3, 2]);
        let f = pack_for_solve(&x).unwrap();
        assert!(!Rc::ptr_eq(&c, &f));
        // No active context: packs are fresh every time.
        pack_cache::clear_rows();
        let g = pack_for_solve(&x).unwrap();
        let h = pack_for_solve(&x).unwrap();
        assert!(!Rc::ptr_eq(&g, &h));
        pack_cache::begin_scope(0);
    }

    #[test]
    fn gram_cache_shares_q_per_pack_and_bias() {
        use frac_dataset::DesignMatrix;
        let x = DesignMatrix::from_raw(3, 4, (0..12).map(|v| v as f64).collect());
        pack_cache::begin_scope(0xCAFE);
        pack_cache::set_rows(1, &[0, 1, 2]);
        let packed = pack_for_solve(&x).unwrap();
        let unlimited = TargetBudget::unlimited();
        let (q1, built1) = gram_for_solve(&packed, 1.0, &unlimited).unwrap();
        let (q2, built2) = gram_for_solve(&packed, 1.0, &unlimited).unwrap();
        assert!(built1 && !built2, "second solve must reuse the cached build");
        assert!(Rc::ptr_eq(&q1, &q2), "same pack + bias must share one Q build");
        let (q3, built3) = gram_for_solve(&packed, 0.0, &unlimited).unwrap();
        assert!(built3, "bias change invalidates the cached Q");
        assert!(!Rc::ptr_eq(&q1, &q3));
        pack_cache::begin_scope(0);
    }
}
