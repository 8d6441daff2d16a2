//! End-to-end telemetry gate.
//!
//! The contract under test: a [`TelemetrySession`] around a full fit —
//! including fits degraded by arbitrary injected faults — always drains a
//! *well-nested* span tree (every parent resolves, children stay inside
//! their parent's extent and thread, sibling durations sum to at most the
//! parent's), and recording never perturbs the model: scores are
//! bit-identical with and without a live session. The work counters a
//! session drains are the same at any thread count, and the solver
//! counters account for every solve that stopped on its epoch cap.

use frac_core::fault::INJECTED_PANIC;
use frac_core::telemetry::{Counter, Stage, TelemetryReport, TelemetrySession};
use frac_core::{FaultPlan, FitOptions, FracConfig, FracModel, RealModel, TrainingPlan};
use frac_dataset::Dataset;
use frac_learn::SvrConfig;
use frac_synth::snp::CohortGroup;
use frac_synth::{
    ExpressionConfig, ExpressionGenerator, SnpConfig, SnpGenerator, SubpopulationMix,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, Once};

/// One live session per process: tests that start a session serialize on
/// this lock (a poisoned lock just means a previous test failed — the
/// session it held is already torn down by `Drop`).
static SESSION_LOCK: Mutex<()> = Mutex::new(());

fn session_lock() -> std::sync::MutexGuard<'static, ()> {
    SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Suppress the default "thread panicked" stderr spew for *injected* panics
/// only; real panics still report normally.
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(INJECTED_PANIC))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(INJECTED_PANIC));
            if !injected {
                prev(info);
            }
        }));
    });
}

fn expr_data(n_rows: usize, n_features: usize, seed: u64) -> Dataset {
    let (data, _) = ExpressionGenerator::new(ExpressionConfig {
        n_features,
        n_modules: 3,
        anomaly_modules: 1,
        structure_seed: seed,
        ..ExpressionConfig::default()
    })
    .generate(n_rows, 0, seed ^ 0x5EED);
    data
}

fn snp_data(n_rows: usize, n_snps: usize, seed: u64) -> Dataset {
    let gen = SnpGenerator::new(SnpConfig {
        n_snps,
        ld_block_size: 4,
        n_subpops: 2,
        structure_seed: seed,
        ..SnpConfig::default()
    });
    let groups = [CohortGroup { n: n_rows, mix: SubpopulationMix::uniform(2), is_case: false }];
    gen.generate(&groups, seed ^ 0x5EED).0
}

/// Trace one plain fit and return the report its session drained.
fn traced_fit(train: &Dataset, config: &FracConfig) -> TelemetryReport {
    let session = TelemetrySession::start().expect("no other session is live");
    let plan = TrainingPlan::full(train.n_features());
    let _ = FracModel::fit(train, &plan, config);
    session.finish()
}

/// Assert the span tree is well nested. Instant→ns truncation can make a
/// child's computed end overshoot its parent's by a couple of nanoseconds,
/// so containment and sibling sums get a tiny per-span slack.
fn assert_well_nested(report: &TelemetryReport) {
    const SLACK_NS: u64 = 16;
    let by_id: HashMap<u64, &frac_core::telemetry::SpanRecord> =
        report.spans.iter().map(|s| (s.id, s)).collect();
    assert_eq!(by_id.len(), report.spans.len(), "span ids must be unique");
    let mut child_sum: HashMap<u64, u64> = HashMap::new();
    for s in &report.spans {
        if s.parent == 0 {
            continue;
        }
        let p = by_id
            .get(&s.parent)
            .unwrap_or_else(|| panic!("span {} has unresolved parent {}", s.id, s.parent));
        assert_eq!(s.thread, p.thread, "a child span lives on its parent's thread");
        assert!(
            s.start_ns >= p.start_ns,
            "child {} starts ({}) before parent {} ({})",
            s.id,
            s.start_ns,
            p.id,
            p.start_ns
        );
        assert!(
            s.start_ns + s.dur_ns <= p.start_ns + p.dur_ns + SLACK_NS,
            "child {} ends ({}) after parent {} ({})",
            s.id,
            s.start_ns + s.dur_ns,
            p.id,
            p.start_ns + p.dur_ns
        );
        *child_sum.entry(s.parent).or_insert(0) += s.dur_ns;
    }
    for (parent, sum) in child_sum {
        let p = by_id[&parent];
        let n_children = report.spans.iter().filter(|s| s.parent == parent).count() as u64;
        assert!(
            sum <= p.dur_ns + SLACK_NS * n_children,
            "children of span {parent} total {sum} ns > parent's {} ns",
            p.dur_ns
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn span_trees_stay_well_nested_under_arbitrary_fault_plans(
        seed in 0u64..1_000,
        poison in 0.0f64..0.35,
        diverge in prop::collection::vec(0usize..8, 0..3),
        panic_at in prop::collection::vec(0usize..8, 0..3),
    ) {
        quiet_injected_panics();
        let _serial = session_lock();
        let data = expr_data(24, 8, 11);
        let plan = TrainingPlan::full(8);
        let faults = FaultPlan::seeded(seed)
            .with_poison(poison)
            .with_diverge_at(diverge.iter().copied())
            .with_panic_at(panic_at.iter().copied());
        let poisoned = faults.poison(&data);

        let session = TelemetrySession::start();
        prop_assert!(session.is_some(), "no other session may be live");
        let options = FitOptions { faults: Some(&faults), ..FitOptions::default() };
        let (model, _) =
            FracModel::fit_with(&poisoned, &plan, &FracConfig::default(), options);
        let ns = model.score(&poisoned);
        let report = session.map(TelemetrySession::finish).unwrap_or_default();

        prop_assert!(ns.iter().all(|s| s.is_finite()));
        assert_well_nested(&report);
        // Fits degrade but the trace still shows real work happened…
        prop_assert!(!report.spans.is_empty());
        // …and round-trips through the on-disk format intact.
        prop_assert_eq!(
            TelemetryReport::parse_tsv(&report.write_tsv()).map_err(|e| e.to_string()),
            Ok(report)
        );
    }
}

#[test]
fn recording_never_perturbs_the_model() {
    let _serial = session_lock();
    let data = expr_data(30, 10, 7);
    let train = data.select_rows(&(0..22).collect::<Vec<_>>());
    let test = data.select_rows(&(22..30).collect::<Vec<_>>());
    let plan = TrainingPlan::full(train.n_features());
    let cfg = FracConfig::default();

    let (plain, plain_report) = FracModel::fit(&train, &plan, &cfg);
    let ns_plain = plain.score(&test);

    let session = TelemetrySession::start().expect("no other session is live");
    let (traced, traced_report) = FracModel::fit(&train, &plan, &cfg);
    let ns_traced = traced.score(&test);
    let trace = session.finish();

    // Bit-identical outputs: telemetry observes the run, never steers it.
    for (a, b) in ns_plain.iter().zip(&ns_traced) {
        assert_eq!(a.to_bits(), b.to_bits(), "a live session changed a score");
    }
    assert_eq!(plain_report.flops, traced_report.flops);
    assert_eq!(plain_report.models_trained, traced_report.models_trained);

    // The trace covers the whole taxonomy a clean fit + score exercises.
    for stage in [Stage::Encode, Stage::CvFold, Stage::FinalTrain, Stage::ErrorModel, Stage::Score]
    {
        assert!(
            trace.spans.iter().any(|s| s.stage == stage),
            "no {stage} span in the trace"
        );
    }
    // Every planned target shows up in the per-target attribution.
    assert_eq!(trace.target_totals().len(), plan.n_targets());
    assert_well_nested(&trace);
}

#[test]
fn work_counters_do_not_depend_on_the_thread_count() {
    let _serial = session_lock();
    const WORK: [Counter; 4] =
        [Counter::SolverSolves, Counter::SolverEpochs, Counter::SolverVisits, Counter::TreeNodes];
    // SVR solves on an expression surrogate, trees on a SNP cohort.
    for (what, train, config) in [
        ("expression", expr_data(30, 10, 7), FracConfig::default()),
        ("snp", snp_data(40, 16, 3), FracConfig::snp()),
    ] {
        let per_threads: Vec<[u64; 4]> = [1usize, 4]
            .iter()
            .map(|&threads| {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let report = pool.install(|| traced_fit(&train, &config));
                WORK.map(|c| report.counter(c))
            })
            .collect();
        assert_eq!(per_threads[0], per_threads[1], "{what}: work at 1 vs 4 threads");
        let [solves, _, _, nodes] = per_threads[0];
        assert!(solves + nodes > 0, "{what}: the fit did no counted work");
    }
}

#[test]
fn epoch_capped_solves_are_counted() {
    let _serial = session_lock();
    let train = expr_data(30, 10, 7);
    let capped_config = FracConfig {
        real_model: RealModel::Svr(SvrConfig {
            max_epochs: 1,
            tolerance: 1e-12,
            ..SvrConfig::default()
        }),
        ..FracConfig::default()
    };
    let report = traced_fit(&train, &capped_config);
    let solves = report.counter(Counter::SolverSolves);
    assert!(solves > 0, "the fit ran no solves");
    assert_eq!(report.counter(Counter::SolverCapped), solves, "one epoch meets no 1e-12 tolerance");

    let report = traced_fit(&train, &FracConfig::default());
    let solves = report.counter(Counter::SolverSolves);
    assert!(solves > 0, "the fit ran no solves");
    assert!(report.counter(Counter::SolverCapped) <= solves);
}
