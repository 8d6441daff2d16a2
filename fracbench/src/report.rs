//! The benchmark's metric vocabulary and its one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a test keeps the two in step.

use std::collections::BTreeMap;

/// A reported metric: stable name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
    pub name: &'static str,
    /// `[A-Za-z0-9_/%.-]+`, at most 16 characters.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the system sees; reported by untraced runs.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("detect_cpu_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// Single-layer figures; reported by traced runs. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: &[Metric] = &[
    // Phase times of the untraced passes inside the traced run.
    m("phase.train_s", "s"),
    m("phase.screen_s", "s"),
    m("phase.detect_s", "s"),
    m("phase.setup_s", "s"),
    m("failed_frac", "1"),
    m("quality.auc", "1"),
    // dataset::io / dataset::fcb / dataset::design / dataset::entropy
    m("dataset.open_s", "s"),
    m("dataset.open_bytes", "B"),
    m("dataset.encode_s", "s"),
    m("dataset.encoded_cells", "count"),
    m("dataset.entropy_s", "s"),
    // dataset::kernels, measured in the same process as the workload.
    m("kernels.width", "count"),
    m("kernels.dot_gflops", "GFLOP/s"),
    m("kernels.axpy_gflops", "GFLOP/s"),
    m("kernels.stream_gbs", "GB/s"),
    m("kernels.stream_bytes", "B"),
    m("kernels.llc_bytes", "B"),
    m("kernels.roofline_gflops", "GFLOP/s"),
    // learn::solver / svr / svc
    m("learn.solve_s", "s"),
    m("learn.solve_share", "1"),
    m("learn.cv_fold_s", "s"),
    m("learn.final_train_s", "s"),
    m("learn.solver_epochs", "count"),
    m("learn.solver_visits", "count"),
    m("learn.solver_strategy", "mask"),
    m("learn.ns_per_visit", "ns"),
    // learn::tree
    m("learn.tree_grow_s", "s"),
    m("learn.tree_share", "1"),
    m("learn.tree_nodes", "count"),
    m("learn.us_per_node", "us"),
    // learn::error
    m("learn.error_model_s", "s"),
    // core::model / core::variants
    m("core.flops", "flop"),
    m("core.models_trained", "count"),
    m("core.pool_bytes", "B"),
    m("core.transient_bytes", "B"),
    m("core.model_bytes", "B"),
    // core::persist
    m("persist.save_s", "s"),
    m("persist.load_s", "s"),
    m("persist.load_share", "1"),
    m("persist.file_bytes", "B"),
    // core::model scoring
    m("score.s", "s"),
    m("score.records_per_s", "records/s"),
    m("score.stage_s", "s"),
    m("score.gflops", "GFLOP/s"),
    m("score.bytes_computed", "B"),
    m("score.roofline_frac", "1"),
    // core::serve
    m("serve.offered_rps", "1/s"),
    m("serve.p50_ms", "ms"),
    m("serve.p99_ms", "ms"),
    m("serve.samples", "count"),
    m("serve.gen_late_ms", "ms"),
    m("serve.rps", "records/s"),
    m("serve.batch_s", "s"),
    m("serve.mean_batch", "records"),
    m("serve.requests", "count"),
    m("serve.shed", "count"),
    m("serve.timeouts", "count"),
    m("serve.quarantined", "count"),
    // learn::telemetry
    m("telemetry.overhead_frac", "1"),
    m("telemetry.spans", "count"),
    // Provenance that is a number; the rest goes on the `host` line.
    m("host.nproc", "count"),
    m("host.rayon_threads", "count"),
];

/// Whether `name` is a legal metric or workload name.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit string.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` under `name` (replacing any earlier value).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Render the result line: exactly the metrics of `set`, each finite, with
/// its unit. Errors name the first metric that is missing, extra or not a
/// finite number.
pub fn render(
    set: &[Metric],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if let Some(extra) = values.0.keys().find(|k| !set.iter().any(|m| m.name == **k)) {
        return Err(format!("metric `{extra}` is not declared"));
    }
    let mut fields = Vec::with_capacity(set.len());
    for metric in set {
        if !valid_name(metric.name) || !valid_unit(metric.unit) {
            return Err(format!(
                "metric `{}` ({}) has an illegal name or unit",
                metric.name, metric.unit
            ));
        }
        let value = values
            .get(metric.name)
            .ok_or(format!("metric `{}` was not measured", metric.name))?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is {value}", metric.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation_accepts_the_allowed_alphabet() {
        for ok in [
            "auc",
            "setup_s",
            "learn.tree_nodes",
            "p-50",
            "9lives",
            "a.b_c-d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "", "_lead", ".dot", "-dash", "sp ace", "tab\t", "slash/", "ünï", "a\"b",
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn unit_validation_accepts_the_allowed_alphabet() {
        for ok in ["s", "ms", "1/s", "GFLOP/s", "%", "records/s", "MiB", "1"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "x".repeat(17).as_str(), "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_declared_metric_is_valid_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for metric in &all {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(valid_unit(metric.unit), "{}", metric.unit);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// The `"key": "value"` pairs of one key in a JSON text, in order.
    fn json_strings<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\": \"");
        text.match_indices(&pat)
            .map(|(at, _)| {
                let rest = &text[at + pat.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_workloads_and_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        let names = json_strings(spec, "name");
        let (workloads, metrics) = names.split_at(crate::WORKLOADS.len());
        assert_eq!(workloads, crate::WORKLOADS);
        // Only metrics carry a unit, in the same order as their names.
        let declared: Vec<(&str, &str)> = metrics
            .iter()
            .copied()
            .zip(json_strings(spec, "unit"))
            .collect();
        let ours: Vec<(&str, &str)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| (m.name, m.unit))
            .collect();
        assert_eq!(declared, ours);
        assert!(crate::WORKLOADS.iter().all(|w| valid_name(w)));
    }

    #[test]
    fn render_emits_every_metric_once_with_its_unit() {
        let set = [m("a_s", "s"), m("b", "count")];
        let mut v = Values::default();
        v.set("b", 3.0);
        v.set("a_s", 0.125);
        let line = render(&set, &v, true, 10, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.125, \"unit\": \"s\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn render_refuses_missing_extra_and_non_finite_values() {
        let set = [m("a_s", "s")];
        let mut v = Values::default();
        assert!(render(&set, &v, true, 1, 0)
            .unwrap_err()
            .contains("not measured"));
        v.set("a_s", f64::NAN);
        assert!(render(&set, &v, true, 1, 0).unwrap_err().contains("NaN"));
        v.set("a_s", 1.0);
        v.set("zz", 1.0);
        assert!(render(&set, &v, true, 1, 0)
            .unwrap_err()
            .contains("not declared"));
        let mut v = Values::default();
        v.set("bad name", 1.0);
        assert!(render(&[m("bad name", "s")], &v, true, 1, 0)
            .unwrap_err()
            .contains("illegal"));
    }
}
