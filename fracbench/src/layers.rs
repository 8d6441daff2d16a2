//! Per-layer attribution for traced runs: program stage totals and work
//! counters from a `TelemetrySession`, and the kernel roofline measured in
//! the same process.

use frac_core::telemetry::{Counter, Stage, TelemetryReport};
use frac_dataset::kernels;
use std::hint::black_box;
use std::time::Instant;

/// Stage totals and counters of one traced pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    pub spans: u64,
    /// Summed duration of root spans over all threads: busy thread time.
    pub thread_s: f64,
    pub encode_s: f64,
    pub entropy_s: f64,
    pub cv_fold_s: f64,
    pub final_train_s: f64,
    pub error_model_s: f64,
    pub solve_s: f64,
    pub tree_grow_s: f64,
    pub score_s: f64,
    pub serve_batch_s: f64,
    pub serve_batches: u64,
    pub counters: WorkCounters,
    pub solver_strategy: u64,
}

/// Deterministic work counts: for one seed they must repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    pub tree_nodes: u64,
    pub solver_visits: u64,
    pub solver_epochs: u64,
    pub encoded_cells: u64,
    pub flops: u64,
    pub file_bytes: u64,
}

impl Trace {
    pub fn from_report(report: &TelemetryReport) -> Trace {
        let mut t = Trace {
            spans: report.spans.len() as u64,
            thread_s: report
                .spans
                .iter()
                .filter(|s| s.parent == 0)
                .map(|s| s.dur_ns)
                .sum::<u64>() as f64
                / 1e9,
            solver_strategy: report.counter(Counter::SolverStrategy),
            counters: WorkCounters {
                tree_nodes: report.counter(Counter::TreeNodes),
                solver_visits: report.counter(Counter::SolverVisits),
                solver_epochs: report.counter(Counter::SolverEpochs),
                encoded_cells: report.counter(Counter::EncodedCells),
                ..WorkCounters::default()
            },
            ..Trace::default()
        };
        for total in report.stage_totals() {
            let s = total.total_ns as f64 / 1e9;
            match total.stage {
                Stage::Encode => t.encode_s = s,
                Stage::Entropy => t.entropy_s = s,
                Stage::CvFold => t.cv_fold_s = s,
                Stage::FinalTrain => t.final_train_s = s,
                Stage::ErrorModel => t.error_model_s = s,
                Stage::Solve => t.solve_s = s,
                Stage::TreeGrow => t.tree_grow_s = s,
                Stage::Score => t.score_s = s,
                Stage::ServeBatch => {
                    t.serve_batch_s = s;
                    t.serve_batches = total.count;
                }
                Stage::Quarantine | Stage::JournalAppend => {}
            }
        }
        t
    }

    /// `stage_s` as a share of busy thread time (not wall time: spans on
    /// several threads sum past the wall).
    pub fn share(&self, stage_s: f64) -> f64 {
        if self.thread_s > 0.0 {
            stage_s / self.thread_s
        } else {
            0.0
        }
    }
}

/// Kernel throughput measured next to the workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Roofline {
    pub width: usize,
    pub dot_gflops: f64,
    pub axpy_gflops: f64,
    pub stream_gbs: f64,
    pub stream_bytes: u64,
    pub llc_bytes: u64,
}

impl Roofline {
    /// Attainable GFLOP/s at `intensity` flops per byte: the lower of the
    /// in-cache dot rate and streaming bandwidth × intensity.
    pub fn attainable(&self, intensity: f64) -> f64 {
        self.dot_gflops.min(self.stream_gbs * intensity)
    }
}

/// Size of the last-level cache from sysfs (largest level listed for
/// cpu0), or 32 MiB when the host does not say.
pub fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        if let Some(bytes) = parse_cache_size(size.trim()) {
            if level >= best.0 {
                best = (level, bytes);
            }
        }
    }
    if best.1 > 0 {
        best.1
    } else {
        32 << 20
    }
}

/// `"307200K"` → bytes.
fn parse_cache_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

/// Time `f` over `rounds` rounds and return the best rate `work / s`.
fn best_rate(rounds: usize, work: f64, mut f: impl FnMut()) -> f64 {
    (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            f();
            work / t0.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}

/// Measure `dot_blocked` and `axpy_blocked` on cache-resident vectors of
/// `width` elements, and streaming `sq_norm_blocked` over an array at least
/// four times the last-level cache.
pub fn measure(width: usize) -> Roofline {
    let width = width.max(8);
    // About 50 Mflop per round, whatever the width.
    let iters = (25_000_000 / width).max(1);
    let flops = 2.0 * (width * iters) as f64 / 1e9;
    let x: Vec<f64> = (0..width).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut w: Vec<f64> = (0..width).map(|i| (i as f64 * 0.11).cos()).collect();
    let dot_gflops = best_rate(3, flops, || {
        let mut acc = 0.0;
        for _ in 0..iters {
            acc += kernels::dot_blocked(black_box(&x), black_box(&w), 0.0);
        }
        black_box(acc);
    });
    let axpy_gflops = best_rate(3, flops, || {
        for i in 0..iters {
            // Alternate the sign so the vector stays bounded.
            let alpha = if i % 2 == 0 { 1e-3 } else { -1e-3 };
            kernels::axpy_blocked(alpha, black_box(&x), black_box(&mut w));
        }
        black_box(&w);
    });

    let llc = llc_bytes();
    let len = (4 * llc / 8) as usize;
    let big: Vec<f64> = (0..len).map(|i| (i % 1024) as f64 * 1e-3).collect();
    let stream_bytes = (len * 8) as u64;
    let stream_gbs = best_rate(3, stream_bytes as f64 / 1e9, || {
        black_box(kernels::sq_norm_blocked(black_box(&big), 0.0));
    });
    Roofline {
        width,
        dot_gflops,
        axpy_gflops,
        stream_gbs,
        stream_bytes,
        llc_bytes: llc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_suffixes() {
        assert_eq!(parse_cache_size("48K"), Some(48 << 10));
        assert_eq!(parse_cache_size("307200K"), Some(307_200 << 10));
        assert_eq!(parse_cache_size("2M"), Some(2 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("big"), None);
    }

    #[test]
    fn roofline_takes_the_lower_ceiling() {
        let r = Roofline {
            dot_gflops: 10.0,
            stream_gbs: 8.0,
            ..Roofline::default()
        };
        assert_eq!(r.attainable(0.25), 2.0);
        assert_eq!(r.attainable(100.0), 10.0);
    }

    #[test]
    fn shares_divide_by_thread_time() {
        let t = Trace {
            thread_s: 4.0,
            ..Trace::default()
        };
        assert_eq!(t.share(3.0), 0.75);
        assert_eq!(Trace::default().share(1.0), 0.0);
    }
}
