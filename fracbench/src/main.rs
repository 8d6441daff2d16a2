//! The FRaC benchmark: one workload per run, end-to-end metrics untraced,
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path fracbench/Cargo.toml -- \
//!     --workload expr_full --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The process started by that command generates the workload's inputs
//! into `.bench_work/` (untimed), then measures them in a fresh child
//! process, so the child's peak RSS belongs to the workload alone. The last
//! line of standard output is the JSON result; the line before it records
//! the host and run provenance.

mod cpu;
mod inputs;
mod layers;
mod openloop;
mod report;
mod stats;
mod workloads;

use frac_core::telemetry::TelemetrySession;
use layers::{Trace, WorkCounters};
use report::{Values, END_TO_END, PER_LAYER};
use stats::{auc, highest_supported_percentile, median, percentile};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Pass, Setup, Workload};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["expr_full", "snp_filter_ens", "serve_stream"];

/// Set-up is repeated, and reported as a median, until it has run at least
/// `SETUP_MIN_REPS` times and for `SETUP_MIN_TIME` in total, or
/// `SETUP_MAX_REPS` times.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 100;
const SETUP_MIN_TIME: Duration = Duration::from_secs(1);

/// A traced run alternates untraced and traced passes, at least this many
/// pairs and until the run's seconds are spent.
const TRACE_MIN_PAIRS: usize = 2;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Input directory; set only in the measuring child.
    dir: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut dir) = (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("1..=600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--dir" => dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (child, flags) = match argv.split_first() {
        Some((first, rest)) if first == "measure" => (true, rest),
        _ => (false, &argv[..]),
    };
    let outcome = parse_args(flags).and_then(|args| {
        if child {
            measure(&args)
        } else {
            orchestrate(&args)
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fracbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Generate inputs, run the measuring child, forward its output, clean up.
fn orchestrate(args: &Args) -> Result<(), String> {
    let root = PathBuf::from(".bench_work");
    let dir = root.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result =
        inputs::generate(&args.workload, args.seed, &dir).and_then(|()| run_child(args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&root); // only succeeds once empty
    let stdout = result?;
    print!("{stdout}");
    Ok(())
}

fn run_child(args: &Args, dir: &Path) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .arg("measure")
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the measuring process: {e}"))?;
    if !output.status.success() {
        return Err(format!("measuring process failed: {}", output.status));
    }
    String::from_utf8(output.stdout).map_err(|_| "measuring process wrote non-UTF-8 output".into())
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The commit measured, when the benchmark runs inside a git checkout.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn host_line(args: &Args, nproc: usize) -> String {
    format!(
        "{{\"host\": {{\"git_rev\": \"{}\", \"nproc\": {nproc}, \"kernel_tier\": \"{}\", \
         \"rayon_threads\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"offered_rps\": {}}}}}",
        git_rev(),
        frac_dataset::kernels::active_tier(),
        rayon::current_num_threads(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::OFFERED_RPS,
    )
}

fn med(xs: impl IntoIterator<Item = f64>) -> f64 {
    median(&xs.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// `(attempted, failed)` of checking that every pass scored bit for bit
/// like the first.
fn repeat_check(passes: &[&Pass]) -> (u64, u64) {
    let first = &passes[0].ns;
    let same = |p: &&Pass| {
        p.ns.len() == first.len()
            && p.ns
                .iter()
                .zip(first)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    };
    let failed = passes[1..].iter().filter(|p| !same(p)).count();
    ((passes.len() - 1) as u64, failed as u64)
}

/// The measuring child: set up, run the passes, print host and result.
fn measure(args: &Args) -> Result<(), String> {
    let dir = args
        .dir
        .as_deref()
        .ok_or("the measuring process needs --dir")?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut w = workloads::open(&args.workload, dir, args.seed)?;
    let mut setups = Vec::new();
    let mut spent = Duration::ZERO;
    while setups.len() < SETUP_MIN_REPS || (spent < SETUP_MIN_TIME && setups.len() < SETUP_MAX_REPS)
    {
        let s = w.setup()?;
        spent += Duration::from_secs_f64(s.total_s);
        setups.push(s);
    }
    let budget = Duration::from_secs(args.seconds);
    let result = if args.trace {
        traced(w.as_mut(), &setups, budget, nproc)
    } else {
        untraced(w.as_mut(), &setups, budget)
    };
    w.finish()?;
    let (values, attempted, failed) = result?;
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    let line = report::render(set, &values, failed == 0, attempted, failed)?;
    println!("{}", host_line(args, nproc));
    println!("{line}");
    Ok(())
}

type Outcome = Result<(Values, u64, u64), String>;

/// Passes until `budget` is spent (at least one).
fn run_passes(w: &mut dyn Workload, budget: Duration) -> Result<Vec<Pass>, String> {
    let deadline = Instant::now() + budget;
    let mut passes = Vec::new();
    while passes.is_empty() || Instant::now() < deadline {
        let left = deadline.saturating_duration_since(Instant::now());
        passes.push(w.pass(if passes.is_empty() { budget } else { left })?);
    }
    Ok(passes)
}

fn untraced(w: &mut dyn Workload, setups: &[Setup], budget: Duration) -> Outcome {
    let passes = run_passes(w, budget)?;
    let (mut attempted, mut failed) = repeat_check(&passes.iter().collect::<Vec<_>>());
    for p in &passes {
        attempted += p.attempted;
        failed += p.failed;
    }
    let mut v = Values::default();
    v.set("setup_s", med(setups.iter().map(|s| s.cpu_s)));
    v.set("detect_cpu_s", med(passes.iter().map(|p| p.cpu_s)));
    v.set("peak_rss_mb", peak_rss_mb()?);
    Ok((v, attempted, failed))
}

fn traced(w: &mut dyn Workload, setups: &[Setup], budget: Duration, nproc: usize) -> Outcome {
    // Each pass gets half the budget, so the untraced serve passes together
    // collect enough open-loop samples for a 99th percentile.
    let slice = budget / 2;
    let deadline = Instant::now() + budget;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut traces = Vec::new();
    while traces.len() < TRACE_MIN_PAIRS || Instant::now() < deadline {
        plain.push(w.pass(slice)?);
        let session = TelemetrySession::start().ok_or("another telemetry session is active")?;
        let pass = w.pass(slice)?;
        let mut trace = Trace::from_report(&session.finish());
        trace.counters.flops = pass.resources.as_ref().map_or(0, |r| r.flops);
        trace.counters.file_bytes = pass.file_bytes;
        traced.push(pass);
        traces.push(trace);
    }
    let roofline = layers::measure(w.encoded_width());

    // Tracing must observe, never perturb: traced NS equals untraced NS.
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let (mut attempted, mut failed) = repeat_check(&all);
    for p in &all {
        attempted += p.attempted;
        failed += p.failed;
    }
    // Work counters repeat exactly for one seed.
    let counters: Vec<WorkCounters> = traces.iter().map(|t| t.counters).collect();
    attempted += 1;
    if counters.windows(2).any(|c| c[0] != c[1]) {
        eprintln!("work counters differ between traced passes: {counters:?}");
        failed += 1;
    }

    let c = counters[0];
    let t = |f: fn(&Trace) -> f64| med(traces.iter().map(f));
    let tp = |f: fn(&Pass) -> f64| med(traced.iter().map(f));
    let pp = |f: fn(&Pass) -> f64| med(plain.iter().map(f));
    let res = traced[0].resources.clone().unwrap_or_default();
    let mut v = Values::default();
    v.set("phase.train_s", pp(|p| p.train_s));
    v.set("phase.screen_s", pp(|p| p.screen_s));
    v.set("phase.detect_s", pp(|p| p.detect_s));
    v.set("phase.setup_s", med(setups.iter().map(|s| s.total_s)));
    v.set("failed_frac", failed as f64 / attempted.max(1) as f64);
    v.set(
        "quality.auc",
        auc(&plain[0].ns, w.labels()).ok_or("AUC undefined: non-finite scores or one class")?,
    );

    v.set("dataset.open_s", med(setups.iter().map(|s| s.open_s)));
    v.set("dataset.open_bytes", setups[0].open_bytes as f64);
    v.set("dataset.encode_s", t(|t| t.encode_s));
    v.set("dataset.encoded_cells", c.encoded_cells as f64);
    v.set("dataset.entropy_s", t(|t| t.entropy_s));

    v.set("kernels.width", roofline.width as f64);
    v.set("kernels.dot_gflops", roofline.dot_gflops);
    v.set("kernels.axpy_gflops", roofline.axpy_gflops);
    v.set("kernels.stream_gbs", roofline.stream_gbs);
    v.set("kernels.stream_bytes", roofline.stream_bytes as f64);
    v.set("kernels.llc_bytes", roofline.llc_bytes as f64);

    let solve_s = t(|t| t.solve_s);
    let tree_s = t(|t| t.tree_grow_s);
    v.set("learn.solve_s", solve_s);
    v.set("learn.solve_share", t(|t| t.share(t.solve_s)));
    v.set("learn.cv_fold_s", t(|t| t.cv_fold_s));
    v.set("learn.final_train_s", t(|t| t.final_train_s));
    v.set("learn.solver_epochs", c.solver_epochs as f64);
    v.set("learn.solver_visits", c.solver_visits as f64);
    v.set("learn.solver_strategy", traces[0].solver_strategy as f64);
    v.set("learn.ns_per_visit", per(solve_s * 1e9, c.solver_visits));
    v.set("learn.tree_grow_s", tree_s);
    v.set("learn.tree_share", t(|t| t.share(t.tree_grow_s)));
    v.set("learn.tree_nodes", c.tree_nodes as f64);
    v.set("learn.us_per_node", per(tree_s * 1e6, c.tree_nodes));
    v.set("learn.error_model_s", t(|t| t.error_model_s));

    v.set("core.flops", c.flops as f64);
    v.set("core.models_trained", res.models_trained as f64);
    v.set("core.pool_bytes", res.pool_bytes as f64);
    v.set("core.transient_bytes", res.transient_bytes as f64);
    v.set("core.model_bytes", res.model_bytes as f64);

    // Serving loads its model (and scores the reference) in set-up.
    let serving = traced[0].serve.is_some();
    let load_s = if serving {
        med(setups.iter().map(|s| s.load_s))
    } else {
        tp(|p| p.load_s)
    };
    let score_s = if serving {
        med(setups.iter().map(|s| s.score_s))
    } else {
        tp(|p| p.score_s)
    };
    let screen_s = tp(|p| p.screen_s);
    v.set("persist.save_s", tp(|p| p.save_s));
    v.set("persist.load_s", load_s);
    v.set(
        "persist.load_share",
        if screen_s > 0.0 {
            tp(|p| p.load_s) / screen_s
        } else {
            0.0
        },
    );
    v.set(
        "persist.file_bytes",
        if serving {
            setups[0].file_bytes
        } else {
            c.file_bytes
        } as f64,
    );

    let (flops, bytes) = (traced[0].score_flops, traced[0].score_bytes);
    let score_gflops = if score_s > 0.0 {
        flops / score_s / 1e9
    } else {
        0.0
    };
    let roof = if bytes > 0.0 {
        roofline.attainable(flops / bytes)
    } else {
        roofline.dot_gflops
    };
    v.set("kernels.roofline_gflops", roof);
    v.set("score.s", score_s);
    v.set(
        "score.records_per_s",
        if score_s > 0.0 {
            traced[0].score_records as f64 / score_s
        } else {
            0.0
        },
    );
    v.set("score.stage_s", t(|t| t.score_s));
    v.set("score.gflops", score_gflops);
    v.set("score.bytes_computed", bytes);
    v.set(
        "score.roofline_frac",
        if roof > 0.0 { score_gflops / roof } else { 0.0 },
    );

    serve_layer(&mut v, &plain, &traced, &traces);

    // CPU time, so a neighbour taking the CPU does not read as overhead.
    let overhead = tp(|p| p.cpu_s) / pp(|p| p.cpu_s) - 1.0;
    v.set("telemetry.overhead_frac", overhead);
    v.set("telemetry.spans", traces[0].spans as f64);
    v.set("host.nproc", nproc as f64);
    v.set("host.rayon_threads", rayon::current_num_threads() as f64);

    confirm_why(&v);
    Ok((v, attempted, failed))
}

/// `total / count`, or 0 when nothing was counted.
fn per(total: f64, count: u64) -> f64 {
    if count > 0 {
        total / count as f64
    } else {
        0.0
    }
}

/// Serve figures: latency from the untraced passes, batching from the
/// traced ones (which carry the daemon's `serve_batch` spans).
fn serve_layer(v: &mut Values, plain: &[Pass], traced: &[Pass], traces: &[Trace]) {
    let sum = |f: fn(&workloads::ServePass) -> u64| -> f64 {
        plain
            .iter()
            .chain(traced)
            .filter_map(|p| p.serve.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let untraced: Vec<&workloads::ServePass> =
        plain.iter().filter_map(|p| p.serve.as_ref()).collect();
    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.latencies_ms.iter().copied())
        .collect();
    let lateness: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.lateness_ms.iter().copied())
        .collect();
    let scored: u64 = traced
        .iter()
        .filter_map(|p| p.serve.as_ref())
        .map(|s| s.scored)
        .sum();
    let batches: u64 = traces.iter().map(|t| t.serve_batches).sum();
    let serving = !untraced.is_empty();
    if serving && highest_supported_percentile(latencies.len()) < Some(99.0) {
        eprintln!(
            "serve: only {} open-loop samples; the p99 rests on fewer than ten",
            latencies.len()
        );
    }
    v.set(
        "serve.offered_rps",
        if serving { workloads::OFFERED_RPS } else { 0.0 },
    );
    v.set("serve.p50_ms", median(&latencies).unwrap_or(0.0));
    v.set("serve.p99_ms", percentile(&latencies, 99.0).unwrap_or(0.0));
    v.set("serve.samples", latencies.len() as f64);
    v.set(
        "serve.gen_late_ms",
        percentile(&lateness, 99.0).unwrap_or(0.0),
    );
    v.set(
        "serve.rps",
        med(untraced.iter().flat_map(|s| s.burst_rps.iter().copied())),
    );
    v.set("serve.batch_s", med(traces.iter().map(|t| t.serve_batch_s)));
    v.set("serve.mean_batch", per(scored as f64, batches));
    v.set("serve.requests", sum(|s| s.requests));
    v.set("serve.shed", sum(|s| s.shed));
    v.set("serve.timeouts", sum(|s| s.timeouts));
    v.set("serve.quarantined", sum(|s| s.quarantined));
}

/// Say on stderr whether the traced run bears out the workload's stated
/// reason for existing (README "why" column). Informational: a changed
/// profile is a finding, not a failed operation.
fn confirm_why(v: &Values) {
    let g = |k: &str| v.get(k).unwrap_or(0.0);
    let mut notes = Vec::new();
    if g("learn.solver_visits") > 0.0 {
        notes.push(format!(
            "solve share {:.3} of thread time, tree nodes {}",
            g("learn.solve_share"),
            g("learn.tree_nodes")
        ));
    }
    if g("learn.tree_nodes") > 0.0 {
        notes.push(format!(
            "tree share {:.3} of thread time, solver visits {}",
            g("learn.tree_share"),
            g("learn.solver_visits")
        ));
    }
    if g("persist.load_share") > 0.0 {
        notes.push(format!(
            "load is {:.3} of screen time",
            g("persist.load_share")
        ));
    }
    if g("serve.samples") > 0.0 {
        notes.push(format!(
            "{} open-loop samples, {} records per batch",
            g("serve.samples"),
            g("serve.mean_batch")
        ));
    }
    eprintln!("profile: {}", notes.join("; "));
}
