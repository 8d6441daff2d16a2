//! The three workloads: what set-up and one timed pass mean for each, and
//! the correctness checks every pass makes.
//!
//! Every call into the program goes through a public function; the times
//! here are the benchmark's own spans around those calls.

use crate::cpu::process_cpu_s;
use crate::inputs::read_labels;
use crate::openloop::{Schedule, Timeline};
use crate::stats::median;
use frac_core::{
    run_variant, FeatureSelector, FracConfig, FracModel, ResourceReport, RunHealth, ServeConfig,
    ServeHandle, ServeSummary, Server, TrainingPlan, Variant,
};
use frac_dataset::{io, Dataset, FcbFile};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered rate of the serve workload's open-loop phase, requests per
/// second. Single-record latency is about 2 ms on a 2-vCPU host, so this
/// keeps the daemon well below capacity: phase A measures latency, not
/// queueing.
pub const OFFERED_RPS: f64 = 100.0;

/// Share of a serve pass spent in the open-loop phase; the rest runs
/// pipelined bursts.
const PHASE_A_SHARE: f64 = 0.6;

/// Phase B bursts repeat the test set until a burst holds at least this
/// many records, so the daemon reaches its steady batching.
const BURST_MIN_RECORDS: usize = 256;

/// Phase B's first bursts after the quiet open-loop phase run slower (about
/// 55 ms against a steady 35 ms on a 2-vCPU host) while the host warms up;
/// bursts in this first stretch are checked but not timed.
const BURST_WARMUP: Duration = Duration::from_secs(1);

/// Longest wait for any single reply before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The paper's recommended SNP detector: a 10-member ensemble of random
/// full filters at p = 0.05.
const FILTER_P: f64 = 0.05;
const MEMBERS: usize = 10;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One set-up: the time it took and what it read.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    pub total_s: f64,
    /// CPU seconds of the set-up, all threads.
    pub cpu_s: f64,
    /// Opening the dataset files (TSV parse or FCB map + verify).
    pub open_s: f64,
    pub open_bytes: u64,
    /// Model load, when set-up loads one.
    pub load_s: f64,
    /// Scoring the test set in-process for the reference scores.
    pub score_s: f64,
    /// Size of the model file loaded, when set-up loads one.
    pub file_bytes: u64,
}

/// Serve figures of one pass.
#[derive(Debug, Clone, Default)]
pub struct ServePass {
    pub latencies_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub burst_rps: Vec<f64>,
    pub requests: u64,
    pub scored: u64,
    pub shed: u64,
    pub timeouts: u64,
    pub quarantined: u64,
}

/// One timed pass of a workload's job.
#[derive(Debug, Default)]
pub struct Pass {
    /// The end-to-end job time (see the README for each workload's job).
    pub detect_s: f64,
    /// CPU seconds of that job, all threads.
    pub cpu_s: f64,
    pub train_s: f64,
    pub screen_s: f64,
    pub save_s: f64,
    pub load_s: f64,
    pub score_s: f64,
    /// NS of the test set, in test-row order.
    pub ns: Vec<f64>,
    pub resources: Option<ResourceReport>,
    pub file_bytes: u64,
    /// Flops of the linear predictors over the scored records, as computed
    /// from the model's shape (0 for trees).
    pub score_flops: f64,
    /// Compulsory bytes of that scoring: every weight once plus the encoded
    /// test rows once, as computed from sizes.
    pub score_bytes: f64,
    pub score_records: usize,
    pub serve: Option<ServePass>,
    pub attempted: u64,
    pub failed: u64,
}

impl Pass {
    /// Count `n` checked operations of which `bad` failed.
    fn check(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Every score finite, and (when given) bit-identical to `reference`.
    fn check_scores(&mut self, ns: &[f64], reference: Option<&[f64]>) {
        let bad = ns
            .iter()
            .enumerate()
            .filter(|&(i, s)| {
                !s.is_finite()
                    || reference.is_some_and(|r| r.get(i).map(|x| x.to_bits()) != Some(s.to_bits()))
            })
            .count();
        let missing = reference.map_or(0, |r| r.len().saturating_sub(ns.len()));
        self.check(
            ns.len().max(reference.map_or(0, <[f64]>::len)) as u64,
            (bad + missing) as u64,
        );
    }

    /// The fit accounted for all `planned` targets, none dropped or degraded.
    fn check_health(&mut self, health: &RunHealth, planned: usize) {
        let ok = health.targets_planned == planned
            && health.targets_survived == planned
            && health.n_dropped() == 0
            && health.n_degraded() == 0;
        if !ok {
            eprintln!(
                "health check failed: expected {planned} targets, got {}",
                health.summary()
            );
        }
        self.check(1, u64::from(!ok));
    }
}

/// Flops and compulsory bytes of scoring `records` rows with `targets`
/// linear predictors, each a dot product over the other `width − 1`
/// encoded columns.
fn linear_score_cost(records: usize, targets: usize, width: usize) -> (f64, f64) {
    let inputs = width.saturating_sub(1) as f64;
    let flops = 2.0 * records as f64 * targets as f64 * inputs;
    let bytes = 8.0 * (targets as f64 * inputs + records as f64 * width as f64);
    (flops, bytes)
}

/// A workload: repeatable set-up, then timed passes.
pub trait Workload {
    /// Open the inputs (and for serving, start the daemon). Called several
    /// times; each call replaces the previous state.
    fn setup(&mut self) -> Result<Setup, String>;
    /// One timed pass; `budget` is a hint for workloads that fill time.
    fn pass(&mut self, budget: Duration) -> Result<Pass, String>;
    /// Encoded width of the design rows the workload's models work on.
    fn encoded_width(&self) -> usize;
    /// Test-set labels.
    fn labels(&self) -> &[bool];
    /// Stop anything the workload started.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Construct the named workload over inputs in `dir`.
pub fn open(name: &str, dir: &Path, seed: u64) -> Result<Box<dyn Workload>, String> {
    let labels = read_labels(&dir.join("labels.txt"))?;
    Ok(match name {
        "expr_full" => Box::new(ExprFull {
            dir: dir.into(),
            seed,
            labels,
            data: None,
        }),
        "snp_filter_ens" => Box::new(SnpFilterEns {
            dir: dir.into(),
            seed,
            labels,
            data: None,
        }),
        "serve_stream" => Box::new(ServeStream {
            dir: dir.into(),
            labels,
            state: None,
        }),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn read(path: &Path) -> Result<Dataset, String> {
    io::read_tsv(path).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------- expr_full

/// Full FRaC on the `biomarkers` expression surrogate: fit + save (what
/// `frac train` pays after the parse), then load + score (`frac score
/// --model`).
struct ExprFull {
    dir: PathBuf,
    seed: u64,
    labels: Vec<bool>,
    data: Option<(Dataset, Dataset)>,
}

impl Workload for ExprFull {
    fn setup(&mut self) -> Result<Setup, String> {
        self.data = None;
        let (train_path, test_path) = (self.dir.join("train.tsv"), self.dir.join("test.tsv"));
        let (t0, c0) = (Instant::now(), process_cpu_s());
        let train = read(&train_path)?;
        let test = read(&test_path)?;
        let (open_s, cpu_s) = (secs(t0.elapsed()), process_cpu_s() - c0);
        self.data = Some((train, test));
        Ok(Setup {
            total_s: open_s,
            cpu_s,
            open_s,
            open_bytes: file_len(&train_path)? + file_len(&test_path)?,
            ..Setup::default()
        })
    }

    fn pass(&mut self, _budget: Duration) -> Result<Pass, String> {
        let (train, test) = self.data.as_ref().ok_or("expr_full: pass before setup")?;
        let config = FracConfig::default().with_seed(self.seed);
        let plan = TrainingPlan::full(train.n_features());
        let model_path = self.dir.join("model.frac");
        let mut p = Pass::default();

        let (t0, c0) = (Instant::now(), process_cpu_s());
        let (model, resources) = FracModel::fit(train, &plan, &config);
        let t_fit = Instant::now();
        model
            .save(&model_path)
            .map_err(|e| format!("{}: {e}", model_path.display()))?;
        let (t_save, c_save) = (Instant::now(), process_cpu_s());
        p.train_s = secs(t_save - t0);
        p.save_s = secs(t_save - t_fit);
        p.check_health(&resources.health, plan.n_targets());
        let in_memory = model.score(test);
        let targets = model.n_targets();
        drop(model);

        let (t1, c1) = (Instant::now(), process_cpu_s());
        let loaded =
            FracModel::load(&model_path).map_err(|e| format!("{}: {e}", model_path.display()))?;
        let t_load = Instant::now();
        let ns = loaded.score(test);
        let (t_score, c_score) = (Instant::now(), process_cpu_s());
        p.load_s = secs(t_load - t1);
        p.score_s = secs(t_score - t_load);
        p.screen_s = secs(t_score - t1);
        p.detect_s = p.train_s + p.screen_s;
        // The in-memory reference scoring between the two is not the job's.
        p.cpu_s = (c_save - c0) + (c_score - c1);
        // The persisted model must score exactly as the fitted one.
        p.check_scores(&ns, Some(&in_memory));
        p.file_bytes = file_len(&model_path)?;
        (p.score_flops, p.score_bytes) =
            linear_score_cost(test.n_rows(), targets, self.encoded_width());
        p.score_records = test.n_rows();
        p.ns = ns;
        p.resources = Some(resources);
        Ok(p)
    }

    fn encoded_width(&self) -> usize {
        self.data
            .as_ref()
            .map_or(0, |(train, _)| train.schema().one_hot_width())
    }

    fn labels(&self) -> &[bool] {
        &self.labels
    }
}

// ----------------------------------------------------------- snp_filter_ens

/// The paper's 10-member random-filter ensemble with trees on the
/// `schizophrenia` SNP surrogate, opened from FCB files.
struct SnpFilterEns {
    dir: PathBuf,
    seed: u64,
    labels: Vec<bool>,
    data: Option<(Dataset, Dataset)>,
}

impl Workload for SnpFilterEns {
    fn setup(&mut self) -> Result<Setup, String> {
        self.data = None;
        let (train_path, test_path) = (self.dir.join("train.fcb"), self.dir.join("test.fcb"));
        let (t0, c0) = (Instant::now(), process_cpu_s());
        let open = |path: &Path| {
            FcbFile::open(path)
                .map(|f| f.dataset())
                .map_err(|e| format!("{}: {e}", path.display()))
        };
        let train = open(&train_path)?;
        let test = open(&test_path)?;
        let (open_s, cpu_s) = (secs(t0.elapsed()), process_cpu_s() - c0);
        self.data = Some((train, test));
        Ok(Setup {
            total_s: open_s,
            cpu_s,
            open_s,
            open_bytes: file_len(&train_path)? + file_len(&test_path)?,
            ..Setup::default()
        })
    }

    fn pass(&mut self, _budget: Duration) -> Result<Pass, String> {
        let (train, test) = self
            .data
            .as_ref()
            .ok_or("snp_filter_ens: pass before setup")?;
        let config = FracConfig::snp().with_seed(self.seed);
        let variant = Variant::Ensemble {
            base: Box::new(Variant::FullFilter {
                selector: FeatureSelector::Random,
                p: FILTER_P,
            }),
            members: MEMBERS,
        };
        let mut p = Pass::default();
        let (t0, c0) = (Instant::now(), process_cpu_s());
        let out = run_variant(train, test, &variant, &config);
        p.detect_s = secs(t0.elapsed());
        p.cpu_s = process_cpu_s() - c0;
        let kept = (FILTER_P * train.n_features() as f64).ceil() as usize;
        p.check_health(&out.resources.health, MEMBERS * kept);
        p.check_scores(&out.ns, None);
        p.score_records = test.n_rows();
        p.ns = out.ns;
        p.resources = Some(out.resources);
        Ok(p)
    }

    fn encoded_width(&self) -> usize {
        // Each member models ⌈p·f⌉ kept SNPs, one-hot encoded.
        self.data.as_ref().map_or(0, |(train, _)| {
            let f = train.n_features();
            let kept = (FILTER_P * f as f64).ceil() as usize;
            train.schema().one_hot_width() * kept / f.max(1)
        })
    }

    fn labels(&self) -> &[bool] {
        &self.labels
    }
}

// ------------------------------------------------------------- serve_stream

/// A reply line as the client read it.
struct Reply {
    at: Instant,
    line: String,
}

/// A running daemon and the benchmark's one client connection to it.
struct Daemon {
    handle: ServeHandle,
    thread: JoinHandle<std::io::Result<ServeSummary>>,
    writer: TcpStream,
    replies: Receiver<Reply>,
    reader: JoinHandle<()>,
    /// Lines sent on the connection so far (the daemon's `seq`).
    sent: u64,
}

impl Daemon {
    fn start(
        model: FracModel,
        model_path: PathBuf,
        schema: frac_dataset::Schema,
    ) -> Result<Daemon, String> {
        let server = Server::new(model, model_path, schema, ServeConfig::default())?;
        let handle = server.handle();
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.serve_listener(listener));
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let (tx, replies) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stream);
            loop {
                let mut line = String::new();
                match lines.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        let reply = Reply {
                            at: Instant::now(),
                            line: line.trim_end().to_string(),
                        };
                        if tx.send(reply).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        Ok(Daemon {
            handle,
            thread,
            writer,
            replies,
            reader,
            sent: 0,
        })
    }

    fn send(&mut self, payload: &[u8], lines: u64) -> Result<(), String> {
        self.writer
            .write_all(payload)
            .map_err(|e| format!("send to daemon: {e}"))?;
        self.sent += lines;
        Ok(())
    }

    /// Stop the daemon through the protocol and wait for every thread.
    fn stop(mut self) -> Result<ServeSummary, String> {
        let stop = self.send(b"cmd stop\n", 1);
        if stop.is_err() {
            self.handle.request_shutdown();
        }
        let summary = self.thread.join().map_err(|_| "daemon thread panicked")?;
        // The daemon closes the connection on exit, ending the reader.
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        self.reader.join().map_err(|_| "reply reader panicked")?;
        stop?;
        summary.map_err(|e| format!("daemon: {e}"))
    }
}

/// The `breast.basal` model served on loopback TCP: phase A sends single
/// records open-loop at [`OFFERED_RPS`]; phase B pipelines bursts of the
/// whole test set.
struct ServeStream {
    dir: PathBuf,
    labels: Vec<bool>,
    state: Option<ServeState>,
}

struct ServeState {
    daemon: Daemon,
    /// Test records as TSV lines, newline-terminated.
    lines: Vec<String>,
    /// `FracModel::score` of the test set: what every reply must match.
    expected: Vec<f64>,
    width: usize,
    targets: usize,
}

impl ServeStream {
    fn stop(&mut self) -> Result<(), String> {
        if let Some(state) = self.state.take() {
            let summary = state.daemon.stop()?;
            let c = summary.counts;
            if c.score_panics > 0 || c.reload_failures > 0 {
                return Err(format!("daemon unhealthy at exit: {}", c.summary()));
            }
        }
        Ok(())
    }
}

impl Workload for ServeStream {
    fn setup(&mut self) -> Result<Setup, String> {
        self.stop()?;
        let (test_path, model_path) = (self.dir.join("test.tsv"), self.dir.join("model.frac"));
        let (t0, c0) = (Instant::now(), process_cpu_s());
        // The schema and the client's records both come from the test TSV.
        let test = read(&test_path)?;
        let t_open = Instant::now();
        let model =
            FracModel::load(&model_path).map_err(|e| format!("{}: {e}", model_path.display()))?;
        let (t_load, c_load) = (Instant::now(), process_cpu_s());
        let expected = model.score(&test);
        let (t_score, c_score) = (Instant::now(), process_cpu_s());
        let targets = model.n_targets();
        let daemon = Daemon::start(model, model_path.clone(), test.schema().clone())?;
        let (t_listen, c_listen) = (Instant::now(), process_cpu_s());
        let text = std::fs::read_to_string(&test_path)
            .map_err(|e| format!("{}: {e}", test_path.display()))?;
        let lines: Vec<String> = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        if lines.len() != test.n_rows() {
            return Err(format!(
                "{}: {} records but {} rows",
                test_path.display(),
                lines.len(),
                test.n_rows()
            ));
        }
        self.state = Some(ServeState {
            daemon,
            lines,
            expected,
            width: test.schema().one_hot_width(),
            targets,
        });
        // Scoring the reference is the benchmark's work, not the daemon's
        // set-up.
        Ok(Setup {
            total_s: secs((t_listen - t0) - (t_score - t_load)),
            cpu_s: (c_listen - c0) - (c_score - c_load),
            open_s: secs(t_open - t0),
            open_bytes: file_len(&test_path)?,
            load_s: secs(t_load - t_open),
            score_s: secs(t_score - t_load),
            file_bytes: file_len(&model_path)?,
        })
    }

    fn pass(&mut self, budget: Duration) -> Result<Pass, String> {
        let st = self
            .state
            .as_mut()
            .ok_or("serve_stream: pass before setup")?;
        let n = st.lines.len();
        let mut p = Pass::default();
        let mut sp = ServePass::default();
        let before = st.daemon.handle.counts();

        // Phase A: open loop, one record per request.
        let schedule = Schedule::new(OFFERED_RPS);
        let count = schedule.count_within(budget.mul_f64(PHASE_A_SHARE)).max(1);
        let first_seq = st.daemon.sent + 1;
        let start = Instant::now();
        let mut sent_at = Vec::with_capacity(count as usize);
        for k in 0..count {
            let due = start + schedule.due(k);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            sent_at.push(Instant::now() - start);
            st.daemon.send(st.lines[k as usize % n].as_bytes(), 1)?;
        }
        for k in 0..count {
            let reply = st
                .daemon
                .replies
                .recv_timeout(REPLY_TIMEOUT)
                .map_err(|_| "phase A: reply timed out")?;
            let score = parse_ns(&reply.line, first_seq + u64::from(k));
            let good = score.is_some_and(|s| s.to_bits() == st.expected[k as usize % n].to_bits());
            p.check(1, u64::from(!good));
            if !good {
                eprintln!("serve: unexpected reply `{}`", reply.line);
            }
            let tl = Timeline {
                due: schedule.due(k),
                sent: sent_at[k as usize],
                received: reply.at - start,
            };
            sp.latencies_ms.push(tl.latency().as_secs_f64() * 1e3);
            sp.lateness_ms.push(tl.lateness().as_secs_f64() * 1e3);
        }

        // Phase B: pipelined bursts of the test set, repeated.
        let copies = BURST_MIN_RECORDS.div_ceil(n);
        let burst: String = st.lines.concat().repeat(copies);
        let phase_b = budget.mul_f64(1.0 - PHASE_A_SHARE);
        let start_b = Instant::now();
        let mut served = Vec::new();
        let mut burst_cpu = Vec::new();
        while sp.burst_rps.len() < 3 || start_b.elapsed() < phase_b {
            let first_seq = st.daemon.sent + 1;
            let (t0, c0) = (Instant::now(), process_cpu_s());
            st.daemon.send(burst.as_bytes(), (copies * n) as u64)?;
            let mut scores = Vec::with_capacity(copies * n);
            for i in 0..copies * n {
                let reply = st
                    .daemon
                    .replies
                    .recv_timeout(REPLY_TIMEOUT)
                    .map_err(|_| "phase B: reply timed out")?;
                scores.push(parse_ns(&reply.line, first_seq + i as u64).unwrap_or(f64::NAN));
            }
            let dt = secs(t0.elapsed());
            if t0 - start_b >= BURST_WARMUP {
                sp.burst_rps.push((copies * n) as f64 / dt);
                burst_cpu.push((process_cpu_s() - c0) / copies as f64);
            }
            for copy in scores.chunks(n) {
                p.check_scores(copy, Some(&st.expected));
            }
            if served.is_empty() {
                served = scores[..n].to_vec();
            }
        }
        // The job: serving the test set once, inside a steady stream.
        let per_test_set: Vec<f64> = sp.burst_rps.iter().map(|r| n as f64 / r).collect();
        p.detect_s = median(&per_test_set).unwrap_or(0.0);
        // Daemon and load generator share the process, so this CPU includes
        // the client's writes and reply parsing.
        p.cpu_s = median(&burst_cpu).unwrap_or(0.0);

        let after = st.daemon.handle.counts();
        sp.requests = after.received - before.received;
        sp.scored = after.scored - before.scored;
        sp.shed = after.shed - before.shed;
        sp.timeouts = after.timed_out - before.timed_out;
        sp.quarantined = after.quarantined - before.quarantined;
        (p.score_flops, p.score_bytes) = linear_score_cost(n, st.targets, st.width);
        p.score_records = n;
        p.ns = served;
        p.serve = Some(sp);
        Ok(p)
    }

    fn encoded_width(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.width)
    }

    fn labels(&self) -> &[bool] {
        &self.labels
    }

    fn finish(&mut self) -> Result<(), String> {
        self.stop()
    }
}

/// The score of an `ns <seq> <score>` reply, if it is one for `seq`.
fn parse_ns(line: &str, seq: u64) -> Option<f64> {
    let mut parts = line.split(' ');
    (parts.next()? == "ns" && parts.next()?.parse::<u64>().ok()? == seq)
        .then(|| parts.next()?.parse().ok())
        .flatten()
        .filter(|_| parts.next().is_none())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_ns_accepts_only_the_expected_reply() {
        assert_eq!(parse_ns("ns 7 1.25", 7), Some(1.25));
        assert_eq!(parse_ns("ns 7 1.25", 8), None);
        assert_eq!(parse_ns("err 7 bad cell", 7), None);
        assert_eq!(parse_ns("busy 7", 7), None);
        assert_eq!(parse_ns("ns 7 1.25 extra", 7), None);
        assert_eq!(parse_ns("ns 7 x", 7), None);
    }

    #[test]
    fn linear_cost_counts_every_multiply_add() {
        let (flops, bytes) = linear_score_cost(10, 4, 5);
        assert_eq!(flops, 2.0 * 10.0 * 4.0 * 4.0);
        assert_eq!(bytes, 8.0 * (4.0 * 4.0 + 10.0 * 5.0));
    }
}
