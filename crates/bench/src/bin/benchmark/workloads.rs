//! The four workloads. Every workload runs the whole system once — the
//! offline path that produces κ*, a timed set-up from the bundle file to
//! the first reply, and traffic over loopback TCP — and differs in where
//! its measured seconds go:
//!
//! * `serve-closed`: closed-loop requests, one per connection in flight.
//! * `serve-pipelined`: one connection kept 128 requests deep.
//! * `rollout`: a 2-deep loop while a candidate is proposed, canaried and
//!   promoted.
//! * `pipeline`: repeated offline paths, each ending in a served bundle.
//!
//! Measured phases are split into repeats; each metric measured per
//! repeat reports the median of its repeats, with quartiles.

use crate::client::{
    self, describe_failures, ClosedOutcome, Pipeline, PipelinedOutcome, RequestPool, UNANSWERED,
};
use crate::metrics::Values;
use crate::prepare::{self, Offline, Scale, Served, TRAINING_SEED};
use crate::procfs::{self, ThreadSample};
use crate::sink::FoldingSink;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use cocktail_core::Preset;
use cocktail_obs::{NullSink, Telemetry};
use cocktail_serve::bundle::ControllerBundle;
use cocktail_serve::rollout::{routes_to_canary, RolloutConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, in run order for `--workload all`.
pub const NAMES: [&str; 4] = ["serve-closed", "serve-pipelined", "rollout", "pipeline"];

/// Requests the rollout traffic keeps in flight on its one connection, as
/// many as `serve-closed` has connections.
const ROLLOUT_DEPTH: usize = 2;

/// Set-ups of each offline path's bundle in `pipeline`, so that `setup_s`
/// has about as many repeats there as on the serving workloads.
const SETUPS_PER_PATH: usize = 3;

/// Reference bit of the incumbent's outputs in a [`RequestPool`].
const INCUMBENT: u8 = 1;
/// Reference bit of the rollout candidate's outputs.
const CANDIDATE: u8 = 2;

/// Everything a run's size depends on.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seed of every generated input: request states, arrival times.
    pub seed: u64,
    /// Length of the measured phase, s.
    pub seconds: f64,
    /// Offline-path scale.
    pub scale: Scale,
    /// Fewest rounds of a serving workload, and offline paths of
    /// `pipeline`, in a run, so that every metric measured per repeat has
    /// quartiles.
    pub min_repeats: u64,
    /// Request states in the seeded pool; request `i` sends state
    /// `i mod pool`.
    pub pool: usize,
    /// Length of one serving repeat, s.
    pub repeat_s: f64,
    /// Closed-loop connections (one generator thread each).
    pub connections: usize,
    /// Canary-routed replies to wait for before promoting.
    pub canary_replies: u64,
    /// Rollout traffic before `propose` and after `promote`, s.
    pub settle_s: f64,
    /// Length of the serving burst after each offline path, s.
    pub smoke_s: f64,
    /// Monte-Carlo episodes of the quality evaluation.
    pub eval_samples: usize,
}

impl Settings {
    /// The benchmark's settings.
    pub fn full(seed: u64, seconds: f64) -> Self {
        Self {
            seed,
            seconds,
            scale: Scale {
                preset: Preset::Fast,
                coarse_certificate: false,
            },
            min_repeats: 5,
            pool: 1 << 15,
            repeat_s: 1.0,
            connections: 2,
            canary_replies: 1_000,
            settle_s: 0.5,
            smoke_s: 0.25,
            eval_samples: 250,
        }
    }

    /// A toy run for tests: smoke-preset training, coarse certificates,
    /// a few hundred requests per workload.
    #[cfg(test)]
    pub fn toy(seed: u64) -> Self {
        Self {
            seconds: 0.3,
            scale: Scale {
                preset: Preset::Smoke,
                coarse_certificate: true,
            },
            min_repeats: 1,
            pool: 1 << 10,
            repeat_s: 0.05,
            canary_replies: 20,
            settle_s: 0.05,
            smoke_s: 0.05,
            eval_samples: 20,
            ..Self::full(seed, 0.3)
        }
    }
}

/// One measured repeat: the value it contributes to each end-to-end
/// metric it measures.
type Repeat = Values;

/// What every phase of a pass reads.
struct Ctx<'a> {
    st: &'a Settings,
    pool: &'a RequestPool,
    tracer: &'a Tracer,
}

/// What a set-up measures.
fn setup_values(setup: &prepare::Setup) -> Repeat {
    let certify_ms = setup
        .admitted
        .safety
        .as_ref()
        .map_or(f64::NAN, |c| c.verify_ms);
    vec![
        ("setup_s", setup.setup_s),
        ("admit_ms", setup.admit_ms),
        ("certify_ms", certify_ms),
    ]
}

/// Quartiles of every metric over `repeats`.
fn summarize(repeats: &[Repeat]) -> BTreeMap<&'static str, Summary> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in repeats {
        for &(name, v) in r {
            by_name.entry(name).or_default().push(v);
        }
    }
    by_name
        .into_iter()
        .filter_map(|(k, v)| Summary::of(&v).map(|s| (k, s)))
        .collect()
}

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Pass {
    /// Metrics measured once per repeat: every end-to-end metric, and
    /// the per-layer ones demoted from that list.
    pub repeated: BTreeMap<&'static str, Summary>,
    /// Per-layer metrics measured during the pass.
    pub layer: BTreeMap<&'static str, f64>,
    /// Workload-specific diagnostics that are not benchmark metrics.
    pub extras: BTreeMap<String, f64>,
    /// Operations attempted: requests, set-ups, offline paths.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
    /// The bundle the pass served last.
    pub bundle: Option<ControllerBundle>,
    /// The request pool of the pass.
    pub pool: Option<RequestPool>,
    /// Pipeline trainings the pass ran (per-training per-layer numbers
    /// divide by it).
    trainings: u64,
}

impl Pass {
    fn fail(&mut self, failed: u64, why: String) {
        self.failed += failed;
        self.problems.push(why);
    }
}

/// Runs one pass of `workload`. With `traced`, a folding telemetry sink is
/// attached to the pipeline, admission and engine.
pub fn run(workload: &str, st: &Settings, dir: &Path, traced: bool, tracer: &Tracer) -> Pass {
    let sink = Arc::new(FoldingSink::default());
    let tel: Arc<dyn Telemetry> = if traced {
        sink.clone()
    } else {
        Arc::new(NullSink)
    };
    let mut pass = Pass::default();
    let wall = Instant::now();
    let outcome = match workload {
        "pipeline" => pipeline(st, dir, &tel, tracer, &mut pass),
        _ => serving(workload, st, dir, &tel, tracer, &mut pass),
    };
    if let Err(e) = outcome {
        pass.fail(1, e);
    }
    if traced {
        fold_telemetry(&sink, &mut pass);
    }
    pass.layer.insert("proc.peak_rss_mb", procfs::peak_rss_mb());
    pass.extras
        .insert("pass_wall_s".into(), wall.elapsed().as_secs_f64());
    pass
}

/// Per-layer numbers the program's own telemetry carries.
fn fold_telemetry(sink: &FoldingSink, pass: &mut Pass) {
    let batches = sink.histogram("serve.batch_size");
    if !batches.is_empty() {
        let mean = batches.iter().sum::<f64>() / batches.len() as f64;
        pass.layer.insert("engine.batch_mean", mean);
    }
    let depth = stats::sorted(&sink.histogram("serve.queue_depth"));
    if let Some(p99) = stats::percentile(&depth, 0.99) {
        pass.layer.insert("engine.queue_depth_p99", p99);
    }
    pass.layer
        .insert("engine.rejected", sink.total("serve.rejections") as f64);
    let trainings = pass.trainings.max(1) as f64;
    for (metric, span) in [
        ("pipeline.ppo_mixing_s", "pipeline/ppo-mixing"),
        ("pipeline.dataset_s", "pipeline/dataset"),
        ("pipeline.direct_distill_s", "pipeline/direct-distill"),
        ("pipeline.robust_distill_s", "pipeline/robust-distill"),
        ("pipeline.student_lint_s", "pipeline/student-lint"),
    ] {
        pass.layer.insert(metric, sink.span_s(span) / trainings);
    }
    for name in [
        "ppo.samples",
        "ppo.minibatch_updates",
        "distill.minibatch_updates",
        "distill.fgsm_applied",
    ] {
        pass.layer.insert(name, sink.total(name) as f64 / trainings);
    }
}

/// Runs the offline path, noting it in the pass and the sink.
fn offline(
    seed: u64,
    st: &Settings,
    dir: &Path,
    tel: &Arc<dyn Telemetry>,
    tracer: &Tracer,
    pass: &mut Pass,
) -> Result<Offline, String> {
    pass.attempted += 1;
    let t = Instant::now();
    let experts = prepare::experts(seed);
    pass.layer
        .insert("pipeline.experts_s", t.elapsed().as_secs_f64());
    let off = prepare::offline_path(experts, seed, st.scale, dir, tel, tracer)?;
    pass.trainings += 1;
    pass.layer.insert("pipeline.certify_s", off.certify_s);
    pass.layer.insert("pipeline.package_s", off.package_s);
    pass.layer.insert(
        "pipeline.cpu_util",
        off.train_cpu_s / (off.train_s * cocktail_math::parallel::default_workers() as f64),
    );
    Ok(off)
}

/// Quality of κ*, timed.
fn quality(kappa_star: &cocktail_control::NnController, st: &Settings, pass: &mut Pass) -> Values {
    let t = Instant::now();
    let eval = prepare::evaluate(kappa_star, st.eval_samples);
    pass.layer
        .insert("pipeline.evaluate_s", t.elapsed().as_secs_f64());
    vec![
        ("safe_rate_pct", eval.safe_rate_percent()),
        ("energy", eval.mean_energy),
    ]
}

/// Fails the pass unless every repeat scored κ* bit for bit the same: the
/// training and evaluation seeds are fixed, so any difference is a
/// nondeterminism bug, not noise.
fn check_repeatable(qualities: &[Values], pass: &mut Pass) {
    let differs = |q: &Values| {
        q.iter()
            .zip(&qualities[0])
            .any(|(a, b)| a.1.to_bits() != b.1.to_bits())
    };
    if qualities.iter().any(differs) {
        pass.fail(1, "κ* quality differs between repeats of one run".into());
    }
}

/// Serving-side accounting, summed over the stretches of traffic of a
/// pass (set-ups and offline work in between are left out).
#[derive(Default)]
struct Accounting {
    wall_s: f64,
    cpu_s: f64,
    ticks: u64,
    stolen: u64,
    reactor: ThreadSample,
    engine: ThreadSample,
    client: ThreadSample,
    /// CPU of the rollout's control plane: the thread calling `propose`
    /// and `promote`, and the admission workers `propose` starts, s.
    control_cpu_s: f64,
    requests: u64,
    latencies_us: Vec<f64>,
}

/// One stretch of traffic against one server, opened before the first
/// request and closed after the last reply.
struct Window {
    started: Instant,
    cpu_s: f64,
    ticks: procfs::CpuTicks,
    reactor: ThreadSample,
    engine: ThreadSample,
}

impl Window {
    fn open(served: &Served) -> Self {
        Self {
            started: Instant::now(),
            cpu_s: procfs::process_cpu_s(),
            ticks: procfs::cpu_ticks(),
            reactor: procfs::sample_threads(&served.reactor_tids),
            engine: procfs::sample_threads(&served.shard_tids),
        }
    }

    /// Adds the stretch to `acct`.
    fn close(self, served: &Served, acct: &mut Accounting) {
        let ticks = procfs::cpu_ticks();
        acct.wall_s += self.started.elapsed().as_secs_f64();
        acct.cpu_s += procfs::process_cpu_s() - self.cpu_s;
        acct.ticks += ticks.total.saturating_sub(self.ticks.total);
        acct.stolen += ticks.steal.saturating_sub(self.ticks.steal);
        acct.reactor = acct.reactor + (procfs::sample_threads(&served.reactor_tids) - self.reactor);
        acct.engine = acct.engine + (procfs::sample_threads(&served.shard_tids) - self.engine);
    }
}

impl Accounting {
    fn finish(self, pass: &mut Pass) {
        let n = self.requests.max(1) as f64;
        let per = |ns: u64| ns as f64 / 1e3 / n;
        let layer = &mut pass.layer;
        layer.insert("reactor.cpu_us_per_req", per(self.reactor.cpu_ns));
        layer.insert("reactor.runq_us_per_req", per(self.reactor.runq_ns));
        layer.insert(
            "reactor.migrations_per_req",
            self.reactor.migrations as f64 / n,
        );
        layer.insert("reactor.ctxsw_per_req", self.reactor.ctxsw as f64 / n);
        layer.insert("engine.cpu_us_per_req", per(self.engine.cpu_ns));
        layer.insert("engine.runq_us_per_req", per(self.engine.runq_ns));
        layer.insert("engine.ctxsw_per_req", self.engine.ctxsw as f64 / n);
        layer.insert(
            "engine.migrations_per_req",
            self.engine.migrations as f64 / n,
        );
        layer.insert("gen.cpu_us_per_req", per(self.client.cpu_ns));
        let threads = (self.reactor.cpu_ns + self.engine.cpu_ns + self.client.cpu_ns) as f64 / 1e9
            + self.control_cpu_s;
        if self.cpu_s > 0.0 {
            layer.insert("proc.thread_accounted_share", threads / self.cpu_s);
        }
        if self.wall_s > 0.0 {
            let cores = cocktail_math::parallel::default_workers() as f64;
            layer.insert("proc.cpu_util", self.cpu_s / (self.wall_s * cores));
        }
        if self.ticks > 0 {
            layer.insert("host.steal_share", self.stolen as f64 / self.ticks as f64);
        }
        let lat = stats::sorted(&self.latencies_us);
        layer.insert("latency.samples", lat.len() as f64);
        if let Some((q, v)) = stats::highest_supported(&lat, 10) {
            layer.insert("latency.highest_pct", q * 100.0);
            layer.insert("latency.highest_us", v);
        }
    }
}

/// A closed-loop repeat over the configured connections for `secs`.
fn closed_repeat(
    ctx: &Ctx,
    served: &Served,
    first_id: u64,
    secs: f64,
    acct: &mut Accounting,
    pass: &mut Pass,
) -> Repeat {
    let (pool, tracer) = (ctx.pool, ctx.tracer);
    let window = Window::open(served);
    let until = Instant::now() + Duration::from_secs_f64(secs);
    let t0 = Instant::now();
    let outs: Vec<ClosedOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.st.connections as u64)
            .map(|c| {
                let id = first_id + (c << 32);
                s.spawn(move || {
                    client::closed_loop(served.addr(), pool, id, until, u64::MAX, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    window.close(served, acct);
    let (mut sent, mut ok) = (0, 0);
    let mut lat = Vec::new();
    for o in outs {
        sent += o.sent;
        ok += o.ok;
        acct.client = acct.client + o.client;
        lat.extend(o.latencies_us);
    }
    pass.attempted += sent;
    if ok < sent {
        pass.fail(
            sent - ok,
            format!(
                "{} of {sent} closed-loop replies wrong or missing",
                sent - ok
            ),
        );
    }
    acct.requests += sent;
    let sorted = stats::sorted(&lat);
    acct.latencies_us.extend_from_slice(&sorted);
    vec![
        (
            "p50_us",
            stats::percentile(&sorted, 0.5).unwrap_or(f64::NAN),
        ),
        (
            "p99_us",
            stats::percentile(&sorted, 0.99).unwrap_or(f64::NAN),
        ),
        ("throughput_rps", ok as f64 / wall),
    ]
}

/// A `serve-pipelined` round on one server: one connection kept
/// [`client::PIPELINE_WINDOW`] requests deep for `repeat_s`, so the shard
/// queue fills, the engine batches and the forward kernels set the pace.
fn pipelined_round(
    ctx: &Ctx,
    served: &Served,
    k: u64,
    acct: &mut Accounting,
    pass: &mut Pass,
) -> Repeat {
    let secs = ctx.st.repeat_s;
    let window = Window::open(served);
    let pipeline = Pipeline {
        window: client::PIPELINE_WINDOW,
        // more than any server here can answer in `secs`; the timer ends it
        limit: (secs * 2e6) as usize,
        first_id: (k + 1) << 32,
    };
    let burst = traffic(ctx, served, &pipeline, secs, pass);
    window.close(served, acct);
    let Some(out) = burst else {
        return Repeat::new();
    };
    check_incumbent(&out, "pipelined burst", pass);
    account_pipelined(&out, acct);
    rtt_values(&out, 0..out.sent)
}

/// Counts replies to `out` that are not the incumbent's as failures.
fn check_incumbent(out: &PipelinedOutcome, what: &str, pass: &mut Pass) {
    let failed = || {
        out.class[..out.sent]
            .iter()
            .copied()
            .filter(|c| c & INCUMBENT == 0)
    };
    let bad = failed().count() as u64;
    pass.attempted += out.sent as u64;
    if bad > 0 {
        pass.fail(
            bad,
            format!(
                "{what}, {} requests: {}",
                out.sent,
                describe_failures(failed())
            ),
        );
    }
}

/// Runs [`client::pipelined`] against `served` for `secs`.
fn traffic(
    ctx: &Ctx,
    served: &Served,
    pipeline: &Pipeline,
    secs: f64,
    pass: &mut Pass,
) -> Option<PipelinedOutcome> {
    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_secs_f64(secs));
            stop.store(true, Ordering::Relaxed);
        });
        client::pipelined(served.addr(), ctx.pool, pipeline, origin, &stop, ctx.tracer)
    });
    match out {
        Ok(out) => Some(out),
        Err(e) => {
            pass.fail(1, format!("traffic connection: {e}"));
            None
        }
    }
}

/// Adds a run of pipelined traffic to the accounting.
fn account_pipelined(out: &PipelinedOutcome, acct: &mut Accounting) {
    acct.requests += out.sent as u64;
    acct.client = acct.client + out.client;
    acct.latencies_us.extend(out.rtt_us(0..out.sent));
}

/// Round-trip latency and achieved rate of the requests in `range`.
fn rtt_values(out: &PipelinedOutcome, range: std::ops::Range<usize>) -> Repeat {
    let lat = stats::sorted(&out.rtt_us(range.clone()));
    let first_sent = range.clone().map(|i| out.sent_ns[i]).min();
    let last_recv = range
        .clone()
        .map(|i| out.recv_ns[i])
        .filter(|&t| t != u64::MAX)
        .max();
    let span_s = match (first_sent, last_recv) {
        (Some(a), Some(b)) if b > a => (b - a) as f64 / 1e9,
        _ => f64::NAN,
    };
    vec![
        ("p50_us", stats::percentile(&lat, 0.5).unwrap_or(f64::NAN)),
        ("p99_us", stats::percentile(&lat, 0.99).unwrap_or(f64::NAN)),
        ("throughput_rps", lat.len() as f64 / span_s),
    ]
}

/// `serve-closed`, `serve-pipelined` and `rollout`.
fn serving(
    workload: &str,
    st: &Settings,
    dir: &Path,
    tel: &Arc<dyn Telemetry>,
    tracer: &Tracer,
    pass: &mut Pass,
) -> Result<(), String> {
    let inc = offline(TRAINING_SEED, st, dir, tel, tracer, pass)?;
    let cand = match workload {
        "rollout" => Some(offline(TRAINING_SEED + 1, st, dir, tel, tracer, pass)?),
        _ => None,
    };
    // κ* is evaluated once per repeat, so that its quality has quartiles
    // like every other metric, and must score the same each time
    let mut prep: Vec<Repeat> = Vec::new();
    for _ in 0..st.min_repeats {
        prep.push(quality(&inc.kappa_star, st, pass));
    }
    check_repeatable(&prep, pass);
    prep[0].push(("pipeline_s", inc.train_s));
    let mut bundles = vec![&inc.bundle];
    bundles.extend(cand.as_ref().map(|c| &c.bundle));
    let pool = prepare::request_pool(&bundles, st.pool, st.seed)?;

    // rounds until the measured seconds are spent: a timed set-up from
    // the bundle file, then traffic on the server it started
    let ctx = Ctx {
        st,
        pool: &pool,
        tracer,
    };
    let mut setups = Vec::new();
    let mut repeats = Vec::new();
    let mut diags: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut acct = Accounting::default();
    let deadline = Instant::now() + Duration::from_secs_f64(st.seconds);
    let mut k = 0u64;
    while k < st.min_repeats || Instant::now() < deadline {
        pass.attempted += 1;
        let setup = prepare::serve_file(&inc.path, &pool, tel, tracer)?;
        setups.push(setup_values(&setup));
        let served = &setup.served;
        repeats.push(match workload {
            "serve-closed" => {
                closed_repeat(&ctx, served, (k + 1) << 40, st.repeat_s, &mut acct, pass)
            }
            "serve-pipelined" => pipelined_round(&ctx, served, k, &mut acct, pass),
            "rollout" => {
                let cand = cand.as_ref().ok_or("rollout without a candidate")?;
                let (repeat, diag) =
                    rollout_repeat(&ctx, served, &cand.bundle, k, &mut acct, pass)?;
                for (name, v) in diag {
                    diags.entry(name).or_default().push(v);
                }
                repeat
            }
            other => return Err(format!("unknown workload `{other}`")),
        });
        k += 1;
    }
    for (name, v) in diags {
        pass.extras
            .insert(format!("rollout.{name}"), stats::median(&v));
    }
    if workload == "rollout" {
        let idle = summarize(&setups).get("admit_ms").map(|s| s.median);
        if let (Some(idle), Some(loaded)) = (idle, summarize(&repeats).get("admit_ms")) {
            pass.layer.insert("admit.contention", loaded.median / idle);
        }
    }
    acct.finish(pass);
    pass.extras.insert("repeats".into(), repeats.len() as f64);

    let mut repeated = summarize(&setups);
    if workload == "rollout" {
        repeated.remove("admit_ms");
    }
    repeated.extend(summarize(&repeats));
    repeated.extend(summarize(&prep));
    pass.repeated = repeated;
    pass.layer.entry("admit.contention").or_insert(1.0);
    pass.bundle = Some(inc.bundle);
    pass.pool = Some(pool);
    Ok(())
}

/// One rollout: steady traffic, `propose` under load, canary until enough
/// canary-routed replies, `promote`, then traffic that must all be served
/// by the candidate.
fn rollout_repeat(
    ctx: &Ctx,
    served: &Served,
    candidate: &ControllerBundle,
    k: u64,
    acct: &mut Accounting,
    pass: &mut Pass,
) -> Result<(Repeat, Repeat), String> {
    let (st, tracer) = (ctx.st, ctx.tracer);
    let _span = tracer.span("rollout");
    let window = Window::open(served);
    let first_id = (k + 1) << 32;
    // a closed loop of depth ROLLOUT_DEPTH; the control plane stops it
    let pipeline = Pipeline {
        window: ROLLOUT_DEPTH,
        limit: 1_500_000,
        first_id,
    };
    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let (out, marks, status, control_cpu_s) = std::thread::scope(|s| {
        let traffic = s
            .spawn(|| client::pipelined(served.addr(), ctx.pool, &pipeline, origin, &stop, tracer));
        let control = || -> Result<([u64; 4], _, f64), String> {
            let own = procfs::sample_self();
            std::thread::sleep(Duration::from_secs_f64(st.settle_s));
            // admission's workers live only inside `propose`: their CPU is
            // what the process used beyond the threads alive before it
            let live = procfs::thread_ids();
            let (process0, live0) = (procfs::process_cpu_s(), procfs::sample_threads(&live));
            let p0 = Instant::now();
            {
                let _s = tracer.span("rollout/propose");
                served
                    .engine
                    .propose(candidate.clone(), &RolloutConfig::default())
                    .map_err(|e| format!("propose: {e}"))?;
            }
            let p1 = Instant::now();
            let live_cpu_s = (procfs::sample_threads(&live) - live0).cpu_ns as f64 / 1e9;
            let workers_cpu_s = (procfs::process_cpu_s() - process0 - live_cpu_s).max(0.0);
            let give_up = Instant::now() + Duration::from_secs(30);
            let status = loop {
                let status = served.engine.rollout_status();
                if status.canary_served >= st.canary_replies || Instant::now() > give_up {
                    break status;
                }
                std::thread::sleep(Duration::from_millis(2));
            };
            let q0 = Instant::now();
            {
                let _s = tracer.span("rollout/promote");
                served
                    .engine
                    .promote()
                    .map_err(|e| format!("promote: {e}"))?;
            }
            let q1 = Instant::now();
            std::thread::sleep(Duration::from_secs_f64(st.settle_s));
            let own_cpu_s = (procfs::sample_self() - own).cpu_ns as f64 / 1e9;
            let marks = [ns(p0), ns(p1), ns(q0), ns(q1)];
            Ok((marks, status, own_cpu_s + workers_cpu_s))
        };
        let control = control();
        stop.store(true, Ordering::Relaxed);
        let out = traffic
            .join()
            .map_err(|_| "traffic thread panicked".to_string());
        control.map(|(marks, status, cpu)| (out, marks, status, cpu))
    })?;
    let out = out?.map_err(|e| format!("rollout traffic: {e}"))?;
    let [p0, p1, q0, q1] = marks;
    window.close(served, acct);
    account_pipelined(&out, acct);
    acct.control_cpu_s += control_cpu_s;

    let violations = rollout_violations(&out, first_id, marks);
    pass.attempted += out.sent as u64;
    if !violations.is_empty() {
        pass.fail(
            violations.len() as u64,
            format!(
                "rollout, {} requests: {}",
                out.sent,
                describe_failures(violations.iter().map(|&i| out.class[i]))
            ),
        );
    }
    if status.canary_served < st.canary_replies {
        pass.fail(
            1,
            format!(
                "only {} canary replies before giving up",
                status.canary_served
            ),
        );
    }
    let mut repeat = rtt_values(&out, out.sent_between(p0, q1));
    repeat.push(("admit_ms", (p1 - p0) as f64 / 1e6));
    let steady = stats::sorted(&out.rtt_us(out.sent_between(0, p0)));
    let diag = vec![
        (
            "steady_p99_us",
            stats::percentile(&steady, 0.99).unwrap_or(f64::NAN),
        ),
        ("canary_rows", status.canary_shadowed as f64),
        ("shadow_divergence_mean", status.divergence.mean()),
        ("promote_ms", (q1 - q0) as f64 / 1e6),
    ];
    Ok((repeat, diag))
}

/// Replies that came from a controller the rollout timeline does not
/// allow. With `P0/P1` the start and return of `propose` and `Q0/Q1`
/// those of `promote`: a request written after `Q1` must be served by the
/// candidate; one answered before `P0` by the incumbent; a canary-routed
/// request written after `P1` by the candidate (it may be either before);
/// any other request by the incumbent until `Q0`, and by either after.
/// Returns the indices of offending requests.
fn rollout_violations(out: &PipelinedOutcome, first_id: u64, marks: [u64; 4]) -> Vec<usize> {
    let [p0, p1, q0, q1] = marks;
    (0..out.sent)
        .filter(|&i| {
            let class = out.class[i];
            if class == UNANSWERED {
                return true;
            }
            let (sent, recv) = (out.sent_ns[i], out.recv_ns[i]);
            let canary = routes_to_canary(
                first_id + i as u64,
                RolloutConfig::default().fraction_permille,
            );
            let allowed = if sent >= q1 {
                CANDIDATE
            } else if recv <= p0 {
                INCUMBENT
            } else if canary {
                if sent >= p1 {
                    CANDIDATE
                } else {
                    INCUMBENT | CANDIDATE
                }
            } else if recv <= q0 {
                INCUMBENT
            } else {
                INCUMBENT | CANDIDATE
            };
            class & allowed == 0
        })
        .collect()
}

/// `pipeline`: offline paths back to back, each ending in a set-up and a
/// short burst of traffic on the bundle it produced.
fn pipeline(
    st: &Settings,
    dir: &Path,
    tel: &Arc<dyn Telemetry>,
    tracer: &Tracer,
    pass: &mut Pass,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(st.seconds);
    let mut repeats = Vec::new();
    let mut pool: Option<RequestPool> = None;
    let mut qualities = Vec::new();
    let mut acct = Accounting::default();
    let mut k = 0u64;
    let mut bundle = None;
    while k < st.min_repeats || Instant::now() < deadline {
        let off = offline(TRAINING_SEED, st, dir, tel, tracer, pass)?;
        if pool.is_none() {
            pool = Some(prepare::request_pool(&[&off.bundle], st.pool, st.seed)?);
        }
        let pool = pool.as_ref().ok_or("no request pool")?;
        for _ in 1..SETUPS_PER_PATH {
            pass.attempted += 1;
            repeats.push(setup_values(&prepare::serve_file(
                &off.path, pool, tel, tracer,
            )?));
        }
        pass.attempted += 1;
        let setup = prepare::serve_file(&off.path, pool, tel, tracer)?;
        let ctx = Ctx { st, pool, tracer };
        let burst = closed_repeat(
            &ctx,
            &setup.served,
            (k + 1) << 40,
            st.smoke_s,
            &mut acct,
            pass,
        );
        let q = quality(&off.kappa_star, st, pass);
        qualities.push(q.clone());
        let mut values = setup_values(&setup);
        values.push(("pipeline_s", off.train_s));
        values.extend(q);
        values.extend(burst);
        repeats.push(values);
        bundle = Some(off.bundle);
        k += 1;
    }
    check_repeatable(&qualities, pass);
    acct.finish(pass);
    pass.extras.insert("repeats".into(), k as f64);
    pass.layer.insert("admit.contention", 1.0);
    pass.repeated = summarize(&repeats);
    pass.bundle = bundle;
    pass.pool = pool;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_summarize_per_metric() {
        let repeats = vec![
            vec![("p50_us", 30.0), ("setup_s", 1.0)],
            vec![("p50_us", 90.0)],
            vec![("p50_us", 31.0)],
        ];
        let s = summarize(&repeats);
        assert_eq!((s["p50_us"].median, s["p50_us"].n), (31.0, 3));
        assert_eq!(s["setup_s"].n, 1);
    }

    fn outcome(sent_ns: Vec<u64>, recv_ns: Vec<u64>, class: Vec<u8>) -> PipelinedOutcome {
        PipelinedOutcome {
            sent: sent_ns.len(),
            sent_ns,
            recv_ns,
            class,
            client: ThreadSample::default(),
        }
    }

    /// The closed-loop oracle against a deliberately wrong reference.
    #[test]
    fn wrong_reference_fails_the_oracle() {
        let dir = std::env::temp_dir().join(format!("benchmark-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("work dir");
        let st = Settings::toy(3);
        let tel: Arc<dyn Telemetry> = Arc::new(NullSink);
        let tracer = Tracer::new(false);
        let mut pass = Pass::default();
        let off = offline(TRAINING_SEED, &st, &dir, &tel, &tracer, &mut pass).expect("toy κ*");
        let mut pool = prepare::request_pool(&[&off.bundle], st.pool, st.seed).expect("pool");
        let setup = prepare::serve_file(&off.path, &pool, &tel, &tracer).expect("served");
        let mut acct = Accounting::default();
        let ctx = Ctx {
            st: &st,
            pool: &pool,
            tracer: &tracer,
        };
        closed_repeat(&ctx, &setup.served, 1 << 40, 0.05, &mut acct, &mut pass);
        assert_eq!(pass.failed, 0, "{:?}", pass.problems);
        for u in &mut pool.refs[0] {
            u[0] = -u[0] + 1e-3;
        }
        let ctx = Ctx {
            st: &st,
            pool: &pool,
            tracer: &tracer,
        };
        closed_repeat(&ctx, &setup.served, 2 << 40, 0.05, &mut acct, &mut pass);
        assert!(pass.failed > 0 && !pass.problems.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rollout_timeline_rules() {
        // find one canary-routed and one incumbent-routed id
        let first_id = 1u64 << 32;
        let permille = RolloutConfig::default().fraction_permille;
        let canary = (0..10_000u64)
            .find(|&i| routes_to_canary(first_id + i, permille))
            .expect("some id routes to the canary") as usize;
        let plain = (0..10_000u64)
            .find(|&i| !routes_to_canary(first_id + i, permille))
            .expect("some id stays on the incumbent") as usize;
        let n = canary.max(plain) + 1;
        let marks = [100, 200, 300, 400];
        let check = |i: usize, sent: u64, recv: u64, class: u8| {
            let mut s = vec![0; n];
            let mut r = vec![1; n];
            let mut c = vec![INCUMBENT; n];
            s[i] = sent;
            r[i] = recv;
            c[i] = class;
            rollout_violations(&outcome(s, r, c), first_id, marks).len()
        };
        // after promote returned: candidate only
        assert_eq!(check(plain, 450, 460, CANDIDATE), 0);
        assert_eq!(check(plain, 450, 460, INCUMBENT), 1);
        // answered before propose: incumbent only
        assert_eq!(check(canary, 10, 50, CANDIDATE), 1);
        // canary-routed after propose returned: candidate
        assert_eq!(check(canary, 250, 260, CANDIDATE), 0);
        assert_eq!(check(canary, 250, 260, INCUMBENT), 1);
        // canary-routed during propose: either
        assert_eq!(check(canary, 150, 260, INCUMBENT), 0);
        // incumbent-routed answered before promote: incumbent only
        assert_eq!(check(plain, 250, 260, CANDIDATE), 1);
        // incumbent-routed answered after promote began: either
        assert_eq!(check(plain, 250, 350, CANDIDATE), 0);
        // a wrong or missing answer never passes
        assert_eq!(check(plain, 250, 260, 0), 1);
        assert_eq!(check(plain, 250, u64::MAX, UNANSWERED), 1);
    }
}
