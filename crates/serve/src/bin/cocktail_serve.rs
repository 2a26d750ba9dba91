//! `cocktail-serve` — the controller-serving CLI.
//!
//! ```text
//! cocktail-serve check         --bundle student.bundle.json
//! cocktail-serve serve         --bundle student.bundle.json --addr 127.0.0.1:7501
//! cocktail-serve loadgen       --bundle student.bundle.json --addr 127.0.0.1:7501
//! cocktail-serve smoke         --bundle student.bundle.json --telemetry tel.jsonl
//! cocktail-serve replay        --telemetry tel.jsonl --incumbent v1.json --candidate v2.json
//! cocktail-serve rollout-drill --bundle student.bundle.json --telemetry tel.jsonl
//! ```
//!
//! `check` runs admission and prints the evidence; `serve` admits then
//! serves over TCP until killed; `loadgen` drives an already-running
//! server and verifies every response bit-for-bit; `smoke` does
//! admit + serve + loadgen in one process on an ephemeral port and exits
//! non-zero on any fallback, mismatch, rejection, or error — the CI entry
//! point. `replay` re-runs a recorded request stream (the `serve.request`
//! captures in a telemetry log) through an incumbent and a candidate
//! bundle offline and judges the divergence against a rollout budget.
//! `rollout-drill` is the end-to-end fleet-operations drill: serve v1,
//! refuse a tampered candidate, canary and promote a valid one, raise
//! drift on shifted traffic, and prove a corrupted candidate auto-rolls
//! back with zero escaped responses.
//!
//! Serving runs the epoll reactor on the binary wire, so `serve`,
//! `smoke` and `rollout-drill` require Linux; `check`, `verify`,
//! `loadgen` and `replay` run anywhere. Serving commands take
//! `--shards N` (engine shards), plus `--drift-window N` /
//! `--drift-threshold X` to enable the served-output drift detector and
//! `--retrain-dir <dir>` to persist a retraining demand when it fires.
//! Every command refuses flags it does not know (exit 2 with the usage
//! text), so a typo never runs silently with the defaults.

use cocktail_core::supervisor::save_retrain_request;
use cocktail_obs::{JsonlSink, NullSink, Telemetry};
use cocktail_serve::loadgen::{self, LoadGenConfig, LoadReport};
#[cfg(target_os = "linux")]
use cocktail_serve::ReactorServer;
use cocktail_serve::{
    admit_with, load_recorded, shadow_replay, AdmissionConfig, BinaryTcpClient, ControllerBundle,
    DriftConfig, Engine, EngineConfig, EngineHandle, Provenance, RolloutAction, RolloutBudget,
    RolloutConfig, RolloutError,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses `--flag value` pairs and bare `--switch`es, refusing any
    /// flag not named in the space-separated `accepted` list.
    fn parse(raw: &[String], accepted: &str) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let key = raw[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got `{}`", raw[i]))?;
            if !accepted.split_whitespace().any(|f| f == key) {
                return Err(format!("unknown flag `--{key}`"));
            }
            // a flag followed by another flag (or by nothing) is a bare
            // boolean switch, e.g. `--allow-uncertified`
            match raw.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    flags.push((key.to_string(), v.clone()));
                    i += 2;
                }
                _ => {
                    flags.push((key.to_string(), "true".to_string()));
                    i += 1;
                }
            }
        }
        Ok(Self { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} got unparseable value `{v}`")),
        }
    }
}

type Command = fn(&Args) -> Result<ExitCode, String>;

/// Every command with the flags it accepts; [`USAGE`] lists the same sets.
const COMMANDS: &[(&str, Command, &str)] = &[
    ("check", cmd_check, "bundle allow-uncertified"),
    ("verify", cmd_verify, "bundle allow-uncertified"),
    (
        "serve",
        cmd_serve,
        "bundle addr allow-uncertified max-batch capacity shards telemetry drift-window \
         drift-threshold retrain-dir",
    ),
    (
        "loadgen",
        cmd_loadgen,
        "bundle addr requests connections seed",
    ),
    (
        "smoke",
        cmd_smoke,
        "bundle allow-uncertified requests connections seed telemetry max-batch capacity \
         shards drift-window drift-threshold",
    ),
    (
        "replay",
        cmd_replay,
        "telemetry incumbent candidate max-divergence max-envelope-violations",
    ),
    (
        "rollout-drill",
        cmd_rollout_drill,
        "bundle allow-uncertified telemetry retrain-dir shards",
    ),
];

/// The usage text: one entry per command in [`COMMANDS`], naming exactly
/// the flags that command accepts.
const USAGE: &str = "\
usage: cocktail-serve <check|verify|serve|loadgen|smoke|replay|rollout-drill> [options]

check         --bundle <path> [--allow-uncertified]
verify        --bundle <path> [--allow-uncertified]
serve         --bundle <path> --addr <ip:port> [--allow-uncertified] [--max-batch N]
              [--capacity N] [--shards N] [--telemetry <jsonl>] [--drift-window N]
              [--drift-threshold X] [--retrain-dir <dir>]
loadgen       --bundle <path> --addr <ip:port> [--requests N] [--connections N]
              [--seed N]
smoke         --bundle <path> [--allow-uncertified] [--requests N] [--connections N]
              [--seed N] [--telemetry <jsonl>] [--max-batch N] [--capacity N]
              [--shards N] [--drift-window N] [--drift-threshold X]
replay        --telemetry <jsonl> --incumbent <path> --candidate <path>
              [--max-divergence X] [--max-envelope-violations N]
rollout-drill --bundle <path> [--allow-uncertified] [--telemetry <jsonl>]
              [--retrain-dir <dir>] [--shards N]

serve, smoke and rollout-drill run the epoll reactor and require Linux.";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match raw.split_first() {
        None => Err("missing command".to_string()),
        Some((name, rest)) => match COMMANDS.iter().find(|(n, _, _)| *n == name.as_str()) {
            None => Err(format!("unknown command `{name}`")),
            Some((_, command, accepted)) => Args::parse(rest, accepted).map(|a| (command, a)),
        },
    };
    let (command, args) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cocktail-serve: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cocktail-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load_bundle(args: &Args) -> Result<ControllerBundle, String> {
    let path = PathBuf::from(args.required("bundle")?);
    ControllerBundle::load(&path).map_err(|e| e.to_string())
}

fn admission_config(args: &Args) -> Result<AdmissionConfig, String> {
    Ok(AdmissionConfig {
        allow_uncertified: args.parsed("allow-uncertified", false)?,
        ..AdmissionConfig::default()
    })
}

fn telemetry_of(args: &Args) -> Result<Arc<dyn Telemetry>, String> {
    match args.get("telemetry") {
        None => Ok(Arc::new(NullSink)),
        Some(path) => Ok(Arc::new(
            JsonlSink::create(Path::new(path)).map_err(|e| format!("telemetry sink: {e}"))?,
        )),
    }
}

fn engine_config(args: &Args) -> Result<EngineConfig, String> {
    let defaults = EngineConfig::default();
    let drift_defaults = DriftConfig::default();
    let drift = if args.get("drift-window").is_some() || args.get("drift-threshold").is_some() {
        Some(DriftConfig {
            window: args.parsed("drift-window", drift_defaults.window)?,
            bins: drift_defaults.bins,
            threshold: args.parsed("drift-threshold", drift_defaults.threshold)?,
        })
    } else {
        None
    };
    Ok(EngineConfig {
        max_batch: args.parsed("max-batch", defaults.max_batch)?,
        queue_capacity: args.parsed("capacity", defaults.queue_capacity)?,
        shards: args.parsed("shards", defaults.shards)?,
        drift,
    })
}

fn loadgen_config(args: &Args) -> Result<LoadGenConfig, String> {
    let defaults = LoadGenConfig::default();
    Ok(LoadGenConfig {
        requests: args.parsed("requests", defaults.requests)?,
        connections: args.parsed("connections", defaults.connections)?,
        seed: args.parsed("seed", defaults.seed)?,
    })
}

/// Stand-in for the reactor where epoll does not exist: it is never
/// constructed, because [`bind_server`] refuses first.
#[cfg(not(target_os = "linux"))]
enum ReactorServer {}

#[cfg(not(target_os = "linux"))]
impl ReactorServer {
    fn local_addr(&self) -> std::net::SocketAddr {
        match *self {}
    }

    fn shutdown(self) {
        match self {}
    }
}

/// Binds the serving endpoint: the epoll reactor on the binary wire.
#[cfg(target_os = "linux")]
fn bind_server(addr: &str, handle: EngineHandle) -> Result<ReactorServer, String> {
    ReactorServer::bind(addr, handle).map_err(|e| format!("bind: {e}"))
}

#[cfg(not(target_os = "linux"))]
fn bind_server(_addr: &str, _handle: EngineHandle) -> Result<ReactorServer, String> {
    Err("serving requires Linux (epoll)".to_string())
}

fn print_report(report: &LoadReport) {
    println!(
        "loadgen: sent={} completed={} rejected={} fallbacks={} mismatches={} errors={} \
         reconnects={} p50_latency_us={:.1} p99_latency_us={:.1} p999_latency_us={:.1} \
         throughput_rps={:.0}",
        report.sent,
        report.completed,
        report.rejected,
        report.fallbacks,
        report.mismatches,
        report.errors,
        report.reconnects,
        report.p50_latency_us,
        report.p99_latency_us,
        report.p999_latency_us,
        report.throughput_rps
    );
}

fn cmd_check(args: &Args) -> Result<ExitCode, String> {
    let bundle = load_bundle(args)?;
    match admit_with(bundle.clone(), &admission_config(args)?, &NullSink) {
        Ok(admitted) => {
            println!(
                "ADMITTED: neural controller for {} (claim {:.6}, recomputed {:.6}, \
                 sweep lower bound {:.6}, {} findings)",
                bundle.system.label(),
                bundle.lipschitz_claim,
                admitted.recomputed_bound,
                admitted.sweep_lower_bound,
                admitted.report.diagnostics().len()
            );
            match (&admitted.safety, &admitted.uncertified_reason) {
                (Some(cert), _) => println!(
                    "safety: verdict {} re-derived in {:.0} ms ({} pieces under the {} \
                     margin, epsilon {:.3e}, invariant {}/{} cells)",
                    cert.verdict.label(),
                    cert.verify_ms,
                    cert.pieces,
                    cert.params.certificate.margin.label(),
                    cert.epsilon,
                    cert.invariant_alive,
                    cert.invariant_cells
                ),
                (None, Some(reason)) => println!("safety: UNCERTIFIED ({reason})"),
                (None, None) => {}
            }
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("REFUSED: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Re-derives the bundle's formal safety certificate from the shipped
/// weights, plant spec and embedded budgets, prints shipped vs fresh side
/// by side, and exits non-zero unless the two agree exactly (wall-clock
/// excluded — it is a metric, not a claim).
fn cmd_verify(args: &Args) -> Result<ExitCode, String> {
    let bundle = load_bundle(args)?;
    bundle.validate().map_err(|e| e.to_string())?;
    let Some(shipped) = &bundle.safety else {
        let reason = bundle.uncertified_reason();
        if args.parsed("allow-uncertified", false)? {
            println!("verify: UNCERTIFIED, allowed by --allow-uncertified ({reason})");
            return Ok(ExitCode::SUCCESS);
        }
        eprintln!("verify: REFUSED: {reason}");
        return Ok(ExitCode::FAILURE);
    };
    if let Some(violation) = shipped
        .params
        .budget_ceiling_violation(&bundle.input_domain)
    {
        eprintln!("verify: REFUSED: shipped verification budgets exceed ceilings: {violation}");
        return Ok(ExitCode::FAILURE);
    }
    let (net, scale) = bundle.network().map_err(|e| e.to_string())?;
    let sys = bundle.system.dynamics();
    let fresh = cocktail_verify::certify_controller(
        sys.as_ref(),
        net,
        scale,
        &shipped.params,
        cocktail_math::parallel::default_workers(),
        &NullSink,
    )
    .map_err(|e| format!("re-derivation under the shipped budgets failed: {e}"))?
    .cert;
    let row = |label: &str, c: &cocktail_verify::SafetyCert| {
        println!(
            "{label:>8}: verdict {} | pieces {} | epsilon {:.6e} | reach {} steps \
             (peak {} boxes, safe {}) | invariant {}/{} cells (digest {:016x}) | {:.0} ms",
            c.verdict.label(),
            c.pieces,
            c.epsilon,
            c.reach_steps,
            c.reach_peak_boxes,
            c.reach_safe,
            c.invariant_alive,
            c.invariant_cells,
            c.invariant_digest,
            c.verify_ms
        );
    };
    row("shipped", shipped);
    row("fresh", &fresh);
    match shipped.diff(&fresh, 0.0) {
        None => {
            println!(
                "verify: OK — certificate re-derives exactly from the shipped \
                 weights and budgets"
            );
            Ok(ExitCode::SUCCESS)
        }
        Some(field) => {
            eprintln!("verify: REFUSED: shipped and re-derived certificates disagree on `{field}`");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_serve(args: &Args) -> Result<ExitCode, String> {
    let bundle = load_bundle(args)?;
    let tel = telemetry_of(args)?;
    let admitted = admit_with(bundle.clone(), &admission_config(args)?, &NullSink)
        .map_err(|e| format!("admission refused: {e}"))?;
    let config = engine_config(args)?;
    let engine = Engine::start_with(&admitted, config, None, tel).map_err(|e| e.to_string())?;
    let server = bind_server(args.required("addr")?, engine.handle())?;
    println!(
        "serving {} on {} ({} shards)",
        bundle.system.label(),
        server.local_addr(),
        config.shards.max(1)
    );
    // serve until killed, surfacing drift alarms as they arrive
    let retrain_dir = args.get("retrain-dir").map(PathBuf::from);
    let mut reported = 0usize;
    loop {
        std::thread::sleep(Duration::from_secs(5));
        let reports = engine.drift_reports();
        for r in &reports[reported.min(reports.len())..] {
            eprintln!(
                "drift: control dim {} moved total-variation {:.4} past {:.4} \
                 over a {}-output window",
                r.dim, r.distance, r.threshold, r.window
            );
            if let Some(dir) = &retrain_dir {
                match save_retrain_request(dir, &r.to_retrain_request(bundle.system.label())) {
                    Ok(p) => eprintln!("drift: retraining demand saved to {}", p.display()),
                    Err(e) => eprintln!("drift: could not save retraining demand: {e}"),
                }
            }
        }
        reported = reports.len();
    }
}

fn cmd_loadgen(args: &Args) -> Result<ExitCode, String> {
    let bundle = load_bundle(args)?;
    let addr = args
        .required("addr")?
        .parse()
        .map_err(|e| format!("--addr: {e}"))?;
    let report = loadgen::run_tcp(&bundle, addr, &loadgen_config(args)?);
    print_report(&report);
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_replay(args: &Args) -> Result<ExitCode, String> {
    let telemetry = PathBuf::from(args.required("telemetry")?);
    let incumbent = ControllerBundle::load(Path::new(args.required("incumbent")?))
        .map_err(|e| format!("incumbent: {e}"))?;
    let candidate = ControllerBundle::load(Path::new(args.required("candidate")?))
        .map_err(|e| format!("candidate: {e}"))?;
    let requests = load_recorded(&telemetry)?;
    if requests.is_empty() {
        return Err(format!(
            "{} holds no serve.request captures (serve with --telemetry to record them)",
            telemetry.display()
        ));
    }
    let defaults = RolloutBudget::default();
    let budget = RolloutBudget {
        max_divergence: args.parsed("max-divergence", defaults.max_divergence)?,
        max_envelope_violations: args
            .parsed("max-envelope-violations", defaults.max_envelope_violations)?,
    };
    let report = shadow_replay(&incumbent, &candidate, &requests)?;
    println!("{}", report.render());
    Ok(if report.within(&budget) {
        println!("replay: candidate within budget");
        ExitCode::SUCCESS
    } else {
        eprintln!("replay: candidate EXCEEDS budget");
        ExitCode::FAILURE
    })
}

/// The end-to-end fleet-operations drill (the CI rollout gate):
///
/// 1. serve the v1 bundle and verify a clean drill (this also freezes the
///    drift baseline);
/// 2. propose a tampered v2 — admission must refuse it;
/// 3. propose a valid v2, drive traffic through the 250‰ canary, promote,
///    and verify a clean drill against the v2 oracle;
/// 4. drive distribution-shifted traffic until the drift detector fires
///    (optionally persisting the retraining demand);
/// 5. propose a NaN-weight v3 — admission refuses; force it past
///    admission and prove the serving-side guard auto-rolls back with
///    every response still bit-identical to the v2 oracle.
#[allow(
    clippy::too_many_lines,
    reason = "the drill reads best as one linear script"
)]
fn cmd_rollout_drill(args: &Args) -> Result<ExitCode, String> {
    let fail = |msg: String| -> Result<ExitCode, String> {
        eprintln!("rollout-drill: FAIL: {msg}");
        Ok(ExitCode::FAILURE)
    };
    let v1 = load_bundle(args)?;
    let tel = telemetry_of(args)?;
    let admitted = admit_with(v1.clone(), &admission_config(args)?, &NullSink)
        .map_err(|e| format!("admission refused: {e}"))?;
    let drift_window = 128usize;
    let config = EngineConfig {
        shards: args.parsed("shards", 2)?,
        // threshold 0.6: same-distribution windows sit far below, the
        // shifted phase far above — deterministic either way
        drift: Some(DriftConfig {
            window: drift_window,
            bins: 8,
            threshold: 0.6,
        }),
        ..EngineConfig::default()
    };
    let engine = Engine::start_with(&admitted, config, None, tel).map_err(|e| e.to_string())?;
    let server = bind_server("127.0.0.1:0", engine.handle())?;
    let addr = server.local_addr();
    let drill = |bundle: &ControllerBundle, seed: u64| {
        loadgen::run_tcp(
            bundle,
            addr,
            &LoadGenConfig {
                requests: 256,
                connections: 4,
                seed,
            },
        )
    };

    // 1. incumbent serves clean
    let r1 = drill(&v1, 0xD1);
    print_report(&r1);
    if !r1.is_clean() {
        return fail(format!("v1 drill not clean: {r1:?}"));
    }
    println!(
        "rollout-drill: v1 serving clean at epoch {}",
        engine.model_epoch()
    );

    // 2. tampered candidate: understated Lipschitz claim
    let mut tampered = v1.clone();
    tampered.lipschitz_claim *= 0.5;
    match engine.propose(tampered, &RolloutConfig::default()) {
        Err(RolloutError::Refused(e)) => {
            println!("rollout-drill: tampered candidate refused ({e})");
        }
        Ok(_) => return fail("tampered candidate was admitted".to_string()),
        Err(e) => return fail(format!("tampered candidate: wrong refusal {e}")),
    }

    // 3. valid v2: a small genuine weight change, repackaged (admission
    // recomputes its certificate) — canary, then promote
    let (net, scale) = v1.network().map_err(|e| e.to_string())?;
    let mut net2 = net.clone();
    net2.layers_mut()[0].weights_mut()[(0, 0)] += 1.0e-3;
    let v2 = ControllerBundle::package(
        v1.system,
        net2,
        scale.to_vec(),
        Provenance {
            seed: v1.provenance.seed ^ 0xF00D,
            config_hash: v1.provenance.config_hash,
            crate_version: v1.provenance.crate_version.clone(),
        },
    )
    .map_err(|e| format!("package v2: {e}"))?;
    let canary_epoch = engine
        .propose(
            v2.clone(),
            &RolloutConfig {
                fraction_permille: 250,
                budget: RolloutBudget::default(),
            },
        )
        .map_err(|e| format!("propose v2: {e}"))?;
    // canary-routed responses come from v2, so mismatches against the v1
    // oracle ARE the measured divergence; fallbacks/errors must stay zero
    let r2 = drill(&v1, 0xD2);
    print_report(&r2);
    if r2.fallbacks != 0 || r2.errors != 0 || r2.rejected != 0 || r2.completed != r2.sent {
        return fail(format!("canary drill degraded: {r2:?}"));
    }
    let status = engine.rollout_status();
    if status.canary_shadowed == 0 {
        return fail("canary saw no traffic at 250/1000".to_string());
    }
    println!(
        "rollout-drill: canary at epoch {canary_epoch} shadowed {} requests \
         (divergence max {:.3e})",
        status.canary_shadowed, status.divergence.max
    );
    let promoted_epoch = engine.promote().map_err(|e| format!("promote: {e}"))?;
    let r3 = drill(&v2, 0xD3);
    print_report(&r3);
    if !r3.is_clean() {
        return fail(format!("post-promote drill not clean: {r3:?}"));
    }
    println!("rollout-drill: promoted to epoch {promoted_epoch}, serving v2 clean");

    // 4. distribution shift: constant corner-of-domain states collapse
    // the served-output histogram into one bin — drift must fire
    let corner: Vec<f64> = v1.input_domain.lower();
    let mut client = BinaryTcpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for _ in 0..(3 * drift_window) {
        client
            .control(&corner)
            .map_err(|e| format!("shifted request: {e}"))?;
    }
    let reports = engine.drift_reports();
    let Some(first) = reports.first() else {
        return fail("drift never fired under shifted traffic".to_string());
    };
    println!(
        "rollout-drill: drift raised on control dim {} (total-variation {:.4} > {:.4})",
        first.dim, first.distance, first.threshold
    );
    if let Some(dir) = args.get("retrain-dir") {
        let path =
            save_retrain_request(Path::new(dir), &first.to_retrain_request(v1.system.label()))
                .map_err(|e| format!("save retraining demand: {e}"))?;
        println!(
            "rollout-drill: retraining demand saved to {}",
            path.display()
        );
    }

    // 5. corrupted v3: refused by admission, then forced past it to prove
    // the serving-side guard
    let mut v3 = v2.clone();
    let cocktail_analysis::ControllerSpec::Mlp { net: v3_net, .. } = &mut v3.spec;
    v3_net.layers_mut()[0].weights_mut()[(0, 0)] = f64::NAN;
    match engine.propose(v3, &RolloutConfig::default()) {
        Err(RolloutError::Refused(e)) => {
            println!("rollout-drill: corrupted candidate refused by admission ({e})");
        }
        Ok(_) => return fail("corrupted candidate was admitted".to_string()),
        Err(e) => return fail(format!("corrupted candidate: wrong refusal {e}")),
    }
    let mut nan_net = net.clone();
    nan_net.layers_mut()[0].weights_mut()[(0, 0)] = f64::NAN;
    engine
        .propose_parts(
            nan_net,
            scale.to_vec(),
            v1.u_inf.clone(),
            v1.u_sup.clone(),
            &RolloutConfig {
                fraction_permille: 500,
                budget: RolloutBudget::default(),
            },
        )
        .map_err(|e| format!("force-install v3: {e}"))?;
    // every canary-routed row must be answered from the incumbent shadow:
    // the drill stays bit-identical to the v2 oracle, zero escapes
    let r4 = drill(&v2, 0xD4);
    print_report(&r4);
    if !r4.is_clean() {
        return fail(format!(
            "corrupted-candidate output escaped (drill vs v2 oracle): {r4:?}"
        ));
    }
    let events = engine.rollout_events();
    if !events
        .iter()
        .any(|e| matches!(e.action, RolloutAction::AutoRolledBack))
    {
        return fail("auto-rollback never fired on the NaN candidate".to_string());
    }
    let final_status = engine.rollout_status();
    if final_status.canary_active {
        return fail("canary still active after auto-rollback".to_string());
    }
    println!(
        "rollout-drill: NaN candidate auto-rolled back at epoch {} with zero escaped responses",
        final_status.epoch
    );
    server.shutdown();
    engine.shutdown();
    println!("rollout-drill: PASS");
    Ok(ExitCode::SUCCESS)
}

fn cmd_smoke(args: &Args) -> Result<ExitCode, String> {
    let bundle = load_bundle(args)?;
    let tel = telemetry_of(args)?;
    let admitted = admit_with(bundle.clone(), &admission_config(args)?, &NullSink)
        .map_err(|e| format!("admission refused: {e}"))?;
    let config = engine_config(args)?;
    let engine = Engine::start_with(&admitted, config, None, tel).map_err(|e| e.to_string())?;
    let server = bind_server("127.0.0.1:0", engine.handle())?;
    let report = loadgen::run_tcp(&bundle, server.local_addr(), &loadgen_config(args)?);
    server.shutdown();
    engine.shutdown();
    print_report(&report);
    if report.is_clean() {
        println!(
            "smoke: clean over the reactor with {} shards \
             (every response bit-identical to the per-sample reference)",
            config.shards.max(1)
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("smoke: NOT clean");
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(command: &str, line: &str) -> Result<Args, String> {
        let (_, _, accepted) = COMMANDS
            .iter()
            .find(|(n, _, _)| *n == command)
            .expect("known command");
        let raw: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&raw, accepted)
    }

    #[test]
    fn unknown_flags_are_refused() {
        // a retired transport option and a typo of `--shards`
        assert!(parse("smoke", "--bundle b.json --wire json").is_err());
        assert!(parse("serve", "--shard 4").is_err());
        let args = parse("serve", "--shards 4 --allow-uncertified").expect("known flags");
        assert_eq!(args.get("shards"), Some("4"));
        assert_eq!(args.get("allow-uncertified"), Some("true"));
    }

    #[test]
    fn serve_and_smoke_refuse_the_retired_tier_flag() {
        // the engine serves only the exact network the SafetyCert proves,
        // so no command takes a kernel tier
        let retired = "tier";
        for command in ["serve", "smoke"] {
            for value in ["exact", "fast-tanh"] {
                let line = format!("--bundle b.json --{retired} {value}");
                assert!(parse(command, &line).is_err(), "{command} {line}");
            }
        }
    }

    #[test]
    fn usage_names_exactly_each_commands_flags() {
        let mut documented: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in USAGE.lines() {
            let first = line.split_whitespace().next().unwrap_or("");
            if COMMANDS.iter().any(|(n, _, _)| *n == first) {
                documented.push((first, Vec::new()));
            } else if !line.starts_with(' ') {
                continue;
            }
            let Some((_, flags)) = documented.last_mut() else {
                continue;
            };
            for (i, _) in line.match_indices("--") {
                let rest = &line[i + 2..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .unwrap_or(rest.len());
                flags.push(&rest[..end]);
            }
        }
        assert_eq!(
            documented.len(),
            COMMANDS.len(),
            "one usage entry per command"
        );
        for (name, _, accepted) in COMMANDS {
            let mut want: Vec<&str> = accepted.split_whitespace().collect();
            let (_, got) = documented
                .iter_mut()
                .find(|(n, _)| n == name)
                .expect("documented command");
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(*got, want, "usage of `{name}`");
        }
    }
}
