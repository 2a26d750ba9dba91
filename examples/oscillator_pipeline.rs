//! A detailed walk through every stage of the Cocktail pipeline on the
//! Van der Pol oscillator, including the verification of the final
//! student.
//!
//! ```text
//! cargo run --release --example oscillator_pipeline
//! ```
//!
//! Pass `--telemetry <path>` to stream structured JSONL telemetry (stage
//! spans, counters, per-iteration events) to `<path>`; the run prints an
//! aggregate summary of the stream at the end.
//!
//! Pass `--export-bundle <path>` to package the robust student `κ*` as a
//! `cocktail-serve` controller bundle (with its embedded formal safety
//! certificate) after verification, then read it back through the serving
//! admission gate as a self-check. The exported file is what
//! `cocktail-serve serve --bundle <path>` consumes.
//!
//! Pass `--verify` to run the certification self-check: the safety
//! certificate is serialized, re-derived from scratch, and the two are
//! required to agree exactly (wall-clock excluded) — the determinism
//! contract the serving admission gate relies on.
//!
//! Any other argument prints the usage line and exits with status 2.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "examples abort on failure by design"
)]

use cocktail_core::experts::{cloned_experts, reference_laws};
use cocktail_core::metrics::{evaluate_with_telemetry, EvalConfig};
use cocktail_core::pipeline::Cocktail;
use cocktail_core::report::render_telemetry_summary;
use cocktail_core::supervisor::SupervisorConfig;
use cocktail_core::{certify_student, Preset, SystemId};
use cocktail_obs::{read_jsonl, summarize, JsonlSink, NullSink, Telemetry};
use std::path::PathBuf;
use std::sync::Arc;

const USAGE: &str =
    "usage: oscillator_pipeline [--telemetry <path>] [--export-bundle <path>] [--verify]";

/// The command line: exactly the options [`USAGE`] names.
#[derive(Default)]
struct Options {
    telemetry: Option<PathBuf>,
    export_bundle: Option<PathBuf>,
    verify: bool,
}

impl Options {
    /// Parses the arguments after the program name, refusing any
    /// argument [`USAGE`] does not name.
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut args = raw.iter();
        while let Some(a) = args.next() {
            let slot = match a.as_str() {
                "--telemetry" => &mut opts.telemetry,
                "--export-bundle" => &mut opts.export_bundle,
                "--verify" => {
                    opts.verify = true;
                    continue;
                }
                other => return Err(format!("unknown argument `{other}`")),
            };
            let path = args.next().ok_or_else(|| format!("{a} needs a path"))?;
            *slot = Some(path.into());
        }
        Ok(opts)
    }
}

/// `--export-bundle <path>`: package `κ*` as a serving bundle, then load
/// it back through the admission gate so the example proves the artifact
/// it just wrote is actually servable.
fn export_bundle(
    path: &std::path::Path,
    sys_id: SystemId,
    result: &cocktail_core::pipeline::CocktailResult,
    config: &cocktail_core::pipeline::CocktailConfig,
    tel: &dyn Telemetry,
) {
    use cocktail_serve::bundle::{fnv1a_64, ControllerBundle, Provenance};

    let provenance = Provenance {
        seed: config.seed,
        config_hash: fnv1a_64(format!("{config:?}").as_bytes()),
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
    };
    let bundle = ControllerBundle::package_with(
        sys_id,
        result.kappa_star.network().clone(),
        result.kappa_star.scale().to_vec(),
        provenance,
        None, // canonical default verification budgets
        tel,
    )
    .expect("verified student packages");
    bundle.save(path).expect("bundle saves");
    println!(
        "\nexported controller bundle (format v{}) to {}",
        bundle.version,
        path.display()
    );

    let reloaded = ControllerBundle::load(path).expect("bundle loads back");
    match cocktail_serve::admit(reloaded) {
        Ok(admitted) => {
            println!(
                "admission self-check: ADMITTED (claim {:.4}, recomputed {:.4}, \
                 sweep lower bound {:.4})",
                admitted.bundle.lipschitz_claim,
                admitted.recomputed_bound,
                admitted.sweep_lower_bound
            );
            let cert = admitted
                .safety
                .expect("exported bundle carries a safety certificate");
            println!(
                "admission self-check: safety verdict {} ({} error margin) re-derived in {:.0} ms",
                cert.verdict.label(),
                cert.params.certificate.margin.label(),
                cert.verify_ms
            );
        }
        Err(e) => panic!("exported bundle failed its own admission gate: {e}"),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let opts = Options::parse(&raw).unwrap_or_else(|e| {
        eprintln!("oscillator_pipeline: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let sys_id = SystemId::Oscillator;
    let sys = sys_id.dynamics();
    let cfg = EvalConfig {
        samples: 250,
        ..Default::default()
    };

    let tel: Arc<dyn Telemetry> = match &opts.telemetry {
        Some(path) => Arc::new(JsonlSink::create(path).expect("telemetry file is writable")),
        None => Arc::new(NullSink),
    };
    let workers = cocktail_math::parallel::default_workers();

    // ---- stage 0: the reference laws behind the experts
    let (law1, law2) = reference_laws(sys_id);
    println!(
        "expert laws: u1 = -{:?} s + {:?}",
        law1.gain.row(0),
        law1.bias
    );
    println!(
        "             u2 = -{:?} s + {:?}",
        law2.gain.row(0),
        law2.bias
    );

    // ---- stage 1: behavior-cloned neural experts
    let experts = cloned_experts(sys_id, 0);
    for e in &experts {
        let eval = evaluate_with_telemetry(sys.as_ref(), e.as_ref(), &cfg, workers, &*tel);
        println!(
            "{}: S_r {:.1}%, e {:.1}, L {:.1}",
            e.name(),
            eval.safe_rate_percent(),
            eval.mean_energy,
            e.lipschitz(&sys.verification_domain())
                .expect("neural expert")
        );
    }

    // ---- stage 2: PPO adaptive mixing, under the checkpointing
    // supervisor (bit-identical to the plain run when nothing diverges)
    println!("\ntraining the adaptive mixing policy (PPO) ...");
    let pipeline_cfg =
        cocktail_core::experiment::pipeline_config(sys_id, Preset::from_env(Preset::Fast), 0);
    let result = Cocktail::new(sys_id, experts)
        .with_config(pipeline_cfg.clone())
        .with_telemetry(tel.clone())
        .run_supervised(&SupervisorConfig::default())
        .expect("supervised pipeline run succeeds");
    println!("PPO return trend (every 5th iteration):");
    for (i, stats) in result.ppo_history.iter().enumerate().step_by(5) {
        println!(
            "  iter {i:>3}: return {:>8.1}  safe episodes {:>5.1}%  mean length {:>5.1}",
            stats.mean_return,
            100.0 * stats.safe_fraction,
            stats.mean_length
        );
    }
    let mixed = evaluate_with_telemetry(sys.as_ref(), result.mixed.as_ref(), &cfg, workers, &*tel);
    println!(
        "A_W: S_r {:.1}%, e {:.1}",
        mixed.safe_rate_percent(),
        mixed.mean_energy
    );

    // example of the state-dependent weights
    for s in [[0.0, 0.0], [1.5, 1.5], [-1.8, 0.5]] {
        println!("  weights at {s:?}: {:?}", result.mixed.weights_at(&s));
    }

    // ---- stage 3: the two distillation variants
    println!("\ndistillation:");
    for (name, student) in [
        ("kappa_D", result.kappa_d.as_ref()),
        ("kappa_star", result.kappa_star.as_ref()),
    ] {
        let eval = evaluate_with_telemetry(sys.as_ref(), student, &cfg, workers, &*tel);
        println!(
            "{name}: S_r {:.1}%, e {:.1}, L {:.1}",
            eval.safe_rate_percent(),
            eval.mean_energy,
            student.lipschitz_constant()
        );
    }

    // ---- stage 4: the formal safety-certification stage (Bernstein
    // certificate with partition refinement, closed-loop reachability,
    // control-invariant set — one serializable, re-derivable artifact)
    println!("\ncertifying kappa_star (Bernstein + reachability + invariant set) ...");
    let cert = certify_student(sys_id, result.kappa_star.as_ref(), None, workers, &*tel)
        .expect("default budgets certify the distilled student");
    println!(
        "safety certificate: verdict {} — {} pieces (eps {:.3}, L {:.1}, {} splits), \
         reach {} steps (peak {} boxes, safe {}), invariant {}/{} cells alive \
         ({} sweeps, digest {:016x}), verified in {:.0} ms",
        cert.verdict.label(),
        cert.pieces,
        cert.epsilon,
        cert.lipschitz,
        cert.refinement_splits,
        cert.reach_steps,
        cert.reach_peak_boxes,
        cert.reach_safe,
        cert.invariant_alive,
        cert.invariant_cells,
        cert.invariant_iterations,
        cert.invariant_digest,
        cert.verify_ms
    );

    // ---- optional: the determinism self-check behind the admission gate
    if opts.verify {
        println!("re-deriving the certificate from scratch (--verify self-check) ...");
        let json = serde_json::to_string(&cert).expect("certificate serializes");
        let fresh = certify_student(
            sys_id,
            result.kappa_star.as_ref(),
            Some(&cert.params),
            workers,
            &*tel,
        )
        .expect("re-derivation succeeds under the same budgets");
        assert!(
            cert.matches(&fresh, 0.0),
            "certificate must re-derive exactly: {:?}",
            cert.diff(&fresh, 0.0)
        );
        println!(
            "self-check: OK — {} byte certificate re-derives bit-for-bit \
             (modulo wall-clock: {:.0} ms vs {:.0} ms)",
            json.len(),
            cert.verify_ms,
            fresh.verify_ms
        );
    }

    // ---- optional: export the verified student as a serving bundle
    if let Some(path) = &opts.export_bundle {
        export_bundle(path, sys_id, &result, &pipeline_cfg, &*tel);
    }

    // ---- telemetry: read the stream back and print the aggregate view
    if let Some(path) = &opts.telemetry {
        let events = read_jsonl(path).expect("telemetry stream parses back");
        println!(
            "\ntelemetry: {} events written to {}",
            events.len(),
            path.display()
        );
        print!("{}", render_telemetry_summary(&summarize(&events)));
    }
}
