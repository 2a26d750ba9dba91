//! A detailed walk through every stage of the Cocktail pipeline on the
//! Van der Pol oscillator, including the verification of the final
//! student.
//!
//! ```text
//! cargo run --release --example oscillator_pipeline
//! ```
//!
//! Pass `--faults` to run the fault-injection drill instead: one expert
//! is wrapped with a deterministic NaN fault and the mixed controller's
//! graceful-degradation monitor quarantines it mid-flight, printing the
//! degradation report.
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

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "examples abort on failure by design"
)]

use cocktail_core::experts::{cloned_experts, reference_laws};
use cocktail_core::metrics::{evaluate, evaluate_with_telemetry, EvalConfig};
use cocktail_core::pipeline::Cocktail;
use cocktail_core::report::render_telemetry_summary;
use cocktail_core::supervisor::SupervisorConfig;
use cocktail_core::{certify_student, Preset, SystemId};
use cocktail_obs::{read_jsonl, summarize, JsonlSink, NullSink, Telemetry};
use std::sync::Arc;

/// The path following `flag` on the command line, if present.
fn flag_path(flag: &str) -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return Some(
                args.next()
                    .unwrap_or_else(|| panic!("{flag} needs a path"))
                    .into(),
            );
        }
    }
    None
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
    let sys_id = SystemId::Oscillator;
    let sys = sys_id.dynamics();
    let cfg = EvalConfig {
        samples: 250,
        ..Default::default()
    };

    if std::env::args().any(|a| a == "--faults") {
        fault_drill(sys_id, &cfg);
        return;
    }

    let tel_path = flag_path("--telemetry");
    let tel: Arc<dyn Telemetry> = match &tel_path {
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
    if std::env::args().any(|a| a == "--verify") {
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
    if let Some(path) = flag_path("--export-bundle") {
        export_bundle(&path, sys_id, &result, &pipeline_cfg, &*tel);
    }

    // ---- telemetry: read the stream back and print the aggregate view
    if let Some(path) = tel_path {
        let events = read_jsonl(&path).expect("telemetry stream parses back");
        println!(
            "\ntelemetry: {} events written to {}",
            events.len(),
            path.display()
        );
        print!("{}", render_telemetry_summary(&summarize(&events)));
    }
}

/// The `--faults` mode: inject a permanent NaN fault into one expert and
/// show the degradation monitor quarantining it while the remaining
/// experts keep the plant safe.
fn fault_drill(sys_id: SystemId, cfg: &EvalConfig) {
    use cocktail_control::{ConstantWeights, DegradationConfig, FaultyExpert, MixedController};
    use cocktail_core::report::render_degradation_events;
    use cocktail_env::fault::{FaultKind, FaultPlan};
    use std::sync::Arc;

    let sys = sys_id.dynamics();
    let experts = cloned_experts(sys_id, 0);
    let (u_lo, u_hi) = sys.control_bounds();
    let weights = Arc::new(ConstantWeights(vec![0.5; experts.len()]));

    let healthy =
        MixedController::new(experts.clone(), weights.clone(), u_lo.clone(), u_hi.clone());
    let healthy_eval = evaluate(sys.as_ref(), &healthy, cfg);
    println!(
        "all-healthy mixture: S_r {:.1}%",
        healthy_eval.safe_rate_percent()
    );

    // expert 0 turns into a NaN source partway through every episode
    let plan = FaultPlan::window(FaultKind::NanOutput, 10, None);
    let mut faulted = experts.clone();
    faulted[0] = Arc::new(FaultyExpert::new(experts[0].clone(), plan, 0));
    println!(
        "injecting: {} emits NaN from step 10 onwards",
        faulted[0].name()
    );

    let unguarded =
        MixedController::new(faulted.clone(), weights.clone(), u_lo.clone(), u_hi.clone());
    let unguarded_eval = evaluate(sys.as_ref(), &unguarded, cfg);
    println!(
        "without quarantine:  S_r {:.1}% (NaN controls abort the rollout)",
        unguarded_eval.safe_rate_percent()
    );

    let guarded = MixedController::new(faulted, weights, u_lo, u_hi)
        .with_degradation(DegradationConfig::default());
    let guarded_eval = evaluate(sys.as_ref(), &guarded, cfg);
    println!(
        "with quarantine:     S_r {:.1}%",
        guarded_eval.safe_rate_percent()
    );

    let events = guarded.take_degradation_events();
    println!(
        "\ndegradation report ({} events, first 10 shown):",
        events.len()
    );
    let shown: Vec<_> = events.iter().take(10).cloned().collect();
    print!("{}", render_degradation_events(&shown));
}
