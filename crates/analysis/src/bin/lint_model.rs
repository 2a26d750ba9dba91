//! `lint-model`: static analysis of a serialized controller against one
//! of the paper's systems.
//!
//! ```text
//! cargo run -p cocktail-analysis --bin lint-model -- MODEL.json --system cartpole
//! ```
//!
//! The model file holds either a [`ControllerSpec`] or a bare `Mlp` (as
//! written by `Mlp::to_json`), which is wrapped with a unit output scale.
//!
//! Exit codes: `0` clean (warnings allowed unless `--deny-warnings`),
//! `1` findings failed the lint, `2` usage or load error.

use cocktail_analysis::{AnalysisConfig, Analyzer, ControllerSpec};
use cocktail_env::systems::{CartPole, Poly3d, VanDerPol};
use cocktail_env::Dynamics;
use cocktail_nn::Mlp;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: lint-model <MODEL.json> --system <NAME> [options]

Statically analyzes a serialized controller: composition, weight hygiene,
interval range analysis and Lipschitz certification. No rollouts are run.

arguments:
  <MODEL.json>            ControllerSpec JSON, or a bare Mlp (unit scale)
  --system <NAME>         plant: oscillator | 3d | cartpole

options:
  --deny-warnings         exit nonzero on warnings, not just errors
  --lipschitz-target <L>  distillation Lipschitz budget to check against
  --degree <N>            Bernstein degree for the cost prediction
  --quiet                 print only the verdict line
";

struct Args {
    model_path: String,
    system: Arc<dyn Dynamics>,
    deny_warnings: bool,
    quiet: bool,
    config: AnalysisConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut model_path = None;
    let mut system = None;
    let mut deny_warnings = false;
    let mut quiet = false;
    let mut config = AnalysisConfig::default();

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--system" => {
                let name = argv.next().ok_or("--system needs a value")?;
                system = Some(resolve_system(&name)?);
            }
            "--deny-warnings" => deny_warnings = true,
            "--quiet" => quiet = true,
            "--lipschitz-target" => {
                let v = argv.next().ok_or("--lipschitz-target needs a value")?;
                let l: f64 = v
                    .parse()
                    .map_err(|_| format!("invalid Lipschitz target `{v}`"))?;
                config.lipschitz_target = Some(l);
            }
            "--degree" => {
                let v = argv.next().ok_or("--degree needs a value")?;
                config.certificate.degree =
                    v.parse().map_err(|_| format!("invalid degree `{v}`"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => {
                if model_path.replace(other.to_string()).is_some() {
                    return Err("more than one model path given".to_string());
                }
            }
        }
    }

    Ok(Args {
        model_path: model_path.ok_or("no model path given")?,
        system: system.ok_or("no --system given")?,
        deny_warnings,
        quiet,
        config,
    })
}

fn resolve_system(name: &str) -> Result<Arc<dyn Dynamics>, String> {
    match name.to_ascii_lowercase().as_str() {
        "oscillator" | "vdp" | "vanderpol" => Ok(Arc::new(VanDerPol::new())),
        "3d" | "poly3d" | "3d-system" => Ok(Arc::new(Poly3d::new())),
        "cartpole" | "cart-pole" => Ok(Arc::new(CartPole::new())),
        other => Err(format!(
            "unknown system `{other}` (expected oscillator | 3d | cartpole)"
        )),
    }
}

/// Loads a spec, accepting a bare `Mlp` file by wrapping it in a neural
/// controller spec with unit scale.
fn load_spec(text: &str) -> Result<ControllerSpec, String> {
    match ControllerSpec::from_json(text) {
        Ok(spec) => Ok(spec),
        Err(spec_err) => match serde_json::from_str::<Mlp>(text) {
            Ok(net) => {
                let outputs = net.output_dim();
                Ok(ControllerSpec::from_network(net, vec![1.0; outputs]))
            }
            Err(mlp_err) => Err(format!(
                "neither a ControllerSpec ({spec_err}) nor a bare Mlp ({mlp_err})"
            )),
        },
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let text = match std::fs::read_to_string(&args.model_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read `{}`: {e}", args.model_path);
            return ExitCode::from(2);
        }
    };
    let spec = match load_spec(&text) {
        Ok(spec) => spec,
        Err(msg) => {
            eprintln!("error: cannot parse `{}`: {msg}", args.model_path);
            return ExitCode::from(2);
        }
    };

    let report = Analyzer::with_config(args.system, args.config).analyze(&spec);
    if !args.quiet && !report.is_empty() {
        println!("{report}");
    }

    let failed = report.has_errors() || (args.deny_warnings && report.has_warnings());
    println!(
        "{}: neural controller — {} ({})",
        args.model_path,
        if failed { "FAILED" } else { "PASSED" },
        report.summary()
    );
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
