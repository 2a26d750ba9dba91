//! Shared machinery for the experiment-regeneration binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! prints the corresponding rows/series and writes a JSON artifact under
//! `target/cocktail-artifacts/`:
//!
//! | binary   | paper artifact |
//! |----------|----------------|
//! | `table1` | Table I (`S_r` / e / L for the six controllers, three systems) |
//! | `table2` | Table II (`κ_D` vs κ* under FGSM attacks and measurement noise) |
//! | `fig2`   | Fig. 2 (normalized control signal under attack) |
//! | `fig3`   | Fig. 3 (oscillator invariant set + verification time) |
//! | `fig4`   | Fig. 4 (3D-system reachable set; `κ_D` budget blow-up) |
//!
//! Set `COCKTAIL_FAST=1` to downgrade the preset for smoke runs, and
//! `COCKTAIL_SYSTEMS=oscillator,3d,cartpole` to restrict the system list.

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "experiment harness code aborts on failure by design"
)]

use cocktail_core::SystemId;
use serde::Serialize;
use std::path::PathBuf;

/// Where JSON artifacts land.
pub fn artifact_dir() -> PathBuf {
    let dir = PathBuf::from("target/cocktail-artifacts");
    std::fs::create_dir_all(&dir).expect("artifact dir must be creatable");
    dir
}

/// Writes a serializable artifact and reports the path.
pub fn save_artifact<T: Serialize>(name: &str, value: &T) {
    let path = artifact_dir().join(name);
    let json = serde_json::to_string_pretty(value).expect("artifact serializes");
    std::fs::write(&path, json).expect("artifact must be writable");
    println!("[artifact] {}", path.display());
}

/// The systems selected by `COCKTAIL_SYSTEMS` (default: all three).
pub fn selected_systems() -> Vec<SystemId> {
    match std::env::var("COCKTAIL_SYSTEMS") {
        Err(_) => SystemId::all().to_vec(),
        Ok(spec) => spec
            .split(',')
            .filter_map(|s| match s.trim().to_ascii_lowercase().as_str() {
                "oscillator" | "vdp" => Some(SystemId::Oscillator),
                "3d" | "poly3d" => Some(SystemId::Poly3d),
                "cartpole" => Some(SystemId::CartPole),
                "" => None,
                other => panic!("unknown system '{other}' in COCKTAIL_SYSTEMS"),
            })
            .collect(),
    }
}

pub use cocktail_core::report::{fmt_energy, fmt_lipschitz};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_matches_paper_conventions() {
        assert_eq!(fmt_lipschitz(None), "-");
        assert_eq!(fmt_lipschitz(Some(7.61)), "7.6");
        assert_eq!(fmt_energy(f64::NAN), "n/a");
        assert_eq!(fmt_energy(86.23), "86.2");
    }

    #[test]
    fn default_system_selection_is_all() {
        std::env::remove_var("COCKTAIL_SYSTEMS");
        assert_eq!(selected_systems().len(), 3);
    }
}
