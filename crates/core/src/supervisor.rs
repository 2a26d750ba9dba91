//! Fault-tolerant supervision of the training pipeline: typed errors,
//! on-disk checkpoints, divergence detection and bounded rewind/retry.
//!
//! The pipeline driver ([`crate::pipeline::Cocktail::run_supervised`],
//! which `run` and `try_run` call with [`SupervisorConfig::default()`])
//! runs the two resumable training stages — PPO mixing
//! ([`cocktail_rl::PpoSession`]) and robust distillation
//! ([`cocktail_distill::RobustDistillSession`]) — through one stage loop
//! with:
//!
//! * **periodic checkpoints**: every [`SupervisorConfig::checkpoint_every`]
//!   units (PPO iterations / distillation epochs) the complete training
//!   state (networks, optimizer moments, RNG stream words, shuffled sample
//!   order) is kept in memory and, with a checkpoint directory, written to
//!   `<dir>/cocktail.ckpt.json` via a write-to-temp-then-rename so a crash
//!   never leaves a torn file. The file is stamped with the plant, the
//!   seed and a digest of the config, and only the same run resumes it;
//! * **divergence detection**: a non-finite mean return / training loss —
//!   or, optionally, a collapse beyond
//!   [`DivergenceConfig::collapse_drop`] below the best value seen — rolls
//!   the stage back to its last good checkpoint and deterministically
//!   reseeds the exploration streams;
//! * **bounded retries**: after [`DivergenceConfig::max_retries`] failed
//!   rewinds the run gives up with [`PipelineError::Diverged`] instead of
//!   panicking or looping forever.
//!
//! Resume is bit-exact: killing a supervised run mid-stage and resuming
//! from the checkpoint file reproduces the uninterrupted run's artifacts
//! bit-for-bit (see `tests/fault_tolerance.rs`).

use crate::pipeline::CocktailConfig;
use crate::system::SystemId;
use cocktail_distill::DistillCheckpoint;
use cocktail_nn::Mlp;
use cocktail_rl::ddpg::EpisodeStats;
use cocktail_rl::ppo::{GaussianPolicy, IterationStats};
use cocktail_rl::PpoCheckpoint;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// On-disk checkpoint format version; bumped on breaking layout changes.
pub const CHECKPOINT_VERSION: u32 = 2;

/// File name of the pipeline checkpoint inside the checkpoint directory.
pub const CHECKPOINT_FILE: &str = "cocktail.ckpt.json";

/// A typed pipeline failure (instead of a panic).
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A `PreflightMode::Deny` gate found error-level diagnostics.
    PreflightDenied {
        /// Which gate fired (`"pre-flight"` or `"student"`).
        stage: String,
        /// The report's severity summary.
        summary: String,
    },
    /// A training stage kept diverging after all allowed rewinds.
    Diverged {
        /// Which stage diverged (`"ppo-mixing"` or `"robust-distill"`).
        stage: String,
        /// Rewind/reseed attempts consumed (including the initial run).
        attempts: u32,
        /// What the divergence monitor observed.
        detail: String,
    },
    /// The run stopped at the configured interruption point after saving a
    /// checkpoint (test/ops hook for kill-and-resume drills).
    Interrupted {
        /// The stage that was interrupted.
        stage: String,
        /// The checkpoint file the resumed run should load (empty when no
        /// checkpoint directory was configured — nothing was persisted).
        checkpoint: PathBuf,
    },
    /// Checkpoint I/O or validation failed (unreadable file, or a
    /// version, plant, seed or config digest other than the run's).
    Checkpoint {
        /// The offending file.
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PreflightDenied { stage, summary } => write!(
                f,
                "cocktail {stage} analysis failed ({summary}); set preflight to Warn or Off \
                 to proceed anyway"
            ),
            Self::Diverged {
                stage,
                attempts,
                detail,
            } => write!(f, "{stage} diverged after {attempts} attempt(s): {detail}"),
            Self::Interrupted { stage, checkpoint } => write!(
                f,
                "{stage} interrupted; resume from {}",
                checkpoint.display()
            ),
            Self::Checkpoint { path, detail } => {
                write!(f, "checkpoint {} unusable: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Divergence-detection policy for the supervised training stages.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceConfig {
    /// Rewind/reseed attempts before giving up with
    /// [`PipelineError::Diverged`].
    pub max_retries: u32,
    /// Optional collapse threshold: a unit metric (mean return for PPO,
    /// negated loss for distillation — higher is better for both) falling
    /// more than this below the best value seen in the stage counts as
    /// divergence. `None` (the default) only checks finiteness, which is
    /// what keeps resume bit-exact even across retries.
    pub collapse_drop: Option<f64>,
}

impl Default for DivergenceConfig {
    fn default() -> Self {
        Self {
            max_retries: 3,
            collapse_drop: None,
        }
    }
}

/// Configuration of [`crate::pipeline::Cocktail::run_supervised`].
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// Where to persist checkpoints. `None` keeps checkpoints in memory
    /// only (divergence rewind still works; kill-and-resume does not).
    pub checkpoint_dir: Option<PathBuf>,
    /// Persist a checkpoint every this many completed units (PPO
    /// iterations / distillation epochs). `0` is treated as `1`.
    pub checkpoint_every: usize,
    /// Divergence detection and retry budget.
    pub divergence: DivergenceConfig,
    /// Test/ops hook: stop with [`PipelineError::Interrupted`] after this
    /// many units have executed *in this invocation*, saving a checkpoint
    /// first. `None` runs to completion.
    pub interrupt_after: Option<u64>,
}

impl SupervisorConfig {
    /// Checkpoints to `dir` with all other settings at their defaults.
    pub fn to_dir(dir: impl Into<PathBuf>) -> Self {
        Self {
            checkpoint_dir: Some(dir.into()),
            ..Self::default()
        }
    }

    pub(crate) fn cadence(&self) -> usize {
        self.checkpoint_every.max(1)
    }
}

/// Watches a per-unit quality metric (higher is better) for non-finite
/// values and optional collapse below the best value seen.
#[derive(Debug, Clone)]
pub struct DivergenceMonitor {
    best: f64,
    collapse_drop: Option<f64>,
}

impl DivergenceMonitor {
    /// Creates a monitor with no history.
    pub fn new(collapse_drop: Option<f64>) -> Self {
        Self {
            best: f64::NEG_INFINITY,
            collapse_drop,
        }
    }

    /// Re-seeds the monitor's best-seen value from past metrics (used when
    /// resuming or rewinding a stage so the monitor state is a pure
    /// function of the checkpointed history).
    pub fn rewind_to(&mut self, past: impl IntoIterator<Item = f64>) {
        self.best = past
            .into_iter()
            .filter(|m| m.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
    }

    /// Feeds one unit's metric. Returns `Some(reason)` when the unit
    /// counts as diverged (the metric is then *not* folded into `best`).
    pub fn observe(&mut self, metric: f64) -> Option<String> {
        if !metric.is_finite() {
            return Some(format!("non-finite unit metric {metric}"));
        }
        if let Some(drop) = self.collapse_drop {
            if self.best.is_finite() && self.best - metric > drop {
                return Some(format!(
                    "metric {metric} collapsed more than {drop} below best {}",
                    self.best
                ));
            }
        }
        self.best = self.best.max(metric);
        None
    }
}

/// What the mixing stage produced, in checkpointable form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MixingArtifact {
    /// PPO mixing: the trained Gaussian policy and its iteration history.
    Ppo {
        /// The trained weight policy.
        policy: GaussianPolicy,
        /// Per-iteration statistics.
        history: Vec<IterationStats>,
    },
    /// DDPG mixing (Remark 1): the trained actor and its episode history.
    Ddpg {
        /// The trained actor network.
        actor: Mlp,
        /// Per-episode statistics.
        history: Vec<EpisodeStats>,
    },
}

/// Where the pipeline stands, with everything needed to resume bit-exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StageCheckpoint {
    /// Mid-PPO-mixing.
    Mixing {
        /// The in-flight PPO training state.
        ppo: PpoCheckpoint,
    },
    /// Mixing done (artifact frozen), mid-robust-distillation. The teacher
    /// dataset and `κ_D` are *not* stored mid-epoch — the dataset is a pure
    /// function of `(mixed, seed)` and is regenerated on resume.
    Robust {
        /// The frozen mixing artifact.
        mixing: MixingArtifact,
        /// The already-trained direct student network.
        kappa_d: Mlp,
        /// The in-flight robust-distillation state.
        distill: DistillCheckpoint,
        /// Per-epoch training losses so far (feeds the divergence monitor
        /// deterministically on resume).
        losses: Vec<f64>,
    },
}

/// The on-disk pipeline checkpoint: versioned, stamped with the run it
/// belongs to, one stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The plant the run trains on.
    pub plant: SystemId,
    /// The pipeline master seed the checkpoint belongs to.
    pub seed: u64,
    /// FNV-1a of the run's `CocktailConfig` in `Debug` form (the digest a
    /// bundle's `Provenance::config_hash` records).
    pub config_hash: u64,
    /// The resumable stage state.
    pub stage: StageCheckpoint,
}

impl PipelineCheckpoint {
    /// Wraps a stage snapshot with the current version and the stamp of the
    /// run of `config` on `plant`.
    pub fn new(plant: SystemId, config: &CocktailConfig, stage: StageCheckpoint) -> Self {
        Self {
            version: CHECKPOINT_VERSION,
            plant,
            seed: config.seed,
            config_hash: config_hash(config),
            stage,
        }
    }
}

/// 64-bit FNV-1a of `config`'s `Debug` form.
fn config_hash(config: &CocktailConfig) -> u64 {
    format!("{config:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Atomically and *durably* writes `value` as JSON to `<dir>/<file>`,
/// creating `dir` if needed.
///
/// Write-to-temp-then-rename alone only protects against torn writes from
/// the process crashing; on a power loss common filesystems may persist
/// the rename before the temp file's *data*, surfacing an empty or
/// truncated file. The temp file is therefore `fsync`ed before the
/// rename, and the parent directory after it, so the on-disk file is
/// always either the complete old version or the complete new one.
fn write_durably(dir: &Path, file: &str, value: &impl Serialize) -> Result<PathBuf, PipelineError> {
    use std::io::Write;

    let path = dir.join(file);
    let failed = |detail: String| PipelineError::Checkpoint {
        path: path.clone(),
        detail,
    };
    std::fs::create_dir_all(dir).map_err(|e| failed(format!("create dir: {e}")))?;
    let json = serde_json::to_string(value).map_err(|e| failed(format!("serialize: {e}")))?;
    let tmp = dir.join(format!("{file}.tmp"));
    {
        let mut f =
            std::fs::File::create(&tmp).map_err(|e| failed(format!("create temp file: {e}")))?;
        f.write_all(json.as_bytes())
            .map_err(|e| failed(format!("write temp file: {e}")))?;
        // data must be on the platter before the rename publishes the name
        f.sync_all()
            .map_err(|e| failed(format!("fsync temp file: {e}")))?;
    }
    std::fs::rename(&tmp, &path).map_err(|e| failed(format!("rename into place: {e}")))?;
    // the rename itself lives in the directory entry; fsync the directory
    // so a power loss cannot roll the publish back (POSIX directories open
    // read-only for this; other platforms rely on the rename's own
    // durability semantics)
    #[cfg(unix)]
    {
        let d = std::fs::File::open(dir).map_err(|e| failed(format!("open dir: {e}")))?;
        d.sync_all()
            .map_err(|e| failed(format!("fsync dir: {e}")))?;
    }
    Ok(path)
}

/// Reads `<dir>/<file>` as JSON if it exists.
fn read_json<T: Deserialize>(
    dir: &Path,
    file: &str,
) -> Result<Option<(PathBuf, T)>, PipelineError> {
    let path = dir.join(file);
    if !path.exists() {
        return Ok(None);
    }
    let parsed = std::fs::read_to_string(&path)
        .map_err(|e| format!("read: {e}"))
        .and_then(|json| serde_json::from_str(&json).map_err(|e| format!("parse: {e}")));
    match parsed {
        Ok(value) => Ok(Some((path, value))),
        Err(detail) => Err(PipelineError::Checkpoint { path, detail }),
    }
}

/// Atomically and durably persists `ckpt` as `<dir>/`[`CHECKPOINT_FILE`]
/// (write → fsync → rename → fsync the directory). Creates `dir` if needed.
///
/// # Errors
///
/// Returns [`PipelineError::Checkpoint`] on any I/O failure.
pub fn save_checkpoint(dir: &Path, ckpt: &PipelineCheckpoint) -> Result<PathBuf, PipelineError> {
    write_durably(dir, CHECKPOINT_FILE, ckpt)
}

/// File name of a serving-side retraining demand inside a quarantine
/// directory (see [`save_retrain_request`]).
pub const RETRAIN_REQUEST_FILE: &str = "retrain.request.json";

/// A retraining demand raised by the serving fleet — typically the serve
/// crate's drift detector flagging that the served-output distribution
/// has moved away from its baseline. The pipeline side picks these up
/// with [`load_retrain_request`] and decides whether to kick off a new
/// distillation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrainRequest {
    /// Which plant/system the drifting controller serves.
    pub system: String,
    /// Human-readable cause.
    pub reason: String,
    /// The observed statistic that crossed the line (e.g. a
    /// total-variation distance).
    pub observed: f64,
    /// The threshold it crossed.
    pub threshold: f64,
    /// Which component raised the demand.
    pub source: String,
}

/// Atomically and durably persists `req` as
/// `<dir>/`[`RETRAIN_REQUEST_FILE`], through the same write → fsync →
/// rename → fsync-dir helper as [`save_checkpoint`], so a half-written
/// demand can never be picked up.
///
/// # Errors
///
/// Returns [`PipelineError::Checkpoint`] on any I/O failure.
pub fn save_retrain_request(dir: &Path, req: &RetrainRequest) -> Result<PathBuf, PipelineError> {
    write_durably(dir, RETRAIN_REQUEST_FILE, req)
}

/// Loads a pending retraining demand from `dir` if one exists.
///
/// # Errors
///
/// Returns [`PipelineError::Checkpoint`] when the file exists but cannot
/// be read or parsed.
pub fn load_retrain_request(dir: &Path) -> Result<Option<RetrainRequest>, PipelineError> {
    Ok(read_json(dir, RETRAIN_REQUEST_FILE)?.map(|(_, req)| req))
}

/// Loads the checkpoint from `dir` if one exists, validating the format
/// version and the stamp against the run of `config` on `plant`.
///
/// # Errors
///
/// Returns [`PipelineError::Checkpoint`] when the file exists but cannot
/// be parsed, has a different version, or was written by a run on
/// another plant, with another seed or under another config.
pub fn load_checkpoint(
    dir: &Path,
    plant: SystemId,
    config: &CocktailConfig,
) -> Result<Option<PipelineCheckpoint>, PipelineError> {
    let Some((path, ckpt)) = read_json::<PipelineCheckpoint>(dir, CHECKPOINT_FILE)? else {
        return Ok(None);
    };
    let stamps = [
        (
            "version",
            ckpt.version.to_string(),
            CHECKPOINT_VERSION.to_string(),
        ),
        ("plant", ckpt.plant.to_string(), plant.to_string()),
        ("seed", ckpt.seed.to_string(), config.seed.to_string()),
        (
            "config digest",
            format!("{:016x}", ckpt.config_hash),
            format!("{:016x}", config_hash(config)),
        ),
    ];
    match stamps.into_iter().find(|(_, stored, run)| stored != run) {
        Some((what, stored, run)) => Err(PipelineError::Checkpoint {
            path,
            detail: format!("stamped with {what} {stored} but this run has {run}"),
        }),
        None => Ok(Some(ckpt)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_rl::ppo::{PpoConfig, PpoSession};

    #[test]
    fn monitor_flags_non_finite_and_collapse() {
        let mut m = DivergenceMonitor::new(Some(1.0));
        assert!(m.observe(-5.0).is_none());
        assert!(m.observe(-4.0).is_none());
        assert!(m.observe(f64::NAN).is_some());
        assert!(m.observe(-5.5).is_some(), "drop of 1.5 beyond best -4");
        assert!(m.observe(-4.5).is_none(), "drop of 0.5 is tolerated");
        // diverged observations must not move `best`
        assert!(m.observe(-4.0).is_none());
    }

    #[test]
    fn monitor_without_collapse_only_checks_finiteness() {
        let mut m = DivergenceMonitor::new(None);
        assert!(m.observe(100.0).is_none());
        assert!(m.observe(-1.0e9).is_none());
        assert!(m.observe(f64::INFINITY).is_some());
    }

    #[test]
    fn retrain_request_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!(
            "cocktail-retrain-request-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            load_retrain_request(&dir)
                .expect("missing file is ok")
                .is_none(),
            "no demand pending in an empty dir"
        );
        let req = RetrainRequest {
            system: "oscillator".to_string(),
            reason: "served-output drift on control dim 0".to_string(),
            observed: 0.41,
            threshold: 0.25,
            source: "cocktail-serve drift detector".to_string(),
        };
        let path = save_retrain_request(&dir, &req).expect("save");
        assert!(path.ends_with(RETRAIN_REQUEST_FILE));
        assert!(
            !dir.join(format!("{RETRAIN_REQUEST_FILE}.tmp")).exists(),
            "temp file never outlives the publish"
        );
        let back = load_retrain_request(&dir).expect("load").expect("present");
        assert_eq!(back, req);
        // a torn file is a typed error, not a panic
        std::fs::write(&path, b"{torn").expect("corrupt");
        assert!(matches!(
            load_retrain_request(&dir),
            Err(PipelineError::Checkpoint { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monitor_rewind_restores_best_from_history() {
        let mut m = DivergenceMonitor::new(Some(0.5));
        m.rewind_to([-3.0, -2.0, f64::NAN, -4.0]);
        assert!(m.observe(-2.4).is_none());
        assert!(m.observe(-2.6).is_some(), "best is -2.0 from history");
    }

    #[test]
    fn checkpoint_file_round_trip_and_validation() {
        let dir = std::env::temp_dir().join(format!(
            "cocktail-supervisor-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let session = PpoSession::new(
            &PpoConfig {
                iterations: 1,
                episodes_per_iteration: 1,
                hidden: 4,
                seed: 5,
                ..Default::default()
            },
            1,
            1,
        );
        let config = CocktailConfig {
            seed: 5,
            ..CocktailConfig::default()
        };
        let ckpt = PipelineCheckpoint::new(
            SystemId::Oscillator,
            &config,
            StageCheckpoint::Mixing {
                ppo: session.checkpoint(),
            },
        );
        let path = save_checkpoint(&dir, &ckpt).expect("save");
        assert!(path.ends_with(CHECKPOINT_FILE));
        let back = load_checkpoint(&dir, SystemId::Oscillator, &config)
            .expect("load")
            .expect("present");
        assert_eq!(back, ckpt);

        // another seed, plant or config → typed error naming what differs,
        // not a silent wrong resume
        let other_seed = CocktailConfig {
            seed: 6,
            ..config.clone()
        };
        let other_config = CocktailConfig {
            dataset_uniform: config.dataset_uniform + 1,
            ..config.clone()
        };
        for (plant, run, what) in [
            (SystemId::Oscillator, &other_seed, "seed"),
            (SystemId::CartPole, &config, "plant"),
            (SystemId::Oscillator, &other_config, "config digest"),
        ] {
            let err = load_checkpoint(&dir, plant, run).expect_err(what);
            assert!(matches!(err, PipelineError::Checkpoint { .. }));
            assert!(err.to_string().contains(what), "{err}");
        }

        // empty dir → clean None
        let empty = dir.join("nothing-here");
        assert!(load_checkpoint(&empty, SystemId::Oscillator, &config)
            .expect("no file is ok")
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_on_disk_is_always_a_complete_version() {
        // overwrite the same checkpoint repeatedly; after every save the
        // on-disk file must parse as a complete checkpoint equal to the
        // version just written (never a torn or half-renamed state), and
        // no temp file may linger
        let dir = std::env::temp_dir().join(format!(
            "cocktail-supervisor-test-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let make = |seed: u64| {
            let session = PpoSession::new(
                &PpoConfig {
                    iterations: 1,
                    episodes_per_iteration: 1,
                    hidden: 4,
                    seed,
                    ..Default::default()
                },
                1,
                1,
            );
            PipelineCheckpoint::new(
                SystemId::Oscillator,
                &CocktailConfig {
                    seed,
                    ..CocktailConfig::default()
                },
                StageCheckpoint::Mixing {
                    ppo: session.checkpoint(),
                },
            )
        };
        for seed in 0..4u64 {
            let ckpt = make(seed);
            let path = save_checkpoint(&dir, &ckpt).expect("save");
            let on_disk: PipelineCheckpoint =
                serde_json::from_str(&std::fs::read_to_string(&path).expect("checkpoint readable"))
                    .expect("on-disk file is complete JSON");
            assert_eq!(on_disk, ckpt, "seed {seed}");
            assert!(
                !dir.join(format!("{CHECKPOINT_FILE}.tmp")).exists(),
                "temp file must not outlive the save"
            );
        }
        // a stale temp file from a crashed writer must not break the next
        // save or leak into the published checkpoint
        std::fs::write(dir.join(format!("{CHECKPOINT_FILE}.tmp")), b"{torn")
            .expect("plant stale temp");
        let ckpt = make(99);
        save_checkpoint(&dir, &ckpt).expect("save over stale temp");
        let back = load_checkpoint(
            &dir,
            SystemId::Oscillator,
            &CocktailConfig {
                seed: 99,
                ..CocktailConfig::default()
            },
        )
        .expect("load")
        .expect("present");
        assert_eq!(back, ckpt);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display_is_informative() {
        let e = PipelineError::PreflightDenied {
            stage: "pre-flight".into(),
            summary: "1 error".into(),
        };
        assert!(e.to_string().contains("pre-flight analysis failed"));
        let d = PipelineError::Diverged {
            stage: "robust-distill".into(),
            attempts: 4,
            detail: "non-finite unit metric NaN".into(),
        };
        assert!(d.to_string().contains("after 4 attempt(s)"));
    }
}
