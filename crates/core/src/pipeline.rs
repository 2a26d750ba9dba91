//! The end-to-end Cocktail pipeline (Algorithm 1).

use crate::policy::{DdpgWeightPolicy, PpoWeightPolicy};
use crate::supervisor::{
    load_checkpoint, save_checkpoint, DivergenceMonitor, MixingArtifact, PipelineCheckpoint,
    PipelineError, StageCheckpoint, SupervisorConfig,
};
use crate::system::SystemId;
use cocktail_analysis::{
    AnalysisConfig, AnalysisReport, Analyzer, ControllerSpec, Diagnostic, PreflightMode,
};
use cocktail_control::{Controller, MixedController, NnController, WeightPolicy};
use cocktail_distill::{
    direct_distill, DistillCheckpoint, DistillConfig, RobustDistillSession, TeacherDataset,
};
use cocktail_env::Dynamics;
use cocktail_obs::{Event, NullSink, Span, Telemetry};
use cocktail_rl::ddpg::{DdpgConfig, DdpgTrainer, EpisodeStats};
use cocktail_rl::ppo::{IterationStats, PpoConfig};
use cocktail_rl::{EpisodeFactory, Mdp, MixingMdp, PpoCheckpoint, PpoSession, RewardConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// Which RL algorithm learns the adaptive mixing weights. The paper's
/// optimality argument (Proposition 1) applies to PPO; Remark 1 notes
/// that DDPG "can also achieve significant improvement", which this
/// variant lets you test directly (see the `ablation` bench binary).
#[derive(Debug, Clone)]
pub enum MixingAlgorithm {
    /// Proximal policy optimization (the paper's default).
    Ppo,
    /// Deep deterministic policy gradient (Remark 1).
    Ddpg(DdpgConfig),
}

/// Configuration of a full Cocktail run.
#[derive(Debug, Clone)]
pub struct CocktailConfig {
    /// The paper's weight bound `A_B ≥ 1`.
    pub weight_bound: f64,
    /// Which algorithm learns the mixing weights.
    pub mixing: MixingAlgorithm,
    /// PPO hyperparameters of the adaptive-mixing stage (used when
    /// `mixing` is [`MixingAlgorithm::Ppo`]).
    pub ppo: PpoConfig,
    /// Reward shaping (safety punishment / energy).
    pub reward: RewardConfig,
    /// Distillation hyperparameters (shared by `κ_D` and `κ*`; the robust
    /// terms only apply to `κ*`).
    pub distill: DistillConfig,
    /// Uniform teacher samples for the distillation dataset.
    pub dataset_uniform: usize,
    /// On-policy teacher episodes added to the dataset.
    pub dataset_episodes: usize,
    /// Static-analysis gate: expert shapes are checked before the RL
    /// stage and the distilled students are linted before the run
    /// returns. [`PreflightMode::Warn`] prints findings to stderr;
    /// [`PreflightMode::Deny`] panics on error-level findings.
    pub preflight: PreflightMode,
    /// Master seed.
    pub seed: u64,
}

impl Default for CocktailConfig {
    fn default() -> Self {
        Self {
            weight_bound: 2.0,
            mixing: MixingAlgorithm::Ppo,
            ppo: PpoConfig::default(),
            reward: RewardConfig::default(),
            distill: DistillConfig::default(),
            dataset_uniform: 2048,
            dataset_episodes: 16,
            preflight: PreflightMode::default(),
            seed: 0,
        }
    }
}

/// The artifacts of a Cocktail run.
pub struct CocktailResult {
    /// The mixed controller design `A_W` (teacher).
    pub mixed: Arc<MixedController>,
    /// The direct-distillation student `κ_D` (ablation).
    pub kappa_d: Arc<NnController>,
    /// The robust-distillation student `κ*` (the framework's output).
    pub kappa_star: Arc<NnController>,
    /// PPO training statistics of the mixing stage (empty under DDPG).
    pub ppo_history: Vec<IterationStats>,
    /// DDPG training statistics of the mixing stage (empty under PPO).
    pub ddpg_history: Vec<EpisodeStats>,
}

/// Builder for a Cocktail run.
///
/// # Examples
///
/// ```no_run
/// use cocktail_core::pipeline::Cocktail;
/// use cocktail_core::system::SystemId;
///
/// let experts = cocktail_core::experts::cloned_experts(SystemId::Oscillator, 0);
/// let result = Cocktail::new(SystemId::Oscillator, experts).run();
/// println!("L(κ*) = {}", result.kappa_star.lipschitz_constant());
/// ```
pub struct Cocktail {
    system: SystemId,
    experts: Vec<Arc<dyn Controller>>,
    config: CocktailConfig,
    tel: Arc<dyn Telemetry>,
    workers: Option<usize>,
}

impl Cocktail {
    /// Starts a run over `experts` on `system`.
    ///
    /// # Panics
    ///
    /// Panics if `experts` is empty.
    pub fn new(system: SystemId, experts: Vec<Arc<dyn Controller>>) -> Self {
        assert!(!experts.is_empty(), "cocktail needs at least one expert");
        Self {
            system,
            experts,
            config: CocktailConfig::default(),
            tel: Arc::new(NullSink),
            workers: None,
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: CocktailConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a telemetry sink. Every stage of the run emits spans,
    /// counters and structured events through it; the default
    /// [`NullSink`] makes instrumentation free. Telemetry is observational
    /// only: event payloads are a pure function of the seed and config, so
    /// attaching a sink never perturbs the trained artifacts.
    pub fn with_telemetry(mut self, tel: Arc<dyn Telemetry>) -> Self {
        self.tel = tel;
        self
    }

    /// Overrides the worker count used by the parallel sections (episode
    /// collection, dataset sampling). Results are bit-identical for any
    /// count; the default is [`cocktail_math::parallel::default_workers`].
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    fn worker_count(&self) -> usize {
        self.workers
            .unwrap_or_else(cocktail_math::parallel::default_workers)
    }

    /// Pre-flight gate under its own span: expert shapes vs the plant,
    /// before any RL budget is spent on a run that cannot succeed.
    fn preflight_experts(&self, sys: &dyn Dynamics) -> Result<(), PipelineError> {
        let _span = Span::enter(&*self.tel, "pipeline/preflight");
        apply_gate(
            &*self.tel,
            self.config.preflight,
            "pre-flight",
            &self.expert_shape_report(sys),
        )
    }

    /// Executes Algorithm 1: RL adaptive mixing, then direct and robust
    /// distillation of the mixed teacher. This is [`Self::try_run`] with
    /// its error turned into a panic.
    ///
    /// # Panics
    ///
    /// Panics with the [`PipelineError`] of [`Self::try_run`]: a
    /// [`PreflightMode::Deny`] gate found error-level diagnostics, or a
    /// stage still diverged after its last rewind.
    pub fn run(self) -> CocktailResult {
        self.try_run().unwrap_or_else(|err| panic!("{err}"))
    }

    /// [`Self::run`] with typed errors: [`Self::run_supervised`] under
    /// [`SupervisorConfig::default()`]. Checkpoints stay in memory and no
    /// file is written. A stage whose PPO mean return or distillation loss
    /// goes non-finite is rewound to its last good unit and reseeded; a
    /// healthy run never rewinds.
    ///
    /// # Errors
    ///
    /// [`PipelineError::PreflightDenied`] when a `Deny` gate finds
    /// error-level diagnostics, and [`PipelineError::Diverged`] when a
    /// stage is still non-finite after
    /// [`crate::supervisor::DivergenceConfig::max_retries`] rewinds.
    pub fn try_run(self) -> Result<CocktailResult, PipelineError> {
        self.run_supervised(&SupervisorConfig::default())
    }

    /// The pipeline driver every run trains through. PPO mixing and robust
    /// distillation run in one stage loop that keeps a checkpoint every
    /// [`SupervisorConfig::checkpoint_every`] units, in memory and, with a
    /// [`SupervisorConfig::checkpoint_dir`], on disk; a diverged unit
    /// rewinds its stage to the last checkpoint and reseeds it (see
    /// [`crate::supervisor`]). With no divergence, where and how often it
    /// checkpoints changes no bit of the artifacts.
    ///
    /// When `sup.checkpoint_dir` already holds a checkpoint stamped with
    /// this run's plant, seed and config digest, the run resumes from it:
    /// kill-and-resume reproduces the uninterrupted run's artifacts exactly.
    /// The DDPG mixing variant is supervised at stage granularity only (no
    /// mid-training rewind).
    ///
    /// # Errors
    ///
    /// [`PipelineError::PreflightDenied`] from a `Deny` gate,
    /// [`PipelineError::Diverged`] when a stage exhausts its retry budget,
    /// [`PipelineError::Interrupted`] at the configured interruption point,
    /// and [`PipelineError::Checkpoint`] for an unusable checkpoint file or
    /// one stamped by another run.
    pub fn run_supervised(self, sup: &SupervisorConfig) -> Result<CocktailResult, PipelineError> {
        let sys = self.system.dynamics();
        let cfg = &self.config;
        let _pipeline = Span::enter_with(
            &*self.tel,
            "pipeline",
            vec![
                ("system".to_string(), sys.name().into()),
                ("seed".to_string(), cfg.seed.into()),
            ],
        );
        self.preflight_experts(sys.as_ref())?;

        let loaded = match &sup.checkpoint_dir {
            Some(dir) => load_checkpoint(dir, self.system, cfg)?,
            None => None,
        };
        let mut units: u64 = 0; // stage units executed in THIS invocation

        // ---- stage 1: RL-based adaptive mixing (Alg. 1 lines 2-10). The
        // checkpoint's stamp names this config, so a stored stage belongs
        // to the configured mixing algorithm.
        let (mixing, distill_resume) = match loaded.map(|c| c.stage) {
            Some(StageCheckpoint::Robust {
                mixing,
                kappa_d,
                distill,
                losses,
            }) => (mixing, Some((kappa_d, distill, losses))),
            Some(StageCheckpoint::Mixing { ppo }) => {
                (self.mix(&sys, Some(ppo), sup, &mut units)?, None)
            }
            None => (self.mix(&sys, None, sup, &mut units)?, None),
        };

        // ---- stage 2: distillation (Alg. 1 lines 11-14). The dataset is a
        // pure function of (mixed, seed) and is regenerated rather than
        // checkpointed.
        let weight_policy: Arc<dyn WeightPolicy> = match &mixing {
            MixingArtifact::Ppo { policy, .. } => {
                Arc::new(PpoWeightPolicy::new(policy.clone(), cfg.weight_bound))
            }
            MixingArtifact::Ddpg { actor, .. } => {
                Arc::new(DdpgWeightPolicy::new(actor.clone(), cfg.weight_bound))
            }
        };
        let mixed = self.build_mixed(&sys, weight_policy);
        let data = self.build_dataset(&sys, mixed.as_ref());
        let (kappa_d, session, losses) = match distill_resume {
            Some((kd_net, distill, losses)) => (
                Arc::new(NnController::unscaled(kd_net, "kappa_D")),
                RobustDistillSession::from_checkpoint(distill),
                losses,
            ),
            None => {
                let kd = {
                    let _stage = Span::enter(&*self.tel, "pipeline/direct-distill");
                    Arc::new(direct_distill(&data, &cfg.distill))
                };
                (
                    kd,
                    RobustDistillSession::new(&data, &cfg.distill),
                    Vec::new(),
                )
            }
        };
        let mut robust = DistillStage {
            session: session.with_telemetry(self.tel.clone()),
            data: &data,
            losses,
        };
        self.supervise(&mut robust, sup, &mut units, |(distill, losses)| {
            StageCheckpoint::Robust {
                mixing: mixing.clone(),
                kappa_d: kappa_d.network().clone(),
                distill: distill.clone(),
                losses: losses.clone(),
            }
        })?;
        let kappa_star = Arc::new(robust.session.finish());

        // ---- post-distillation gate: lint the students before handing
        // them to evaluation / verification
        self.lint_students(&sys, &kappa_d, &kappa_star)?;

        let (ppo_history, ddpg_history) = match mixing {
            MixingArtifact::Ppo { history, .. } => (history, Vec::new()),
            MixingArtifact::Ddpg { history, .. } => (Vec::new(), history),
        };
        Ok(CocktailResult {
            mixed,
            kappa_d,
            kappa_star,
            ppo_history,
            ddpg_history,
        })
    }

    /// Learns the mixing weights, resuming PPO from `resume` when given.
    fn mix(
        &self,
        sys: &Arc<dyn Dynamics>,
        resume: Option<PpoCheckpoint>,
        sup: &SupervisorConfig,
        units: &mut u64,
    ) -> Result<MixingArtifact, PipelineError> {
        let cfg = &self.config;
        let mdp = |seed: u64| -> Box<dyn Mdp> {
            Box::new(MixingMdp::new(
                sys.clone(),
                self.experts.clone(),
                cfg.weight_bound,
                cfg.reward,
                seed,
            ))
        };
        match &cfg.mixing {
            MixingAlgorithm::Ppo => {
                // episodes are collected in parallel: each worker gets a
                // fresh MixingMdp seeded per episode, so the outcome does
                // not depend on the worker count
                let session = match resume {
                    Some(ckpt) => PpoSession::from_checkpoint(ckpt),
                    None => PpoSession::new(&cfg.ppo, sys.state_dim(), self.experts.len()),
                };
                let mut ppo = PpoStage {
                    session: session.with_telemetry(self.tel.clone()),
                    factory: &mdp,
                    workers: self.worker_count(),
                };
                self.supervise(&mut ppo, sup, units, |ppo| StageCheckpoint::Mixing {
                    ppo: ppo.clone(),
                })?;
                let trained = ppo.session.finish();
                Ok(MixingArtifact::Ppo {
                    policy: trained.policy,
                    history: trained.history,
                })
            }
            MixingAlgorithm::Ddpg(ddpg) => {
                let _stage = Span::enter(&*self.tel, "pipeline/ddpg-mixing");
                let trained = DdpgTrainer::new(ddpg, sys.state_dim(), self.experts.len())
                    .train(mdp(cfg.seed).as_mut());
                *units += 1;
                Ok(MixingArtifact::Ddpg {
                    actor: trained.actor,
                    history: trained.history,
                })
            }
        }
    }

    /// The stage loop: steps `stage` one unit at a time, rewinds and
    /// reseeds it when the divergence monitor flags a unit, keeps a
    /// checkpoint on entry and every [`SupervisorConfig::checkpoint_every`]
    /// units (written to disk, stamped through `stamp`, when there is a
    /// checkpoint directory), and stops at
    /// [`SupervisorConfig::interrupt_after`].
    fn supervise<S: Stage>(
        &self,
        stage: &mut S,
        sup: &SupervisorConfig,
        units: &mut u64,
        stamp: impl Fn(&S::Snapshot) -> StageCheckpoint,
    ) -> Result<(), PipelineError> {
        let _span = Span::enter(&*self.tel, &format!("pipeline/{}", S::NAME));
        let monitor_for = |stage: &S| {
            let mut monitor = DivergenceMonitor::new(sup.divergence.collapse_drop);
            monitor.rewind_to(stage.metrics());
            monitor
        };
        let mut monitor = monitor_for(stage);
        let mut last_good = stage.snapshot();
        // a kill before the first unit already resumes at this stage
        self.persist(sup, || stamp(&last_good))?;
        let mut retry: u32 = 0;

        while !stage.is_complete() {
            let metric = stage.step();
            *units += 1;
            if let Some(reason) = monitor.observe(metric) {
                retry += 1;
                if retry > sup.divergence.max_retries {
                    return Err(PipelineError::Diverged {
                        stage: S::NAME.into(),
                        attempts: retry,
                        detail: reason,
                    });
                }
                if self.tel.enabled() {
                    self.tel.counter("supervisor.rewinds", 1);
                    self.tel.record(
                        Event::point("supervisor.diverged")
                            .with("stage", S::NAME)
                            .with("retry", u64::from(retry))
                            .with("reason", reason),
                    );
                }
                stage.rewind(last_good.clone(), retry, &self.tel);
                monitor = monitor_for(stage);
                continue;
            }
            let done = stage.is_complete();
            if done || stage.units().is_multiple_of(sup.cadence()) {
                last_good = stage.snapshot();
                self.persist(sup, || stamp(&last_good))?;
            }
            if !done && sup.interrupt_after.is_some_and(|n| *units >= n) {
                let checkpoint = self.persist(sup, || stamp(&stage.snapshot()))?;
                return Err(PipelineError::Interrupted {
                    stage: S::NAME.into(),
                    checkpoint: checkpoint.unwrap_or_default(),
                });
            }
        }
        Ok(())
    }

    /// Writes the checkpoint of `stage()`, stamped with this run, when
    /// there is a checkpoint directory.
    fn persist(
        &self,
        sup: &SupervisorConfig,
        stage: impl FnOnce() -> StageCheckpoint,
    ) -> Result<Option<PathBuf>, PipelineError> {
        let Some(dir) = &sup.checkpoint_dir else {
            return Ok(None);
        };
        let ckpt = PipelineCheckpoint::new(self.system, &self.config, stage());
        let path = save_checkpoint(dir, &ckpt)?;
        self.tel.counter("supervisor.checkpoints", 1);
        Ok(Some(path))
    }

    /// Assembles the mixed teacher `A_W` from the learned weight policy.
    fn build_mixed(
        &self,
        sys: &Arc<dyn Dynamics>,
        weight_policy: Arc<dyn WeightPolicy>,
    ) -> Arc<MixedController> {
        let (u_lo, u_hi) = sys.control_bounds();
        Arc::new(MixedController::new(
            self.experts.clone(),
            weight_policy,
            u_lo,
            u_hi,
        ))
    }

    /// Samples the distillation dataset from the mixed teacher — a pure
    /// function of `(mixed, seed)`, so resumed runs regenerate it exactly.
    fn build_dataset(&self, sys: &Arc<dyn Dynamics>, mixed: &MixedController) -> TeacherDataset {
        let cfg = &self.config;
        let _stage = Span::enter_with(
            &*self.tel,
            "pipeline/dataset",
            vec![
                ("uniform".to_string(), cfg.dataset_uniform.into()),
                ("episodes".to_string(), cfg.dataset_episodes.into()),
            ],
        );
        let workers = self.worker_count();
        let uniform = TeacherDataset::sample_uniform_with_workers(
            mixed,
            &sys.verification_domain(),
            cfg.dataset_uniform,
            cfg.seed.wrapping_add(11),
            workers,
        );
        if cfg.dataset_episodes > 0 {
            uniform.merge(TeacherDataset::sample_on_policy_with_workers(
                mixed,
                sys.as_ref(),
                cfg.dataset_episodes,
                cfg.seed.wrapping_add(13),
                workers,
            ))
        } else {
            uniform
        }
    }

    /// Lints the distilled students through the static analyzer.
    fn lint_students(
        &self,
        sys: &Arc<dyn Dynamics>,
        kappa_d: &Arc<NnController>,
        kappa_star: &Arc<NnController>,
    ) -> Result<(), PipelineError> {
        let cfg = &self.config;
        if cfg.preflight == PreflightMode::Off {
            return Ok(());
        }
        let _stage = Span::enter(&*self.tel, "pipeline/student-lint");
        // students are certified under the plant's export budget
        let lint = AnalysisConfig::for_plant(sys.as_ref(), None);
        let analyzer = Analyzer::with_config(sys.clone(), lint);
        let mut report = AnalysisReport::new();
        for (name, student) in [("kappa_d", kappa_d), ("kappa_star", kappa_star)] {
            let spec =
                ControllerSpec::from_network(student.network().clone(), student.scale().to_vec());
            let mut student_report = AnalysisReport::new();
            for d in analyzer.analyze(&spec).diagnostics() {
                student_report.push(Diagnostic {
                    message: format!("{name}: {}", d.message),
                    ..d.clone()
                });
            }
            report.merge(student_report);
        }
        apply_gate(&*self.tel, cfg.preflight, "student", &report)
    }

    /// Shape checks the analyzer cannot do on opaque `dyn Controller`
    /// experts: every expert must read the plant's states and emit its
    /// controls, or the mixture `Σ aᵢκᵢ(s)` is undefined.
    fn expert_shape_report(&self, sys: &dyn cocktail_env::Dynamics) -> AnalysisReport {
        let mut report = AnalysisReport::new();
        for (i, e) in self.experts.iter().enumerate() {
            if e.state_dim() != sys.state_dim() {
                report.push(Diagnostic::error(
                    "preflight",
                    "dim-mismatch",
                    format!(
                        "expert {i} (`{}`) reads {}-dimensional states but plant `{}` has {}",
                        e.name(),
                        e.state_dim(),
                        sys.name(),
                        sys.state_dim()
                    ),
                ));
            }
            if e.control_dim() != sys.control_dim() {
                report.push(Diagnostic::error(
                    "preflight",
                    "dim-mismatch",
                    format!(
                        "expert {i} (`{}`) emits {}-dimensional controls but plant `{}` takes {}",
                        e.name(),
                        e.control_dim(),
                        sys.name(),
                        sys.control_dim()
                    ),
                ));
            }
        }
        report
    }
}

/// A training stage the stage loop drives one unit at a time: PPO mixing
/// (a unit is an iteration) or robust distillation (a unit is an epoch).
trait Stage {
    /// The stage's name in spans, errors and telemetry.
    const NAME: &'static str;
    /// What a rewind restores and a checkpoint records.
    type Snapshot: Clone;
    fn snapshot(&self) -> Self::Snapshot;
    /// Restores `snapshot` and reseeds the exploration streams for retry
    /// `retry` (≥ 1), so the retried units are a pure function of it.
    fn rewind(&mut self, snapshot: Self::Snapshot, retry: u32, tel: &Arc<dyn Telemetry>);
    /// Units completed so far.
    fn units(&self) -> usize;
    fn is_complete(&self) -> bool;
    /// Runs one unit and returns the metric the divergence monitor
    /// watches (higher is better).
    fn step(&mut self) -> f64;
    /// The metrics of the units completed so far, oldest first.
    fn metrics(&self) -> Vec<f64>;
}

/// PPO mixing under the stage loop; the unit metric is the mean return.
struct PpoStage<'a> {
    session: PpoSession,
    factory: &'a dyn EpisodeFactory,
    workers: usize,
}

impl Stage for PpoStage<'_> {
    const NAME: &'static str = "ppo-mixing";
    type Snapshot = PpoCheckpoint;

    fn snapshot(&self) -> PpoCheckpoint {
        self.session.checkpoint()
    }

    fn rewind(&mut self, snapshot: PpoCheckpoint, retry: u32, tel: &Arc<dyn Telemetry>) {
        self.session = PpoSession::from_checkpoint(snapshot).with_telemetry(tel.clone());
        self.session.reseed_for_retry(u64::from(retry));
    }

    fn units(&self) -> usize {
        self.session.iteration()
    }

    fn is_complete(&self) -> bool {
        self.session.is_complete()
    }

    fn step(&mut self) -> f64 {
        self.session.step(self.factory, self.workers).mean_return
    }

    fn metrics(&self) -> Vec<f64> {
        self.session
            .history()
            .iter()
            .map(|s| s.mean_return)
            .collect()
    }
}

/// Robust distillation under the stage loop; the unit metric is the
/// negated epoch loss, and the losses so far travel with the snapshot so a
/// resumed monitor starts from the same best value.
struct DistillStage<'a> {
    session: RobustDistillSession,
    data: &'a TeacherDataset,
    losses: Vec<f64>,
}

impl Stage for DistillStage<'_> {
    const NAME: &'static str = "robust-distill";
    type Snapshot = (DistillCheckpoint, Vec<f64>);

    fn snapshot(&self) -> Self::Snapshot {
        (self.session.checkpoint(), self.losses.clone())
    }

    fn rewind(&mut self, (distill, losses): Self::Snapshot, retry: u32, tel: &Arc<dyn Telemetry>) {
        self.session = RobustDistillSession::from_checkpoint(distill).with_telemetry(tel.clone());
        self.session.reseed_for_retry(u64::from(retry));
        self.losses = losses;
    }

    fn units(&self) -> usize {
        self.session.epoch()
    }

    fn is_complete(&self) -> bool {
        self.session.is_complete()
    }

    fn step(&mut self) -> f64 {
        let loss = self.session.step_epoch(self.data);
        self.losses.push(loss);
        -loss
    }

    fn metrics(&self) -> Vec<f64> {
        self.losses.iter().map(|l| -l).collect()
    }
}

/// Applies the configured pre-flight policy to a report. With a live
/// telemetry sink the findings become structured `analysis.diagnostic`
/// events (one per finding, plus an `analysis.summary`); with the default
/// [`NullSink`] the `Warn` mode keeps its historical behaviour and prints
/// to stderr. `Deny` additionally rejects error findings with
/// [`PipelineError::PreflightDenied`] (which [`Cocktail::run`] turns into
/// a panic).
fn apply_gate(
    tel: &dyn Telemetry,
    mode: PreflightMode,
    stage: &str,
    report: &AnalysisReport,
) -> Result<(), PipelineError> {
    if report.is_empty() {
        return Ok(());
    }
    match mode {
        PreflightMode::Off => {}
        PreflightMode::Warn | PreflightMode::Deny => {
            if report.has_errors() || report.has_warnings() {
                if tel.enabled() {
                    for d in report.diagnostics() {
                        tel.record(
                            Event::point("analysis.diagnostic")
                                .with("stage", stage)
                                .with("severity", d.severity.to_string())
                                .with("code", d.code)
                                .with("pass", d.pass)
                                .with("message", d.message.as_str()),
                        );
                    }
                    tel.record(
                        Event::point("analysis.summary")
                            .with("stage", stage)
                            .with("summary", report.summary()),
                    );
                } else {
                    eprintln!(
                        "cocktail {stage} analysis ({}):\n{report}",
                        report.summary()
                    );
                }
            }
            if mode == PreflightMode::Deny && report.has_errors() {
                return Err(PipelineError::PreflightDenied {
                    stage: stage.to_string(),
                    summary: report.summary(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Preset;
    use crate::metrics::{evaluate, EvalConfig};
    use crate::testutil::oscillator_experts;
    use cocktail_distill::robust_distill;
    use std::sync::OnceLock;

    fn smoke_result() -> &'static CocktailResult {
        static CELL: OnceLock<CocktailResult> = OnceLock::new();
        CELL.get_or_init(|| {
            Cocktail::new(SystemId::Oscillator, oscillator_experts().clone())
                .with_config(Preset::Smoke.config())
                .run()
        })
    }

    #[test]
    fn smoke_pipeline_produces_all_artifacts() {
        let result = smoke_result();
        assert_eq!(result.mixed.state_dim(), 2);
        assert_eq!(result.kappa_d.state_dim(), 2);
        assert_eq!(result.kappa_star.state_dim(), 2);
        assert!(!result.ppo_history.is_empty());
        // the robust student must carry a finite Lipschitz constant
        assert!(result.kappa_star.lipschitz_constant().is_finite());
    }

    #[test]
    fn students_approximate_the_mixed_teacher() {
        let result = smoke_result();
        let sys = SystemId::Oscillator.dynamics();
        let mut rng = cocktail_math::rng::seeded(3);
        let mut err = 0.0;
        let n = 50;
        for _ in 0..n {
            let s = cocktail_math::rng::uniform_in_box(&mut rng, &sys.initial_set());
            err += (result.kappa_star.control(&s)[0] - result.mixed.control(&s)[0]).abs();
        }
        // clipped teacher outputs span ±20; a loose bound suffices for the
        // smoke preset
        assert!(
            err / (n as f64) < 8.0,
            "mean teacher gap {}",
            err / n as f64
        );
    }

    #[test]
    fn ddpg_mixing_variant_runs() {
        // Remark 1: DDPG can replace PPO as the mixing learner
        let config = CocktailConfig {
            mixing: MixingAlgorithm::Ddpg(cocktail_rl::DdpgConfig {
                episodes: 6,
                warmup_steps: 50,
                hidden: 16,
                seed: 4,
                ..Default::default()
            }),
            ..Preset::Smoke.config()
        };
        let result = Cocktail::new(SystemId::Oscillator, oscillator_experts().clone())
            .with_config(config)
            .run();
        assert!(result.ppo_history.is_empty());
        assert!(!result.ddpg_history.is_empty());
        assert_eq!(result.mixed.control(&[0.5, 0.5]).len(), 1);
    }

    #[test]
    #[should_panic(expected = "pre-flight analysis failed")]
    fn deny_preflight_rejects_mismatched_experts_before_training() {
        // a 3-state expert on the 2-state oscillator: under Deny the gate
        // must fire before any RL budget is spent
        let bad: Arc<dyn Controller> = Arc::new(cocktail_control::LinearFeedbackController::new(
            cocktail_math::Matrix::from_rows(vec![vec![1.0, 0.0, 0.0]]),
        ));
        let config = CocktailConfig {
            preflight: PreflightMode::Deny,
            ..Preset::Smoke.config()
        };
        Cocktail::new(SystemId::Oscillator, vec![bad])
            .with_config(config)
            .run();
    }

    #[test]
    fn warn_preflight_does_not_abort_a_healthy_run() {
        // smoke_result() runs under the default Warn mode; reaching here
        // with artifacts in hand is the assertion
        let result = smoke_result();
        assert_eq!(result.kappa_star.control_dim(), 1);
    }

    #[test]
    fn warn_gate_reports_through_telemetry_instead_of_stderr() {
        let bad: Arc<dyn Controller> = Arc::new(cocktail_control::LinearFeedbackController::new(
            cocktail_math::Matrix::from_rows(vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]),
        ));
        let run = Cocktail::new(SystemId::Oscillator, vec![bad]);
        let report = run.expert_shape_report(SystemId::Oscillator.dynamics().as_ref());
        let sink = cocktail_obs::InMemorySink::new();
        apply_gate(&sink, PreflightMode::Warn, "pre-flight", &report).expect("warn never rejects");
        let events = sink.events();
        let diagnostics: Vec<_> = events
            .iter()
            .filter(|e| e.name == "analysis.diagnostic")
            .collect();
        assert_eq!(diagnostics.len(), 2, "one event per finding");
        for d in &diagnostics {
            assert_eq!(d.field("stage"), Some(&"pre-flight".into()));
            assert_eq!(d.field("severity"), Some(&"error".into()));
        }
        assert!(events.iter().any(|e| e.name == "analysis.summary"));
    }

    #[test]
    fn expert_shape_report_flags_both_dimensions() {
        let bad: Arc<dyn Controller> = Arc::new(cocktail_control::LinearFeedbackController::new(
            cocktail_math::Matrix::from_rows(vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]),
        ));
        let run = Cocktail::new(SystemId::Oscillator, vec![bad]);
        let report = run.expert_shape_report(SystemId::Oscillator.dynamics().as_ref());
        assert_eq!(
            report.count(cocktail_analysis::Severity::Error),
            2,
            "{report}"
        );
    }

    /// A smoke run that punishes an unsafe episode with −∞: every PPO
    /// iteration that loses an episode has a non-finite mean return.
    fn diverging_run() -> Cocktail {
        let config = CocktailConfig {
            reward: RewardConfig {
                punish: f64::NEG_INFINITY,
                ..RewardConfig::default()
            },
            ..Preset::Smoke.config()
        };
        Cocktail::new(SystemId::Oscillator, oscillator_experts().clone()).with_config(config)
    }

    #[test]
    fn try_run_rewinds_a_non_finite_stage_until_its_retries_run_out() {
        let sink = Arc::new(cocktail_obs::InMemorySink::new());
        let Err(err) = diverging_run().with_telemetry(sink.clone()).try_run() else {
            panic!("a −∞ mean return must not train through");
        };
        let retries = crate::supervisor::DivergenceConfig::default().max_retries;
        assert_eq!(
            err,
            PipelineError::Diverged {
                stage: "ppo-mixing".into(),
                attempts: retries + 1,
                detail: "non-finite unit metric -inf".into(),
            }
        );
        let rewinds: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.name == "supervisor.diverged")
            .collect();
        assert_eq!(rewinds.len(), retries as usize, "one rewind per retry");
        for (i, e) in rewinds.iter().enumerate() {
            assert_eq!(e.field("stage"), Some(&"ppo-mixing".into()));
            assert_eq!(e.field("retry"), Some(&(i as u64 + 1).into()));
        }
    }

    #[test]
    #[should_panic(expected = "ppo-mixing diverged after 4 attempt(s): non-finite unit metric")]
    fn run_panics_with_the_divergence_error() {
        diverging_run().run();
    }

    #[test]
    fn final_metrics_are_worker_count_invariant() {
        // the full distill-and-evaluate tail of the pipeline, once per
        // worker count: dataset generation, robust distillation and
        // Monte-Carlo evaluation must agree bit-for-bit
        let result = smoke_result();
        let sys = SystemId::Oscillator.dynamics();
        let run = |workers: usize| {
            let data = TeacherDataset::sample_uniform_with_workers(
                result.mixed.as_ref(),
                &sys.verification_domain(),
                256,
                21,
                workers,
            );
            let student = robust_distill(
                &data,
                &DistillConfig {
                    epochs: 10,
                    hidden: 12,
                    ..Default::default()
                },
            );
            let eval = crate::metrics::evaluate_with_workers(
                sys.as_ref(),
                &student,
                &EvalConfig {
                    samples: 60,
                    seed: 23,
                    ..Default::default()
                },
                workers,
            );
            let loss: f64 = data
                .states()
                .iter()
                .zip(data.controls())
                .map(|(s, u)| {
                    let d = student.control(s)[0] - u[0];
                    d * d
                })
                .sum::<f64>()
                / data.len() as f64;
            (eval.safe_rate, eval.mean_energy.to_bits(), loss.to_bits())
        };
        let reference = run(1);
        for workers in [2, 8] {
            assert_eq!(run(workers), reference, "workers = {workers}");
        }
    }

    #[test]
    fn smoke_students_remain_plausible_controllers() {
        let result = smoke_result();
        let sys = SystemId::Oscillator.dynamics();
        let eval = evaluate(
            sys.as_ref(),
            result.kappa_star.as_ref(),
            &EvalConfig {
                samples: 100,
                ..Default::default()
            },
        );
        // even the smoke preset should stabilize a solid majority
        assert!(eval.safe_rate > 0.5, "S_r {}", eval.safe_rate);
    }
}
