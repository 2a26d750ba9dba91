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
use cocktail_distill::{direct_distill, DistillConfig, RobustDistillSession, TeacherDataset};
use cocktail_env::Dynamics;
use cocktail_obs::{Event, NullSink, Span, Telemetry};
use cocktail_rl::ddpg::{DdpgConfig, DdpgTrainer, EpisodeStats};
use cocktail_rl::ppo::{IterationStats, PpoConfig, PpoSession};
use cocktail_rl::{Mdp, MixingMdp, RewardConfig};
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

    /// Executes both stages: PPO adaptive mixing, then direct and robust
    /// distillation of the mixed teacher.
    ///
    /// # Panics
    ///
    /// Panics if a [`PreflightMode::Deny`] gate finds error-level
    /// diagnostics. Use [`Self::try_run`] for a typed error instead.
    pub fn run(self) -> CocktailResult {
        self.try_run().unwrap_or_else(|err| panic!("{err}"))
    }

    /// [`Self::run`] with typed errors: a [`PreflightMode::Deny`] gate
    /// yields [`PipelineError::PreflightDenied`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::PreflightDenied`] when a `Deny` gate finds
    /// error-level diagnostics.
    pub fn try_run(self) -> Result<CocktailResult, PipelineError> {
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

        // ---- stage 1: RL-based adaptive mixing (Alg. 1 lines 2-10)
        let mut ppo_history = Vec::new();
        let mut ddpg_history = Vec::new();
        let weight_policy: Arc<dyn WeightPolicy> = match &cfg.mixing {
            MixingAlgorithm::Ppo => {
                // episodes are collected in parallel: each worker gets a
                // fresh MixingMdp seeded per episode, so the outcome does
                // not depend on the worker count
                let _stage = Span::enter(&*self.tel, "pipeline/ppo-mixing");
                let factory = self.mixing_factory(&sys);
                let mut session = PpoSession::new(&cfg.ppo, sys.state_dim(), self.experts.len())
                    .with_telemetry(self.tel.clone());
                let workers = self.worker_count();
                while !session.is_complete() {
                    session.step(&factory, workers);
                }
                let trained = session.finish();
                ppo_history = trained.history;
                Arc::new(PpoWeightPolicy::new(trained.policy, cfg.weight_bound))
            }
            MixingAlgorithm::Ddpg(ddpg) => {
                let _stage = Span::enter(&*self.tel, "pipeline/ddpg-mixing");
                let trained = self.train_ddpg(ddpg, &sys);
                ddpg_history = trained.history;
                Arc::new(DdpgWeightPolicy::new(trained.actor, cfg.weight_bound))
            }
        };
        let mixed = self.build_mixed(&sys, weight_policy);

        // ---- stage 2: distillation (Alg. 1 lines 11-14)
        let data = self.build_dataset(&sys, mixed.as_ref());
        let kappa_d = {
            let _stage = Span::enter(&*self.tel, "pipeline/direct-distill");
            Arc::new(direct_distill(&data, &cfg.distill))
        };
        let kappa_star = {
            // same loop as `robust_distill`, with the session reporting
            // per-epoch telemetry as it goes
            let _stage = Span::enter(&*self.tel, "pipeline/robust-distill");
            let mut session =
                RobustDistillSession::new(&data, &cfg.distill).with_telemetry(self.tel.clone());
            while !session.is_complete() {
                session.step_epoch(&data);
            }
            Arc::new(session.finish())
        };

        // ---- post-distillation gate: lint the students before handing
        // them to evaluation / verification
        self.lint_students(&sys, &kappa_d, &kappa_star)?;

        Ok(CocktailResult {
            mixed,
            kappa_d,
            kappa_star,
            ppo_history,
            ddpg_history,
        })
    }

    /// Fault-tolerant variant of [`Self::try_run`]: wraps the PPO-mixing
    /// and robust-distillation stages with periodic checkpoints, divergence
    /// detection and bounded rewind/reseed/retry (see
    /// [`crate::supervisor`]).
    ///
    /// With an empty checkpoint directory (or none at all) and no
    /// divergence, the result is **bit-identical** to [`Self::run`]. When
    /// `sup.checkpoint_dir` already holds a checkpoint stamped with this
    /// config's seed, the run resumes from it — kill-and-resume reproduces
    /// the uninterrupted run's artifacts exactly. The DDPG mixing variant
    /// is supervised at stage granularity only (no mid-training rewind).
    ///
    /// # Errors
    ///
    /// [`PipelineError::PreflightDenied`] from a `Deny` gate,
    /// [`PipelineError::Diverged`] when a stage exhausts its retry budget,
    /// [`PipelineError::Interrupted`] at the configured interruption point,
    /// and [`PipelineError::Checkpoint`] for unusable checkpoint files.
    pub fn run_supervised(self, sup: &SupervisorConfig) -> Result<CocktailResult, PipelineError> {
        let sys = self.system.dynamics();
        let cfg = &self.config;
        let _pipeline = Span::enter_with(
            &*self.tel,
            "pipeline",
            vec![
                ("system".to_string(), sys.name().into()),
                ("seed".to_string(), cfg.seed.into()),
                ("supervised".to_string(), true.into()),
            ],
        );
        self.preflight_experts(sys.as_ref())?;

        let loaded = match &sup.checkpoint_dir {
            Some(dir) => load_checkpoint(dir, cfg.seed)?,
            None => None,
        };
        let mut units: u64 = 0; // stage units executed in THIS invocation

        // ---- stage 1: mixing (resumable mid-training under PPO)
        let (mixing, robust_resume) = match loaded.map(|c| c.stage) {
            Some(StageCheckpoint::Robust {
                mixing,
                kappa_d,
                distill,
                losses,
            }) => {
                let algorithm_matches = matches!(
                    (&mixing, &cfg.mixing),
                    (MixingArtifact::Ppo { .. }, MixingAlgorithm::Ppo)
                        | (MixingArtifact::Ddpg { .. }, MixingAlgorithm::Ddpg(_))
                );
                if !algorithm_matches {
                    return Err(self.checkpoint_mismatch(sup, "mixing algorithm"));
                }
                (mixing, Some((kappa_d, distill, losses)))
            }
            Some(StageCheckpoint::Mixing { ppo }) => {
                if !matches!(cfg.mixing, MixingAlgorithm::Ppo) {
                    return Err(self.checkpoint_mismatch(sup, "mixing algorithm"));
                }
                let trained =
                    self.supervise_ppo(PpoSession::from_checkpoint(ppo), &sys, sup, &mut units)?;
                (
                    MixingArtifact::Ppo {
                        policy: trained.policy,
                        history: trained.history,
                    },
                    None,
                )
            }
            None => match &cfg.mixing {
                MixingAlgorithm::Ppo => {
                    let session = PpoSession::new(&cfg.ppo, sys.state_dim(), self.experts.len());
                    let trained = self.supervise_ppo(session, &sys, sup, &mut units)?;
                    (
                        MixingArtifact::Ppo {
                            policy: trained.policy,
                            history: trained.history,
                        },
                        None,
                    )
                }
                MixingAlgorithm::Ddpg(ddpg) => {
                    let _stage = Span::enter(&*self.tel, "pipeline/ddpg-mixing");
                    let trained = self.train_ddpg(ddpg, &sys);
                    units += 1;
                    (
                        MixingArtifact::Ddpg {
                            actor: trained.actor,
                            history: trained.history,
                        },
                        None,
                    )
                }
            },
        };

        // ---- stage 2: robust distillation (resumable mid-epoch). The
        // dataset is a pure function of (mixed, seed) and is regenerated
        // rather than checkpointed.
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
        let (kappa_d, session, losses) = match robust_resume {
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
        let kappa_star = Arc::new(
            self.supervise_distill(session, &data, &mixing, &kappa_d, losses, sup, &mut units)?,
        );

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

    /// Supervises the PPO mixing stage: step, watch the mean return,
    /// checkpoint on cadence, rewind/reseed on divergence.
    fn supervise_ppo(
        &self,
        mut session: PpoSession,
        sys: &Arc<dyn Dynamics>,
        sup: &SupervisorConfig,
        units: &mut u64,
    ) -> Result<cocktail_rl::TrainedPolicy, PipelineError> {
        const STAGE: &str = "ppo-mixing";
        let cfg = &self.config;
        let _stage = Span::enter(&*self.tel, "pipeline/ppo-mixing");
        session.set_telemetry(self.tel.clone());
        let factory = self.mixing_factory(sys);
        let workers = self.worker_count();
        let mut monitor = DivergenceMonitor::new(sup.divergence.collapse_drop);
        monitor.rewind_to(session.history().iter().map(|s| s.mean_return));
        let mut last_good = session.checkpoint();
        let mut retry: u32 = 0;

        while !session.is_complete() {
            let stats = session.step(&factory, workers);
            *units += 1;
            if let Some(reason) = monitor.observe(stats.mean_return) {
                retry += 1;
                if retry > sup.divergence.max_retries {
                    return Err(PipelineError::Diverged {
                        stage: STAGE.into(),
                        attempts: retry,
                        detail: reason,
                    });
                }
                self.report_rewind(STAGE, retry, &reason);
                session = PpoSession::from_checkpoint(last_good.clone());
                session.set_telemetry(self.tel.clone());
                session.reseed_for_retry(u64::from(retry));
                monitor = DivergenceMonitor::new(sup.divergence.collapse_drop);
                monitor.rewind_to(session.history().iter().map(|s| s.mean_return));
                continue;
            }
            if session.iteration().is_multiple_of(sup.cadence()) || session.is_complete() {
                last_good = session.checkpoint();
                if let Some(dir) = &sup.checkpoint_dir {
                    save_checkpoint(
                        dir,
                        &PipelineCheckpoint::new(
                            cfg.seed,
                            StageCheckpoint::Mixing {
                                ppo: last_good.clone(),
                            },
                        ),
                    )?;
                    self.tel.counter("supervisor.checkpoints", 1);
                }
            }
            if sup.interrupt_after.is_some_and(|n| *units >= n) && !session.is_complete() {
                let checkpoint = match &sup.checkpoint_dir {
                    Some(dir) => save_checkpoint(
                        dir,
                        &PipelineCheckpoint::new(
                            cfg.seed,
                            StageCheckpoint::Mixing {
                                ppo: session.checkpoint(),
                            },
                        ),
                    )?,
                    None => PathBuf::new(),
                };
                return Err(PipelineError::Interrupted {
                    stage: STAGE.into(),
                    checkpoint,
                });
            }
        }
        Ok(session.finish())
    }

    /// Supervises the robust-distillation stage: step one epoch, watch the
    /// training loss, checkpoint on cadence, rewind/reseed on divergence.
    #[allow(
        clippy::too_many_arguments,
        reason = "internal stage driver threading pipeline state through; a \
                  struct would only relabel the same seven values"
    )]
    fn supervise_distill(
        &self,
        mut session: RobustDistillSession,
        data: &TeacherDataset,
        mixing: &MixingArtifact,
        kappa_d: &NnController,
        mut losses: Vec<f64>,
        sup: &SupervisorConfig,
        units: &mut u64,
    ) -> Result<NnController, PipelineError> {
        const STAGE: &str = "robust-distill";
        let cfg = &self.config;
        let _stage = Span::enter(&*self.tel, "pipeline/robust-distill");
        session.set_telemetry(self.tel.clone());
        let robust_ckpt = |session: &RobustDistillSession, losses: &[f64]| {
            PipelineCheckpoint::new(
                cfg.seed,
                StageCheckpoint::Robust {
                    mixing: mixing.clone(),
                    kappa_d: kappa_d.network().clone(),
                    distill: session.checkpoint(),
                    losses: losses.to_vec(),
                },
            )
        };
        // mark the stage transition on disk so a kill before the first
        // epoch already resumes past mixing and κ_D
        if let Some(dir) = &sup.checkpoint_dir {
            save_checkpoint(dir, &robust_ckpt(&session, &losses))?;
            self.tel.counter("supervisor.checkpoints", 1);
        }
        let mut monitor = DivergenceMonitor::new(sup.divergence.collapse_drop);
        monitor.rewind_to(losses.iter().map(|l| -l));
        let mut last_good = (session.checkpoint(), losses.clone());
        let mut retry: u32 = 0;

        while !session.is_complete() {
            let loss = session.step_epoch(data);
            *units += 1;
            // negated: the monitor treats higher as better
            if let Some(reason) = monitor.observe(-loss) {
                retry += 1;
                if retry > sup.divergence.max_retries {
                    return Err(PipelineError::Diverged {
                        stage: STAGE.into(),
                        attempts: retry,
                        detail: reason,
                    });
                }
                self.report_rewind(STAGE, retry, &reason);
                session = RobustDistillSession::from_checkpoint(last_good.0.clone());
                session.set_telemetry(self.tel.clone());
                session.reseed_for_retry(u64::from(retry));
                losses.clone_from(&last_good.1);
                monitor = DivergenceMonitor::new(sup.divergence.collapse_drop);
                monitor.rewind_to(losses.iter().map(|l| -l));
                continue;
            }
            losses.push(loss);
            if session.epoch().is_multiple_of(sup.cadence()) || session.is_complete() {
                last_good = (session.checkpoint(), losses.clone());
                if let Some(dir) = &sup.checkpoint_dir {
                    save_checkpoint(dir, &robust_ckpt(&session, &losses))?;
                    self.tel.counter("supervisor.checkpoints", 1);
                }
            }
            if sup.interrupt_after.is_some_and(|n| *units >= n) && !session.is_complete() {
                let checkpoint = match &sup.checkpoint_dir {
                    Some(dir) => save_checkpoint(dir, &robust_ckpt(&session, &losses))?,
                    None => PathBuf::new(),
                };
                return Err(PipelineError::Interrupted {
                    stage: STAGE.into(),
                    checkpoint,
                });
            }
        }
        Ok(session.finish())
    }

    /// Reports a divergence-triggered rewind through telemetry.
    fn report_rewind(&self, stage: &str, retry: u32, reason: &str) {
        if self.tel.enabled() {
            self.tel.counter("supervisor.rewinds", 1);
            self.tel.record(
                Event::point("supervisor.diverged")
                    .with("stage", stage)
                    .with("retry", u64::from(retry))
                    .with("reason", reason),
            );
        }
    }

    /// The per-episode MDP factory of the PPO mixing stage.
    fn mixing_factory<'a>(
        &'a self,
        sys: &'a Arc<dyn Dynamics>,
    ) -> impl Fn(u64) -> Box<dyn Mdp> + 'a {
        let cfg = &self.config;
        move |seed: u64| -> Box<dyn Mdp> {
            Box::new(MixingMdp::new(
                sys.clone(),
                self.experts.clone(),
                cfg.weight_bound,
                cfg.reward,
                seed,
            ))
        }
    }

    /// Runs the DDPG mixing variant to completion (Remark 1; supervised at
    /// stage granularity only).
    fn train_ddpg(
        &self,
        ddpg: &DdpgConfig,
        sys: &Arc<dyn Dynamics>,
    ) -> cocktail_rl::ddpg::TrainedActor {
        let cfg = &self.config;
        let mut mdp = MixingMdp::new(
            sys.clone(),
            self.experts.clone(),
            cfg.weight_bound,
            cfg.reward,
            cfg.seed,
        );
        DdpgTrainer::new(ddpg, sys.state_dim(), self.experts.len()).train(&mut mdp)
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

    fn checkpoint_mismatch(&self, sup: &SupervisorConfig, what: &str) -> PipelineError {
        let path = sup
            .checkpoint_dir
            .as_deref()
            .map(|d| d.join(crate::supervisor::CHECKPOINT_FILE))
            .unwrap_or_default();
        PipelineError::Checkpoint {
            path,
            detail: format!("{what} does not match the configured pipeline"),
        }
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
