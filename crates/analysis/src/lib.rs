//! Static analysis of Cocktail controllers.
//!
//! A linter for the artifact the pipeline ships: the distilled student
//! `u = scale ⊙ net(s)`. It executes no rollouts — every finding is
//! derived from the weights, the architecture and the plant's declared
//! domains:
//!
//! * **composition** — output-scale arity and sign, and the controller's
//!   dimensions against the plant's;
//! * **hygiene** — non-finite, degenerate and exploding weights;
//! * **range** — interval propagation of the verification domain through
//!   the controller: saturated layers, dead `ReLU`s, and outputs that
//!   provably exceed the actuator limits `[U_inf, U_sup]`;
//! * **lipschitz** — the spectral-norm product bound, the distillation
//!   budget `L`, and the predicted Bernstein verification cost.
//!
//! The analyzable form is [`ControllerSpec`], the serializable network
//! and output scale. Its network loads through `Mlp`'s checked
//! deserializer, so shapes are consistent once a spec parses; values are
//! not, so a NaN weight or a wrong plant loads cleanly and the analyzer
//! explains what is wrong instead of the pipeline panicking.
//!
//! Three front ends consume the analyzer: the `lint-model` binary (exit
//! code ≠ 0 on error findings), the pipeline pre-flight gate in
//! `cocktail-core`, controlled by [`PreflightMode`], and the bundle
//! export and admission gates in `cocktail-serve`.

mod analyzer;
mod composition;
mod hygiene;
mod lipschitz_cert;
mod range;
mod report;
mod spec;

pub use analyzer::{AnalysisConfig, Analyzer, PreflightMode};
pub use range::output_range;
pub use report::{AnalysisReport, Diagnostic, Severity};
pub use spec::ControllerSpec;
