//! Formal analysis of neural-network controlled systems (Section III-C).
//!
//! The paper verifies the distilled student by (1) over-approximating the
//! network with a Bernstein polynomial under a bounded error `ε`, with
//! state-space partitioning when `ε` is too large \[21\], (2) treating the
//! closed loop as a polynomial hybrid system with the approximation error
//! absorbed into the disturbance (`Ω ⊕ ε`), and (3) computing control
//! invariant sets \[22\] and reachable sets \[23\] on it. This crate implements
//! that pipeline on our own substrate:
//!
//! * [`bernstein`] — tensor-product Bernstein approximation of an MLP over
//!   a box with a *rigorous* error bound derived from the network's
//!   Lipschitz constant, plus adaptive partition refinement
//!   ([`bernstein::BernsteinCertificate`]). The refinement budget is capped:
//!   a high-Lipschitz student exhausts it, reproducing the paper's Fig. 4
//!   observation that `κ_D` could not be verified (memory fault) while
//!   `κ*` verifies in minutes;
//! * [`enclosure`] — the object-safe [`enclosure::ControlEnclosure`]
//!   abstraction (Bernstein certificate, interval bound propagation, and
//!   exact linear enclosure) that the analyses consume;
//! * [`reach`] — finite-horizon box reachability with subdivision
//!   ([`reach::reach_analysis`]), the Fig. 4 experiment;
//! * [`invariant`] — grid-fixpoint control-invariant-set computation
//!   ([`invariant::invariant_set_with_workers`]), the Fig. 3 experiment;
//! * [`cert`] — the full loop in one call, [`cert::certify_controller`]: it
//!   condenses the loop into a serializable, deterministically re-derivable
//!   [`cert::SafetyCert`] (the artifact the serving layer embeds in
//!   controller bundles and re-derives at admission time) and hands back
//!   the invariant set and reach frames it was condensed from, which the
//!   figures plot.
//!
//! Everything is deterministic and wall-clock metered, so "verifiability =
//! verification time" (the paper's Property 3) is directly measurable.
//!
//! # Examples
//!
//! Certify a small controller on the oscillator and read the evidence next
//! to the certificate:
//!
//! ```
//! use cocktail_env::systems::VanDerPol;
//! use cocktail_nn::{Activation, MlpBuilder};
//! use cocktail_obs::NullSink;
//! use cocktail_verify::{certify_controller, fast_params};
//!
//! let sys = VanDerPol::new();
//! let net = MlpBuilder::new(2).hidden(4, Activation::Tanh)
//!     .output(1, Activation::Tanh).seed(0).build();
//! let params = fast_params(&sys);
//! let run = certify_controller(&sys, &net, &[20.0], &params, 1, &NullSink)?;
//! let alive = run.invariant.alive().iter().filter(|&&a| a).count();
//! assert_eq!(alive, run.cert.invariant_alive);
//! assert_eq!(run.reach.frames.len(), run.cert.reach_steps + 1);
//! # Ok::<(), cocktail_verify::VerifyError>(())
//! ```

pub mod bernstein;
pub mod cert;
pub mod enclosure;
pub mod error;
pub mod invariant;
mod jacobian;
pub mod reach;

pub use bernstein::{
    BernsteinApprox, BernsteinCertificate, CertificateConfig, ErrorMargin, RefineStats,
};
pub use cert::{
    certify_controller, default_params, fast_params, Certification, SafetyCert, SafetyParams,
    SafetyVerdict,
};
pub use enclosure::ControlEnclosure;
pub use error::VerifyError;
pub use invariant::{invariant_set_with_workers, InvariantConfig, InvariantResult};
pub use reach::{reach_analysis, ReachConfig, ReachMode, ReachResult};
