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
//!   ([`invariant::invariant_set`]), the Fig. 3 experiment;
//! * [`cert`] — the full loop condensed into a serializable, deterministically
//!   re-derivable [`cert::SafetyCert`] ([`cert::certify_controller`]): the
//!   artifact the serving layer embeds in controller bundles and re-derives
//!   at admission time.
//!
//! Everything is deterministic and wall-clock metered, so "verifiability =
//! verification time" (the paper's Property 3) is directly measurable.
//!
//! # Examples
//!
//! Certify a small network over a box and check the enclosure is sound:
//!
//! ```
//! use cocktail_math::BoxRegion;
//! use cocktail_nn::{Activation, MlpBuilder};
//! use cocktail_verify::bernstein::{BernsteinCertificate, CertificateConfig};
//! use cocktail_verify::enclosure::ControlEnclosure;
//!
//! let net = MlpBuilder::new(2).hidden(4, Activation::Tanh)
//!     .output(1, Activation::Tanh).seed(0).build();
//! let domain = BoxRegion::cube(2, -1.0, 1.0);
//! let cert = BernsteinCertificate::build(&net, &[1.0], &domain,
//!     &CertificateConfig::default())?;
//! let cell = BoxRegion::cube(2, -0.1, 0.1);
//! let bounds = cert.enclose(&cell);
//! let y = net.forward(&[0.0, 0.0]);
//! assert!(bounds[0].contains(y[0]));
//! # Ok::<(), cocktail_verify::VerifyError>(())
//! ```

pub mod bernstein;
pub mod cert;
pub mod enclosure;
pub mod error;
pub mod invariant;
pub mod lyapunov;
pub mod reach;

pub use bernstein::{BernsteinApprox, BernsteinCertificate, CertificateConfig, RefineStats};
pub use cert::{
    certify_controller, default_params, fast_params, SafetyCert, SafetyParams, SafetyVerdict,
};
pub use enclosure::ControlEnclosure;
pub use error::VerifyError;
pub use invariant::{invariant_set, invariant_set_with_workers, InvariantConfig, InvariantResult};
pub use lyapunov::{
    solve_discrete_lyapunov, verify_ellipsoid_invariant, EllipsoidCheck, QuadraticForm,
};
pub use reach::{reach_analysis, ReachConfig, ReachMode, ReachResult};
