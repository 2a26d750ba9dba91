//! `cocktail-serve`: a controller-serving runtime for distilled students.
//!
//! The pipeline crates end at a trained, verified student network. This
//! crate is the deployment story for that artifact, in six layers:
//!
//! 1. **Bundle** ([`bundle`]): a versioned, self-describing JSON artifact
//!    packaging the student network with its operating envelope (input
//!    domain, control clip range), its measured Lipschitz certificate,
//!    the static-analysis findings it shipped with, and provenance (seed,
//!    config hash, crate version). Writes are atomic and fsync'd.
//! 2. **Admission** ([`admission`]): nothing serves on trust. Loading a
//!    bundle re-runs the `cocktail-analysis` gate against the *current*
//!    linter and re-derives the Lipschitz bound; a stale claim, a Deny
//!    finding, or a certificate violation refuses admission.
//! 3. **Engine** ([`engine`]): a sharded micro-batching scheduler — N
//!    independent queue+worker shards, deterministic connection-to-shard
//!    hashing, reusable batch scratch (zero steady-state allocations on
//!    the binary reply path) — that coalesces concurrent requests into
//!    batched forwards, clips every output to the bundle envelope,
//!    answers non-finite outputs from a fallback expert, and rejects
//!    (never blocks) under overload.
//! 4. **Wire + transport** ([`wire`], [`reactor`], [`transport`]): a
//!    compact fixed-layout binary frame format opened by a hello byte,
//!    served by an epoll-backed nonblocking reactor that multiplexes
//!    every connection on one thread (serving requires Linux), and the
//!    blocking client that speaks it.
//! 5. **Harness** ([`loadgen`]): a deterministic load generator that
//!    doubles as the correctness oracle — every served output is checked
//!    bit-for-bit against the per-sample reference path, with
//!    p50/p99/p999 latency accounting.
//! 6. **Rollout** ([`rollout`], [`replay`]): fleet operations — a
//!    propose/canary/promote/rollback state machine over an
//!    epoch-versioned model set, deterministic canary routing by request
//!    id, shadow comparison with divergence histograms and auto-rollback
//!    budgets, a served-output drift detector feeding the supervisor's
//!    retraining loop, and offline shadow replay of recorded request
//!    streams.
//!
//! The crate is std-only, like the rest of the workspace.

pub mod admission;
pub mod bundle;
pub mod engine;
pub mod loadgen;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod replay;
pub mod rollout;
pub mod transport;
pub mod wire;

pub use admission::{
    admit, admit_with, admit_with_workers, AdmissionConfig, AdmissionError, Admitted,
};
pub use bundle::{
    BundleError, ControllerBundle, Provenance, BUNDLE_VERSION, OLDEST_READABLE_VERSION,
};
pub use engine::{
    ControlResponse, Engine, EngineConfig, EngineHandle, Outbox, PinnedHandle, ServeError, Ticket,
};
pub use loadgen::{LoadGenConfig, LoadReport};
#[cfg(target_os = "linux")]
pub use reactor::{ReactorConfig, ReactorServer};
pub use replay::{
    decode_state_bits, encode_state_bits, load_recorded, requests_of_events, shadow_replay,
    RecordedRequest, ReplayReport,
};
pub use rollout::{
    routes_to_canary, total_variation, DivergenceHistogram, DriftConfig, DriftDetector,
    DriftReport, RolloutAction, RolloutBudget, RolloutConfig, RolloutError, RolloutEvent,
    RolloutStatus,
};
pub use transport::BinaryTcpClient;
