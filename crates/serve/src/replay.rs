//! Offline shadow replay of recorded request streams.
//!
//! The engine captures every accepted request as a `serve.request`
//! telemetry point carrying the request id and the state vector as exact
//! **bit patterns** ([`encode_state_bits`] — hex-encoded `f64::to_bits`,
//! never decimal, so a JSONL round trip cannot perturb a single ULP).
//! `cocktail-serve replay` reads such a log back and feeds the recorded
//! stream through an incumbent and a candidate bundle *offline*, using
//! the same per-sample oracle arithmetic the engine is bit-identical to,
//! and emits the same divergence report a live canary would have — so a
//! rollout can be rehearsed against yesterday's traffic before a single
//! production request touches the candidate.

use crate::bundle::ControllerBundle;
use crate::engine::ModelParams;
use crate::rollout::{CanaryTally, DivergenceHistogram, RolloutBudget};
use cocktail_obs::{read_jsonl, Event, FieldValue};
use std::fmt::Write as _;
use std::path::Path;

/// Encodes a state vector as comma-joined, zero-padded hex `f64` bit
/// patterns (`3fe0000000000000,bfd0...`). Lossless by construction.
#[must_use]
pub fn encode_state_bits(state: &[f64]) -> String {
    let mut s = String::with_capacity(state.len() * 17);
    for (i, v) in state.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{:016x}", v.to_bits());
    }
    s
}

/// Decodes [`encode_state_bits`] output back into the exact state vector.
/// Returns `None` on any malformed component.
#[must_use]
pub fn decode_state_bits(s: &str) -> Option<Vec<f64>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',')
        .map(|part| u64::from_str_radix(part, 16).ok().map(f64::from_bits))
        .collect()
}

/// One request recovered from a telemetry log.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedRequest {
    /// The id the canary split hashes ([`crate::rollout::routes_to_canary`]).
    pub id: u64,
    /// The exact state vector the engine saw.
    pub state: Vec<f64>,
}

/// Extracts every decodable `serve.request` capture from an event stream,
/// in recording order. Undecodable captures are skipped silently (count
/// them via `events.len()` against the result if needed).
#[must_use]
pub fn requests_of_events(events: &[Event]) -> Vec<RecordedRequest> {
    events
        .iter()
        .filter(|e| e.name == "serve.request")
        .filter_map(|e| {
            let id = match e.field("id") {
                Some(FieldValue::U64(id)) => *id,
                _ => return None,
            };
            let state = match e.field("state_bits") {
                Some(FieldValue::Str(bits)) => decode_state_bits(bits)?,
                _ => return None,
            };
            Some(RecordedRequest { id, state })
        })
        .collect()
}

/// Loads the recorded requests out of a telemetry JSONL file.
///
/// # Errors
///
/// Returns a message when the file cannot be read or parsed as JSONL.
pub fn load_recorded(path: &Path) -> Result<Vec<RecordedRequest>, String> {
    Ok(requests_of_events(&read_jsonl(path)?))
}

/// The offline equivalent of a live canary's shadow comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Requests replayed through both controllers.
    pub requests: u64,
    /// Requests skipped (state dimension mismatch).
    pub skipped: u64,
    /// Clipped-output divergence, candidate vs incumbent.
    pub divergence: DivergenceHistogram,
    /// Requests whose candidate output was non-finite.
    pub nonfinite_candidate: u64,
    /// Requests whose candidate pre-clip output left the candidate's
    /// control envelope.
    pub envelope_violations: u64,
}

impl ReplayReport {
    /// Whether a live canary with this `budget` would have survived the
    /// replayed stream: the rule the engine's guard trips on, applied to
    /// the whole stream (the non-finite guard has no budget: any
    /// occurrence fails).
    #[must_use]
    pub fn within(&self, budget: &RolloutBudget) -> bool {
        budget
            .breach(
                self.nonfinite_candidate,
                &self.divergence,
                self.envelope_violations,
            )
            .is_none()
    }

    /// Multi-line human-readable rendering for the CLI.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "replayed {} requests ({} skipped)\n  divergence: {}\n  non-finite candidate \
             outputs: {}\n  envelope violations: {}",
            self.requests,
            self.skipped,
            self.divergence.render(),
            self.nonfinite_candidate,
            self.envelope_violations
        )
    }
}

/// Feeds `requests` through both bundles with the per-sample oracle the
/// engine is bit-identical to (`clip(scale ⊙ net.forward(state))`) and
/// records each row with the engine's own canary comparison, so the
/// report is the divergence a live canary at 100% traffic would have seen.
///
/// # Errors
///
/// Returns a message when either bundle's network cannot be materialized
/// or their dimensions disagree.
pub fn shadow_replay(
    incumbent: &ControllerBundle,
    candidate: &ControllerBundle,
    requests: &[RecordedRequest],
) -> Result<ReplayReport, String> {
    let inc = ModelParams::of_bundle(incumbent).map_err(|e| format!("incumbent: {e}"))?;
    let can = ModelParams::of_bundle(candidate).map_err(|e| format!("candidate: {e}"))?;
    let (inc_net, can_net) = (&inc.net, &can.net);
    if inc_net.input_dim() != can_net.input_dim() || inc_net.output_dim() != can_net.output_dim() {
        return Err(format!(
            "dimension mismatch: incumbent {} -> {}, candidate {} -> {}",
            inc_net.input_dim(),
            inc_net.output_dim(),
            can_net.input_dim(),
            can_net.output_dim()
        ));
    }
    let mut tally = CanaryTally::default();
    let mut skipped = 0;
    for req in requests {
        if req.state.len() != can_net.input_dim() {
            skipped += 1;
            continue;
        }
        let can_y = can_net.forward(&req.state);
        let inc_y = inc_net.forward(&req.state);
        tally.compare(Some(&can_y), &can, Some(&inc_y), &inc);
    }
    Ok(ReplayReport {
        requests: tally.divergence.count,
        skipped,
        divergence: tally.divergence,
        nonfinite_candidate: tally.nonfinite,
        envelope_violations: tally.envelope_violations,
    })
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        reason = "test code; panics are failures"
    )]
    use super::*;
    use crate::bundle::tests_support::test_safety_params;
    use crate::bundle::{fnv1a_64, Provenance};
    use cocktail_core::SystemId;
    use cocktail_nn::{Activation, MlpBuilder};
    use cocktail_obs::NullSink;

    fn bundle(seed: u64) -> ControllerBundle {
        let net = MlpBuilder::new(2)
            .hidden(8, Activation::Tanh)
            .output(1, Activation::Tanh)
            .seed(seed)
            .build();
        ControllerBundle::package_with(
            SystemId::Oscillator,
            net,
            vec![20.0],
            Provenance {
                seed,
                config_hash: fnv1a_64(b"replay-test"),
                crate_version: env!("CARGO_PKG_VERSION").to_string(),
            },
            Some(&test_safety_params()),
            &NullSink,
        )
        .expect("packages")
    }

    #[test]
    fn state_bits_round_trip_every_bit_pattern() {
        let awkward = [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -1.234_567_890_123_456_7e-300,
        ];
        let encoded = encode_state_bits(&awkward);
        let decoded = decode_state_bits(&encoded).expect("decodes");
        for (a, b) in awkward.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits(), "bitwise round trip");
        }
        assert_eq!(decode_state_bits(""), Some(Vec::new()));
        assert_eq!(decode_state_bits("zzz"), None);
    }

    #[test]
    fn recorded_requests_come_back_out_of_an_event_stream() {
        let events = vec![
            Event::point("serve.request")
                .with("id", 7u64)
                .with("state_bits", encode_state_bits(&[0.25, -0.5])),
            Event::point("serve.other").with("id", 9u64),
            Event::point("serve.request").with("id", 8u64), // no state: skipped
        ];
        let reqs = requests_of_events(&events);
        assert_eq!(
            reqs,
            vec![RecordedRequest {
                id: 7,
                state: vec![0.25, -0.5],
            }]
        );
    }

    #[test]
    fn identical_bundles_replay_with_zero_divergence() {
        let b = bundle(3);
        let requests: Vec<RecordedRequest> = (0..20u64)
            .map(|i| RecordedRequest {
                id: i,
                state: vec![0.05 * i as f64 - 0.4, 0.1],
            })
            .collect();
        let report = shadow_replay(&b, &bundle(3), &requests).expect("replays");
        assert_eq!(report.requests, 20);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.divergence.max, 0.0);
        assert_eq!(report.divergence.bins[0], 20, "all in the d == 0 bin");
        assert!(report.within(&RolloutBudget::default()));
        assert!(report.within(&RolloutBudget {
            max_divergence: 0.0,
            max_envelope_violations: 0,
        }));
    }

    #[test]
    fn different_bundles_diverge_and_budgets_catch_it() {
        let requests: Vec<RecordedRequest> = (0..20u64)
            .map(|i| RecordedRequest {
                id: i,
                state: vec![0.05 * i as f64 - 0.4, -0.2],
            })
            .collect();
        let report = shadow_replay(&bundle(3), &bundle(4), &requests).expect("replays");
        assert_eq!(report.requests, 20);
        assert!(report.divergence.max > 0.0, "different nets must diverge");
        assert!(!report.within(&RolloutBudget {
            max_divergence: 0.0,
            max_envelope_violations: u64::MAX,
        }));
        assert!(report.render().contains("replayed 20 requests"));
        // dimension-mismatched requests are skipped, not fatal
        let short = vec![RecordedRequest {
            id: 0,
            state: vec![1.0],
        }];
        let r2 = shadow_replay(&bundle(3), &bundle(4), &short).expect("replays");
        assert_eq!((r2.requests, r2.skipped), (0, 1));
    }
}
