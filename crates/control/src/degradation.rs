//! Graceful expert degradation for the mixed controller.
//!
//! When fault injection (or plain numerical trouble) makes an expert emit
//! non-finite or wildly out-of-range outputs, the mixed controller should
//! not let one bad term poison `Σ aᵢ κᵢ(s)`. This module provides the
//! opt-in monitor that [`crate::MixedController`] consults at control time:
//! offending experts are *quarantined* (their mixing weight is zeroed for a
//! cooldown window while the remaining weights are renormalized) and every
//! offense is recorded as a structured [`DegradationEvent`].
//!
//! The monitor is strictly opt-in: a mixed controller built without
//! [`crate::MixedController::with_degradation`] runs the exact legacy
//! mixing arithmetic, bit for bit.

use serde::{Deserialize, Serialize};
use std::sync::{Mutex, PoisonError};

/// Tuning knobs for expert quarantine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradationConfig {
    /// An expert output component is "out of range" when it leaves
    /// `[U_inf − f·span, U_sup + f·span]` where `span = U_sup − U_inf` and
    /// `f` is this factor. The slack exists because individual experts may
    /// legitimately overshoot the clipped control range; only gross
    /// excursions (or non-finite values) indicate a fault.
    pub margin_factor: f64,
    /// How many subsequent `control` calls a quarantined expert sits out
    /// before being probed again. A permanently faulty expert simply
    /// re-offends at each probe and goes straight back into quarantine.
    pub cooldown: u64,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self {
            margin_factor: 1.0,
            cooldown: 25,
        }
    }
}

/// Why an expert was quarantined.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DegradationReason {
    /// The expert produced NaN or ±∞.
    NonFinite,
    /// The expert produced `value`, outside the tolerated band whose
    /// violated edge is `bound`.
    OutOfRange { value: f64, bound: f64 },
}

impl std::fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFinite => write!(f, "non-finite output"),
            Self::OutOfRange { value, bound } => {
                write!(f, "output {value} beyond tolerated bound {bound}")
            }
        }
    }
}

/// One quarantine decision, recorded at control time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradationEvent {
    /// The guarded `control` call (0-based) on which the offense occurred.
    pub call: u64,
    /// Index of the offending expert in the mixture.
    pub expert: usize,
    /// The offending expert's label.
    pub expert_name: String,
    /// What the expert did wrong.
    pub reason: DegradationReason,
}

impl std::fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "call {}: quarantined expert {} ({}) — {}",
            self.call, self.expert, self.expert_name, self.reason
        )
    }
}

#[derive(Debug)]
struct QuarantineState {
    /// Guarded `control` calls served so far (the quarantine clock).
    calls: u64,
    /// Per-expert quarantine horizon: quarantined while `calls < until`.
    until: Vec<Option<u64>>,
    /// Structured offense log, in call order.
    events: Vec<DegradationEvent>,
}

/// Interior-mutable quarantine bookkeeping shared by all `control` calls of
/// one mixed controller. Created via
/// [`crate::MixedController::with_degradation`].
#[derive(Debug)]
pub struct DegradationMonitor {
    config: DegradationConfig,
    state: Mutex<QuarantineState>,
}

impl DegradationMonitor {
    pub(crate) fn new(config: DegradationConfig, expert_count: usize) -> Self {
        Self {
            config,
            state: Mutex::new(QuarantineState {
                calls: 0,
                until: vec![None; expert_count],
                events: Vec::new(),
            }),
        }
    }

    pub(crate) fn config(&self) -> &DegradationConfig {
        &self.config
    }

    /// Claims the next call number on the quarantine clock.
    pub(crate) fn next_call(&self) -> u64 {
        let mut st = self.lock();
        let call = st.calls;
        st.calls += 1;
        call
    }

    /// Whether `expert` is sitting out `call`.
    pub(crate) fn is_quarantined(&self, expert: usize, call: u64) -> bool {
        self.lock().until[expert].is_some_and(|until| call < until)
    }

    /// Quarantines `expert` from `call` and records the offense.
    pub(crate) fn quarantine(
        &self,
        call: u64,
        expert: usize,
        name: &str,
        reason: DegradationReason,
    ) {
        let mut st = self.lock();
        st.until[expert] = Some(call + 1 + self.config.cooldown);
        st.events.push(DegradationEvent {
            call,
            expert,
            expert_name: name.to_string(),
            reason,
        });
    }

    /// A copy of the offense log so far.
    pub(crate) fn events(&self) -> Vec<DegradationEvent> {
        self.lock().events.clone()
    }

    /// Drains and returns the offense log.
    pub(crate) fn take_events(&self) -> Vec<DegradationEvent> {
        std::mem::take(&mut self.lock().events)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QuarantineState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_expires_after_cooldown() {
        let m = DegradationMonitor::new(
            DegradationConfig {
                margin_factor: 1.0,
                cooldown: 2,
            },
            1,
        );
        m.quarantine(0, 0, "e", DegradationReason::NonFinite);
        assert!(m.is_quarantined(0, 1));
        assert!(m.is_quarantined(0, 2));
        assert!(!m.is_quarantined(0, 3)); // probed again after the cooldown
        assert_eq!(m.events().len(), 1);
    }

    #[test]
    fn events_serialize_round_trip() {
        let ev = DegradationEvent {
            call: 7,
            expert: 1,
            expert_name: "kappa2".into(),
            reason: DegradationReason::OutOfRange {
                value: 1.0e9,
                bound: 60.0,
            },
        };
        let json = serde_json::to_string(&ev).expect("serialize");
        let back: DegradationEvent = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, ev);
        assert!(ev.to_string().contains("quarantined expert 1"));
    }
}
