//! Seeded, deterministic fault injection for experts and plant sensors.
//!
//! A [`FaultPlan`] schedules [`FaultKind`]s over step windows; a
//! [`FaultInjector`] executes the plan against a stream of controller
//! outputs (or observed states) during a rollout. Everything is a pure
//! function of `(plan, seed, step, input)`, so injected runs obey the same
//! bit-for-bit determinism contract as the rest of the workspace: the same
//! plan and seed produce the same faulty trajectory at any worker count.
//!
//! # Examples
//!
//! ```
//! use cocktail_env::fault::{FaultInjector, FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::window(FaultKind::Dropout, 2, Some(4));
//! let mut inj = FaultInjector::new(plan, 0);
//! assert_eq!(inj.output(0, &[1.5]), vec![1.5]); // healthy
//! assert_eq!(inj.output(2, &[1.5]), vec![0.0]); // dropped
//! assert_eq!(inj.output(4, &[1.5]), vec![1.5]); // window closed
//! ```

use serde::{Deserialize, Serialize};

/// The kinds of faults the injector can produce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Replace every output component with `NaN`.
    NanOutput,
    /// Replace every output component with `+∞`.
    InfOutput,
    /// Freeze the output at the last healthy value (zeros if none yet).
    StuckAt,
    /// Silently output zero.
    Dropout,
    /// Clamp every output component into `[-limit, limit]`.
    Saturate {
        /// Magnitude bound of the saturated output.
        limit: f64,
    },
    /// Additive spike of `±magnitude` on one observed-state component
    /// (which component and which sign are hashed from the seed and step).
    SensorSpike {
        /// Absolute size of the spike.
        magnitude: f64,
    },
}

/// A half-open step window `[start, end)`; `end = None` means "forever".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// First step at which the fault is active.
    pub start: usize,
    /// First step at which the fault is inactive again (`None`: permanent).
    pub end: Option<usize>,
}

impl FaultWindow {
    /// A window active from `start` onwards, forever.
    pub fn permanent(start: usize) -> Self {
        Self { start, end: None }
    }

    /// Whether step `t` falls inside the window.
    pub fn contains(&self, t: usize) -> bool {
        t >= self.start && self.end.is_none_or(|e| t < e)
    }
}

/// One scheduled fault: a kind plus the window in which it is active.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// What goes wrong.
    pub kind: FaultKind,
    /// When it goes wrong.
    pub window: FaultWindow,
}

/// A deterministic schedule of faults over a rollout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// Scheduled faults, applied in order when windows overlap.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// A single fault active for the whole rollout.
    pub fn permanent(kind: FaultKind) -> Self {
        Self::window(kind, 0, None)
    }

    /// A single fault active on `[start, end)`.
    pub fn window(kind: FaultKind, start: usize, end: Option<usize>) -> Self {
        Self {
            events: vec![FaultEvent {
                kind,
                window: FaultWindow { start, end },
            }],
        }
    }

    /// Adds another scheduled fault (builder style).
    pub fn and(mut self, kind: FaultKind, start: usize, end: Option<usize>) -> Self {
        self.events.push(FaultEvent {
            kind,
            window: FaultWindow { start, end },
        });
        self
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events active at step `t`, in schedule order.
    pub fn active_at(&self, t: usize) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.window.contains(t))
    }

    /// Draws `count` random fault events over a `horizon`-step rollout.
    /// Purely a function of `(seed, horizon, count)` — the same arguments
    /// always produce the same plan.
    pub fn random(seed: u64, horizon: usize, count: usize) -> Self {
        let horizon = horizon.max(1);
        let mut events = Vec::with_capacity(count);
        for i in 0..count {
            let h = hash2(seed, i as u64);
            let start = (h % horizon as u64) as usize;
            let len = 1 + (hash2(h, 1) % (horizon as u64 / 2).max(1)) as usize;
            let kind = match hash2(h, 2) % 6 {
                0 => FaultKind::NanOutput,
                1 => FaultKind::InfOutput,
                2 => FaultKind::StuckAt,
                3 => FaultKind::Dropout,
                4 => FaultKind::Saturate { limit: 0.5 },
                _ => FaultKind::SensorSpike { magnitude: 0.5 },
            };
            events.push(FaultEvent {
                kind,
                window: FaultWindow {
                    start,
                    end: Some((start + len).min(horizon)),
                },
            });
        }
        Self { events }
    }
}

/// splitmix64-style finalizer mixing two words; the per-step fault
/// randomness derives from this so it is independent of call order.
fn hash2(a: u64, b: u64) -> u64 {
    let mut z = (a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Executes a [`FaultPlan`] against controller outputs and observed states.
///
/// The only mutable state is the last healthy output (for
/// [`FaultKind::StuckAt`]); call [`FaultInjector::reset`] between episodes,
/// or construct a fresh injector per episode for parallel evaluation (the
/// deterministic-parallelism contract requires per-episode injectors, since
/// a shared injector's stuck-at memory would depend on episode
/// interleaving).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    last_healthy: Option<Vec<f64>>,
}

impl FaultInjector {
    /// Creates an injector for `plan`; `seed` drives the sensor-spike
    /// randomness.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Self {
            plan,
            seed,
            last_healthy: None,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Clears the stuck-at memory (start of a new episode).
    pub fn reset(&mut self) {
        self.last_healthy = None;
    }

    /// Applies the output faults active at step `t` to a healthy
    /// controller output, in schedule order.
    pub fn output(&mut self, t: usize, healthy: &[f64]) -> Vec<f64> {
        let mut out = healthy.to_vec();
        let mut stuck = false;
        let active: Vec<FaultKind> = self.plan.active_at(t).map(|e| e.kind.clone()).collect();
        for kind in &active {
            match kind {
                FaultKind::NanOutput => out.fill(f64::NAN),
                FaultKind::InfOutput => out.fill(f64::INFINITY),
                FaultKind::Dropout => out.fill(0.0),
                FaultKind::StuckAt => {
                    stuck = true;
                    out = self
                        .last_healthy
                        .clone()
                        .unwrap_or_else(|| vec![0.0; healthy.len()]);
                }
                FaultKind::Saturate { limit } => {
                    for v in &mut out {
                        *v = v.clamp(-limit.abs(), limit.abs());
                    }
                }
                FaultKind::SensorSpike { .. } => {}
            }
        }
        if !stuck {
            self.last_healthy = Some(healthy.to_vec());
        }
        out
    }

    /// Applies the sensor faults active at step `t` to an observed state:
    /// each active spike adds `±magnitude` to one hashed component.
    pub fn sensor(&self, t: usize, observed: &[f64]) -> Vec<f64> {
        let mut s = observed.to_vec();
        if s.is_empty() {
            return s;
        }
        for (j, event) in self.plan.active_at(t).enumerate() {
            if let FaultKind::SensorSpike { magnitude } = event.kind {
                let h = hash2(self.seed, ((t as u64) << 8) | j as u64);
                let dim = (h % s.len() as u64) as usize;
                let sign = if h & (1 << 32) == 0 { 1.0 } else { -1.0 };
                s[dim] += sign * magnitude;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_gate_activation() {
        let w = FaultWindow {
            start: 3,
            end: Some(6),
        };
        assert!(!w.contains(2));
        assert!(w.contains(3));
        assert!(w.contains(5));
        assert!(!w.contains(6));
        assert!(FaultWindow::permanent(4).contains(1_000_000));
    }

    #[test]
    fn nan_and_inf_outputs_corrupt_everything() {
        let mut inj = FaultInjector::new(FaultPlan::permanent(FaultKind::NanOutput), 0);
        assert!(inj.output(0, &[1.0, -2.0]).iter().all(|v| v.is_nan()));
        let mut inj = FaultInjector::new(FaultPlan::permanent(FaultKind::InfOutput), 0);
        assert!(inj.output(0, &[1.0]).iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn stuck_at_freezes_last_healthy_output() {
        let plan = FaultPlan::window(FaultKind::StuckAt, 2, Some(4));
        let mut inj = FaultInjector::new(plan, 0);
        assert_eq!(inj.output(0, &[1.0]), vec![1.0]);
        assert_eq!(inj.output(1, &[2.0]), vec![2.0]);
        assert_eq!(inj.output(2, &[3.0]), vec![2.0], "frozen at step-1 value");
        assert_eq!(inj.output(3, &[4.0]), vec![2.0], "still frozen");
        assert_eq!(inj.output(4, &[5.0]), vec![5.0], "window closed");
    }

    #[test]
    fn stuck_at_with_no_history_outputs_zero() {
        let mut inj = FaultInjector::new(FaultPlan::permanent(FaultKind::StuckAt), 0);
        assert_eq!(inj.output(0, &[7.0, 7.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn saturation_clamps_magnitude() {
        let mut inj =
            FaultInjector::new(FaultPlan::permanent(FaultKind::Saturate { limit: 0.5 }), 0);
        assert_eq!(inj.output(0, &[3.0, -3.0, 0.2]), vec![0.5, -0.5, 0.2]);
    }

    #[test]
    fn sensor_spike_hits_one_component_deterministically() {
        let plan = FaultPlan::permanent(FaultKind::SensorSpike { magnitude: 0.7 });
        let inj = FaultInjector::new(plan.clone(), 11);
        let s = [0.0, 0.0, 0.0];
        let spiked = inj.sensor(5, &s);
        let moved: Vec<usize> = (0..3).filter(|&i| spiked[i] != 0.0).collect();
        assert_eq!(moved.len(), 1);
        assert_eq!(spiked[moved[0]].abs(), 0.7);
        // same (plan, seed, step) → same spike; different step may differ
        assert_eq!(FaultInjector::new(plan, 11).sensor(5, &s), spiked);
    }

    #[test]
    fn output_faults_leave_sensor_path_untouched_and_vice_versa() {
        let inj = FaultInjector::new(FaultPlan::permanent(FaultKind::Dropout), 3);
        assert_eq!(inj.sensor(0, &[1.0, 2.0]), vec![1.0, 2.0]);
        let mut inj2 = FaultInjector::new(
            FaultPlan::permanent(FaultKind::SensorSpike { magnitude: 1.0 }),
            3,
        );
        assert_eq!(inj2.output(0, &[4.0]), vec![4.0]);
    }

    #[test]
    fn reset_clears_stuck_memory() {
        let plan = FaultPlan::window(FaultKind::StuckAt, 1, None);
        let mut inj = FaultInjector::new(plan, 0);
        assert_eq!(inj.output(0, &[9.0]), vec![9.0]);
        assert_eq!(inj.output(1, &[5.0]), vec![9.0]);
        inj.reset();
        assert_eq!(inj.output(1, &[5.0]), vec![0.0], "no healthy history");
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(42, 100, 5);
        let b = FaultPlan::random(42, 100, 5);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 5);
        let c = FaultPlan::random(43, 100, 5);
        assert_ne!(a, c);
        for e in &a.events {
            assert!(e.window.start < 100);
            assert!(e.window.end.is_some_and(|end| end <= 100));
        }
    }

    #[test]
    fn plan_serializes_round_trip() {
        let plan = FaultPlan::random(7, 50, 4).and(FaultKind::NanOutput, 0, Some(3));
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(plan, back);
    }
}
