//! Rollout drills: canary routing determinism across shard counts,
//! promote bit-equivalence with a cold start, auto-rollback containment
//! of poisoned candidates, drift alarms reaching telemetry and the
//! supervisor's retrain-request handoff, and shadow replay reporting what
//! the live canary guard saw.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code; panics are failures"
)]

use cocktail_analysis::ControllerSpec;
use cocktail_core::supervisor::{load_retrain_request, save_retrain_request};
use cocktail_core::SystemId;
use cocktail_math::{rng, vector, BoxRegion};
use cocktail_nn::{Activation, Mlp, MlpBuilder};
use cocktail_obs::{FieldValue, InMemorySink, NullSink};
use cocktail_serve::{
    routes_to_canary, shadow_replay, ControllerBundle, DivergenceHistogram, DriftConfig, Engine,
    EngineConfig, Provenance, RecordedRequest, RolloutAction, RolloutBudget, RolloutConfig, Ticket,
    BUNDLE_VERSION,
};
use std::sync::Arc;

const SCALE: f64 = 2.0;
const U_INF: f64 = -5.0;
const U_SUP: f64 = 5.0;

fn incumbent_net() -> Mlp {
    MlpBuilder::new(2)
        .hidden(6, Activation::Tanh)
        .output(1, Activation::Identity)
        .seed(5)
        .build()
}

/// The incumbent with one weight nudged: dimensionally identical,
/// numerically distinct on every input.
fn candidate_net() -> Mlp {
    let mut net = incumbent_net();
    net.layers_mut()[0].weights_mut()[(0, 0)] += 1e-3;
    net
}

fn nan_net() -> Mlp {
    let mut net = incumbent_net();
    net.layers_mut()[0].weights_mut()[(0, 0)] = f64::NAN;
    net
}

fn engine_with(config: EngineConfig, tel: Arc<InMemorySink>) -> Engine {
    Engine::from_parts(
        incumbent_net(),
        vec![SCALE],
        vec![U_INF],
        vec![U_SUP],
        config,
        None,
        tel,
    )
    .expect("engine starts")
}

fn propose(engine: &Engine, net: Mlp, cfg: &RolloutConfig) {
    engine
        .propose_parts(net, vec![SCALE], vec![U_INF], vec![U_SUP], cfg)
        .expect("candidate installs");
}

/// The per-sample oracle for a given network.
fn oracle(net: &Mlp, state: &[f64]) -> Vec<f64> {
    let scaled: Vec<f64> = net.forward(state).iter().map(|y| y * SCALE).collect();
    vector::clip(&scaled, &[U_INF], &[U_SUP])
}

/// A deterministic state stream that exercises both signs and the
/// interior of the domain.
fn states(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            #[allow(clippy::cast_precision_loss, reason = "test ids are tiny")]
            let t = i as f64;
            vec![(t * 0.37).sin() * 0.9, (t * 0.13).cos() * 0.8]
        })
        .collect()
}

#[test]
fn canary_split_is_bit_reproducible_across_shard_counts() {
    let permille = 250u32;
    let cfg = RolloutConfig {
        fraction_permille: permille,
        budget: RolloutBudget::default(),
    };
    let inputs = states(200);
    let inc = incumbent_net();
    let cand = candidate_net();

    let mut runs: Vec<Vec<Vec<f64>>> = Vec::new();
    for shards in [1usize, 2, 8] {
        let engine = engine_with(
            EngineConfig {
                max_batch: 8,
                queue_capacity: 1024,
                shards,
                ..EngineConfig::default()
            },
            Arc::new(InMemorySink::new()),
        );
        engine.pause();
        propose(&engine, cand.clone(), &cfg);
        let h = engine.handle();
        // explicit request ids: canary routing hashes the id and nothing
        // else, so the split must be identical whatever the shard count
        let tickets: Vec<(u64, Ticket)> = inputs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let id = i as u64;
                let t = h
                    .pinned(id)
                    .try_submit_with_id(id, s)
                    .expect("queued while paused");
                (id, t)
            })
            .collect();
        engine.resume();

        let mut outputs = Vec::with_capacity(tickets.len());
        let (mut on_canary, mut on_incumbent) = (0usize, 0usize);
        for ((id, ticket), state) in tickets.into_iter().zip(&inputs) {
            let got = ticket.wait().expect("served");
            assert!(!got.served_by_fallback, "canary traffic never falls back");
            let want = if routes_to_canary(id, permille) {
                on_canary += 1;
                oracle(&cand, state)
            } else {
                on_incumbent += 1;
                oracle(&inc, state)
            };
            assert_eq!(
                got.control, want,
                "shards={shards} id={id} must match the routed network's \
                 per-sample oracle bitwise"
            );
            outputs.push(got.control);
        }
        assert!(
            on_canary > 0,
            "a 25% split over 200 ids must hit the canary"
        );
        assert!(on_incumbent > 0, "and must leave incumbent traffic too");
        let status = engine.rollout_status();
        assert!(status.canary_active);
        assert_eq!(status.canary_served, on_canary as u64);
        assert_eq!(status.canary_shadowed, on_canary as u64);
        runs.push(outputs);
    }
    assert_eq!(runs[0], runs[1], "shards=1 and shards=2 agree bitwise");
    assert_eq!(runs[0], runs[2], "shards=1 and shards=8 agree bitwise");
}

#[test]
fn promote_serves_the_same_bits_as_a_cold_start() {
    let inputs = states(64);
    let cand = candidate_net();

    // path A: incumbent v1, canary v2, promote, then serve
    let rolled = engine_with(EngineConfig::default(), Arc::new(InMemorySink::new()));
    propose(&rolled, cand.clone(), &RolloutConfig::default());
    rolled.promote().expect("canary promotes");

    // path B: an engine born on v2
    let cold = Engine::from_parts(
        cand.clone(),
        vec![SCALE],
        vec![U_INF],
        vec![U_SUP],
        EngineConfig::default(),
        None,
        Arc::new(InMemorySink::new()),
    )
    .expect("engine starts");

    let (rh, ch) = (rolled.handle(), cold.handle());
    for s in &inputs {
        let a = rh.submit(s).expect("served").control;
        let b = ch.submit(s).expect("served").control;
        assert_eq!(a, b, "promoted engine must be bit-identical to cold start");
        assert_eq!(a, oracle(&cand, s), "and both must match the v2 oracle");
    }
    let status = rolled.rollout_status();
    assert!(!status.canary_active, "promote clears the canary slot");
    assert!(
        rolled
            .rollout_events()
            .iter()
            .any(|e| e.action == RolloutAction::Promoted),
        "the trail records the promotion"
    );
}

#[test]
fn nan_candidate_auto_rolls_back_with_zero_escapes() {
    let tel = Arc::new(InMemorySink::new());
    let engine = engine_with(
        EngineConfig {
            max_batch: 8,
            queue_capacity: 1024,
            ..EngineConfig::default()
        },
        tel.clone(),
    );
    engine.pause();
    // half of all traffic routes to a candidate whose first forward pass
    // is NaN — admission would refuse this net, so inject it raw
    propose(
        &engine,
        nan_net(),
        &RolloutConfig {
            fraction_permille: 500,
            budget: RolloutBudget::default(),
        },
    );
    let inc = incumbent_net();
    let inputs = states(96);
    let h = engine.handle();
    let tickets: Vec<Ticket> = inputs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            h.pinned(i as u64)
                .try_submit_with_id(i as u64, s)
                .expect("queued")
        })
        .collect();
    engine.resume();

    for (ticket, state) in tickets.into_iter().zip(&inputs) {
        let got = ticket.wait().expect("served");
        assert!(!got.served_by_fallback, "containment is not a fallback");
        assert_eq!(
            got.control,
            oracle(&inc, state),
            "every reply must carry incumbent bits: zero candidate escapes"
        );
    }

    let status = engine.rollout_status();
    assert!(!status.canary_active, "the canary slot is quarantined");
    assert!(status.nonfinite_canary_outputs > 0, "the trigger was seen");
    let events = engine.rollout_events();
    assert!(
        events
            .iter()
            .any(|e| e.action == RolloutAction::AutoRolledBack && e.detail.contains("non-finite")),
        "the trail records the auto-rollback and its cause: {events:?}"
    );
    // the same trail flows out as structured telemetry
    assert!(
        tel.events_named("serve.rollout")
            .iter()
            .any(|e| e.fields.iter().any(|(k, v)| {
                k == "action" && matches!(v, FieldValue::Str(s) if s == "auto-rolled-back")
            })),
        "serve.rollout must carry the auto-rollback"
    );
    assert!(tel.counter_total("serve.rollbacks") >= 1);
    assert_eq!(tel.counter_total("serve.fallbacks"), 0);
}

#[test]
fn divergence_budget_trips_and_restores_the_incumbent() {
    let engine = engine_with(
        EngineConfig {
            queue_capacity: 1024,
            ..EngineConfig::default()
        },
        Arc::new(InMemorySink::new()),
    );
    engine.pause();
    // every request canaries, and no candidate output may differ from
    // the incumbent by more than 1e-15 — the nudged weight guarantees a
    // larger gap on the first compared batch
    propose(
        &engine,
        candidate_net(),
        &RolloutConfig {
            fraction_permille: 1000,
            budget: RolloutBudget {
                max_divergence: 1e-15,
                max_envelope_violations: u64::MAX,
            },
        },
    );
    let inc = incumbent_net();
    let inputs = states(32);
    let h = engine.handle();
    let tickets: Vec<Ticket> = inputs
        .iter()
        .enumerate()
        .map(|(i, s)| h.pinned(0).try_submit_with_id(i as u64, s).expect("queued"))
        .collect();
    engine.resume();
    for (ticket, state) in tickets.into_iter().zip(&inputs) {
        let got = ticket.wait().expect("served");
        assert_eq!(
            got.control,
            oracle(&inc, state),
            "after the trip every reply is incumbent bits"
        );
    }
    assert!(!engine.rollout_status().canary_active);
    assert!(engine
        .rollout_events()
        .iter()
        .any(|e| e.action == RolloutAction::AutoRolledBack && e.detail.contains("divergence")));
}

#[test]
fn drift_alarms_reach_telemetry_and_the_retrain_handoff() {
    let tel = Arc::new(InMemorySink::new());
    let engine = engine_with(
        EngineConfig {
            drift: Some(DriftConfig {
                window: 32,
                bins: 8,
                threshold: 0.5,
            }),
            ..EngineConfig::default()
        },
        tel.clone(),
    );
    let h = engine.handle();
    // first window: varied in-domain traffic freezes the baseline
    for s in states(32) {
        h.submit(&s).expect("served");
    }
    assert!(
        engine.drift_reports().is_empty(),
        "baseline window is quiet"
    );
    // then the served distribution collapses to a single operating
    // point: two full windows, two alarms. The worker publishes an
    // alarm after the window's replies but before it picks up the next
    // batch, so one probe request fences the log.
    for _ in 0..64 {
        h.submit(&[0.9, 0.8]).expect("served");
    }
    h.submit(&[0.9, 0.8]).expect("probe fences the alarm log");
    let reports = engine.drift_reports();
    assert_eq!(reports.len(), 2, "each collapsed window must alarm");
    let report = &reports[0];
    assert!(report.distance > report.threshold);
    assert_eq!(report.window, 32);
    assert!(
        !tel.events_named("serve.drift").is_empty(),
        "the alarm also flows out as serve.drift telemetry"
    );
    assert!(tel.counter_total("serve.drift.alarms") >= 1);
    assert!(engine
        .rollout_events()
        .iter()
        .any(|e| e.action == RolloutAction::Drift));

    // the alarm converts into the supervisor's on-disk retrain demand
    let dir = std::env::temp_dir().join(format!(
        "cocktail-serve-rollout-drift-{}",
        std::process::id()
    ));
    let req = report.to_retrain_request("oscillator");
    let path = save_retrain_request(&dir, &req).expect("request persists");
    assert!(path.exists());
    let back = load_retrain_request(&dir)
        .expect("readable")
        .expect("present");
    assert_eq!(back.system, "oscillator");
    assert!(back.reason.contains("drift"));
    std::fs::remove_dir_all(&dir).ok();

    // after an intentional rebaseline the same operating point is
    // quiet: one window freezes the new baseline, two more match it
    engine.rebaseline_drift();
    for _ in 0..96 {
        h.submit(&[0.9, 0.8]).expect("served");
    }
    h.submit(&[0.9, 0.8]).expect("probe fences the alarm log");
    assert_eq!(
        engine.drift_reports().len(),
        2,
        "rebaselined detector accepts the new distribution"
    );
}

/// One side of a canary comparison: a network, its scale and the clip
/// envelope it is served under.
struct Served {
    net: Mlp,
    scale: Vec<f64>,
    u_inf: Vec<f64>,
    u_sup: Vec<f64>,
}

impl Served {
    fn new(net: Mlp, scale: Vec<f64>, u_inf: f64, u_sup: f64) -> Self {
        let dim = scale.len();
        Self {
            net,
            scale,
            u_inf: vec![u_inf; dim],
            u_sup: vec![u_sup; dim],
        }
    }

    /// A bundle carrying this controller; shadow replay reads only its
    /// network, scale and envelope.
    fn bundle(&self) -> ControllerBundle {
        ControllerBundle {
            version: BUNDLE_VERSION,
            system: SystemId::Oscillator,
            spec: ControllerSpec::Mlp {
                net: self.net.clone(),
                scale: self.scale.clone(),
            },
            input_domain: BoxRegion::cube(2, -2.0, 2.0),
            u_inf: self.u_inf.clone(),
            u_sup: self.u_sup.clone(),
            lipschitz_claim: 0.0,
            analysis: Vec::new(),
            safety: None,
            provenance: Provenance {
                seed: 0,
                config_hash: 0,
                crate_version: String::new(),
            },
        }
    }
}

fn net(outputs: usize, seed: u64) -> Mlp {
    MlpBuilder::new(2)
        .hidden(6, Activation::Tanh)
        .output(outputs, Activation::Identity)
        .seed(seed)
        .build()
}

fn seeded_states(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = rng::seeded(seed);
    let domain = BoxRegion::cube(2, -2.0, 2.0);
    (0..n)
        .map(|_| rng::uniform_in_box(&mut rng, &domain))
        .collect()
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Feeds `states` to an engine serving `inc` with `can` canaried at
/// 1000‰ under `budget` (one batch per request, then one batch for the
/// whole stream) and to `shadow_replay`, and asserts both recorded the
/// same canary: histogram, non-finite and envelope counts, and the live
/// trip against `within`. Returns whether the guard tripped.
fn live_and_replay_agree(
    inc: &Served,
    can: &Served,
    states: &[Vec<f64>],
    budget: RolloutBudget,
) -> bool {
    let recorded: Vec<RecordedRequest> = states
        .iter()
        .enumerate()
        .map(|(i, s)| RecordedRequest {
            id: i as u64,
            state: s.clone(),
        })
        .collect();
    let report = shadow_replay(&inc.bundle(), &can.bundle(), &recorded).expect("replays");
    let mut trips = Vec::new();
    for max_batch in [1, states.len()] {
        let engine = Engine::from_parts(
            inc.net.clone(),
            inc.scale.clone(),
            inc.u_inf.clone(),
            inc.u_sup.clone(),
            EngineConfig {
                max_batch,
                queue_capacity: states.len(),
                ..EngineConfig::default()
            },
            None,
            Arc::new(NullSink),
        )
        .expect("engine starts");
        engine.pause();
        engine
            .propose_parts(
                can.net.clone(),
                can.scale.clone(),
                can.u_inf.clone(),
                can.u_sup.clone(),
                &RolloutConfig {
                    fraction_permille: 1000,
                    budget,
                },
            )
            .expect("candidate installs");
        let pinned = engine.handle().pinned(0);
        let tickets: Vec<Ticket> = recorded
            .iter()
            .map(|r| pinned.try_submit_with_id(r.id, &r.state).expect("queued"))
            .collect();
        engine.resume();
        for ticket in tickets {
            // a tripped batch is answered from the incumbent, which may
            // itself be non-finite here; only the canary record matters
            let _ = ticket.wait();
        }
        let status = engine.rollout_status();
        let tripped = engine
            .rollout_events()
            .iter()
            .any(|e| e.action == RolloutAction::AutoRolledBack);
        let (live, replayed): (&DivergenceHistogram, &DivergenceHistogram) =
            (&status.divergence, &report.divergence);
        let case = format!("max_batch {max_batch}: live {live:?}, replayed {replayed:?}");
        assert_eq!(status.canary_shadowed, report.requests, "{case}");
        assert_eq!(live.bins, replayed.bins, "{case}");
        assert_eq!(live.count, replayed.count, "{case}");
        assert!(same_bits(live.sum, replayed.sum), "{case}");
        assert!(same_bits(live.max, replayed.max), "{case}");
        assert_eq!(
            status.nonfinite_canary_outputs, report.nonfinite_candidate,
            "{case}"
        );
        assert_eq!(
            status.envelope_violations, report.envelope_violations,
            "{case}"
        );
        assert_eq!(tripped, !report.within(&budget), "{case}");
        trips.push(tripped);
    }
    assert_eq!(
        trips[0], trips[1],
        "the verdict does not depend on batching"
    );
    trips[0]
}

#[test]
fn live_canary_and_shadow_replay_record_the_same_stream() {
    // one output: the candidate's larger scale pushes some rows out of
    // the envelope, so every counter moves
    let inc = Served::new(net(1, 5), vec![2.0], -5.0, 5.0);
    let can = Served::new(net(1, 6), vec![8.0], -5.0, 5.0);
    let stream = seeded_states(64, 0x5eed);
    assert!(!live_and_replay_agree(
        &inc,
        &can,
        &stream,
        RolloutBudget::default()
    ));

    // two outputs: the incumbent's scale overflows output 0 wherever
    // |y₀| > 1 and leaves output 1 finite, so those rows' divergence is
    // NaN (the incumbent broke, not the candidate) and trips nothing
    let inc2 = Served::new(net(2, 6), vec![f64::MAX, 1.0], -5.0, 5.0);
    let can2 = Served::new(net(2, 8), vec![1.0, 1.0], -5.0, 5.0);
    let stream2 = seeded_states(64, 0x5eee);
    let overflows = |s: &Vec<f64>| !(inc2.net.forward(s)[0] * f64::MAX).is_finite();
    assert!(
        stream2.iter().any(overflows) && !stream2.iter().all(overflows),
        "the stream mixes overflowing and finite incumbent rows"
    );
    assert!(!live_and_replay_agree(
        &inc2,
        &can2,
        &stream2,
        RolloutBudget::default()
    ));

    // a NaN divergence followed by an over-budget one: the NaN is exempt
    // from the divergence budget and must not mask the finite breach
    let inc3 = Served::new(net(1, 9), vec![f64::MAX], -5.0, 5.0);
    let can3 = Served::new(net(1, 10), vec![1.0], -5.0, 5.0);
    let overflows = |s: &Vec<f64>| !(inc3.net.forward(s)[0] * f64::MAX).is_finite();
    let candidates = seeded_states(256, 0x5eef);
    let mut stream3: Vec<Vec<f64>> = candidates
        .iter()
        .filter(|s| overflows(s))
        .take(3)
        .cloned()
        .collect();
    assert_eq!(stream3.len(), 3, "the incumbent overflows somewhere");
    stream3.extend(candidates.iter().find(|s| !overflows(s)).cloned());
    assert_eq!(stream3.len(), 4, "and stays finite somewhere");
    assert!(
        live_and_replay_agree(
            &inc3,
            &can3,
            &stream3,
            RolloutBudget {
                max_divergence: 0.0,
                max_envelope_violations: u64::MAX,
            },
        ),
        "the finite over-budget row trips the guard"
    );
}
