//! Layer probes: each layer's public functions called directly on the
//! bundle and requests a workload served, timed from outside.

use crate::client::RequestPool;
use crate::metrics::Values;
use crate::prepare::SYSTEM;
use crate::stats;
use crate::trace::Tracer;
use cocktail_core::PreflightMode;
use cocktail_math::parallel::default_workers;
use cocktail_math::Matrix;
use cocktail_nn::lipschitz::{self, NormKind};
use cocktail_nn::{certify_fast_tier, BatchCache};
use cocktail_obs::NullSink;
use cocktail_serve::admission::{admit_with, AdmissionConfig, Admitted};
use cocktail_serve::bundle::ControllerBundle;
use cocktail_serve::engine::{Engine, EngineConfig};
use cocktail_serve::wire::{self, ResponseRec};
use cocktail_verify::{invariant_set_with_workers, reach_analysis, BernsteinCertificate};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe repetitions; each probe reports its median.
const REPS: usize = 3;

/// Repetitions of the admission probe, whose phase-sum ratio is checked.
const ADMISSION_REPS: usize = 5;

/// Times `f` once, returning its result and the elapsed milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Median over [`REPS`] calls of `f`'s milliseconds.
fn median_ms(mut f: impl FnMut() -> f64) -> f64 {
    stats::median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

/// `wire.*`: the public encode and decode functions over every request
/// of the pool and its reference replies, ns per frame.
pub fn wire(pool: &RequestPool, tracer: &Tracer) -> Values {
    let _span = tracer.span("probe/wire");
    let n = pool.states.len();
    let recs: Vec<ResponseRec> = pool.refs[0]
        .iter()
        .enumerate()
        .map(|(i, u)| ResponseRec::ok(i as u64, u, false))
        .collect();
    let mut req_buf = Vec::with_capacity(n * 32);
    let mut resp_buf = Vec::with_capacity(n * 32);
    let per = |ms: f64| ms * 1e6 / n as f64;
    let encode_req = median_ms(|| {
        req_buf.clear();
        timed(|| {
            for (i, s) in pool.states.iter().enumerate() {
                wire::encode_request_into(i as u64, s, &mut req_buf);
            }
            black_box(&req_buf);
        })
        .1
    });
    let mut state = Vec::with_capacity(8);
    let decode_req = median_ms(|| {
        timed(|| {
            let mut at = 0;
            while let Ok(Some((id, used))) = wire::decode_request(&req_buf[at..], &mut state) {
                black_box((id, &state));
                at += used;
            }
        })
        .1
    });
    let encode_resp = median_ms(|| {
        resp_buf.clear();
        timed(|| {
            for r in &recs {
                wire::encode_response_into(r, &mut resp_buf);
            }
            black_box(&resp_buf);
        })
        .1
    });
    let mut rec = ResponseRec::err(0, 0);
    let decode_resp = median_ms(|| {
        timed(|| {
            let mut at = 0;
            while let Ok(Some(used)) = wire::decode_response(&resp_buf[at..], &mut rec) {
                black_box(&rec);
                at += used;
            }
        })
        .1
    });
    vec![
        ("wire.encode_req_ns", per(encode_req)),
        ("wire.decode_req_ns", per(decode_req)),
        ("wire.encode_resp_ns", per(encode_resp)),
        ("wire.decode_resp_ns", per(decode_resp)),
    ]
}

/// `forward.*`: `forward_batch_cached` on the served weights over the
/// pool's states, one row per call and `batch` rows per call, ns per row.
pub fn forward(
    bundle: &ControllerBundle,
    pool: &RequestPool,
    batch: usize,
    tracer: &Tracer,
) -> Result<Values, String> {
    let _span = tracer.span("probe/forward");
    let (net, _) = bundle.network().map_err(|e| e.to_string())?;
    let run = |b: usize| {
        let mut input = Matrix::zeros(b, net.input_dim());
        let mut cache = BatchCache::new();
        let calls = pool.states.len() / b;
        let ms = median_ms(|| {
            timed(|| {
                for c in 0..calls {
                    for r in 0..b {
                        input.row_mut(r).copy_from_slice(&pool.states[c * b + r]);
                    }
                    net.forward_batch_cached(&input, &mut cache);
                    black_box(cache.output());
                }
            })
            .1
        });
        ms * 1e6 / (calls * b) as f64
    };
    Ok(vec![
        ("forward.ns_per_row_b1", run(1)),
        ("forward.ns_per_row_bmean", run(batch.max(1))),
    ])
}

/// `admit.*`: the checks admission runs, called on the bundle one by one,
/// and the whole gate for comparison. Also returns the admission.
///
/// The lint gate has no public entry of its own, so its cost is the gate
/// with lint on (`Deny`, the serving default) minus the gate with it
/// `Off`. Both run on a copy without the safety certificate, admitted as
/// uncertified: with it, the difference would sit under the run-to-run
/// noise of certification, which costs thousands of times more.
pub fn admission(bundle: &ControllerBundle, tracer: &Tracer) -> Result<(Values, Admitted), String> {
    let _span = tracer.span("probe/admission");
    let sys = SYSTEM.dynamics();
    let config = AdmissionConfig::default();
    let mut uncertified = bundle.clone();
    uncertified.safety = None;
    let linted = AdmissionConfig {
        allow_uncertified: true,
        ..AdmissionConfig::default()
    };
    let unlinted = AdmissionConfig {
        mode: PreflightMode::Off,
        ..linted.clone()
    };
    let (net, scale) = bundle.network().map_err(|e| e.to_string())?;
    let params = &bundle
        .safety
        .as_ref()
        .ok_or("the served bundle carries no safety certificate")?
        .params;
    let max_scale = scale.iter().copied().fold(0.0_f64, f64::max);
    // phases and the whole gate alternate within each repetition, so a
    // change in host speed between repetitions does not skew the ratio
    let mut admitted = None;
    let mut uncertified_admitted = true;
    let mut rows: Vec<[f64; 7]> = Vec::new();
    for _ in 0..ADMISSION_REPS {
        let phase = |name: &str, f: &mut dyn FnMut()| {
            let _s = tracer.span(name);
            timed(f).1
        };
        let whole = phase("admit/whole", &mut || {
            admitted = admit_with(bundle.clone(), &config, &NullSink).ok();
        });
        let mut uncertified_gate = |name: &str, config: &AdmissionConfig| {
            phase(name, &mut || {
                let ok = admit_with(uncertified.clone(), config, &NullSink).is_ok();
                uncertified_admitted &= ok;
            })
        };
        let with_lint = uncertified_gate("admit/uncertified", &linted);
        let without_lint = uncertified_gate("admit/uncertified-without-lint", &unlinted);
        let row = [
            phase("admit/validate", &mut || {
                black_box(bundle.validate().is_ok());
            }),
            with_lint - without_lint,
            phase("admit/lipschitz", &mut || {
                black_box(max_scale * lipschitz::upper_bound(net, NormKind::Spectral));
            }),
            phase("admit/sweep", &mut || {
                black_box(
                    max_scale
                        * lipschitz::empirical_lower_bound(
                            net,
                            &bundle.input_domain,
                            config.sweep_samples,
                            config.sweep_seed,
                        ),
                );
            }),
            phase("admit/fast-tier", &mut || {
                black_box(certify_fast_tier(net, &bundle.input_domain));
            }),
            phase("admit/safety", &mut || {
                let workers = default_workers();
                let fresh = cocktail_verify::certify_controller(
                    sys.as_ref(),
                    net,
                    scale,
                    params,
                    workers,
                    &NullSink,
                );
                black_box(fresh.is_ok());
            }),
            whole,
        ];
        rows.push(row);
    }
    let admitted = admitted.ok_or("admission refused the served bundle")?;
    if !uncertified_admitted {
        return Err("admission refused the served bundle without its certificate".into());
    }
    let col = |c: usize| stats::median(&rows.iter().map(|r| r[c]).collect::<Vec<_>>());
    let (validate, lint, lipschitz_ms, sweep, fast_tier, safety, idle) =
        (col(0), col(1), col(2), col(3), col(4), col(5), col(6));
    let ratios: Vec<f64> = rows
        .iter()
        .map(|r| r[..6].iter().sum::<f64>() / r[6])
        .collect();
    let sum_ratio = stats::median(&ratios);
    Ok((
        vec![
            ("admit.validate_ms", validate),
            ("admit.lint_ms", lint),
            ("admit.lipschitz_ms", lipschitz_ms),
            ("admit.sweep_ms", sweep),
            ("admit.fast_tier_ms", fast_tier),
            ("admit.safety_ms", safety),
            ("admit.idle_ms", idle),
            ("admit.phase_sum_ratio", sum_ratio),
        ],
        admitted,
    ))
}

/// `verify.*`: the three sub-analyses of certification under the
/// shipped budgets, with the counts they report.
pub fn verify(bundle: &ControllerBundle, tracer: &Tracer) -> Result<Values, String> {
    let _span = tracer.span("probe/verify");
    let sys = SYSTEM.dynamics();
    let domain = sys.verification_domain();
    let (net, scale) = bundle.network().map_err(|e| e.to_string())?;
    let params = &bundle
        .safety
        .as_ref()
        .ok_or("the served bundle carries no safety certificate")?
        .params;
    let workers = default_workers();
    let mut rows: Vec<[f64; 8]> = Vec::new();
    for _ in 0..REPS {
        let ((cert, stats), bernstein) = {
            let _s = tracer.span("verify/bernstein");
            let (built, ms) = timed(|| {
                BernsteinCertificate::build_with_workers(
                    net,
                    scale,
                    &domain,
                    &params.certificate,
                    workers,
                )
            });
            (built.map_err(|e| e.to_string())?, ms)
        };
        let (reach, reach_ms) = {
            let _s = tracer.span("verify/reach");
            let (r, ms) =
                timed(|| reach_analysis(sys.as_ref(), &cert, &params.initial_set, &params.reach));
            (r.map_err(|e| e.to_string())?, ms)
        };
        let (inv, inv_ms) = {
            let _s = tracer.span("verify/invariant");
            let (r, ms) = timed(|| {
                invariant_set_with_workers(sys.as_ref(), &cert, &params.invariant, workers)
            });
            (r.map_err(|e| e.to_string())?, ms)
        };
        rows.push([
            bernstein,
            reach_ms,
            inv_ms,
            cert.piece_count() as f64,
            stats.splits as f64,
            reach.peak_boxes as f64,
            inv.iterations as f64,
            inv.alive().iter().filter(|&&a| a).count() as f64,
        ]);
    }
    let col = |c: usize| stats::median(&rows.iter().map(|r| r[c]).collect::<Vec<_>>());
    Ok(vec![
        ("verify.bernstein_ms", col(0)),
        ("verify.reach_ms", col(1)),
        ("verify.invariant_ms", col(2)),
        ("verify.pieces", col(3)),
        ("verify.refinement_splits", col(4)),
        ("verify.reach_peak_boxes", col(5)),
        ("verify.invariant_iterations", col(6)),
        ("verify.invariant_alive", col(7)),
    ])
}

/// `engine.inproc_*`: the pool replayed through shard-pinned in-process
/// handles at `concurrency` callers for `secs`, no sockets. Returns the
/// latency p50 and p99 (µs), requests sent and wrong replies.
pub fn inproc(
    admitted: &Admitted,
    pool: &RequestPool,
    concurrency: usize,
    secs: f64,
    tracer: &Tracer,
) -> Result<(f64, f64, u64, u64), String> {
    let _span = tracer.span("probe/inproc");
    let engine = Engine::start(admitted, EngineConfig::default()).map_err(|e| e.to_string())?;
    let handle = engine.handle();
    let until = Instant::now() + Duration::from_secs_f64(secs);
    let per_caller: Vec<(Vec<f64>, u64, u64)> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..concurrency as u64)
            .map(|c| {
                let pinned = handle.pinned(c);
                s.spawn(move || {
                    let (mut lat, mut sent, mut bad) = (Vec::new(), 0u64, 0u64);
                    let mut i = (c as usize) << 20;
                    while Instant::now() < until {
                        let k = i % pool.states.len();
                        let t = Instant::now();
                        let reply = pinned.submit(&pool.states[k]);
                        lat.push(t.elapsed().as_secs_f64() * 1e6);
                        sent += 1;
                        let right = reply.is_ok_and(|r| {
                            !r.served_by_fallback
                                && r.control.len() == pool.refs[0][k].len()
                                && r.control
                                    .iter()
                                    .zip(&pool.refs[0][k])
                                    .all(|(a, b)| a.to_bits() == b.to_bits())
                        });
                        bad += u64::from(!right);
                        i += 1;
                    }
                    (lat, sent, bad)
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    engine.shutdown();
    let lat = stats::sorted(
        &per_caller
            .iter()
            .flat_map(|c| c.0.iter().copied())
            .collect::<Vec<_>>(),
    );
    Ok((
        stats::percentile(&lat, 0.5).unwrap_or(f64::NAN),
        stats::percentile(&lat, 0.99).unwrap_or(f64::NAN),
        per_caller.iter().map(|c| c.1).sum(),
        per_caller.iter().map(|c| c.2).sum(),
    ))
}
