//! A deterministic load generator that is also a correctness oracle.
//!
//! States are drawn from the bundle's own input domain with a single
//! seeded RNG stream, so a given `(bundle, seed, requests)` triple always
//! produces the same request sequence. Every response is compared
//! bit-for-bit against [`expected_control`] — the per-sample reference
//! path (`forward`, scale, clip) the batching engine promises to match —
//! which turns any scheduler-induced numeric drift into a counted
//! `mismatch` instead of a silent perf artifact. Over TCP the drill
//! speaks the binary wire protocol; it reports tail latencies
//! (p50/p99/p999) alongside aggregate throughput.

use crate::bundle::{BundleError, ControllerBundle};
use crate::engine::ServeError;
use crate::transport::BinaryTcpClient;
use cocktail_math::{rng, vector};
use std::net::SocketAddr;
use std::time::Instant;

/// Load-drill shape.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Total requests across all connections.
    pub requests: usize,
    /// Concurrent connections (threads); requests are dealt round-robin.
    pub connections: usize,
    /// Seed for the state stream.
    pub seed: u64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            requests: 512,
            connections: 4,
            seed: 0x10ad,
        }
    }
}

/// What the drill observed.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests issued.
    pub sent: usize,
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests refused with backpressure.
    pub rejected: usize,
    /// Responses answered by the fallback expert.
    pub fallbacks: usize,
    /// Responses that differed bitwise from the per-sample reference.
    pub mismatches: usize,
    /// Other errors (transport, bad request, shutdown).
    pub errors: usize,
    /// Times drill connections re-established a dropped connection
    /// (recoverable, so not part of [`LoadReport::is_clean`]).
    pub reconnects: u64,
    /// Median per-request latency in microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile per-request latency in microseconds.
    pub p99_latency_us: f64,
    /// 99.9th-percentile per-request latency in microseconds.
    pub p999_latency_us: f64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
}

impl LoadReport {
    /// A drill is clean when every request was answered by the primary
    /// network with the bit-exact reference output.
    pub fn is_clean(&self) -> bool {
        self.completed == self.sent
            && self.rejected == 0
            && self.fallbacks == 0
            && self.mismatches == 0
            && self.errors == 0
    }
}

/// The deterministic request stream for a bundle: `requests` states drawn
/// uniformly from the bundle's input domain.
pub fn generate_states(bundle: &ControllerBundle, requests: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut r = rng::seeded(seed);
    (0..requests)
        .map(|_| rng::uniform_in_box(&mut r, &bundle.input_domain))
        .collect()
}

/// The per-sample reference output the engine must reproduce bit-exactly:
/// `clip(scale ⊙ net.forward(state))`.
///
/// # Errors
///
/// None: [`ControllerBundle::network`] cannot fail; the `Result` keeps
/// the signature its callers use.
pub fn expected_control(bundle: &ControllerBundle, state: &[f64]) -> Result<Vec<f64>, BundleError> {
    let (net, scale) = bundle.network()?;
    let raw = net.forward(state);
    let scaled: Vec<f64> = raw.iter().zip(scale).map(|(y, sc)| y * sc).collect();
    Ok(vector::clip(&scaled, &bundle.u_inf, &bundle.u_sup))
}

/// Runs the drill over TCP with one binary-wire connection per thread.
///
/// # Errors
///
/// Those of [`expected_control`], which has none; individual
/// connect/request failures are counted in the report, not returned.
pub fn run_tcp(
    bundle: &ControllerBundle,
    addr: SocketAddr,
    cfg: &LoadGenConfig,
) -> Result<LoadReport, BundleError> {
    let states = generate_states(bundle, cfg.requests, cfg.seed);
    let expected: Vec<Vec<f64>> = states
        .iter()
        .map(|s| expected_control(bundle, s))
        .collect::<Result<_, _>>()?;
    let connections = cfg.connections.max(1);

    struct Tally {
        completed: usize,
        rejected: usize,
        fallbacks: usize,
        mismatches: usize,
        errors: usize,
        reconnects: u64,
        latencies_us: Vec<f64>,
    }

    let started = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let states = &states;
                let expected = &expected;
                scope.spawn(move || {
                    let mut tally = Tally {
                        completed: 0,
                        rejected: 0,
                        fallbacks: 0,
                        mismatches: 0,
                        errors: 0,
                        reconnects: 0,
                        latencies_us: Vec::new(),
                    };
                    let Ok(mut client) = BinaryTcpClient::connect(addr) else {
                        // count every request this connection owned as an
                        // error rather than silently shrinking the drill
                        tally.errors = (c..states.len()).step_by(connections).count();
                        return tally;
                    };
                    for i in (c..states.len()).step_by(connections) {
                        let t0 = Instant::now();
                        match client.control(&states[i]) {
                            Ok(resp) => {
                                tally.latencies_us.push(t0.elapsed().as_secs_f64() * 1.0e6);
                                tally.completed += 1;
                                if resp.served_by_fallback {
                                    tally.fallbacks += 1;
                                }
                                if resp.control != expected[i] {
                                    tally.mismatches += 1;
                                }
                            }
                            Err(ServeError::Backpressure { .. }) => tally.rejected += 1,
                            Err(_) => tally.errors += 1,
                        }
                    }
                    tally.reconnects = client.reconnects();
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(t) => t,
                Err(_) => Tally {
                    completed: 0,
                    rejected: 0,
                    fallbacks: 0,
                    mismatches: 0,
                    errors: 0,
                    reconnects: 0,
                    latencies_us: Vec::new(),
                },
            })
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = tallies
        .iter()
        .flat_map(|t| t.latencies_us.clone())
        .collect();
    latencies.sort_by(f64::total_cmp);
    let completed: usize = tallies.iter().map(|t| t.completed).sum();
    Ok(LoadReport {
        sent: states.len(),
        completed,
        rejected: tallies.iter().map(|t| t.rejected).sum(),
        fallbacks: tallies.iter().map(|t| t.fallbacks).sum(),
        mismatches: tallies.iter().map(|t| t.mismatches).sum(),
        errors: tallies.iter().map(|t| t.errors).sum(),
        reconnects: tallies.iter().map(|t| t.reconnects).sum(),
        p50_latency_us: percentile(&latencies, 0.50),
        p99_latency_us: percentile(&latencies, 0.99),
        p999_latency_us: percentile(&latencies, 0.999),
        #[allow(
            clippy::cast_precision_loss,
            reason = "request counts are far below 2^52"
        )]
        throughput_rps: if elapsed > 0.0 {
            completed as f64 / elapsed
        } else {
            0.0
        },
    })
}

/// Nearest-rank percentile over an ascending-sorted sample (0 when
/// empty): the smallest element with at least `⌈len·q⌉` samples at or
/// below it. `q` outside `[0, 1]` (or NaN) is clamped in.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "sample counts are far below 2^52 and q is in [0, 1]"
    )]
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_stream_is_deterministic_and_in_domain() {
        let bundle = crate::bundle::tests_support::healthy_bundle();
        let a = generate_states(&bundle, 64, 7);
        let b = generate_states(&bundle, 64, 7);
        let c = generate_states(&bundle, 64, 8);
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, c, "different seed, different stream");
        for s in &a {
            for (v, iv) in s.iter().zip(bundle.input_domain.intervals()) {
                assert!(*v >= iv.lo() && *v <= iv.hi());
            }
        }
    }

    #[test]
    fn expected_control_respects_the_envelope() {
        let bundle = crate::bundle::tests_support::healthy_bundle();
        for s in generate_states(&bundle, 32, 3) {
            let u = expected_control(&bundle, &s).expect("mlp bundle");
            for ((v, lo), hi) in u.iter().zip(&bundle.u_inf).zip(&bundle.u_sup) {
                assert!(*v >= *lo && *v <= *hi);
            }
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 500.0);
        assert_eq!(percentile(&sorted, 0.99), 990.0);
        assert_eq!(percentile(&sorted, 0.999), 999.0);
        assert_eq!(percentile(&sorted, 1.0), 1000.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[42.0], 0.999), 42.0);
    }

    #[test]
    fn percentile_edge_cases_with_tiny_samples() {
        // N = 1: every quantile is the only sample
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(percentile(&[7.0], q), 7.0, "q = {q}");
        }
        // N = 2: nearest rank splits exactly at the ceil boundary —
        // ⌈2·0.5⌉ = 1 (first sample), ⌈2·0.501⌉ = 2 (second)
        assert_eq!(percentile(&[1.0, 2.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.501), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.999), 2.0);
        // q = 0.999 with fewer than 1000 samples must hit the maximum:
        // ⌈N·0.999⌉ = N for every N < 1000
        for n in [2usize, 3, 10, 100, 999] {
            let sorted: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            assert_eq!(percentile(&sorted, 0.999), n as f64, "N = {n}");
        }
        // out-of-range and NaN quantiles clamp instead of panicking
        assert_eq!(percentile(&[1.0, 2.0, 3.0], -0.5), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 1.5), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], f64::NAN), 1.0);
    }
}
