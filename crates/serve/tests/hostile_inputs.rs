//! Hostile-input fuzzing of the serving crate's parsers: request and
//! response frames of the binary wire, and the bundle file.
//!
//! Each case takes a valid input and applies one seeded mutation: bit
//! flips, a truncation, or an overwritten length or dimension field. The
//! parser must never panic, and every mutated input is either refused or
//! decodes to a well-formed value. No case runs admission; the one valid
//! bundle is packaged once per test binary.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code; panics are failures"
)]

use cocktail_core::SystemId;
use cocktail_nn::{Activation, MlpBuilder};
use cocktail_obs::NullSink;
use cocktail_serve::bundle::{fnv1a_64, ControllerBundle, Provenance};
use cocktail_serve::wire::{self, ResponseRec, MAX_WIRE_CONTROL_DIM, MAX_WIRE_STATE_DIM};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// One seeded edit of `bytes`: `kind` 0 flips one to four bits, 1
/// truncates, 2 overwrites one of `fields` (byte ranges holding a length
/// or dimension) with one of `values`.
fn mutate(bytes: &mut Vec<u8>, kind: u8, seed: u64, fields: &[(usize, usize)], values: &[Vec<u8>]) {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        0 => {
            for _ in 0..rng.gen_range(1..=4) {
                let bit = rng.gen_range(0..bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        1 => bytes.truncate(rng.gen_range(0..bytes.len())),
        _ => {
            let (at, len) = fields[rng.gen_range(0..fields.len())];
            let value = &values[rng.gen_range(0..values.len())];
            bytes.splice(at..at + len, value.iter().copied());
        }
    }
}

/// A state or control component, including the values a hostile client
/// would pick.
fn component(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..6) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => -0.0,
        3 => f64::MIN_POSITIVE,
        _ => rng.gen_range(-1.0e6..1.0e6),
    }
}

/// One to three valid frames back to back, with the byte range of each
/// frame's dimension field.
fn frames(
    seed: u64,
    dim_offset: usize,
    max_dim: usize,
    encode: impl Fn(u64, &[f64], &mut Vec<u8>),
) -> (Vec<u8>, Vec<(usize, usize)>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF4A3);
    let mut bytes = Vec::new();
    let mut fields = Vec::new();
    for _ in 0..rng.gen_range(1..=3) {
        let values: Vec<f64> = (0..rng.gen_range(0..=max_dim))
            .map(|_| component(&mut rng))
            .collect();
        fields.push((bytes.len() + dim_offset, 1));
        encode(rng.gen(), &values, &mut bytes);
    }
    (bytes, fields)
}

/// Dimension bytes a hostile peer would send: empty, at and one past each
/// limit, and the largest a byte holds.
fn dim_values() -> Vec<Vec<u8>> {
    [0u8, 1, 8, 9, 64, 65, 255]
        .iter()
        .map(|&b| vec![b])
        .collect()
}

fn encode_response(id: u64, control: &[f64], out: &mut Vec<u8>) {
    let status = u8::try_from(id % 8).unwrap();
    let mut rec = ResponseRec::ok(id, control, false);
    rec.status = status;
    wire::encode_response_into(&rec, out);
}

/// The valid bundle the bundle cases mutate: a small oscillator student
/// packaged with coarse certification budgets, as pretty-printed on disk.
fn bundle_text() -> &'static str {
    static CELL: OnceLock<String> = OnceLock::new();
    CELL.get_or_init(|| {
        let net = MlpBuilder::new(2)
            .hidden(4, Activation::Tanh)
            .output(1, Activation::Tanh)
            .seed(41)
            .build();
        let params = cocktail_verify::fast_params(SystemId::Oscillator.dynamics().as_ref());
        let bundle = ControllerBundle::package_with(
            SystemId::Oscillator,
            net,
            vec![20.0],
            Provenance {
                seed: 41,
                config_hash: fnv1a_64(b"hostile-inputs"),
                crate_version: env!("CARGO_PKG_VERSION").to_string(),
            },
            Some(&params),
            &NullSink,
        )
        .expect("a healthy student packages");
        serde_json::to_string_pretty(&bundle).expect("bundle serializes")
    })
}

/// The byte range of every unsigned integer literal in `text`: the
/// version, every matrix's `rows` and `cols`, the certificate's counts and
/// budgets, the provenance seed.
fn integer_fields(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut fields = Vec::new();
    let mut i = 0;
    while let Some(found) = text[i..].find(": ") {
        let start = i + found + 2;
        let end = start
            + bytes[start..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
        let whole = bytes.get(end).is_none_or(|b| matches!(b, b',' | b'\n'));
        if end > start && whole {
            fields.push((start, end - start));
        }
        i = start;
    }
    fields
}

/// Integers a hostile bundle would carry in a length or dimension field.
fn integer_values() -> Vec<Vec<u8>> {
    [
        "0",
        "1",
        "2",
        "3",
        "5",
        "25",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "1e400",
    ]
    .iter()
    .map(|v| v.as_bytes().to_vec())
    .collect()
}

/// What a loaded bundle must be for the engine and admission to take it
/// without panicking: a network whose matrices, biases, layer chain and
/// input domain agree, and whose forward runs. (Both refuse a scale or
/// clip range of the wrong arity themselves.)
fn well_formed(bundle: &ControllerBundle) -> Result<(), String> {
    bundle.validate().map_err(|e| e.to_string())?;
    let Ok((net, _)) = bundle.network() else {
        // a non-network spec is refused by the engine as unservable
        return Ok(());
    };
    let mut width = bundle.input_domain.dim();
    for (i, layer) in net.layers().iter().enumerate() {
        let w = layer.weights();
        if w.as_slice().len() != w.rows() * w.cols() {
            return Err(format!(
                "layer {i}: {}x{} weights hold {} values",
                w.rows(),
                w.cols(),
                w.as_slice().len()
            ));
        }
        if layer.input_dim() != width || layer.biases().len() != w.rows() {
            return Err(format!("layer {i} does not chain"));
        }
        width = w.rows();
    }
    if net.forward(&bundle.input_domain.center()).len() != width {
        return Err("forward has the wrong arity".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_request_frames_are_refused_or_well_formed(kind in 0u8..3, seed: u64) {
        let (mut bytes, fields) =
            frames(seed, 9, MAX_WIRE_STATE_DIM, wire::encode_request_into);
        mutate(&mut bytes, kind, seed, &fields, &dim_values());
        let mut state = Vec::new();
        let mut at = 0;
        // a partial frame waits for more bytes; a malformed one closes the
        // connection
        while let Ok(Some((id, used))) = wire::decode_request(&bytes[at..], &mut state) {
            prop_assert!(state.len() <= MAX_WIRE_STATE_DIM);
            prop_assert_eq!(used, 10 + 8 * state.len());
            let mut again = Vec::new();
            wire::encode_request_into(id, &state, &mut again);
            prop_assert_eq!(&again[..], &bytes[at..at + used]);
            at += used;
        }
    }

    #[test]
    fn mutated_response_frames_are_refused_or_well_formed(kind in 0u8..3, seed: u64) {
        let (mut bytes, fields) = frames(seed, 10, MAX_WIRE_CONTROL_DIM, encode_response);
        mutate(&mut bytes, kind, seed, &fields, &dim_values());
        let mut rec = ResponseRec::err(0, 0);
        let mut at = 0;
        while let Ok(Some(used)) = wire::decode_response(&bytes[at..], &mut rec) {
            prop_assert!(usize::from(rec.dim) <= MAX_WIRE_CONTROL_DIM);
            prop_assert_eq!(used, 11 + 8 * usize::from(rec.dim));
            let mut again = Vec::new();
            wire::encode_response_into(&rec, &mut again);
            prop_assert_eq!(&again[..], &bytes[at..at + used]);
            at += used;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_bundles_are_refused_or_well_formed(kind in 0u8..3, seed: u64) {
        let text = bundle_text();
        let mut bytes = text.as_bytes().to_vec();
        mutate(&mut bytes, kind, seed, &integer_fields(text), &integer_values());
        let path = std::env::temp_dir().join(format!(
            "cocktail-hostile-bundle-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let loaded = ControllerBundle::load(&path);
        std::fs::remove_file(&path).ok();
        if let Ok(bundle) = loaded {
            let verdict = well_formed(&bundle);
            prop_assert!(verdict.is_ok(), "accepted a malformed bundle: {}", verdict.unwrap_err());
        }
    }
}
