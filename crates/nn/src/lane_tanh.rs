//! `libm`'s `tanh`, eight values at a time, bit for bit.
//!
//! The exact forward spends most of its time in `f64::tanh`, which on
//! x86-64 Linux is glibc's `__tanh` (fdlibm's `s_tanh.c`) over `__expm1`.
//! On a host with FMA and AVX2 glibc's ifunc resolves `__expm1` to the
//! variant compiled with `-mfma -mavx2`, in which the compiler fused some
//! of the multiply-adds. [`tanh_lane`] is that code, as glibc 2.36 ships
//! it, with every branch turned into a select, and exactly those products
//! fused (`mul_add`) that the FMA build fuses; every other operation keeps
//! its operands and order. [`tanh_lanes`] compiles it as a loop the
//! compiler vectorizes at 8 lanes under AVX-512F/DQ.
//!
//! A port of another library's code can only be as exact as the library
//! it copies, and the host's `libm` may be another version, another
//! `expm1` variant or not glibc at all. So the port is not trusted up
//! front: the first [`tanh_slice`] of a process uses it only if the C
//! library reports glibc 2.36 and a [`probe`] against `f64::tanh` over
//! every branch boundary of the port and [`PROBE_VALUES`] seeded values
//! agrees on every bit, NaN payloads included. Otherwise (another
//! architecture, a CPU without AVX-512, another `libm`) [`tanh_slice`]
//! calls `f64::tanh` per element. Where the port is accepted, its output
//! matched `f64::tanh` on every input the probe and the test suite tried;
//! on any other input the match is only as certain as that sample.

use std::sync::OnceLock;

// fdlibm's constants, by bit pattern
const INVLN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4);
const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585);
const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7);
const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239);
const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d);
const TINY: f64 = 1.0e-300;

/// `expm1` reduces its argument when the high word of `|a|` exceeds
/// `0x3fd62e42` (`½·ln 2`): the largest `|a|` it leaves alone.
const HALF_LN2_TOP: f64 = f64::from_bits(0x3fd6_2e42_ffff_ffff);
/// ... and by exactly one `ln 2` while the high word is below
/// `0x3ff0a2b2` (`1½·ln 2`).
const THREE_HALVES_LN2: f64 = f64::from_bits(0x3ff0_a2b2_0000_0000);
/// `tanh` returns `x·(1 + x)` below `2⁻⁵⁵`.
const TANH_TINY: f64 = f64::from_bits(0x3c80_0000_0000_0000);
/// `1.5·2⁵²`: adding it to an integral `k` leaves `k` in the low mantissa
/// bits, so shifting those bits by 52 adds `k` to an exponent.
const EXPONENT_MAGIC: f64 = 6_755_399_441_055_744.0;

/// glibc's `tanh(x)` with every branch a select.
///
/// `tanh` calls `expm1` only on `2|x|` for `|x| ∈ [1, 22)` and on `−2|x|`
/// for `|x| ∈ [2⁻⁵⁵, 1)`, so only the `expm1` paths those arguments reach
/// are ported: the reduction `k = 0`, the one-step `k = −1`, and the
/// general `k = trunc(a/ln 2 ± ½)` with `k ∈ {−3, −2} ∪ [3, 63]`.
#[inline(always)]
fn tanh_lane(x: f64) -> f64 {
    let ax = x.abs();
    let big = ax >= 1.0;
    let a = if big { ax + ax } else { ax * -2.0 };

    // expm1(a): argument reduction a = k·ln2 + r, r = hi − lo, c the
    // rounding of r
    let aa = a.abs();
    let general = (a * INVLN2 + if big { 0.5 } else { -0.5 }).trunc();
    let kf = if aa > HALF_LN2_TOP {
        if aa < THREE_HALVES_LN2 {
            -1.0
        } else {
            general
        }
    } else {
        0.0
    };
    // for k = −1 this is `a + ln2_hi` and `−ln2_lo`, for k = 0 `a` and 0
    let hi = (-kf).mul_add(LN2_HI, a);
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let h2 = hxs * hxs;
    let h4 = h2 * h2;
    let r1 = h4.mul_add(
        hxs.mul_add(Q5, Q4),
        h2.mul_add(hxs.mul_add(Q3, Q2), hxs.mul_add(Q1, 1.0)),
    );
    let t = (-r1).mul_add(hfx, 3.0);
    let e = hxs * ((r1 - t) / (-r).mul_add(t, 6.0));
    let at_k0 = r - r.mul_add(e, -hxs);
    let e = r.mul_add(e - c, -c) - hxs;
    let at_km1 = 0.5f64.mul_add(r - e, -0.5);
    // the rest scale by 2^k through the exponent field
    let kshift = (kf + EXPONENT_MAGIC).to_bits() << 52;
    let two_neg_k = f64::from_bits((0x3ffu64 << 52).wrapping_sub(kshift));
    let wide = kf <= -2.0 || kf > 56.0;
    let y = if wide {
        1.0 - (e - r)
    } else if kf < 20.0 {
        (1.0 - two_neg_k) - (e - r)
    } else {
        (r - (e + two_neg_k)) + 1.0
    };
    let y = f64::from_bits(y.to_bits().wrapping_add(kshift));
    let em1 = if kf == 0.0 {
        at_k0
    } else if kf == -1.0 {
        at_km1
    } else if wide {
        y - 1.0
    } else {
        y
    };

    // tanh from expm1: 1 − 2/(t + 2) above 1, −t/(t + 2) below, one
    // division for both (a select the compiler cannot split in two)
    let d = em1 + 2.0;
    let pick = u64::from(big).wrapping_neg();
    let numerator = f64::from_bits((2f64.to_bits() & pick) | ((-em1).to_bits() & !pick));
    let q = numerator / d;
    let z = if big { 1.0 - q } else { q };
    let z = if ax < 22.0 { z } else { 1.0 - TINY };
    let finite = if x.is_sign_negative() { -z } else { z };
    // ±inf gives ±1 and NaN its quieted self: glibc's `1/x ± 1`
    // without the division
    let special = if x.is_nan() {
        x + 1.0
    } else {
        1f64.copysign(x)
    };
    if !x.is_finite() {
        special
    } else if ax < TANH_TINY {
        x * (1.0 + x)
    } else {
        finite
    }
}

/// Whether this CPU has the instructions [`tanh_lanes`] is compiled for.
fn lanes_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The port of `tanh` of every element of `input`, into `out`, 8 lanes at
/// a time. A remainder shorter than 8 runs as one full vector of
/// zero-padded lanes, so every element takes the same code.
///
/// Unlike [`tanh_slice`] this does not ask the probe: it is how the probe
/// and the tests reach the port.
///
/// # Panics
///
/// Panics if the lengths differ or the CPU lacks the instructions
/// ([`lanes_supported`]).
fn tanh_lanes(input: &[f64], out: &mut [f64]) {
    const LANES: usize = 8;
    assert_eq!(input.len(), out.len(), "tanh slice length mismatch");
    assert!(lanes_supported(), "the 8-lane tanh is not supported here");
    let split = input.len() - input.len() % LANES;
    let (head, tail) = input.split_at(split);
    let (out_head, out_tail) = out.split_at_mut(split);
    // SAFETY: the CPU has the features, asserted above.
    unsafe { tanh_avx512(head, out_head) };
    if !tail.is_empty() {
        let (mut padded, mut lanes) = ([0.0; LANES], [0.0; LANES]);
        padded[..tail.len()].copy_from_slice(tail);
        // SAFETY: as above.
        unsafe { tanh_avx512(&padded, &mut lanes) };
        out_tail.copy_from_slice(&lanes[..tail.len()]);
    }
}

/// [`tanh_lane`] over a slice, compiled for AVX-512; the loop is left to
/// the vectorizer.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
#[inline(never)]
fn tanh_avx512(input: &[f64], out: &mut [f64]) {
    for (o, &x) in out.iter_mut().zip(input) {
        *o = tanh_lane(x);
    }
}

/// No CPU off x86-64 passes [`lanes_supported`], so this never runs.
///
/// # Safety
///
/// None needed; the signature matches the x86-64 one.
#[cfg(not(target_arch = "x86_64"))]
unsafe fn tanh_avx512(_input: &[f64], _out: &mut [f64]) {}

/// How many seeded values [`probe`] checks besides the boundaries.
const PROBE_VALUES: u64 = 1 << 16;

/// Calls `f` on every input at which the port changes branch, and one ulp
/// either side: each `expm1` reduction boundary `(k + ½)·ln2 / 2` for
/// `k ∈ [−4, 70]` and the high-word thresholds of `expm1` and `tanh`,
/// with both signs, plus `±0`, subnormals, `±1`, `±22`, `±f64::MAX`,
/// `±∞` and NaNs with payloads.
fn for_each_boundary(mut f: impl FnMut(f64)) {
    let mut around = |v: f64| {
        for w in [v.next_down(), v, v.next_up()] {
            f(w);
            f(-w);
        }
    };
    for k in -4i32..=70 {
        around((f64::from(k) + 0.5) * std::f64::consts::LN_2 / 2.0);
    }
    for v in [
        HALF_LN2_TOP / 2.0,
        THREE_HALVES_LN2 / 2.0,
        TANH_TINY,
        1.0,
        22.0,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::MAX,
    ] {
        around(v);
    }
    for v in [
        0.0,
        f64::INFINITY,
        f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0x7ff8_0000_0000_1234),
    ] {
        f(v);
        f(-v);
    }
}

/// The `i`-th seeded input of stream `seed`, cycling through four
/// families: uniform on `[−25, 25]`, uniform on `[−3, 3]`, a random bit
/// pattern, and a random mantissa at a random exponent in `2⁻⁸⁰…2⁸`.
pub(crate) fn seeded_input(seed: u64, i: u64) -> f64 {
    let bits = cocktail_math::parallel::task_seed(seed, i);
    // 53 random bits on [0, 1)
    let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
    let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
    match i % 4 {
        0 => 50.0 * unit - 25.0,
        1 => 6.0 * unit - 3.0,
        2 => f64::from_bits(bits),
        _ => sign * (1.0 + unit) * 2f64.powi((bits % 89) as i32 - 80),
    }
}

/// Whether [`tanh_lanes`] agrees with `reference` on every raw bit over
/// every [`for_each_boundary`] input and the first [`PROBE_VALUES`] of
/// [`seeded_input`]'s stream. Fails on a CPU without the instructions.
/// Allocates nothing: inputs go through a stack block.
fn probe(reference: impl Fn(f64) -> f64) -> bool {
    const BLOCK: usize = 64;
    if !lanes_supported() {
        return false;
    }
    let mut agrees = true;
    let mut block = [0.0; BLOCK];
    let mut filled = 0;
    let mut check = |xs: &[f64]| {
        let mut out = [0.0; BLOCK];
        tanh_lanes(xs, &mut out[..xs.len()]);
        agrees &= xs
            .iter()
            .zip(&out)
            .all(|(&x, y)| y.to_bits() == reference(x).to_bits());
    };
    let mut push = |x: f64| {
        block[filled] = x;
        filled += 1;
        if filled == BLOCK {
            check(&block);
            filled = 0;
        }
    };
    for_each_boundary(&mut push);
    for i in 0..PROBE_VALUES {
        push(seeded_input(PROBE_SEED, i));
    }
    check(&block[..filled]);
    agrees
}

/// The probe's stream seed.
const PROBE_SEED: u64 = 0x7a_6e68;

/// Whether the C library is the one [`tanh_lane`] was read from, glibc
/// 2.36. The probe samples; this rules out the libraries it was never
/// compared with, however well they do on the sample.
fn runs_the_ported_libm() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn gnu_get_libc_version() -> *const std::ffi::c_char;
        }
        // SAFETY: glibc returns a pointer to a static NUL-terminated string.
        let version = unsafe { std::ffi::CStr::from_ptr(gnu_get_libc_version()) };
        version.to_bytes() == b"2.36"
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Whether [`tanh_slice`] runs the port: the CPU has the instructions,
/// the C library is glibc 2.36 and [`probe`] agrees with `f64::tanh`.
/// Decided on the first call of the process.
fn lanes_accepted() -> bool {
    static ACCEPTED: OnceLock<bool> = OnceLock::new();
    *ACCEPTED.get_or_init(|| runs_the_ported_libm() && probe(f64::tanh))
}

/// `f64::tanh` of every element of `input`, into `out`: through
/// [`tanh_lanes`] once [`lanes_accepted`], or one `f64::tanh` call per
/// element.
///
/// # Panics
///
/// Panics if the lengths differ.
pub(crate) fn tanh_slice(input: &[f64], out: &mut [f64]) {
    assert_eq!(input.len(), out.len(), "tanh slice length mismatch");
    if lanes_accepted() {
        tanh_lanes(input, out);
    } else {
        for (o, &x) in out.iter_mut().zip(input) {
            *o = x.tanh();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inputs of `xs` whose port output differs from `f64::tanh` in any
    /// bit, with both outputs. The port runs whenever the CPU can run it;
    /// the probe plays no part.
    fn mismatches(xs: &[f64]) -> Vec<(f64, f64, f64)> {
        let mut out = vec![0.0; xs.len()];
        tanh_lanes(xs, &mut out);
        xs.iter()
            .zip(&out)
            .filter(|(&x, y)| y.to_bits() != x.tanh().to_bits())
            .map(|(&x, &y)| (x, y, x.tanh()))
            .collect()
    }

    #[test]
    fn the_lane_port_matches_libm_on_ten_million_inputs() {
        const INPUTS: u64 = 10_000_000;
        const BLOCK: u64 = 1 << 14;
        let mut boundaries = Vec::new();
        for_each_boundary(|x| boundaries.push(x));
        assert!(
            boundaries.len() > 500,
            "{} boundary inputs",
            boundaries.len()
        );
        if !lanes_supported() {
            return;
        }
        let mut bad = mismatches(&boundaries);
        let mut block = Vec::with_capacity(BLOCK as usize);
        for start in (0..INPUTS).step_by(BLOCK as usize) {
            block.clear();
            block.extend((start..(start + BLOCK).min(INPUTS)).map(|i| seeded_input(19, i)));
            bad.extend(mismatches(&block));
        }
        assert!(
            bad.is_empty(),
            "{} mismatches, first {:?}",
            bad.len(),
            &bad[..bad.len().min(4)]
        );
    }

    #[test]
    fn the_seeded_families_cover_their_ranges() {
        let xs: Vec<f64> = (0..4000).map(|i| seeded_input(3, i)).collect();
        let family = |f: u64| xs.iter().skip(f as usize).step_by(4).copied();
        assert!(family(0).all(|x| (-25.0..25.0).contains(&x)));
        assert!(family(0).any(|x| x > 22.0) && family(0).any(|x| x < -22.0));
        assert!(family(1).all(|x| (-3.0..3.0).contains(&x)));
        assert!(family(2).any(f64::is_nan) || family(2).any(|x| x.abs() > 1e100));
        assert!(family(3).all(|x| x.abs() < 512.0 && x.abs() >= 2f64.powi(-80)));
        assert!(family(3).any(|x| x.abs() < 1e-20) && family(3).any(|x| x.abs() > 22.0));
    }

    #[test]
    fn boundaries_cover_every_branch_of_the_port() {
        let mut xs = Vec::new();
        for_each_boundary(|x| xs.push(x));
        let has = |p: &dyn Fn(f64) -> bool| xs.iter().any(|&x| p(x));
        assert!(has(&|x| x == 0.0 && x.is_sign_negative()));
        assert!(has(&|x| x.is_subnormal()));
        assert!(has(&|x| x.is_nan() && x.is_sign_negative()));
        assert!(has(&|x| x == f64::NEG_INFINITY));
        assert!(has(&|x| x.abs() < TANH_TINY && x != 0.0));
        assert!(has(&|x| x == 22.0_f64.next_down()));
        assert!(has(&|x| x == -f64::MAX));
    }

    #[test]
    fn every_remainder_length_matches_libm() {
        if !lanes_supported() {
            return;
        }
        let xs: Vec<f64> = (0..64).map(|i| seeded_input(5, i)).collect();
        for len in 0..=17 {
            for offset in [0, 3] {
                let bad = mismatches(&xs[offset..offset + len]);
                assert!(bad.is_empty(), "at length {len}: {bad:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        tanh_slice(&[1.0, 2.0], &mut [0.0]);
    }

    #[test]
    fn a_port_that_disagrees_on_one_boundary_is_refused() {
        let boundary = (3.5 * std::f64::consts::LN_2 / 2.0).next_up();
        let wrong = |x: f64| {
            if x.to_bits() == boundary.to_bits() {
                x.tanh().next_up()
            } else {
                x.tanh()
            }
        };
        assert!(!probe(wrong), "the probe accepted a wrong reference");
        // without the instructions the probe refuses even the right one
        if !lanes_supported() {
            assert!(!probe(f64::tanh));
        }
    }

    #[test]
    fn reports_whether_the_lane_port_is_accepted() {
        let accepted = lanes_accepted();
        println!(
            "lane tanh: avx512 {}, glibc 2.36 {}, accepted {}",
            if lanes_supported() {
                "supported"
            } else {
                "unsupported"
            },
            runs_the_ported_libm(),
            if accepted {
                "avx512 (8 lanes)"
            } else {
                "none (f64::tanh per element)"
            }
        );
        assert_eq!(
            accepted,
            runs_the_ported_libm() && probe(f64::tanh),
            "the decision is the gate and the probe"
        );
        let xs: Vec<f64> = (0..100).map(|i| seeded_input(7, i)).collect();
        let mut out = vec![0.0; xs.len()];
        tanh_slice(&xs, &mut out);
        for (x, y) in xs.iter().zip(&out) {
            assert_eq!(y.to_bits(), x.tanh().to_bits(), "tanh_slice at {x:e}");
        }
    }
}
