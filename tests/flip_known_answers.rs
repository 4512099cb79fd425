//! Analytic known answers for single bit-flips of IEEE-754 doubles.
//!
//! A flip's numeric effect on an `f64` follows from the encoding alone
//! (Lowery, "The effect of single bit-flips on floating-point values",
//! arXiv:1304.4292): a mantissa flip moves the value by one power of two
//! fixed by the exponent and the bit, an exponent flip scales it by a power
//! of two (or leaves the normal range), and the sign flip negates it.  This
//! suite pins `Value::flip_bit` on `F64` to those closed forms over seeded
//! random doubles of every class, plus the range edges.

use mbfi::core::rng::{Rng, SmallRng};
use mbfi::vm::Value;

const MANTISSA_BITS: u32 = 52;
const MANTISSA_MASK: u64 = (1 << MANTISSA_BITS) - 1;
const SIGN_BIT: u32 = 63;
const MAX_EXPONENT: u64 = 2047;

/// Random doubles per class.
const SAMPLES: usize = 500;

/// `2^p` for every `p` whose power is a finite double (`-1074..=1023`),
/// built from its encoding so no rounding is involved.
fn pow2(p: i32) -> f64 {
    assert!((-1074..=1023).contains(&p), "2^{p} is not a finite double");
    if p >= -1022 {
        f64::from_bits(((p + 1023) as u64) << MANTISSA_BITS)
    } else {
        f64::from_bits(1 << (p + 1074))
    }
}

fn biased_exponent(x: f64) -> u64 {
    (x.to_bits() >> MANTISSA_BITS) & MAX_EXPONENT
}

fn mantissa(x: f64) -> u64 {
    x.to_bits() & MANTISSA_MASK
}

fn flip(x: f64, bit: u32) -> f64 {
    f64::from_bits(Value::f64(x).flip_bit(bit).as_u64())
}

/// A double with a random sign and mantissa and the given biased exponent.
fn with_exponent(rng: &mut SmallRng, exponent: u64) -> f64 {
    let sign = rng.next_u64() & (1 << SIGN_BIT);
    f64::from_bits(sign | (exponent << MANTISSA_BITS) | (rng.next_u64() & MANTISSA_MASK))
}

/// Seeded random normal doubles over the whole exponent range, plus the
/// extremes of the normal range with empty and full mantissas.
fn normals(seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut values = vec![
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1.0,
        -1.5,
        f64::from_bits(f64::MIN_POSITIVE.to_bits() | MANTISSA_MASK),
        f64::from_bits(2046 << MANTISSA_BITS),
    ];
    for _ in 0..SAMPLES {
        let exponent = rng.gen_range(1..=2046u64);
        values.push(with_exponent(&mut rng, exponent));
    }
    values
}

/// Seeded random subnormal doubles, plus the smallest and largest.
fn subnormals(seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut values = vec![
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(MANTISSA_MASK),
    ];
    while values.len() < SAMPLES {
        let x = with_exponent(&mut rng, 0);
        if x != 0.0 {
            values.push(x);
        }
    }
    values
}

#[test]
fn normal_mantissa_flip_moves_by_a_power_of_two() {
    for x in normals(1) {
        let e = biased_exponent(x) as i32;
        for k in 0..MANTISSA_BITS {
            let y = flip(x, k);
            let delta = pow2(e - 1075 + k as i32);
            // A set bit shrinks the magnitude, a clear one grows it.
            let grows = mantissa(x) >> k & 1 == 0;
            let expected = if grows == (x > 0.0) {
                x + delta
            } else {
                x - delta
            };
            assert_eq!(y, expected, "x = {x:e}, mantissa bit {k}");
            assert_eq!(biased_exponent(y), biased_exponent(x));
        }
    }
}

#[test]
fn exponent_flip_scales_by_a_power_of_two_or_leaves_the_normal_range() {
    for x in normals(2) {
        let e = biased_exponent(x);
        for j in 0..11 {
            let y = flip(x, MANTISSA_BITS + j);
            let flipped = e ^ (1 << j);
            match flipped {
                1..=2046 => {
                    // Scale by 2^(±2^j) in two halves: 2^±1024 itself is not
                    // a finite double, but every intermediate lies between
                    // x and y and so stays normal.
                    let d = flipped as i32 - e as i32;
                    assert_eq!(d.unsigned_abs(), 1 << j);
                    let expected = x * pow2(d / 2) * pow2(d - d / 2);
                    assert_eq!(y, expected, "x = {x:e}, exponent bit {j}");
                }
                0 if mantissa(x) == 0 => assert_eq!(y, 0.0, "x = {x:e}, exponent bit {j}"),
                0 => assert!(y.is_subnormal(), "x = {x:e}, exponent bit {j}"),
                _ if mantissa(x) == 0 => {
                    assert!(y.is_infinite(), "x = {x:e}, exponent bit {j}");
                    assert_eq!(y.is_sign_negative(), x.is_sign_negative());
                }
                _ => assert!(y.is_nan(), "x = {x:e}, exponent bit {j}"),
            }
            // The sign and mantissa are untouched either way.
            assert_eq!(y.is_sign_negative(), x.is_sign_negative());
            assert_eq!(mantissa(y), mantissa(x));
        }
    }
}

#[test]
fn sign_flip_negates() {
    let specials = [0.0, f64::INFINITY, f64::NEG_INFINITY, f64::from_bits(1)];
    for x in normals(3).into_iter().chain(subnormals(3)).chain(specials) {
        let y = flip(x, SIGN_BIT);
        assert_eq!(y.to_bits(), (-x).to_bits(), "x = {x:e}");
    }
}

#[test]
fn subnormal_mantissa_flip_moves_by_a_power_of_two() {
    for x in subnormals(4) {
        for k in 0..MANTISSA_BITS {
            let y = flip(x, k);
            let delta = pow2(k as i32 - 1074);
            let grows = mantissa(x) >> k & 1 == 0;
            let expected = if grows == (x > 0.0) {
                x + delta
            } else {
                x - delta
            };
            assert_eq!(y, expected, "x = {x:e}, mantissa bit {k}");
            assert_eq!(biased_exponent(y), 0);
        }
    }
}

#[test]
fn mantissa_flip_of_infinity_is_nan() {
    for x in [f64::INFINITY, f64::NEG_INFINITY] {
        for k in 0..MANTISSA_BITS {
            let y = flip(x, k);
            assert!(y.is_nan(), "{x} mantissa bit {k}");
            assert_eq!(y.is_sign_negative(), x.is_sign_negative());
        }
    }
}

#[test]
fn out_of_width_bits_are_a_no_op() {
    let mut rng = SmallRng::seed_from_u64(5);
    let specials = [f64::NAN, f64::INFINITY, 0.0, -0.0];
    for x in normals(5).into_iter().chain(subnormals(5)).chain(specials) {
        for bit in [64, 65, 127, rng.gen_range(64..=u32::MAX), u32::MAX] {
            let value = Value::f64(x);
            assert_eq!(value.flip_bit(bit), value, "x = {x:e}, bit {bit}");
        }
    }
}
