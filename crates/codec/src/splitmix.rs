//! SplitMix64 (Steele, Lea & Flood 2014): the seeded mixer behind
//! every replayable draw that is not a full [`xoshiro`](crate::xoshiro)
//! stream — fault samples, failpoint decisions, per-pair and per-sample
//! seeds, retry jitter — and the seed expander of that stream.

/// The golden-ratio increment γ = ⌊2⁶⁴/φ⌋ (odd, so adding it walks the
/// full period). Also the multiplier of a Fibonacci hash.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The output finaliser: two xor-shift-multiply rounds and a last
/// xor-shift. A bijection on `u64`.
#[inline]
pub fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One-shot mix of `x`: the first output of a stream seeded with `x`.
#[inline]
pub fn mix(x: u64) -> u64 {
    finalize(x.wrapping_add(GAMMA))
}

/// Advance `state` and return the next output of its stream.
#[inline]
pub fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    finalize(*state)
}

/// Uniform `f64` in `[0, 1)` from the top 53 bits of `x`.
#[inline]
pub fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_from_seed_zero_matches_the_reference() {
        let mut s = 0u64;
        let got: Vec<u64> = (0..5).map(|_| next(&mut s)).collect();
        assert_eq!(
            got,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
                0x1b39_896a_51a8_749b,
            ]
        );
        assert_eq!(s, GAMMA.wrapping_mul(5));
    }

    #[test]
    fn mix_is_finalize_after_one_increment() {
        for x in [0, 1, GAMMA, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(mix(x), finalize(x.wrapping_add(GAMMA)));
            let mut s = x;
            assert_eq!(next(&mut s), mix(x));
        }
    }

    #[test]
    fn unit_f64_spans_the_half_open_interval() {
        assert_eq!(unit_f64(0), 0.0);
        assert!(unit_f64(u64::MAX) < 1.0);
        assert_eq!(unit_f64(1 << 63), 0.5);
    }
}
