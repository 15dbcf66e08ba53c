//! Permutation generators.

use lmpr_codec::xoshiro::Xoshiro256pp;

/// Whether `perm` is a bijection on `0..perm.len()`.
pub fn is_permutation(perm: &[u32]) -> bool {
    let n = perm.len();
    let mut seen = vec![false; n];
    for &p in perm {
        let Some(slot) = seen.get_mut(p as usize) else {
            return false;
        };
        if std::mem::replace(slot, true) {
            return false;
        }
    }
    true
}

/// A uniformly random permutation of `0..n` (Fisher–Yates), seeded for
/// reproducibility — the sampling unit of the paper's Figure 4 study.
pub fn random_permutation(n: u32, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n).collect();
    Xoshiro256pp::seed_from_u64(seed).shuffle(&mut perm);
    perm
}

/// The shift permutation `i ↦ (i + k) mod n` — the pattern optimized IB
/// fat-tree routing targets in Zahavi et al.'s shift all-to-all study.
pub fn shift_permutation(n: u32, k: u32) -> Vec<u32> {
    (0..n).map(|i| (i + k) % n).collect()
}

/// Bit-complement permutation `i ↦ ~i` over `log2(n)` bits.
///
/// # Panics
///
/// Panics unless `n` is a power of two.
pub fn bit_complement_permutation(n: u32) -> Vec<u32> {
    assert!(
        n.is_power_of_two(),
        "bit-complement needs a power-of-two node count"
    );
    (0..n).map(|i| (n - 1) ^ i).collect()
}

/// Bit-reversal permutation over `log2(n)` bits.
///
/// # Panics
///
/// Panics unless `n` is a power of two.
pub fn bit_reversal_permutation(n: u32) -> Vec<u32> {
    assert!(
        n.is_power_of_two(),
        "bit-reversal needs a power-of-two node count"
    );
    let bits = n.trailing_zeros();
    (0..n).map(|i| i.reverse_bits() >> (32 - bits)).collect()
}

/// Matrix-transpose permutation: viewing `0..n` as an `r × r` matrix,
/// `i ↦ (i mod r)·r + i/r`.
///
/// # Panics
///
/// Panics unless `n` is a perfect square.
pub fn transpose_permutation(n: u32) -> Vec<u32> {
    let r = (n as f64).sqrt().round() as u32;
    assert_eq!(r * r, n, "transpose needs a square node count");
    (0..n).map(|i| (i % r) * r + i / r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_and_rejects() {
        assert!(is_permutation(&[0, 1, 2]));
        assert!(is_permutation(&[2, 0, 1]));
        assert!(is_permutation(&[]));
        assert!(!is_permutation(&[0, 0, 1]));
        assert!(!is_permutation(&[0, 1, 3]));
    }

    #[test]
    fn random_is_permutation_and_seed_dependent() {
        let a = random_permutation(128, 1);
        let b = random_permutation(128, 1);
        let c = random_permutation(128, 2);
        assert!(is_permutation(&a));
        assert_eq!(a, b, "same seed must reproduce");
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn structured_patterns_are_permutations() {
        for p in [
            shift_permutation(12, 5),
            bit_complement_permutation(16),
            bit_reversal_permutation(32),
            transpose_permutation(16),
        ] {
            assert!(is_permutation(&p));
        }
    }

    #[test]
    fn shift_wraps() {
        assert_eq!(shift_permutation(4, 1), vec![1, 2, 3, 0]);
        assert_eq!(shift_permutation(4, 6), vec![2, 3, 0, 1]);
    }

    #[test]
    fn bit_patterns_match_definitions() {
        assert_eq!(bit_complement_permutation(4), vec![3, 2, 1, 0]);
        assert_eq!(bit_reversal_permutation(8), vec![0, 4, 2, 6, 1, 5, 3, 7]);
        assert_eq!(transpose_permutation(4), vec![0, 2, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bit_complement_requires_pow2() {
        let _ = bit_complement_permutation(6);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn transpose_requires_square() {
        let _ = transpose_permutation(8);
    }
}
