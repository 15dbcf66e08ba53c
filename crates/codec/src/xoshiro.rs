//! xoshiro256++ (Blackman & Vigna 2019): the one full random stream
//! behind the `random` heuristic's path samples, random permutations,
//! and the flit simulator's Poisson arrivals, destinations and
//! per-packet path choices. Seeds expand through [`splitmix::next`].

use crate::splitmix;

/// The state a seed falls back to when it would otherwise be all-zero,
/// a fixed point of xoshiro.
const ESCAPE: [u64; 4] = [splitmix::GAMMA, 1, 2, 3];

/// A xoshiro256++ generator: 256 bits of state, 64-bit outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expand a 64-bit seed into the state with four SplitMix64 words.
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        Self::from_state([(); 4].map(|()| splitmix::next(&mut state)))
    }

    /// A generator at state `s`; the all-zero state maps to the escape
    /// state.
    #[inline]
    fn from_state(s: [u64; 4]) -> Self {
        Xoshiro256pp {
            s: if s == [0; 4] { ESCAPE } else { s },
        }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A value in `0..n` by Lemire's multiply-shift: one draw, the high
    /// word of `next_u64() · n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot sample empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// A uniform index into a collection of `len` items: [`Self::below`]
    /// as a `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        // The draw is below `len`, so it always fits a usize.
        usize::try_from(self.below(len as u64)).unwrap_or(len)
    }

    /// A uniform `f64` in `[0, 1)` from one draw.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        splitmix::unit_f64(self.next_u64())
    }

    /// Fisher–Yates shuffle from the top: slot `i` swaps with
    /// `below(i + 1)` for `i = len − 1` down to `1`.
    #[inline]
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.index(i + 1);
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_five(seed: u64) -> [u64; 5] {
        let mut r = Xoshiro256pp::seed_from_u64(seed);
        [(); 5].map(|()| r.next_u64())
    }

    #[test]
    fn stream_from_seeds_0_and_42_matches_the_reference() {
        assert_eq!(
            first_five(0),
            [
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc,
                0x02ee_bf8c_3bbe_5e1a,
                0x7eca_04eb_af4a_5eea,
            ]
        );
        assert_eq!(
            first_five(42),
            [
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c,
                0xb37d_9f60_0cd8_35b8,
                0xcb23_1c38_7484_6a73,
            ]
        );
    }

    #[test]
    fn bounded_unit_and_shuffle_draws_match_the_reference() {
        let mut r = Xoshiro256pp::seed_from_u64(7);
        assert_eq!([(); 5].map(|()| r.below(10)), [0, 1, 7, 4, 9]);
        assert_eq!(
            [(); 5].map(|()| r.unit_f64()),
            [
                0.465_703_689_140_478_44,
                0.723_907_095_236_536_1,
                0.329_839_429_552_528,
                0.982_322_651_212_243_2,
                0.073_283_791_041_607_54,
            ]
        );
        let mut v: Vec<u32> = (0..10).collect();
        Xoshiro256pp::seed_from_u64(9).shuffle(&mut v);
        assert_eq!(v, [2, 8, 4, 7, 9, 0, 6, 1, 3, 5]);
    }

    #[test]
    fn all_zero_state_escapes_to_the_fixed_state() {
        let mut z = Xoshiro256pp::from_state([0; 4]);
        assert_eq!(z.s, [splitmix::GAMMA, 1, 2, 3]);
        assert_eq!(z.next_u64(), 0x7af7_1ef7_8b99_97d1);
        assert_ne!(z.next_u64(), z.next_u64());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256pp::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn draws_stay_in_bounds_and_cover_the_support() {
        let mut r = Xoshiro256pp::seed_from_u64(7);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            assert!(r.below(6) <= 5);
            assert!((0.0..1.0).contains(&r.unit_f64()));
            seen[r.index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_panics() {
        Xoshiro256pp::seed_from_u64(0).below(0);
    }

    #[test]
    fn shuffle_permutes() {
        let mut v: Vec<u32> = (0..50).collect();
        Xoshiro256pp::seed_from_u64(9).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }
}
