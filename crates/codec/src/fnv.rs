//! FNV-1a 64-bit: dependency-free corruption detection and stable
//! digests. Not a cryptographic hash.

/// The FNV-1a 64-bit offset basis — the state of an empty hash.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the running state `h`. Start from [`OFFSET`];
/// feeding a byte string in pieces yields the same state as feeding it
/// whole.
#[inline]
pub fn update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a 64-bit over `bytes`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    update(OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let pattern: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(fnv1a64(&pattern), 0x2288_1ee4_7abb_6b25);
    }

    #[test]
    fn one_shot_equals_incremental_at_every_split() {
        let pattern: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = fnv1a64(&pattern);
        for cut in [0, 1, 7, 512, 1023, 1024] {
            let (a, b) = pattern.split_at(cut);
            assert_eq!(update(update(OFFSET, a), b), whole, "split at {cut}");
        }
    }
}
