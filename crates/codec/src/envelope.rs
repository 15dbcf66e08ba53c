//! The checksummed binary envelope and its payload cursors.
//!
//! An envelope is `magic (8) · version (u32) · payload length (u64) ·
//! FNV-1a-64 of the payload (u64) · payload`, all little-endian.
//! [`open`] verifies magic, version, length and checksum *before* a
//! single payload byte is decoded, so a truncated or bit-flipped file is
//! a typed [`Error`] — never a panic, never a value built from
//! unverified bytes. Each user owns its magic, its version and its
//! payload bound; this module owns the checks.
//!
//! Payloads are written with [`Enc`] and read back with the fallible
//! [`Dec`], whose sequence-length reads are bounded by the bytes
//! actually present.

use crate::fnv::fnv1a64;

/// Bytes before the payload: magic, version, length, checksum.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Why an envelope could not be opened or a payload decoded. Users
/// convert this into their own error type via `From`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The byte stream is shorter than the fixed header.
    TooShort,
    /// The magic bytes are not the caller's.
    BadMagic,
    /// The format version is not the one the caller reads.
    BadVersion(u32),
    /// The declared payload length exceeds the caller's bound.
    Oversize {
        /// Payload length the header declares.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The declared payload length disagrees with the actual bytes.
    LengthMismatch {
        /// Payload length the header declares.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The payload does not hash to the header's checksum.
    ChecksumMismatch {
        /// Checksum the header declares.
        declared: u64,
        /// Checksum recomputed over the payload.
        actual: u64,
    },
    /// The payload ended mid-field.
    Truncated,
    /// A decoded value is structurally impossible.
    Corrupt(&'static str),
}

/// Wrap `payload` in the checksummed envelope.
pub fn seal(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate the envelope around `bytes` and return its payload. Checks
/// run in header order — length, magic, version, declared size against
/// `max_payload`, declared size against the bytes present, checksum —
/// and the first failure is the error.
pub fn open<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
    max_payload: u64,
) -> Result<&'a [u8], Error> {
    let (header, payload) = bytes.split_at_checked(HEADER_LEN).ok_or(Error::TooShort)?;
    let mut h = Dec::new(header);
    if h.take(8)? != magic {
        return Err(Error::BadMagic);
    }
    let found = h.u32()?;
    if found != version {
        return Err(Error::BadVersion(found));
    }
    let (declared, actual) = (h.u64()?, payload.len() as u64);
    if declared > max_payload {
        return Err(Error::Oversize { declared, actual });
    }
    if declared != actual {
        return Err(Error::LengthMismatch { declared, actual });
    }
    let (declared, actual) = (h.u64()?, fnv1a64(payload));
    if declared != actual {
        return Err(Error::ChecksumMismatch { declared, actual });
    }
    Ok(payload)
}

/// Little-endian payload writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty writer with room for `bytes`.
    pub fn with_capacity(bytes: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Sequence-length prefix (u64).
    #[inline]
    pub fn seq_len(&mut self, len: usize) {
        self.u64(len as u64);
    }
}

/// Bounds-checked little-endian payload reader. Every read is a typed
/// [`Error::Truncated`] past the end, never a panic.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self.pos.checked_add(n).ok_or(Error::Truncated)?;
        let s = self.bytes.get(self.pos..end).ok_or(Error::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        self.take(N)?.try_into().map_err(|_| Error::Truncated)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, Error> {
        self.array().map(|[b]| b)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, Error> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.array().map(u64::from_le_bytes)
    }

    /// u32 length prefix of a sequence of ≥ `min_elem`-byte elements,
    /// bounded by the bytes still unread: a corrupted count cannot make
    /// the caller reserve more than the payload could hold.
    #[inline]
    pub fn seq_len32(&mut self, min_elem: usize) -> Result<usize, Error> {
        let len = u64::from(self.u32()?);
        let remaining = (self.bytes.len() - self.pos) as u64;
        if len > remaining / (min_elem.max(1) as u64) {
            return Err(Error::Corrupt("sequence length exceeds payload"));
        }
        usize::try_from(len).map_err(|_| Error::Corrupt("sequence length exceeds payload"))
    }

    /// Require that every payload byte was consumed.
    pub fn finish(self) -> Result<(), Error> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(Error::Corrupt("trailing bytes after payload"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"LMPRTEST";

    #[test]
    fn seal_then_open_is_the_identity_on_the_payload() {
        let sealed = seal(MAGIC, 3, b"payload");
        assert_eq!(sealed.len(), HEADER_LEN + 7);
        assert_eq!(open(&sealed, MAGIC, 3, u64::MAX), Ok(&b"payload"[..]));
        assert_eq!(open(&seal(MAGIC, 3, b""), MAGIC, 3, 0), Ok(&b""[..]));
    }

    #[test]
    fn each_header_check_has_its_own_error_in_header_order() {
        let good = seal(MAGIC, 3, b"payload");
        assert_eq!(open(&good[..27], MAGIC, 3, 64), Err(Error::TooShort));
        assert_eq!(open(&good, b"NOTMAGIC", 3, 64), Err(Error::BadMagic));
        assert_eq!(open(&good, MAGIC, 4, 64), Err(Error::BadVersion(3)));
        let oversize = Err(Error::Oversize {
            declared: 7,
            actual: 7,
        });
        assert_eq!(open(&good, MAGIC, 3, 6), oversize);
        let mismatch = Err(Error::LengthMismatch {
            declared: 7,
            actual: 6,
        });
        assert_eq!(open(&good[..good.len() - 1], MAGIC, 3, 64), mismatch);
        let mut long = good.clone();
        long.push(0);
        assert!(matches!(
            open(&long, MAGIC, 3, 64),
            Err(Error::LengthMismatch { actual: 8, .. })
        ));
        let mut flipped = good.clone();
        flipped[HEADER_LEN] ^= 1;
        assert!(matches!(
            open(&flipped, MAGIC, 3, 64),
            Err(Error::ChecksumMismatch { .. })
        ));
        // A bad magic outranks every later field.
        let mut junk = vec![0u8; HEADER_LEN + 4];
        junk[..8].copy_from_slice(b"NOTASNAP");
        assert_eq!(open(&junk, MAGIC, 3, 64), Err(Error::BadMagic));
    }

    #[test]
    fn decoder_guards_lengths() {
        let mut e = Enc::default();
        e.u32(1_000_000);
        let too_long = Err(Error::Corrupt("sequence length exceeds payload"));
        assert_eq!(Dec::new(e.bytes()).seq_len32(8), too_long);
        // The bound is on bytes remaining, not elements: 3 five-byte
        // elements do not fit in the 12 bytes after the prefix.
        let mut e = Enc::default();
        e.u32(3);
        e.u64(0);
        e.u32(0);
        assert_eq!(Dec::new(e.bytes()).seq_len32(5), too_long);
        assert_eq!(Dec::new(e.bytes()).seq_len32(4), Ok(3));
        assert_eq!(Dec::new(&[]).u64(), Err(Error::Truncated));
        assert_eq!(Dec::new(&[1, 2, 3]).u32(), Err(Error::Truncated));
    }

    #[test]
    fn scalars_round_trip_little_endian() {
        let mut e = Enc::with_capacity(32);
        e.u8(7);
        e.u32(0x0304_0506);
        e.u64(u64::MAX - 1);
        e.seq_len(2);
        assert_eq!(&e.bytes()[1..5], &[0x06, 0x05, 0x04, 0x03]);
        let mut d = Dec::new(e.bytes());
        assert_eq!(d.u8(), Ok(7));
        assert_eq!(d.u32(), Ok(0x0304_0506));
        assert_eq!(d.u64(), Ok(u64::MAX - 1));
        assert_eq!(d.u64(), Ok(2));
        assert_eq!(d.finish(), Ok(()));
        assert!(Dec::new(&[0]).finish().is_err());
    }
}
