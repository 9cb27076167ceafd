//! The one 64-bit FNV-1a fold every digest in the workspace is built on:
//! packet log, telemetry, profiler, metrics registry, drop forensics, span
//! log, trace export and the probe-cache key all feed bytes to an
//! [`Fnv1a`] in a fixed order, so "same seed ⇒ same digest" rests on a
//! single definition of the hash.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a (64-bit) state. `Copy`, so an incremental fold can be
/// finished with extra trailing input without disturbing the running value.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty fold (the FNV offset basis).
    #[inline]
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Folds `bytes` in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds `v` as its eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        // Not `self.bytes(..)`: iterating the array by value keeps the
        // bytes in registers, and the packet log folds five of these per
        // record (the slice form spills — ~10 % more instructions).
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The digest of everything folded so far.
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::Fnv1a;

    fn of(s: &str) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(s.as_bytes());
        h.finish()
    }

    #[test]
    fn published_test_vectors() {
        assert_eq!(of(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn u64_is_eight_little_endian_bytes_and_folds_are_incremental() {
        let mut a = Fnv1a::new();
        a.u64(0x0807_0605_0403_0201);
        let mut b = Fnv1a::new();
        b.bytes(&[1, 2, 3]);
        b.bytes(&[4, 5, 6, 7, 8]);
        assert_eq!(a.finish(), b.finish());
    }
}
