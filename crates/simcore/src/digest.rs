//! The one 64-bit FNV-1a fold every digest in the workspace is built on:
//! packet log, telemetry, profiler, metrics registry, drop forensics, span
//! log, trace export and the probe-cache key all feed bytes to an
//! [`Fnv1a`] in a fixed order, so "same seed ⇒ same digest" rests on a
//! single definition of the hash.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME^k` for k = 0 … 8: folding a zero byte is `(h ^ 0)·PRIME =
/// h·PRIME`, so folding k of them is one multiply by `PRIME^k`.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    pow
};

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
        // Byte by byte below the highest nonzero one; then that byte and
        // the zero bytes above it in one multiply, `(h ^ b)·PRIME^k` for
        // the k bytes from it up (exact: folding a zero byte is a multiply
        // by PRIME). Digested values are mostly small (flow ids, link and
        // kind codes, counts), so this is a fraction of the eight dependent
        // multiplies a full fold costs: one for a value below 256.
        let mut h = self.0;
        let mut rest = v;
        let mut k = 8;
        while rest > 0xff {
            h = (h ^ (rest & 0xff)).wrapping_mul(PRIME);
            rest >>= 8;
            k -= 1;
        }
        self.0 = (h ^ rest).wrapping_mul(PRIME_POW[k]);
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
    use crate::Rng;

    #[test]
    fn zero_run_fold_equals_the_bytewise_fold() {
        let mut values = vec![0, u64::MAX];
        for b in 1..=255u64 {
            values.push(b);
            values.push(b << 56);
        }
        let mut rng = Rng::new(1);
        for i in 0..10_000 {
            // Every width from 64 bits down to one.
            values.push(rng.next_u64() >> (i % 64));
        }
        // Each value is folded from the empty state and, running, from the
        // state all values before it left.
        let (mut running, mut running_bytewise) = (Fnv1a::new(), Fnv1a::new());
        for v in values {
            let (mut fresh, mut fresh_bytewise) = (Fnv1a::new(), Fnv1a::new());
            fresh.u64(v);
            fresh_bytewise.bytes(&v.to_le_bytes());
            assert_eq!(fresh.finish(), fresh_bytewise.finish(), "{v:#x}");
            running.u64(v);
            running_bytewise.bytes(&v.to_le_bytes());
            assert_eq!(running.finish(), running_bytewise.finish(), "{v:#x}");
        }
    }

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
