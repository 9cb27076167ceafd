//! Wrap-safe 32-bit sequence-number arithmetic.
//!
//! On the wire (`netsim::TcpHeader`) sequence numbers are 32-bit and wrap,
//! exactly like real TCP. Internally the state machines work with unwrapped
//! `u64` segment indexes; [`SeqUnwrapper`] recovers the unwrapped value from
//! the wire representation, assuming successive values never jump by more
//! than half the sequence space (true for any windowed protocol).
//!
//! This module is the one sanctioned home for narrowing sequence casts —
//! wrapping to 32 bits *is* the wire format here, so the determinism
//! contract's `cast_possible_truncation` lint is expected for the whole file.
#![expect(
    clippy::cast_possible_truncation,
    reason = "wrapping to 32 bits is the wire format; this module is the sanctioned home for narrowing sequence casts"
)]

/// Serial-number comparison (RFC 1982 style) for 32-bit sequence numbers:
/// `a` is *before* `b` iff the signed distance `b - a` is positive.
pub fn seq_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}

/// `a <= b` in wrap-safe serial order.
pub fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// `a > b` in wrap-safe serial order.
pub fn seq_gt(a: u32, b: u32) -> bool {
    seq_lt(b, a)
}

/// `a >= b` in wrap-safe serial order.
pub fn seq_ge(a: u32, b: u32) -> bool {
    a == b || seq_gt(a, b)
}

/// Wrap-safe distance from `a` forward to `b` (only meaningful when
/// `seq_le(a, b)`).
pub fn seq_distance(a: u32, b: u32) -> u32 {
    b.wrapping_sub(a)
}

/// Recovers unwrapped `u64` sequence indexes from wrapping `u32` wire values.
///
/// The unwrapper tracks the last unwrapped value and maps each new wire value
/// to the unwrapped candidate closest to it. Works as long as consecutive
/// observed values differ by less than `2^31`.
#[derive(Clone, Debug, Default)]
pub struct SeqUnwrapper {
    last: u64,
    initialized: bool,
}

impl SeqUnwrapper {
    /// Creates an unwrapper anchored at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unwraps a wire value.
    pub fn unwrap(&mut self, wire: u32) -> u64 {
        if !self.initialized {
            self.initialized = true;
            self.last = wire as u64;
            return self.last;
        }
        let last_wire = self.last as u32;
        let delta = wire.wrapping_sub(last_wire) as i32;
        // Signed delta keeps us on the same "lap" of the sequence space,
        // moving forward or backward by less than 2^31.
        let unwrapped = (self.last as i64 + delta as i64).max(0) as u64;
        // Only advance the anchor forward; reordered old packets must not
        // drag it backwards.
        if unwrapped > self.last {
            self.last = unwrapped;
        }
        unwrapped
    }
}

/// Truncates an unwrapped index to its 32-bit wire representation.
pub fn to_wire(seq: u64) -> u32 {
    seq as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons_without_wrap() {
        assert!(seq_lt(1, 2));
        assert!(!seq_lt(2, 1));
        assert!(!seq_lt(5, 5));
        assert!(seq_le(5, 5));
        assert!(seq_gt(7, 3));
        assert!(seq_ge(7, 7));
    }

    #[test]
    fn comparisons_across_wrap() {
        let near_max = u32::MAX - 2;
        assert!(seq_lt(near_max, 1)); // wraps forward
        assert!(seq_gt(1, near_max));
        assert_eq!(seq_distance(near_max, 1), 4);
    }

    #[test]
    fn unwrapper_monotone_stream() {
        let mut u = SeqUnwrapper::new();
        for i in 0..1000u64 {
            assert_eq!(u.unwrap(to_wire(i)), i);
        }
    }

    #[test]
    fn unwrapper_across_wrap() {
        let mut u = SeqUnwrapper::new();
        let start = u32::MAX as u64 - 5;
        // Anchor near the wrap point.
        assert_eq!(u.unwrap(to_wire(start)), start);
        for i in start + 1..start + 100 {
            assert_eq!(u.unwrap(to_wire(i)), i, "at {i}");
        }
    }

    #[test]
    fn unwrapper_tolerates_reordering() {
        let mut u = SeqUnwrapper::new();
        assert_eq!(u.unwrap(100), 100);
        assert_eq!(u.unwrap(105), 105);
        // An old packet arrives late: it must map below the anchor and not
        // disturb subsequent unwrapping.
        assert_eq!(u.unwrap(99), 99);
        assert_eq!(u.unwrap(106), 106);
    }

    #[test]
    fn unwrapper_reordering_across_wrap() {
        let mut u = SeqUnwrapper::new();
        let start = u32::MAX as u64 - 1;
        assert_eq!(u.unwrap(to_wire(start)), start);
        assert_eq!(u.unwrap(to_wire(start + 3)), start + 3); // past the wrap
        assert_eq!(u.unwrap(to_wire(start + 1)), start + 1); // late, pre-wrap
    }
}

/// Unwraps a wire value known to lie within ±2³¹ of `anchor` (e.g. SACK
/// block edges, which sit inside the send window around the cumulative
/// ACK).
pub fn unwrap_relative(anchor: u64, wire: u32) -> u64 {
    let delta = wire.wrapping_sub(anchor as u32) as i32;
    (anchor as i64 + delta as i64).max(0) as u64
}

#[cfg(test)]
mod relative_tests {
    use super::*;

    #[test]
    fn relative_forward_and_backward() {
        assert_eq!(unwrap_relative(1000, 1005), 1005);
        assert_eq!(unwrap_relative(1000, 995), 995);
    }

    #[test]
    fn relative_across_wrap() {
        let anchor = u32::MAX as u64 + 10;
        assert_eq!(unwrap_relative(anchor, to_wire(anchor + 5)), anchor + 5);
        assert_eq!(unwrap_relative(anchor, to_wire(anchor - 15)), anchor - 15);
    }
}
