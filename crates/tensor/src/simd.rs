//! Runtime SIMD feature dispatch for the microkernels.
//!
//! The workspace compiles against the baseline x86-64 target (SSE2), so
//! the autovectorizer can never emit wider vectors no matter how the
//! loops are written. The hot microkernels ([`crate::matmul`],
//! [`crate::norm`], [`crate::conv`], [`crate::lincomb`]) therefore carry
//! explicit `std::arch` AVX bodies behind the runtime checks here,
//! falling back to the portable loops elsewhere. Four kernels also have
//! an AVX-512F body (16 lanes, one register) behind [`avx512f`], each
//! stamped by one macro from the same source as its AVX body: the three
//! conv passes (forward, input gradient, weight gradient) and the
//! Runge–Kutta linear combination. The host's ISA alone picks the body:
//! there is no option or environment variable.
//!
//! # Determinism
//!
//! The AVX and AVX-512F bodies are *transcriptions*, not reassociations:
//! every output element runs the identical IEEE-754 operation sequence as
//! the portable loop (mul then add, per-element chains in the same
//! reduction order — never FMA, which would fuse the rounding). A lane of
//! a vector op is the same `f32`/`f64` operation as its scalar
//! counterpart, whatever the vector width, so every body and the portable
//! path are bitwise identical, and the cross-thread-count determinism
//! contract (DESIGN.md §8) holds unchanged on every host.

/// True when the host supports AVX (256-bit float vectors). The result
/// is cached by `std::arch`'s detection macro, so calling this in a
/// kernel prologue costs one relaxed atomic load.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn avx() -> bool {
    std::arch::is_x86_feature_detected!("avx")
}

/// Non-x86 hosts always take the portable loops.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub(crate) fn avx() -> bool {
    false
}

/// True when the host supports AVX-512F (512-bit float vectors), cached
/// like [`avx`]. The three conv passes and the Runge–Kutta linear
/// combination have 16-lane bodies.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn avx512f() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Non-x86 hosts always take the portable loops.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub(crate) fn avx512f() -> bool {
    false
}

#[cfg(test)]
mod tests {
    #[test]
    fn detection_is_stable() {
        // Whatever the host supports, repeated queries must agree — the
        // kernels assume one dispatch decision per process.
        assert_eq!(super::avx(), super::avx());
        assert_eq!(super::avx512f(), super::avx512f());
    }
}
