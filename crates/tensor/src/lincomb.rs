//! The Runge–Kutta linear combination, one pass over the state.
//!
//! [`lincomb`] writes `out ← base + Σ_j c_j·k_j` — a stage input, a
//! candidate or (with no base) an error state — reading each operand once
//! and writing `out` once. Per element the chain is the one a copy of
//! `base` followed by one [`Tensor::axpy`](crate::Tensor::axpy) per term
//! computes: start from `base`, then `+ c_j·k_j` for each term in order,
//! multiply then add, never FMA. With no base the chain starts at
//! `k_0·c_0` (a copy of `k_0` scaled by `c_0`), and with neither it is
//! `+0.0`. The AVX and AVX-512F bodies, picked by the host's ISA at run
//! time, run that chain in every lane of a vector, so every body is
//! bitwise identical to the portable loop, which also runs each body's
//! tail and states shorter than one vector.
//!
//! The pass also reports whether every element it wrote is finite, so the
//! adaptive stepper's scan of the candidate state costs no pass of its
//! own. It is serial: at the solver's state sizes one pass takes a
//! fraction of a microsecond, less than a pool fan-out.

/// The most terms one [`lincomb`] pass takes: Dopri5's seven-stage error
/// state, plus one.
pub const MAX_TERMS: usize = 8;

/// One term `(c_j, k_j)` of a linear combination.
pub type Term<'a> = (f32, &'a [f32]);

/// Writes `out ← base + Σ_j c_j·k_j` over `terms` in order (with no base,
/// `out ← k_0·c_0 + Σ_{j>0} c_j·k_j`, or `+0.0` when `terms` is empty) and
/// returns true when every element written is finite.
///
/// # Panics
///
/// Panics if `terms` holds more than [`MAX_TERMS`] terms, or if `base` or
/// any `k_j` differs in length from `out`.
pub fn lincomb(out: &mut [f32], base: Option<&[f32]>, terms: &[Term<'_>]) -> bool {
    // Once per call: the SIMD bodies' pointer walk relies on every one.
    assert!(
        terms.len() <= MAX_TERMS,
        "lincomb takes at most {MAX_TERMS} terms, got {}",
        terms.len()
    );
    let n = out.len();
    if let Some(b) = base {
        assert_eq!(b.len(), n, "lincomb base length mismatch");
    }
    for (_, k) in terms {
        assert_eq!(k.len(), n, "lincomb term length mismatch");
    }
    #[cfg(target_arch = "x86_64")]
    {
        if n >= 16 && crate::simd::avx512f() {
            // SAFETY: AVX-512F is present (runtime check); the term count
            // and every slice length are asserted above.
            return unsafe { lincomb_avx512(out, base, terms) };
        }
        if n >= 8 && crate::simd::avx() {
            // SAFETY: as above, with AVX.
            return unsafe { lincomb_avx(out, base, terms) };
        }
    }
    lincomb_portable(out, base, terms, 0)
}

/// The start of every element's chain — `base`, or with no base the first
/// term's vector scaled by its coefficient — and the terms added after it;
/// `None` when there is neither, and the chain is `+0.0`.
fn chain_start<'a, 't>(
    base: Option<&'a [f32]>,
    terms: &'t [Term<'a>],
) -> Option<(&'a [f32], Option<f32>, &'t [Term<'a>])> {
    match (base, terms) {
        (Some(b), _) => Some((b, None, terms)),
        (None, [(c, k), rest @ ..]) => Some((k, Some(*c), rest)),
        (None, []) => None,
    }
}

/// Portable body of [`lincomb`] over the elements `from..`: whole chunks of
/// 16 elements, each term a multiply-add over the chunk that the
/// autovectorizer handles, then the rest element by element.
#[inline]
fn lincomb_portable(
    out: &mut [f32],
    base: Option<&[f32]>,
    terms: &[Term<'_>],
    from: usize,
) -> bool {
    const CHUNK: usize = 16;
    const EXPONENT: u32 = 0x7f80_0000;
    let Some((start, scale, rest)) = chain_start(base, terms) else {
        out[from..].fill(0.0);
        return true;
    };
    let mut non_finite = 0;
    let mut s = from;
    while s + CHUNK <= out.len() {
        let mut acc: [f32; CHUNK] = start[s..s + CHUNK].try_into().expect("whole chunk");
        if let Some(c) = scale {
            for a in &mut acc {
                *a *= c;
            }
        }
        for &(c, k) in rest {
            for (a, &x) in acc.iter_mut().zip(&k[s..s + CHUNK]) {
                *a += c * x;
            }
        }
        out[s..s + CHUNK].copy_from_slice(&acc);
        for a in &acc {
            non_finite |= u32::from(a.to_bits() & EXPONENT == EXPONENT);
        }
        s += CHUNK;
    }
    for i in s..out.len() {
        let mut acc = match scale {
            Some(c) => start[i] * c,
            None => start[i],
        };
        for &(c, k) in rest {
            acc += c * k[i];
        }
        out[i] = acc;
        non_finite |= u32::from(acc.to_bits() & EXPONENT == EXPONENT);
    }
    non_finite == 0
}

/// Stamps one SIMD body of [`lincomb`] for a vector of `$lanes` floats, so
/// the 8-wide and 16-wide bodies are one source.
///
/// The term count after the start is a const parameter of the block loop,
/// so its coefficients and pointers stay in registers. Per block of
/// `$lanes` elements the loop loads the start (`base`, or the first term
/// times its coefficient), then for each further term multiplies its block
/// by the broadcast coefficient and adds, stores the block and folds its
/// non-finite lanes into a mask. The elements past the last whole block run
/// the portable loop. Each lane runs the portable chain, so the result is
/// bitwise identical to the portable body.
#[cfg(target_arch = "x86_64")]
macro_rules! lincomb_simd {
    (
        $(#[$doc:meta])*
        $name:ident, $feature:literal, $lanes:literal,
        $load:ident, $splat:ident, $add:ident, $mul:ident, $store:ident, $non_finite:ident
    ) => {
        $(#[$doc])*
        ///
        /// # Safety
        ///
        /// The host must support the body's ISA, and the arguments must
        /// satisfy the assertions of [`lincomb`].
        #[target_feature(enable = $feature)]
        unsafe fn $name(out: &mut [f32], base: Option<&[f32]>, terms: &[Term<'_>]) -> bool {
            use std::arch::x86_64::*;

            /// The whole blocks of `out`, from `start` (times `scale`,
            /// when given) and the `M` terms of `rest`; true when every
            /// element written is finite.
            ///
            /// # Safety
            ///
            /// As for the body, with `rest` holding exactly `M` terms and
            /// `start` and every term as long as `out`.
            #[target_feature(enable = $feature)]
            unsafe fn blocks<const M: usize>(
                out: &mut [f32],
                start: &[f32],
                scale: Option<f32>,
                rest: &[Term<'_>],
            ) -> bool {
                let mut cs = [$splat(0.0); M];
                let mut ks = [std::ptr::null::<f32>(); M];
                for ((cv, kp), &(c, k)) in cs.iter_mut().zip(&mut ks).zip(rest) {
                    *cv = $splat(c);
                    *kp = k.as_ptr();
                }
                let sc = $splat(scale.unwrap_or(1.0));
                let (p, o) = (start.as_ptr(), out.as_mut_ptr());
                let mut non_finite = 0;
                let mut i = 0;
                while i + $lanes <= out.len() {
                    let mut acc = $load(p.add(i));
                    if scale.is_some() {
                        acc = $mul(acc, sc);
                    }
                    for (&c, &k) in cs.iter().zip(&ks) {
                        acc = $add(acc, $mul(c, $load(k.add(i))));
                    }
                    $store(o.add(i), acc);
                    non_finite |= $non_finite(acc);
                    i += $lanes;
                }
                non_finite == 0
            }

            let Some((start, scale, rest)) = chain_start(base, terms) else {
                return lincomb_portable(out, base, terms, 0);
            };
            let finite = match rest.len() {
                0 => blocks::<0>(out, start, scale, rest),
                1 => blocks::<1>(out, start, scale, rest),
                2 => blocks::<2>(out, start, scale, rest),
                3 => blocks::<3>(out, start, scale, rest),
                4 => blocks::<4>(out, start, scale, rest),
                5 => blocks::<5>(out, start, scale, rest),
                6 => blocks::<6>(out, start, scale, rest),
                7 => blocks::<7>(out, start, scale, rest),
                _ => blocks::<MAX_TERMS>(out, start, scale, rest),
            };
            let tail = out.len() - out.len() % $lanes;
            lincomb_portable(out, base, terms, tail) && finite
        }
    };
}

/// Bit mask of the lanes of `v` whose exponent bits are all ones (`±inf`
/// or NaN): `v & EXP == EXP`, compared as floats (the masked lane is
/// `+inf` exactly when the test holds).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn non_finite_avx(v: std::arch::x86_64::__m256) -> u32 {
    use std::arch::x86_64::*;
    let exp = _mm256_set1_ps(f32::INFINITY);
    _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_and_ps(v, exp), exp)) as u32
}

/// Bit mask of the lanes of `v` whose exponent bits are all ones, as
/// [`non_finite_avx`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn non_finite_avx512(v: std::arch::x86_64::__m512) -> u32 {
    use std::arch::x86_64::*;
    let exp = _mm512_set1_epi32(0x7f80_0000);
    u32::from(_mm512_cmpeq_epi32_mask(
        _mm512_and_si512(_mm512_castps_si512(v), exp),
        exp,
    ))
}

#[cfg(target_arch = "x86_64")]
lincomb_simd!(
    /// AVX body of [`lincomb`]: 8-wide blocks.
    lincomb_avx, "avx", 8,
    _mm256_loadu_ps, _mm256_set1_ps, _mm256_add_ps, _mm256_mul_ps, _mm256_storeu_ps,
    non_finite_avx
);

#[cfg(target_arch = "x86_64")]
lincomb_simd!(
    /// AVX-512F body of [`lincomb`]: 16-wide blocks, one per register.
    lincomb_avx512, "avx512f", 16,
    _mm512_loadu_ps, _mm512_set1_ps, _mm512_add_ps, _mm512_mul_ps, _mm512_storeu_ps,
    non_finite_avx512
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, Tensor};

    /// A body of [`lincomb`].
    #[derive(Clone, Copy, Debug)]
    enum Body {
        Portable,
        Avx,
        Avx512,
    }

    /// The bodies this host runs: the portable loop, and the AVX and
    /// AVX-512F bodies when their ISA is present.
    fn bodies() -> Vec<Body> {
        let mut bodies = vec![Body::Portable];
        if crate::simd::avx() {
            bodies.push(Body::Avx);
        }
        if crate::simd::avx512f() {
            bodies.push(Body::Avx512);
        }
        bodies
    }

    /// Runs one body over a NaN-filled output of length `n`; returns the
    /// output and the finiteness flag.
    fn run(body: Body, n: usize, base: Option<&[f32]>, terms: &[Term<'_>]) -> (Vec<f32>, bool) {
        let mut out = vec![f32::NAN; n];
        let finite = match body {
            Body::Portable => lincomb_portable(&mut out, base, terms, 0),
            // SAFETY: `bodies` lists a SIMD body only when its ISA is
            // present; the callers build every slice at length `n` and at
            // most `MAX_TERMS` terms.
            #[cfg(target_arch = "x86_64")]
            Body::Avx => unsafe { lincomb_avx(&mut out, base, terms) },
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => unsafe { lincomb_avx512(&mut out, base, terms) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("no SIMD body off x86-64"),
        };
        (out, finite)
    }

    /// The chain [`lincomb`] transcribes, as the stepper wrote it before
    /// the fused pass: a copy of `base` and one `axpy` per term, or with no
    /// base a copy of `k_0` scaled by `c_0`, or zeros.
    fn reference(n: usize, base: Option<&[f32]>, terms: &[Term<'_>]) -> Vec<f32> {
        let tensor = |v: &[f32]| Tensor::from_vec(v.to_vec(), &[n]);
        let (mut out, rest) = match (base, terms) {
            (Some(b), _) => (tensor(b), terms),
            (None, [(c, k), rest @ ..]) => {
                let mut out = tensor(k);
                out.scale_mut(*c);
                (out, rest)
            }
            (None, []) => (Tensor::zeros(&[n]), terms),
        };
        for &(c, k) in rest {
            out.axpy(c, &tensor(k));
        }
        out.into_vec()
    }

    /// Bits of `v`, every NaN mapped to one pattern: a NaN need only match
    /// a NaN, while `−0.0` and `+0.0` must match exactly.
    fn canonical_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|f| if f.is_nan() { f32::NAN } else { *f }.to_bits())
            .collect()
    }

    /// Uniform values in `[−1, 1)` with every third one replaced in turn by
    /// `±0.0`, a subnormal of either sign or a large magnitude (whose ulp
    /// is near the size of the other terms, so the order in which they are
    /// added shows in the bits).
    fn special_values(len: usize, seed: u64) -> Vec<f32> {
        let special = [
            0.0,
            -0.0,
            f32::from_bits(3),
            -f32::MIN_POSITIVE / 8.0,
            6.5e5,
            -3.0e7,
        ];
        let mut v = init::uniform(&[len], -1.0, 1.0, seed).data().to_vec();
        for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| i % 3 == 1) {
            *x = special[(i / 3) % special.len()];
        }
        v
    }

    /// Coefficients of a term list: tableau-sized magnitudes, one of them
    /// large enough that reassociating a pair moves the bits, and `−0.0`.
    const COEFFS: [f32; MAX_TERMS] = [0.05, -0.0375, 7.5e-3, 1.0e4, -0.011, 0.0625, -0.0, 3.3e-2];

    /// Checks every body and the dispatcher against [`reference`] on one
    /// operand set.
    fn check(n: usize, base: Option<&[f32]>, terms: &[Term<'_>], case: &str) {
        let want = reference(n, base, terms);
        let finite = want.iter().all(|x| x.is_finite());
        let want = canonical_bits(&want);
        for body in bodies() {
            let (out, f) = run(body, n, base, terms);
            assert_eq!(canonical_bits(&out), want, "{body:?}: {case}");
            assert_eq!(f, finite, "{body:?} finiteness: {case}");
        }
        let mut out = vec![f32::NAN; n];
        let f = lincomb(&mut out, base, terms);
        assert_eq!(canonical_bits(&out), want, "dispatch: {case}");
        assert_eq!(f, finite, "dispatch finiteness: {case}");
    }

    #[test]
    fn every_body_matches_the_copy_and_axpy_chain_bitwise() {
        // Lengths 1..=70 cover empty, partial and several whole blocks of
        // both vector widths with every tail length; 1024 and 2048 are the
        // serving and training states. 0–8 terms (a tableau row or error
        // uses at most 7), with and without a base.
        let lens: Vec<usize> = (1..=70).chain([1024, 2048]).collect();
        for n in lens {
            let base = special_values(n, 11);
            let ks: Vec<Vec<f32>> = (0..MAX_TERMS as u64)
                .map(|j| special_values(n, 20 + j))
                .collect();
            for m in 0..=MAX_TERMS {
                let terms: Vec<Term<'_>> = COEFFS
                    .iter()
                    .zip(&ks[..m])
                    .map(|(&c, k)| (c, &k[..]))
                    .collect();
                check(n, Some(&base), &terms, &format!("n={n} terms={m} base"));
                check(n, None, &terms, &format!("n={n} terms={m} no base"));
            }
        }
    }

    #[test]
    fn non_finite_operands_match_and_are_reported() {
        // ±inf and NaN in the base and in each term, at every offset
        // within a 16-wide block and in the tail, propagate as the chain
        // does and clear the finiteness flag; an overflow to inf clears it
        // too.
        let n = 37;
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for pos in 0..n {
                for site in 0..4 {
                    let mut base = special_values(n, 3);
                    let mut ks: Vec<Vec<f32>> = (0..3).map(|j| special_values(n, 5 + j)).collect();
                    match site {
                        0 => base[pos] = bad,
                        s => ks[s - 1][pos] = bad,
                    }
                    let terms: Vec<Term<'_>> =
                        COEFFS.iter().zip(&ks).map(|(&c, k)| (c, &k[..])).collect();
                    let case = format!("{bad} at {pos} in operand {site}");
                    check(n, Some(&base), &terms, &case);
                    check(n, None, &terms, &case);
                }
            }
        }
        let big = vec![f32::MAX; n];
        check(n, Some(&big), &[(2.0, &big)], "overflow");
    }

    #[test]
    fn no_base_form_keeps_the_sign_of_a_negative_zero_product() {
        // k_0·c_0 = −0.0 stays −0.0; a chain started at +0.0 would add to
        // +0.0. A zero coefficient's term is the caller's to skip; one that
        // is passed still adds its product (here +0.0 to −0.0 gives +0.0).
        let k = vec![0.0, -0.0, 1.0, -1.0];
        let mut out = vec![f32::NAN; 4];
        assert!(lincomb(&mut out, None, &[(-0.0, &k)]));
        assert_eq!(
            canonical_bits(&out),
            canonical_bits(&[-0.0, 0.0, -0.0, 0.0])
        );
        let terms = [(-1.0, &k[..]), (0.0, &k[..])];
        assert!(lincomb(&mut out, None, &terms));
        assert_eq!(canonical_bits(&out), canonical_bits(&[0.0, 0.0, -1.0, 1.0]));
        check(4, None, &terms, "zero coefficient passed");
    }

    #[test]
    #[should_panic(expected = "term length mismatch")]
    fn term_lengths_are_checked() {
        let mut out = vec![0.0; 3];
        lincomb(&mut out, None, &[(1.0, &[1.0, 2.0][..])]);
    }

    #[test]
    #[should_panic(expected = "at most 8 terms")]
    fn term_count_is_checked() {
        let k = vec![1.0; 2];
        let terms = [(1.0, &k[..]); MAX_TERMS + 1];
        lincomb(&mut [0.0; 2], Some(&k), &terms);
    }
}
