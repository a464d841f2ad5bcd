//! Runtime-detected vector backend (`std::arch`).
//!
//! * **x86-64**: AVX2+FMA kernels, selected once per process via
//!   `is_x86_feature_detected!`; when either feature is missing every call
//!   falls back to the scalar reference kernels.
//! * **aarch64**: NEON kernels for the forward GEMM and the element-wise
//!   ops (NEON is baseline on aarch64, no detection needed); the transpose
//!   GEMM variants use the scalar reference kernels.
//! * **anything else**: scalar reference kernels ([`SimdBackend`] is then
//!   indistinguishable from [`super::ScalarBackend`]).
//!
//! Bit-identity contract (see the module docs of [`super`]): `gemm` and
//! `gemm_tn` broadcast `alpha · a[i,p]` into the lanes, FMA in ascending
//! `p`, and flush the register accumulator into `C` once per `KC` block —
//! the exact per-element operation sequence of the scalar micro-kernels —
//! so a full-width AVX2/NEON lane computes bit-identical IEEE-754 results.
//! Partial tiles reuse the scalar micro-kernels verbatim. `gemm_nt`
//! reduces dot products *across* lanes, which re-associates the sum, so it
//! is tolerance-bounded instead (`~k·ε` relative), and stays off the
//! bit-exact list.

use super::{BackendKind, KernelBackend};
use crate::gemm::{gemm_accum, gemm_nt_accum, gemm_tn_accum};
use crate::ops;

/// Vector kernels behind runtime feature detection, scalar fallback.
#[derive(Debug)]
pub struct SimdBackend;

impl SimdBackend {
    /// True when this build/host combination actually runs vector kernels.
    pub fn detected() -> bool {
        #[cfg(target_arch = "x86_64")]
        return x86::detect();
        #[cfg(target_arch = "aarch64")]
        return true;
        #[allow(unreachable_code)]
        false
    }
}

#[allow(unreachable_code)]
impl KernelBackend for SimdBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }

    fn simd_active(&self) -> bool {
        SimdBackend::detected()
    }

    fn gemm_f32(
        &self,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        #[cfg(target_arch = "x86_64")]
        if x86::detect() {
            // SAFETY: detect() proved AVX2+FMA are available.
            unsafe { x86::gemm(alpha, a, b, c, m, k, n) };
            return;
        }
        #[cfg(target_arch = "aarch64")]
        {
            // SAFETY: NEON is baseline on aarch64.
            unsafe { neon::gemm(alpha, a, b, c, m, k, n) };
            return;
        }
        gemm_accum(alpha, a, b, c, m, k, n);
    }

    fn gemm_nt_f32(
        &self,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        #[cfg(target_arch = "x86_64")]
        if x86::detect() {
            // SAFETY: detect() proved AVX2+FMA are available.
            unsafe { x86::gemm_nt(alpha, a, b, c, m, k, n) };
            return;
        }
        gemm_nt_accum(alpha, a, b, c, m, k, n);
    }

    fn gemm_tn_f32(
        &self,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        #[cfg(target_arch = "x86_64")]
        if x86::detect() {
            // SAFETY: detect() proved AVX2+FMA are available.
            unsafe { x86::gemm_tn(alpha, a, b, c, m, k, n) };
            return;
        }
        gemm_tn_accum(alpha, a, b, c, m, k, n);
    }

    fn axpy_f32(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if x86::detect() {
            // SAFETY: detect() proved AVX2+FMA are available.
            unsafe { x86::axpy(alpha, x, y) };
            return;
        }
        #[cfg(target_arch = "aarch64")]
        {
            // SAFETY: NEON is baseline on aarch64.
            unsafe { neon::axpy(alpha, x, y) };
            return;
        }
        ops::axpy_slice(alpha, x, y);
    }

    fn hadamard_f32(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if x86::detect() {
            // SAFETY: detect() proved AVX2+FMA are available.
            unsafe { x86::binary::<0>(a, b, out) };
            return;
        }
        #[cfg(target_arch = "aarch64")]
        {
            // SAFETY: NEON is baseline on aarch64.
            unsafe { neon::binary::<0>(a, b, out) };
            return;
        }
        ops::hadamard_slice(a, b, out);
    }

    fn hadamard_add_f32(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if x86::detect() {
            // SAFETY: detect() proved AVX2+FMA are available.
            unsafe { x86::hadamard_add(a, b, out) };
            return;
        }
        #[cfg(target_arch = "aarch64")]
        {
            // SAFETY: NEON is baseline on aarch64.
            unsafe { neon::hadamard_add(a, b, out) };
            return;
        }
        ops::hadamard_add_slice(a, b, out);
    }

    fn add_f32(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if x86::detect() {
            // SAFETY: detect() proved AVX2+FMA are available.
            unsafe { x86::binary::<1>(a, b, out) };
            return;
        }
        #[cfg(target_arch = "aarch64")]
        {
            // SAFETY: NEON is baseline on aarch64.
            unsafe { neon::binary::<1>(a, b, out) };
            return;
        }
        ops::add_slice(a, b, out);
    }

    fn sub_f32(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if x86::detect() {
            // SAFETY: detect() proved AVX2+FMA are available.
            unsafe { x86::binary::<2>(a, b, out) };
            return;
        }
        #[cfg(target_arch = "aarch64")]
        {
            // SAFETY: NEON is baseline on aarch64.
            unsafe { neon::binary::<2>(a, b, out) };
            return;
        }
        ops::sub_slice(a, b, out);
    }

    fn scale_f32(&self, alpha: f32, m: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if x86::detect() {
            // SAFETY: detect() proved AVX2+FMA are available.
            unsafe { x86::scale(alpha, m) };
            return;
        }
        #[cfg(target_arch = "aarch64")]
        {
            // SAFETY: NEON is baseline on aarch64.
            unsafe { neon::scale(alpha, m) };
            return;
        }
        ops::scale_slice(alpha, m);
    }

    fn add_bias_f32(&self, m: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
        #[cfg(target_arch = "x86_64")]
        if x86::detect() {
            // SAFETY: detect() proved AVX2+FMA are available.
            unsafe { x86::add_bias(m, rows, cols, bias) };
            return;
        }
        #[cfg(target_arch = "aarch64")]
        {
            // SAFETY: NEON is baseline on aarch64.
            unsafe { neon::add_bias(m, rows, cols, bias) };
            return;
        }
        ops::add_bias_slice(m, rows, cols, bias);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::gemm::{micro_kernel, micro_kernel_t, KC, MC, MR, NR};
    use std::arch::x86_64::*;

    #[inline]
    pub(super) fn detect() -> bool {
        // is_x86_feature_detected! caches its own CPUID result.
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    /// `C += alpha * A * B`, bit-identical to `gemm_accum`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm(
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for kk in (0..k).step_by(KC) {
            let kend = (kk + KC).min(k);
            for mm in (0..m).step_by(MC) {
                let mend = (mm + MC).min(m);
                for i0 in (mm..mend).step_by(MR) {
                    let ilim = (i0 + MR).min(mend);
                    let mut j0 = 0;
                    while j0 + NR <= n {
                        // SAFETY: the tile [i0, ilim) × [j0, j0+NR) and
                        // the k-panel [kk, kend) are in bounds for the
                        // m×k / k×n / m×n slices by loop construction.
                        unsafe { mk_n(alpha, a, b, c, i0, ilim, j0, kk, kend, k, n) };
                        j0 += NR;
                    }
                    if j0 < n {
                        // Partial tile: the scalar micro-kernel, verbatim.
                        micro_kernel(alpha, a, k, b, c, i0, ilim, j0, n, kk, kend, n);
                    }
                }
            }
        }
    }

    /// `C += alpha * Aᵀ * B` (`A: k×m`), bit-identical to `gemm_tn_accum`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm_tn(
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for kk in (0..k).step_by(KC) {
            let kend = (kk + KC).min(k);
            for mm in (0..m).step_by(MC) {
                let mend = (mm + MC).min(m);
                for i0 in (mm..mend).step_by(MR) {
                    let ilim = (i0 + MR).min(mend);
                    let mut j0 = 0;
                    while j0 + NR <= n {
                        // SAFETY: same in-bounds argument as `gemm`, with
                        // `A` indexed transposed (k×m).
                        unsafe { mk_t(alpha, a, b, c, i0, ilim, j0, kk, kend, m, n) };
                        j0 += NR;
                    }
                    if j0 < n {
                        micro_kernel_t(alpha, a, m, b, c, i0, ilim, j0, n, kk, kend, n);
                    }
                }
            }
        }
    }

    /// Full-width N-layout register tile: one 8-lane accumulator per row.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn mk_n(
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        i0: usize,
        ilim: usize,
        j0: usize,
        kk: usize,
        kend: usize,
        lda: usize,
        n: usize,
    ) {
        // SAFETY: caller (`gemm`) guarantees AVX2+FMA and that every
        // index below — rows [i0, ilim) of `a`/`c`, the 8-wide column
        // strip at j0, the k-panel [kk, kend) — is inside the slices.
        unsafe {
            let mut acc = [_mm256_setzero_ps(); MR];
            let rows = ilim - i0;
            for p in kk..kend {
                let bv = _mm256_loadu_ps(b.as_ptr().add(p * n + j0));
                for (di, accv) in acc.iter_mut().take(rows).enumerate() {
                    let aval = alpha * *a.get_unchecked((i0 + di) * lda + p);
                    *accv = _mm256_fmadd_ps(_mm256_set1_ps(aval), bv, *accv);
                }
            }
            for (di, accv) in acc.iter().take(rows).enumerate() {
                let cp = c.as_mut_ptr().add((i0 + di) * n + j0);
                _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), *accv));
            }
        }
    }

    /// Full-width T-layout register tile (`A` stored `k×m`).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn mk_t(
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        i0: usize,
        ilim: usize,
        j0: usize,
        kk: usize,
        kend: usize,
        m: usize,
        n: usize,
    ) {
        // SAFETY: caller (`gemm_tn`) guarantees AVX2+FMA and in-bounds
        // tile/panel indices, with `a` indexed transposed (k×m).
        unsafe {
            let mut acc = [_mm256_setzero_ps(); MR];
            let rows = ilim - i0;
            for p in kk..kend {
                let bv = _mm256_loadu_ps(b.as_ptr().add(p * n + j0));
                for (di, accv) in acc.iter_mut().take(rows).enumerate() {
                    let aval = alpha * *a.get_unchecked(p * m + i0 + di);
                    *accv = _mm256_fmadd_ps(_mm256_set1_ps(aval), bv, *accv);
                }
            }
            for (di, accv) in acc.iter().take(rows).enumerate() {
                let cp = c.as_mut_ptr().add((i0 + di) * n + j0);
                _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), *accv));
            }
        }
    }

    /// `C += alpha * A * Bᵀ`: lane-parallel dot products with a horizontal
    /// reduction (tolerance-bounded vs scalar, not bit-identical).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm_nt(
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        // SAFETY: `a` is m×k and `b` is n×k row-major, so `i*k + p` and
        // `j*k + p` stay in bounds for p < kend ≤ k; `i*n + j` indexes
        // the m×n output. AVX2+FMA availability is this fn's contract.
        unsafe {
            for kk in (0..k).step_by(KC) {
                let kend = (kk + KC).min(k);
                for mm in (0..m).step_by(MC) {
                    let mend = (mm + MC).min(m);
                    for i in mm..mend {
                        let ap = a.as_ptr().add(i * k);
                        for j in 0..n {
                            let bp = b.as_ptr().add(j * k);
                            let mut accv = _mm256_setzero_ps();
                            let mut p = kk;
                            while p + 8 <= kend {
                                accv = _mm256_fmadd_ps(
                                    _mm256_loadu_ps(ap.add(p)),
                                    _mm256_loadu_ps(bp.add(p)),
                                    accv,
                                );
                                p += 8;
                            }
                            let mut s = hsum(accv);
                            while p < kend {
                                s = (*ap.add(p)).mul_add(*bp.add(p), s);
                                p += 1;
                            }
                            *c.get_unchecked_mut(i * n + j) += alpha * s;
                        }
                    }
                }
            }
        }
    }

    #[inline(always)]
    unsafe fn hsum(v: __m256) -> f32 {
        // SAFETY: pure register shuffles and adds — no memory access;
        // the caller guarantees AVX2 is available.
        unsafe {
            let hi = _mm256_extractf128_ps(v, 1);
            let lo = _mm256_castps256_ps128(v);
            let s = _mm_add_ps(lo, hi);
            let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
            _mm_cvtss_f32(s)
        }
    }

    /// `y += alpha * x`, lane-wise FMA (bit-identical to the scalar op).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        // SAFETY: every access is below `len = min(x.len(), y.len())`;
        // AVX2+FMA availability is this fn's contract.
        unsafe {
            let len = x.len().min(y.len());
            let av = _mm256_set1_ps(alpha);
            let mut i = 0;
            while i + 8 <= len {
                let yv = _mm256_loadu_ps(y.as_ptr().add(i));
                let xv = _mm256_loadu_ps(x.as_ptr().add(i));
                _mm256_storeu_ps(y.as_mut_ptr().add(i), _mm256_fmadd_ps(av, xv, yv));
                i += 8;
            }
            while i < len {
                *y.get_unchecked_mut(i) = alpha.mul_add(*x.get_unchecked(i), *y.get_unchecked(i));
                i += 1;
            }
        }
    }

    /// `out += a ⊙ b`, lane-wise FMA (bit-identical to the scalar op).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn hadamard_add(a: &[f32], b: &[f32], out: &mut [f32]) {
        // SAFETY: every access is below the min of the three lengths;
        // AVX2+FMA availability is this fn's contract.
        unsafe {
            let len = a.len().min(b.len()).min(out.len());
            let mut i = 0;
            while i + 8 <= len {
                let ov = _mm256_loadu_ps(out.as_ptr().add(i));
                let av = _mm256_loadu_ps(a.as_ptr().add(i));
                let bv = _mm256_loadu_ps(b.as_ptr().add(i));
                _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_fmadd_ps(av, bv, ov));
                i += 8;
            }
            while i < len {
                *out.get_unchecked_mut(i) = a
                    .get_unchecked(i)
                    .mul_add(*b.get_unchecked(i), *out.get_unchecked(i));
                i += 1;
            }
        }
    }

    /// Lane-wise binary op: `OP = 0` mul, `1` add, `2` sub (bit-identical).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn binary<const OP: u8>(a: &[f32], b: &[f32], out: &mut [f32]) {
        // SAFETY: every access is below the min of the three lengths;
        // AVX2 availability is this fn's contract.
        unsafe {
            let len = a.len().min(b.len()).min(out.len());
            let mut i = 0;
            while i + 8 <= len {
                let av = _mm256_loadu_ps(a.as_ptr().add(i));
                let bv = _mm256_loadu_ps(b.as_ptr().add(i));
                let r = match OP {
                    0 => _mm256_mul_ps(av, bv),
                    1 => _mm256_add_ps(av, bv),
                    _ => _mm256_sub_ps(av, bv),
                };
                _mm256_storeu_ps(out.as_mut_ptr().add(i), r);
                i += 8;
            }
            while i < len {
                let (x, y) = (*a.get_unchecked(i), *b.get_unchecked(i));
                *out.get_unchecked_mut(i) = match OP {
                    0 => x * y,
                    1 => x + y,
                    _ => x - y,
                };
                i += 1;
            }
        }
    }

    /// `m *= alpha`, lane-wise (bit-identical).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn scale(alpha: f32, m: &mut [f32]) {
        // SAFETY: every access is below `m.len()`; AVX2 availability is
        // this fn's contract.
        unsafe {
            let av = _mm256_set1_ps(alpha);
            let len = m.len();
            let mut i = 0;
            while i + 8 <= len {
                let v = _mm256_loadu_ps(m.as_ptr().add(i));
                _mm256_storeu_ps(m.as_mut_ptr().add(i), _mm256_mul_ps(v, av));
                i += 8;
            }
            while i < len {
                *m.get_unchecked_mut(i) *= alpha;
                i += 1;
            }
        }
    }

    /// Bias-row broadcast, lane-wise add per row (bit-identical).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn add_bias(m: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
        // SAFETY: the caller guarantees `m.len() >= rows * cols` and
        // `bias.len() >= cols`; every offset stays inside those bounds.
        // AVX2 availability is this fn's contract.
        unsafe {
            for r in 0..rows {
                let row = m.as_mut_ptr().add(r * cols);
                let mut j = 0;
                while j + 8 <= cols {
                    let v = _mm256_loadu_ps(row.add(j) as *const f32);
                    let bv = _mm256_loadu_ps(bias.as_ptr().add(j));
                    _mm256_storeu_ps(row.add(j), _mm256_add_ps(v, bv));
                    j += 8;
                }
                while j < cols {
                    *row.add(j) += *bias.get_unchecked(j);
                    j += 1;
                }
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use crate::gemm::{micro_kernel, KC, MC, MR, NR};
    use std::arch::aarch64::*;

    /// `C += alpha * A * B`, bit-identical to `gemm_accum` (two 4-lane
    /// registers cover the scalar NR=8 tile).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn gemm(
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for kk in (0..k).step_by(KC) {
            let kend = (kk + KC).min(k);
            for mm in (0..m).step_by(MC) {
                let mend = (mm + MC).min(m);
                for i0 in (mm..mend).step_by(MR) {
                    let ilim = (i0 + MR).min(mend);
                    let mut j0 = 0;
                    while j0 + NR <= n {
                        // SAFETY: the tile [i0, ilim) × [j0, j0+NR) and the
                        // k-panel [kk, kend) are in bounds of a/b/c by the
                        // loop limits; NEON availability is this fn's
                        // contract.
                        unsafe { mk_n(alpha, a, b, c, i0, ilim, j0, kk, kend, k, n) };
                        j0 += NR;
                    }
                    if j0 < n {
                        micro_kernel(alpha, a, k, b, c, i0, ilim, j0, n, kk, kend, n);
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn mk_n(
        alpha: f32,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        i0: usize,
        ilim: usize,
        j0: usize,
        kk: usize,
        kend: usize,
        lda: usize,
        n: usize,
    ) {
        // SAFETY: the caller (gemm) guarantees the MR×NR tile at
        // (i0, j0) and the k-panel [kk, kend) are in bounds of a/b/c,
        // and only calls this with NEON available.
        unsafe {
            let mut lo = [vdupq_n_f32(0.0); MR];
            let mut hi = [vdupq_n_f32(0.0); MR];
            let rows = ilim - i0;
            for p in kk..kend {
                let bl = vld1q_f32(b.as_ptr().add(p * n + j0));
                let bh = vld1q_f32(b.as_ptr().add(p * n + j0 + 4));
                for di in 0..rows {
                    let aval = alpha * *a.get_unchecked((i0 + di) * lda + p);
                    let av = vdupq_n_f32(aval);
                    lo[di] = vfmaq_f32(lo[di], av, bl);
                    hi[di] = vfmaq_f32(hi[di], av, bh);
                }
            }
            for di in 0..rows {
                let cp = c.as_mut_ptr().add((i0 + di) * n + j0);
                vst1q_f32(cp, vaddq_f32(vld1q_f32(cp as *const f32), lo[di]));
                vst1q_f32(
                    cp.add(4),
                    vaddq_f32(vld1q_f32(cp.add(4) as *const f32), hi[di]),
                );
            }
        }
    }

    /// `y += alpha * x`, lane-wise FMA (bit-identical).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        // SAFETY: every access is below the min of the two lengths;
        // NEON availability is this fn's contract.
        unsafe {
            let len = x.len().min(y.len());
            let av = vdupq_n_f32(alpha);
            let mut i = 0;
            while i + 4 <= len {
                let yv = vld1q_f32(y.as_ptr().add(i));
                let xv = vld1q_f32(x.as_ptr().add(i));
                vst1q_f32(y.as_mut_ptr().add(i), vfmaq_f32(yv, av, xv));
                i += 4;
            }
            while i < len {
                *y.get_unchecked_mut(i) = alpha.mul_add(*x.get_unchecked(i), *y.get_unchecked(i));
                i += 1;
            }
        }
    }

    /// `out += a ⊙ b`, lane-wise FMA (bit-identical).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn hadamard_add(a: &[f32], b: &[f32], out: &mut [f32]) {
        // SAFETY: every access is below the min of the three lengths;
        // NEON availability is this fn's contract.
        unsafe {
            let len = a.len().min(b.len()).min(out.len());
            let mut i = 0;
            while i + 4 <= len {
                let ov = vld1q_f32(out.as_ptr().add(i));
                let av = vld1q_f32(a.as_ptr().add(i));
                let bv = vld1q_f32(b.as_ptr().add(i));
                vst1q_f32(out.as_mut_ptr().add(i), vfmaq_f32(ov, av, bv));
                i += 4;
            }
            while i < len {
                *out.get_unchecked_mut(i) = a
                    .get_unchecked(i)
                    .mul_add(*b.get_unchecked(i), *out.get_unchecked(i));
                i += 1;
            }
        }
    }

    /// Lane-wise binary op: `OP = 0` mul, `1` add, `2` sub (bit-identical).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn binary<const OP: u8>(a: &[f32], b: &[f32], out: &mut [f32]) {
        // SAFETY: every access is below the min of the three lengths;
        // NEON availability is this fn's contract.
        unsafe {
            let len = a.len().min(b.len()).min(out.len());
            let mut i = 0;
            while i + 4 <= len {
                let av = vld1q_f32(a.as_ptr().add(i));
                let bv = vld1q_f32(b.as_ptr().add(i));
                let r = match OP {
                    0 => vmulq_f32(av, bv),
                    1 => vaddq_f32(av, bv),
                    _ => vsubq_f32(av, bv),
                };
                vst1q_f32(out.as_mut_ptr().add(i), r);
                i += 4;
            }
            while i < len {
                let (x, y) = (*a.get_unchecked(i), *b.get_unchecked(i));
                *out.get_unchecked_mut(i) = match OP {
                    0 => x * y,
                    1 => x + y,
                    _ => x - y,
                };
                i += 1;
            }
        }
    }

    /// `m *= alpha`, lane-wise (bit-identical).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn scale(alpha: f32, m: &mut [f32]) {
        // SAFETY: every access is below `m.len()`; NEON availability is
        // this fn's contract.
        unsafe {
            let av = vdupq_n_f32(alpha);
            let len = m.len();
            let mut i = 0;
            while i + 4 <= len {
                let v = vld1q_f32(m.as_ptr().add(i));
                vst1q_f32(m.as_mut_ptr().add(i), vmulq_f32(v, av));
                i += 4;
            }
            while i < len {
                *m.get_unchecked_mut(i) *= alpha;
                i += 1;
            }
        }
    }

    /// Bias-row broadcast, lane-wise add per row (bit-identical).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn add_bias(m: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
        // SAFETY: the caller guarantees `m.len() >= rows * cols` and
        // `bias.len() >= cols`; every offset stays inside those bounds.
        // NEON availability is this fn's contract.
        unsafe {
            for r in 0..rows {
                let row = m.as_mut_ptr().add(r * cols);
                let mut j = 0;
                while j + 4 <= cols {
                    let v = vld1q_f32(row.add(j) as *const f32);
                    let bv = vld1q_f32(bias.as_ptr().add(j));
                    vst1q_f32(row.add(j), vaddq_f32(v, bv));
                    j += 4;
                }
                while j < cols {
                    *row.add(j) += *bias.get_unchecked(j);
                    j += 1;
                }
            }
        }
    }
}
