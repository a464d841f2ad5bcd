//! The scalar reference backend.
//!
//! Every method forwards to the exact slice-level kernels the free
//! functions in [`crate::gemm`] and [`crate::ops`] use, so dispatching
//! through [`super::Backend::scalar`] is bit-identical to calling those
//! functions directly. This backend is the oracle the SIMD backend is
//! property-tested against.

use super::{BackendKind, KernelBackend};
use crate::gemm::{gemm_accum, gemm_nt_accum, gemm_tn_accum};
use crate::ops;

/// Reference kernels; always available, always the parity oracle.
#[derive(Debug)]
pub struct ScalarBackend;

impl KernelBackend for ScalarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
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
        gemm_tn_accum(alpha, a, b, c, m, k, n);
    }

    fn axpy_f32(&self, alpha: f32, x: &[f32], y: &mut [f32]) {
        ops::axpy_slice(alpha, x, y);
    }

    fn hadamard_f32(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        ops::hadamard_slice(a, b, out);
    }

    fn hadamard_add_f32(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        ops::hadamard_add_slice(a, b, out);
    }

    fn add_f32(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        ops::add_slice(a, b, out);
    }

    fn sub_f32(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        ops::sub_slice(a, b, out);
    }

    fn scale_f32(&self, alpha: f32, m: &mut [f32]) {
        ops::scale_slice(alpha, m);
    }

    fn add_bias_f32(&self, m: &mut [f32], rows: usize, cols: usize, bias: &[f32]) {
        ops::add_bias_slice(m, rows, cols, bias);
    }
}
