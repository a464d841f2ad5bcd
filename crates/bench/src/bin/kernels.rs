//! Kernel-backend throughput: GFLOP/s of the three GEMM variants at RNN
//! task shapes, per [`Backend`] (scalar reference and runtime-detected
//! SIMD).
//!
//! The shapes are the fused LSTM gate products `(batch × (input+hidden)) ·
//! ((input+hidden) × 4·hidden)` at the model scales of Tables III/IV, plus
//! an `m = 1` serving shape where the GEMM degenerates to a matrix-vector
//! product.
//!
//! When the SIMD backend is actually vectorized on this machine
//! (`Backend::simd().simd_active()`), the binary *asserts* a ≥ 2× geomean
//! speed-up over scalar on the forward-path `NN` GEMM — this is the CI
//! gate that keeps the SIMD path from silently rotting into a scalar
//! fallback. On machines without AVX2/NEON the gate is skipped (the
//! backend *is* the scalar fallback there, by design).
//!
//! Usage:
//!   cargo run --release -p bpar-bench --bin kernels
//!   (expects `RUSTFLAGS=-Ctarget-feature=+avx2,+fma` or a native target
//!    for the SIMD rows to be meaningful)

use bpar_bench::{print_table, write_json};
use bpar_tensor::{init, Backend, BackendKind, Matrix};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 17;
const WARMUP: usize = 2;
/// Minimum FLOPs per timed sample; iteration counts are derived from the
/// shape so small shapes don't drown in timer noise.
const TARGET_FLOPS: f64 = 2e8;
/// The in-binary CI gate: SIMD must beat scalar by this factor (geomean
/// over shapes, forward `NN` GEMM) wherever SIMD is genuinely active.
const SIMD_GATE: f64 = 2.0;

/// `(batch, input + hidden, 4 * hidden)` LSTM gate-GEMM shapes.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 320, 512),
    (16, 96, 128),
    (32, 320, 512),
    (64, 512, 1024),
];

#[derive(Serialize)]
struct KernelRow {
    op: &'static str,
    backend: &'static str,
    m: usize,
    k: usize,
    n: usize,
    iters: usize,
    gflops: f64,
    /// This row's speed-up over the scalar backend at the same (op, shape).
    vs_scalar: f64,
}

#[derive(Serialize)]
struct KernelsReport {
    seed: u64,
    simd_active: bool,
    simd_gate: f64,
    /// Geomean SIMD/scalar speed-up on the forward-path NN GEMM.
    simd_nn_geomean: f64,
    config: String,
    rows: Vec<KernelRow>,
}

/// Times `f` over a derived iteration count and returns (GFLOP/s, iters).
fn time_gflops(flops_per_iter: f64, mut f: impl FnMut()) -> (f64, usize) {
    let iters = ((TARGET_FLOPS / flops_per_iter).ceil() as usize).clamp(3, 10_000);
    for _ in 0..WARMUP {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let secs = start.elapsed().as_secs_f64();
    (flops_per_iter * iters as f64 / secs / 1e9, iters)
}

fn main() {
    let simd_active = Backend::simd().simd_active();
    println!("kernel backends: simd_active = {simd_active} (scalar fallback otherwise)");

    let mut rows: Vec<KernelRow> = Vec::new();
    let mut table = Vec::new();
    for &(m, k, n) in SHAPES {
        let a: Matrix<f32> = init::uniform(m, k, -1.0, 1.0, SEED);
        let b: Matrix<f32> = init::uniform(k, n, -1.0, 1.0, SEED + 1);
        let bt: Matrix<f32> = init::uniform(n, k, -1.0, 1.0, SEED + 2);
        let at: Matrix<f32> = init::uniform(k, m, -1.0, 1.0, SEED + 3);
        let mut c: Matrix<f32> = Matrix::zeros(m, n);
        let flops = 2.0 * m as f64 * k as f64 * n as f64;

        for kind in BackendKind::all() {
            let be = Backend::of(kind);
            for op in ["gemm_nn", "gemm_nt", "gemm_tn"] {
                let (gflops, iters) = match op {
                    "gemm_nn" => time_gflops(flops, || {
                        be.gemm(1.0f32, black_box(&a), black_box(&b), 0.0, &mut c);
                        black_box(c.get(0, 0));
                    }),
                    "gemm_nt" => time_gflops(flops, || {
                        be.gemm_nt(1.0f32, black_box(&a), black_box(&bt), 0.0, &mut c);
                        black_box(c.get(0, 0));
                    }),
                    _ => time_gflops(flops, || {
                        be.gemm_tn(1.0f32, black_box(&at), black_box(&b), 0.0, &mut c);
                        black_box(c.get(0, 0));
                    }),
                };
                let vs_scalar = rows
                    .iter()
                    .find(|r| {
                        r.op == op
                            && r.backend == BackendKind::Scalar.as_str()
                            && (r.m, r.k, r.n) == (m, k, n)
                    })
                    .map_or(1.0, |r| gflops / r.gflops);
                table.push(vec![
                    op.to_string(),
                    kind.as_str().to_string(),
                    format!("{m}x{k}x{n}"),
                    iters.to_string(),
                    format!("{gflops:.2}"),
                    format!("{vs_scalar:.2}x"),
                ]);
                rows.push(KernelRow {
                    op,
                    backend: kind.as_str(),
                    m,
                    k,
                    n,
                    iters,
                    gflops,
                    vs_scalar,
                });
            }
        }
    }

    print_table(
        "kernel backends: GFLOP/s per backend and GEMM shape",
        &["op", "backend", "shape", "iters", "GFLOP/s", "vs_scalar"],
        &table,
    );

    let nn_speedups: Vec<f64> = rows
        .iter()
        .filter(|r| r.op == "gemm_nn" && r.backend == BackendKind::Simd.as_str())
        .map(|r| r.vs_scalar)
        .collect();
    let geomean =
        (nn_speedups.iter().map(|s| s.ln()).sum::<f64>() / nn_speedups.len().max(1) as f64).exp();
    println!(
        "\nSIMD vs scalar, forward NN GEMM geomean: {geomean:.2}x \
         (gate: >= {SIMD_GATE}x when SIMD is active)"
    );
    if simd_active {
        assert!(
            geomean >= SIMD_GATE,
            "SIMD backend is active but its NN GEMM geomean speed-up \
             ({geomean:.2}x) is below the {SIMD_GATE}x gate — the \
             vectorized path has regressed"
        );
    } else {
        println!("(SIMD inactive on this machine; gate skipped)");
    }

    let canonical = format!(
        "shapes={},warmup={WARMUP},target_flops={TARGET_FLOPS:.0},gate={SIMD_GATE},simd={simd_active}",
        SHAPES
            .iter()
            .map(|&(m, k, n)| format!("{m}x{k}x{n}"))
            .collect::<Vec<_>>()
            .join("+"),
    );
    let report = KernelsReport {
        seed: SEED,
        simd_active,
        simd_gate: SIMD_GATE,
        simd_nn_geomean: geomean,
        config: canonical.clone(),
        rows,
    };
    write_json(
        &bpar_serve::metrics::report_name("kernels", SEED, &canonical),
        &report,
    );
}
