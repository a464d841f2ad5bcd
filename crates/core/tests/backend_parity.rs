//! Backend parity harness: every cell kind × shape × kernel backend must
//! honour the documented error-bound policy of DESIGN.md §11:
//!
//! * **SIMD forward = scalar forward, bit for bit.** The AVX2/NEON GEMM
//!   (`NN`) and `gemm_tn` replicate the scalar per-element accumulation
//!   order, elementwise kernels are lane-wise `mul_add`s, and
//!   transcendentals are scalar in every backend — so forward passes
//!   carry no tolerance at all.
//! * **SIMD backward within a k-scaled ULP bound.** Backward passes use
//!   `gemm_nt`, whose horizontal reductions reassociate the k-loop; the
//!   divergence is bounded by a few ULPs per accumulated term.
//! * **Training is exact under every backend.** The loss and all backward
//!   kernels stay on the scalar oracle, so a SIMD-configured executor
//!   trains bit-identically to the sequential reference.
//! * **Workspace reuse is backend-agnostic.** One [`Workspace`] serving
//!   interleaved shapes *and* interleaved backends never changes scalar
//!   results.
//!
//! Backends only specialize `f32`; `f64` always takes the scalar
//! reference path, so everything here runs on `f32` models.

use bpar_core::cell::{CellCache, CellKind, CellParams, CellState, StateGrad};
use bpar_core::exec::{Executor, SequentialExec, TaskGraphExec};
use bpar_core::merge::MergeMode;
use bpar_core::model::{Brnn, BrnnConfig, ModelKind};
use bpar_runtime::SchedulerPolicy;
use bpar_tensor::{init, Backend, BackendKind, Matrix, Workspace};
use proptest::prelude::*;

fn assert_bits(a: &Matrix<f32>, b: &Matrix<f32>, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch");
    }
}

/// Tolerance comparison for `gemm_nt`-tainted values: the horizontal
/// reduction reassociates a k-term sum, so the bound scales with k and
/// the value magnitude.
fn assert_ulps(a: &Matrix<f32>, b: &Matrix<f32>, k: usize, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        let tol = 64.0 * k as f32 * f32::EPSILON * (1.0 + x.abs().max(y.abs()));
        assert!(
            (x - y).abs() <= tol,
            "{what}: |{x} - {y}| > {tol} (k = {k})"
        );
    }
}

fn cell_kinds() -> impl Strategy<Value = CellKind> {
    prop_oneof![
        Just(CellKind::Lstm),
        Just(CellKind::Gru),
        Just(CellKind::Vanilla)
    ]
}

/// A realistic non-zero state: one scalar forward step from zeros.
fn warm_state(
    p: &CellParams<f32>,
    kind: CellKind,
    batch: usize,
    input: usize,
    hidden: usize,
    seed: u64,
) -> CellState<f32> {
    let x = init::uniform(batch, input, -1.0, 1.0, seed);
    let zero = CellState::zeros(kind, batch, hidden);
    let (st, _) = forward_with(
        p,
        kind,
        &x,
        &zero,
        hidden,
        &mut Workspace::new(),
        Backend::scalar(),
    );
    st
}

/// Runs one forward pass under `be` into fresh buffers.
fn forward_with(
    p: &CellParams<f32>,
    kind: CellKind,
    x: &Matrix<f32>,
    prev: &CellState<f32>,
    hidden: usize,
    ws: &mut Workspace<f32>,
    be: Backend,
) -> (CellState<f32>, CellCache<f32>) {
    let mut st = CellState::zeros(kind, x.rows(), hidden);
    let mut cache = CellCache::zeros(kind, x.rows(), x.cols(), hidden);
    p.forward_ws(x, prev, &mut st, &mut cache, ws, be);
    (st, cache)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SIMD cell forward is bit-identical to the scalar oracle for every
    /// cell kind and shape — including j-tail shapes narrower than one
    /// vector register and k spans crossing the KC blocking boundary.
    #[test]
    fn simd_forward_is_bit_identical(
        kind in cell_kinds(),
        batch in 1usize..6, input in 1usize..12, hidden in 1usize..12,
        seed in 0u64..1000,
    ) {
        let p = CellParams::<f32>::init(kind, input, hidden, seed);
        let prev = warm_state(&p, kind, batch, input, hidden, seed + 1);
        let x = init::uniform(batch, input, -1.0, 1.0, seed + 2);
        let mut ws_s = Workspace::new();
        let mut ws_v = Workspace::new();

        let (st_ref, _) = forward_with(&p, kind, &x, &prev, hidden, &mut ws_s, Backend::scalar());
        let (st_simd, _) = forward_with(&p, kind, &x, &prev, hidden, &mut ws_v, Backend::simd());
        assert_bits(&st_ref.h, &st_simd.h, "h");
        if let (Some(a), Some(b)) = (&st_ref.c, &st_simd.c) {
            assert_bits(a, b, "c");
        }
    }

    /// SIMD cell backward stays within the documented k-scaled ULP bound
    /// of the scalar oracle (`gemm_nt`'s horizontal reduction is the only
    /// reassociating kernel on this path). Both backward passes read the
    /// *same* scalar forward cache, isolating the backward kernels.
    #[test]
    fn simd_backward_within_ulp_bound(
        kind in cell_kinds(),
        batch in 1usize..5, input in 1usize..10, hidden in 1usize..10,
        seed in 0u64..1000,
    ) {
        let p = CellParams::<f32>::init(kind, input, hidden, seed);
        let prev = warm_state(&p, kind, batch, input, hidden, seed + 1);
        let x = init::uniform(batch, input, -1.0, 1.0, seed + 2);
        let mut ws = Workspace::new();
        let (_, cache) = forward_with(&p, kind, &x, &prev, hidden, &mut ws, Backend::scalar());
        let dh = init::uniform(batch, hidden, -1.0, 1.0, seed + 3);

        let run = |be: Backend| {
            let mut grads = p.zeros_like();
            let mut dx = Matrix::zeros(batch, input);
            let mut dprev = StateGrad::zeros(kind, batch, hidden);
            let mut ws = Workspace::new();
            p.backward_ws(&cache, &dh, None, &mut grads, &mut dx, &mut dprev, &mut ws, be);
            (grads, dx, dprev)
        };
        let (g_ref, dx_ref, dp_ref) = run(Backend::scalar());
        let (g_simd, dx_simd, dp_simd) = run(Backend::simd());

        // 4*hidden is the widest gate-gemm k among the cell kinds.
        let k = (input + hidden).max(4 * hidden);
        assert_ulps(&dx_ref, &dx_simd, k, "dx");
        assert_ulps(&dp_ref.dh, &dp_simd.dh, k, "dprev.dh");
        if let (Some(a), Some(b)) = (&dp_ref.dc, &dp_simd.dc) {
            assert_ulps(a, b, k, "dprev.dc");
        }
        // `for_each_param` pairs each reference gradient with its SIMD
        // counterpart (tolerance: GRU second-stage gradients sit
        // downstream of a gemm_nt result).
        let mut g_ref = g_ref;
        g_ref.for_each_param(&g_simd, &mut |a, b| assert_ulps(a, b, k, "param grads"));
    }

    /// One workspace reused across interleaved shapes AND backends leaves
    /// scalar results bit-identical: pooled buffers carry no cross-call
    /// state.
    #[test]
    fn workspace_reuse_across_backends_is_inert(
        kind in cell_kinds(),
        b1 in 1usize..5, i1 in 1usize..8, h1 in 1usize..8,
        b2 in 1usize..5, i2 in 1usize..8, h2 in 1usize..8,
        seed in 0u64..1000,
    ) {
        let mut shared = Workspace::new();
        for (round, (batch, input, hidden)) in
            [(b1, i1, h1), (b2, i2, h2), (b1, i1, h1)].into_iter().enumerate()
        {
            let s = seed + 10 * round as u64;
            let p = CellParams::<f32>::init(kind, input, hidden, s);
            let prev = warm_state(&p, kind, batch, input, hidden, s + 1);
            let x = init::uniform(batch, input, -1.0, 1.0, s + 2);

            // Pollute the shared pool with the SIMD backend's scratch.
            forward_with(&p, kind, &x, &prev, hidden, &mut shared, Backend::simd());

            let (st_shared, _) =
                forward_with(&p, kind, &x, &prev, hidden, &mut shared, Backend::scalar());
            let (st_fresh, _) = forward_with(
                &p, kind, &x, &prev, hidden, &mut Workspace::new(), Backend::scalar(),
            );
            assert_bits(&st_fresh.h, &st_shared.h, "pooled h");
            if let (Some(a), Some(b)) = (&st_fresh.c, &st_shared.c) {
                assert_bits(a, b, "pooled c");
            }
        }
    }
}

proptest! {
    // Whole-model cases build task graphs and thread pools; keep the case
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End to end: a SIMD-backend task-graph executor produces logits
    /// bit-identical to the sequential scalar reference — the forward
    /// path contains no reassociating kernel, so the SIMD backend carries
    /// the full bit-exactness guarantee, warm and cold.
    #[test]
    fn simd_executor_matches_sequential_bitwise(
        kind in cell_kinds(),
        many_to_many in any::<bool>(),
        rows in 1usize..4, seq in 1usize..4,
        seed in 0u64..1000,
    ) {
        let cfg = BrnnConfig {
            cell: kind,
            input_size: 3,
            hidden_size: 4,
            layers: 2,
            seq_len: seq,
            output_size: 3,
            merge: MergeMode::Concat,
            kind: if many_to_many { ModelKind::ManyToMany } else { ModelKind::ManyToOne },
        };
        let model = Brnn::<f32>::new(cfg, seed);
        let xs: Vec<Matrix<f32>> = (0..seq)
            .map(|t| init::uniform(rows, cfg.input_size, -1.0, 1.0, seed + t as u64))
            .collect();
        let exec =
            TaskGraphExec::with_backend(2, SchedulerPolicy::LocalityAware, 1, BackendKind::Simd);
        let reference = SequentialExec.forward(&model, &xs);
        for _pass in 0..2 {
            let got = exec.forward(&model, &xs);
            assert_bits(&reference.logits, &got.logits, "logits");
            for (a, b) in reference.seq_logits.iter().zip(&got.seq_logits) {
                assert_bits(a, b, "seq logits");
            }
        }
    }
}

/// End to end: training through a SIMD-configured executor — forward
/// cells, merges and classifier on SIMD, loss and backward on the scalar
/// oracle — matches the sequential reference bit for bit over two SGD
/// steps: the loss and every parameter.
#[test]
fn simd_training_matches_sequential_bitwise() {
    use bpar_core::exec::Target;
    use bpar_core::optim::Sgd;

    for (cell, kind) in [
        (CellKind::Lstm, ModelKind::ManyToOne),
        (CellKind::Gru, ModelKind::ManyToMany),
        (CellKind::Vanilla, ModelKind::ManyToOne),
    ] {
        let cfg = BrnnConfig {
            cell,
            input_size: 3,
            hidden_size: 4,
            layers: 2,
            seq_len: 3,
            output_size: 3,
            merge: MergeMode::Concat,
            kind,
        };
        let model = Brnn::<f32>::new(cfg, 5);
        let xs: Vec<Matrix<f32>> = (0..cfg.seq_len)
            .map(|t| init::uniform(2, cfg.input_size, -1.0, 1.0, 60 + t as u64))
            .collect();
        let target = match kind {
            ModelKind::ManyToOne => Target::Classes(vec![0, 2]),
            ModelKind::ManyToMany => Target::SeqClasses(vec![vec![1, 0]; cfg.seq_len]),
        };
        let exec =
            TaskGraphExec::with_backend(2, SchedulerPolicy::LocalityAware, 1, BackendKind::Simd);

        let mut m_seq = model.clone();
        let mut m_simd = model.clone();
        for _ in 0..2 {
            let l_seq = SequentialExec.train_batch(&mut m_seq, &xs, &target, &mut Sgd::new(0.05));
            let l_simd = exec.train_batch(&mut m_simd, &xs, &target, &mut Sgd::new(0.05));
            assert_eq!(l_seq.to_bits(), l_simd.to_bits(), "{cell:?} loss bits");
        }
        assert_bits(&m_seq.dense.w, &m_simd.dense.w, "post-step dense w");
        assert_bits(&m_seq.dense.b, &m_simd.dense.b, "post-step dense b");
        for (a, b) in m_seq.layers.iter_mut().zip(&m_simd.layers) {
            a.fwd
                .for_each_param(&b.fwd, &mut |x, y| assert_bits(x, y, "fwd params"));
            a.rev
                .for_each_param(&b.rev, &mut |x, y| assert_bits(x, y, "rev params"));
        }
    }
}
