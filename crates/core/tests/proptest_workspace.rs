//! Property tests for the in-place kernel API: every `_ws` / `_into`
//! kernel must be **bit-identical** whether it writes into freshly
//! allocated buffers with a fresh [`Workspace`] — the reference form
//! `SequentialExec` uses (the "legacy" side below: what the allocating
//! wrappers that used to exist computed) — or into buffers still holding
//! stale values, drawing scratch from one [`Workspace`] reused across
//! interleaved shapes, which is exactly how the compiled task graph uses
//! them (each task keeps its slot buffers and a private workspace across
//! replays of *different* cached plans). Covered across cell kinds ×
//! shapes × merge modes × train/inference.
//!
//! "Close enough" is not the bar: the executor equivalence guarantees of
//! this repo are stated as exact bit equality with `SequentialExec`, so
//! the building blocks are held to the same standard via `to_bits`.

use bpar_core::cell::{CellCache, CellKind, CellParams, CellState, StateGrad};
use bpar_core::dense::DenseParams;
use bpar_core::exec::{Executor, SequentialExec, Target, TaskGraphExec};
use bpar_core::loss::{softmax_cross_entropy, softmax_cross_entropy_into};
use bpar_core::merge::MergeMode;
use bpar_core::model::{Brnn, BrnnConfig, ModelKind};
use bpar_core::optim::Sgd;
use bpar_tensor::{init, Backend, Matrix, Workspace};
use proptest::prelude::*;

fn assert_bits(a: &Matrix<f64>, b: &Matrix<f64>, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch");
    }
}

fn cell_kinds() -> impl Strategy<Value = CellKind> {
    prop_oneof![
        Just(CellKind::Lstm),
        Just(CellKind::Gru),
        Just(CellKind::Vanilla)
    ]
}

fn merge_modes() -> impl Strategy<Value = MergeMode> {
    prop_oneof![
        Just(MergeMode::Sum),
        Just(MergeMode::Avg),
        Just(MergeMode::Mul),
        Just(MergeMode::Concat)
    ]
}

/// Cell forward into fresh buffers with a fresh workspace.
fn fresh_forward(
    p: &CellParams<f64>,
    x: &Matrix<f64>,
    prev: &CellState<f64>,
    hidden: usize,
) -> (CellState<f64>, CellCache<f64>) {
    let (kind, batch) = (p.kind(), x.rows());
    let mut st = CellState::zeros(kind, batch, hidden);
    let mut cache = CellCache::zeros(kind, batch, x.cols(), hidden);
    let ws = &mut Workspace::new();
    p.forward_ws(x, prev, &mut st, &mut cache, ws, Backend::scalar());
    (st, cache)
}

/// A realistic non-zero state: one forward step from zeros.
fn warm_state(
    p: &CellParams<f64>,
    kind: CellKind,
    batch: usize,
    input: usize,
    hidden: usize,
    seed: u64,
) -> CellState<f64> {
    let x = init::uniform(batch, input, -1.0, 1.0, seed);
    fresh_forward(p, &x, &CellState::zeros(kind, batch, hidden), hidden).0
}

/// One full forward+backward comparison of the fresh-buffer and reused
/// stale-buffer cell paths for a single shape, drawing the reused path's
/// scratch from `ws` (which deliberately persists across calls with other
/// shapes).
fn check_cell_shape(
    kind: CellKind,
    batch: usize,
    input: usize,
    hidden: usize,
    seed: u64,
    ws: &mut Workspace<f64>,
) {
    let p = CellParams::<f64>::init(kind, input, hidden, seed);
    let prev = warm_state(&p, kind, batch, input, hidden, seed + 1);
    let x = init::uniform(batch, input, -1.0, 1.0, seed + 2);

    // Forward: fresh buffers vs. buffers left stale by an unrelated call.
    let (st_ref, cache_ref) = fresh_forward(&p, &x, &prev, hidden);
    let mut st = CellState::zeros(kind, batch, hidden);
    let mut cache = CellCache::zeros(kind, batch, input, hidden);
    let x_stale = init::uniform(batch, input, -1.0, 1.0, seed + 6);
    p.forward_ws(
        &x_stale,
        &st_ref,
        &mut st,
        &mut cache,
        ws,
        Backend::scalar(),
    );
    p.forward_ws(&x, &prev, &mut st, &mut cache, ws, Backend::scalar());
    assert_bits(&st_ref.h, &st.h, "state h");
    match (&st_ref.c, &st.c) {
        (Some(a), Some(b)) => assert_bits(a, b, "state c"),
        (None, None) => {}
        _ => panic!("cell-state c presence differs"),
    }

    // Backward through both caches; identical dx/dprev/grads proves the
    // caches carry identical values without reaching into their fields.
    let dh = init::uniform(batch, hidden, -1.0, 1.0, seed + 3);
    let dstate = if seed.is_multiple_of(2) {
        None
    } else {
        let mut sg = StateGrad::zeros(kind, batch, hidden);
        sg.dh = init::uniform(batch, hidden, -1.0, 1.0, seed + 4);
        if let Some(dc) = &mut sg.dc {
            *dc = init::uniform(batch, hidden, -1.0, 1.0, seed + 5);
        }
        Some(sg)
    };
    let mut grads_ref = p.zeros_like();
    let mut dx_ref = Matrix::zeros(batch, input);
    let mut dprev_ref = StateGrad::zeros(kind, batch, hidden);
    p.backward_ws(
        &cache_ref,
        &dh,
        dstate.as_ref(),
        &mut grads_ref,
        &mut dx_ref,
        &mut dprev_ref,
        &mut Workspace::new(),
        Backend::scalar(),
    );
    let mut grads = p.zeros_like();
    let stale = |s: u64| init::uniform(batch, hidden, 5.0, 9.0, seed + s);
    let mut dx = init::uniform(batch, input, 5.0, 9.0, seed + 7);
    let mut dprev = StateGrad {
        dh: stale(8),
        dc: (kind == CellKind::Lstm).then(|| stale(9)),
    };
    p.backward_ws(
        &cache,
        &dh,
        dstate.as_ref(),
        &mut grads,
        &mut dx,
        &mut dprev,
        ws,
        Backend::scalar(),
    );
    assert_bits(&dx_ref, &dx, "dx");
    assert_bits(&dprev_ref.dh, &dprev.dh, "dprev.dh");
    match (&dprev_ref.dc, &dprev.dc) {
        (Some(a), Some(b)) => assert_bits(a, b, "dprev.dc"),
        (None, None) => {}
        _ => panic!("dprev.dc presence differs"),
    }
    grads_ref.for_each_param(&grads, &mut |a, b| assert_bits(a, b, "cell grads"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cell forward/backward `_ws` kernels writing over stale buffers are
    /// bit-identical to fresh-buffer calls — and stay so when one
    /// workspace serves two interleaved shapes (the second call sees
    /// pooled scratch whose previous shape was different).
    #[test]
    fn cell_ws_matches_legacy_across_interleaved_shapes(
        kind in cell_kinds(),
        b1 in 1usize..5, i1 in 1usize..6, h1 in 1usize..6,
        b2 in 1usize..5, i2 in 1usize..6, h2 in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut ws = Workspace::new();
        check_cell_shape(kind, b1, i1, h1, seed, &mut ws);
        check_cell_shape(kind, b2, i2, h2, seed + 100, &mut ws);
        // Back to the first shape with a now-populated pool.
        check_cell_shape(kind, b1, i1, h1, seed + 200, &mut ws);
    }

    /// Merge `apply_into` / `backward_into` give the same bits into a
    /// buffer full of stale garbage as into a fresh zeroed one, for every
    /// mode.
    #[test]
    fn merge_into_matches_legacy(
        mode in merge_modes(),
        rows in 1usize..6, hidden in 1usize..6,
        seed in 0u64..1000,
    ) {
        let fwd = init::uniform::<f64>(rows, hidden, -1.0, 1.0, seed);
        let rev = init::uniform(rows, hidden, -1.0, 1.0, seed + 1);
        let mut merged_ref = Matrix::zeros(rows, mode.output_width(hidden));
        mode.apply_into(&fwd, &rev, &mut merged_ref);
        let mut merged = init::uniform(rows, mode.output_width(hidden), 5.0, 9.0, seed + 2);
        mode.apply_into(&fwd, &rev, &mut merged);
        assert_bits(&merged_ref, &merged, "merged");

        let dmerged = init::uniform(rows, mode.output_width(hidden), -1.0, 1.0, seed + 3);
        let (mut dfwd_ref, mut drev_ref) = (Matrix::zeros(rows, hidden), Matrix::zeros(rows, hidden));
        mode.backward_into(&dmerged, &fwd, &rev, &mut dfwd_ref, &mut drev_ref);
        let mut dfwd = init::uniform(rows, hidden, 5.0, 9.0, seed + 4);
        let mut drev = init::uniform(rows, hidden, 5.0, 9.0, seed + 5);
        mode.backward_into(&dmerged, &fwd, &rev, &mut dfwd, &mut drev);
        assert_bits(&dfwd_ref, &dfwd, "dfwd");
        assert_bits(&drev_ref, &drev, "drev");
    }

    /// Dense forward/backward into stale buffers, with the workspace
    /// reused across two different widths, match fresh-buffer calls bit
    /// for bit.
    #[test]
    fn dense_into_matches_legacy(
        rows in 1usize..6, input in 1usize..6, out1 in 1usize..6, out2 in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut ws = Workspace::new();
        for (k, out_w) in [out1, out2, out1].into_iter().enumerate() {
            let s = seed + 10 * k as u64;
            let p = DenseParams::<f64>::init(input, out_w, s);
            let x = init::uniform(rows, input, -1.0, 1.0, s + 1);
            let mut logits_ref = Matrix::zeros(rows, out_w);
            p.forward_into(&x, &mut logits_ref, Backend::scalar());
            let mut logits = init::uniform(rows, out_w, 5.0, 9.0, s + 2);
            p.forward_into(&x, &mut logits, Backend::scalar());
            assert_bits(&logits_ref, &logits, "logits");

            let dlogits = init::uniform(rows, out_w, -1.0, 1.0, s + 3);
            let mut grads_ref = p.zeros_like();
            let mut dx_ref = Matrix::zeros(rows, input);
            let fresh = &mut Workspace::new();
            p.backward_ws(&x, &dlogits, &mut grads_ref, &mut dx_ref, fresh, Backend::scalar());
            let mut grads = p.zeros_like();
            let mut dx = init::uniform(rows, input, 5.0, 9.0, s + 4);
            p.backward_ws(&x, &dlogits, &mut grads, &mut dx, &mut ws, Backend::scalar());
            assert_bits(&dx_ref, &dx, "dense dx");
            assert_bits(&grads_ref.w, &grads.w, "dense dW");
            assert_bits(&grads_ref.b, &grads.b, "dense dB");
        }
    }

    /// `softmax_cross_entropy_into` matches the allocating wrapper exactly
    /// (loss scalar and gradient bits), writing over a dirty buffer.
    #[test]
    fn loss_into_matches_legacy(
        rows in 1usize..6, classes in 2usize..6,
        seed in 0u64..1000,
    ) {
        let logits = init::uniform::<f64>(rows, classes, -2.0, 2.0, seed);
        let targets: Vec<usize> = (0..rows).map(|r| (seed as usize + r) % classes).collect();
        let (loss_ref, dl_ref) = softmax_cross_entropy(&logits, &targets);
        let mut dl = init::uniform(rows, classes, 5.0, 9.0, seed + 1);
        let loss = softmax_cross_entropy_into(&logits, &targets, &mut dl);
        prop_assert_eq!(loss.to_bits(), loss_ref.to_bits(), "loss scalar");
        assert_bits(&dl_ref, &dl, "dlogits");
    }
}

proptest! {
    // Whole-model cases build task graphs and thread pools; keep the case
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// End to end: the workspace-arena executor (warm *and* cold plans)
    /// produces bit-identical inference logits and training losses to the
    /// fresh-buffer sequential reference, across cell kinds, merge modes,
    /// model kinds and shapes.
    #[test]
    fn taskgraph_matches_sequential_bitwise(
        kind in cell_kinds(),
        merge in merge_modes(),
        many_to_many in any::<bool>(),
        rows in 1usize..4, seq in 1usize..5,
        seed in 0u64..1000,
    ) {
        let cfg = BrnnConfig {
            cell: kind,
            input_size: 3,
            hidden_size: 4,
            layers: 2,
            seq_len: seq,
            output_size: 3,
            merge,
            kind: if many_to_many { ModelKind::ManyToMany } else { ModelKind::ManyToOne },
        };
        let model = Brnn::<f64>::new(cfg, seed);
        let xs: Vec<Matrix<f64>> = (0..seq)
            .map(|t| init::uniform(rows, cfg.input_size, -1.0, 1.0, seed + t as u64))
            .collect();
        let exec = TaskGraphExec::new(2);

        // Inference: run twice so the second pass replays the cached plan
        // through its persistent arena.
        let reference = SequentialExec.forward(&model, &xs);
        for pass in 0..2 {
            let got = exec.forward(&model, &xs);
            assert_bits(&reference.logits, &got.logits, "logits");
            prop_assert_eq!(got.seq_logits.len(), reference.seq_logits.len(), "pass {}", pass);
            for (a, b) in reference.seq_logits.iter().zip(&got.seq_logits) {
                assert_bits(a, b, "seq logits");
            }
        }

        // Training: identical models stepped by both executors must agree
        // on the loss and every post-step parameter bit.
        let target = match cfg.kind {
            ModelKind::ManyToOne => {
                Target::Classes((0..rows).map(|r| (seed as usize + r) % cfg.output_size).collect())
            }
            ModelKind::ManyToMany => Target::SeqClasses(
                (0..seq)
                    .map(|t| (0..rows).map(|r| (seed as usize + t + r) % cfg.output_size).collect())
                    .collect(),
            ),
        };
        let mut m_seq = model.clone();
        let mut m_tg = model.clone();
        for _ in 0..2 {
            let l_seq =
                SequentialExec.train_batch(&mut m_seq, &xs, &target, &mut Sgd::new(0.05));
            let l_tg = exec.train_batch(&mut m_tg, &xs, &target, &mut Sgd::new(0.05));
            prop_assert_eq!(l_seq.to_bits(), l_tg.to_bits(), "loss");
        }
        assert_bits(&m_seq.dense.w, &m_tg.dense.w, "post-step dense w");
        assert_bits(&m_seq.dense.b, &m_tg.dense.b, "post-step dense b");
        for (a, b) in m_seq.layers.iter_mut().zip(&m_tg.layers) {
            a.fwd.for_each_param(&b.fwd, &mut |x, y| assert_bits(x, y, "fwd params"));
            a.rev.for_each_param(&b.rev, &mut |x, y| assert_bits(x, y, "rev params"));
        }
    }
}
