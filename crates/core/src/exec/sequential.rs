//! Reference sequential executor.
//!
//! Defines the exact semantics — cell-update order, gradient accumulation
//! order, merge placement — that every parallel executor must reproduce.
//! The forward/backward driver functions are `pub(crate)` so the B-Seq
//! executor (data parallelism only) can reuse them per mini-batch.
//!
//! Every kernel call is the in-place `_ws`/`_into` variant the task graph
//! runs, on the scalar backend, writing into freshly allocated buffers:
//! the same calls in the same order, so the parallel executors can be
//! held to bit-identity with this one.

use super::{check_batch, Executor, ForwardOutput, Target};
use crate::cell::{CellCache, CellParams, CellState, StateGrad};
use crate::dense::DenseParams;
use crate::loss::softmax_cross_entropy;
use crate::merge::MergeMode;
use crate::model::{Brnn, BrnnGrads, ModelKind};
use crate::optim::Optimizer;
use bpar_tensor::{Backend, Float, Matrix, Workspace};

/// One cell update into fresh state and cache buffers.
fn cell_forward<T: Float>(
    params: &CellParams<T>,
    x: &Matrix<T>,
    prev: &CellState<T>,
    hidden: usize,
    ws: &mut Workspace<T>,
) -> (CellState<T>, CellCache<T>) {
    let kind = params.kind();
    let mut st = CellState::zeros(kind, x.rows(), hidden);
    let mut cache = CellCache::zeros(kind, x.rows(), x.cols(), hidden);
    params.forward_ws(x, prev, &mut st, &mut cache, ws, Backend::scalar());
    (st, cache)
}

/// One BPTT cell update into fresh `dx` and state-gradient buffers.
#[allow(clippy::too_many_arguments)]
fn cell_backward<T: Float>(
    params: &CellParams<T>,
    cache: &CellCache<T>,
    dh: &Matrix<T>,
    dstate: Option<&StateGrad<T>>,
    grads: &mut CellParams<T>,
    input: usize,
    ws: &mut Workspace<T>,
) -> (Matrix<T>, StateGrad<T>) {
    let (rows, hidden) = dh.shape();
    let mut dx = Matrix::zeros(rows, input);
    let mut dprev = StateGrad::zeros(params.kind(), rows, hidden);
    let be = Backend::scalar();
    params.backward_ws(cache, dh, dstate, grads, &mut dx, &mut dprev, ws, be);
    (dx, dprev)
}

/// Merge cell into a fresh buffer.
fn merge<T: Float>(mode: MergeMode, fwd: &Matrix<T>, rev: &Matrix<T>) -> Matrix<T> {
    let mut out = Matrix::zeros(fwd.rows(), mode.output_width(fwd.cols()));
    mode.apply_into(fwd, rev, &mut out);
    out
}

/// Merge backward into fresh `(dfwd, drev)` buffers.
fn merge_backward<T: Float>(
    mode: MergeMode,
    dmerged: &Matrix<T>,
    fwd: &Matrix<T>,
    rev: &Matrix<T>,
) -> (Matrix<T>, Matrix<T>) {
    let mut dfwd = Matrix::zeros(fwd.rows(), fwd.cols());
    let mut drev = Matrix::zeros(rev.rows(), rev.cols());
    mode.backward_into(dmerged, fwd, rev, &mut dfwd, &mut drev);
    (dfwd, drev)
}

/// Classifier projection into a fresh buffer.
fn dense_forward<T: Float>(dense: &DenseParams<T>, x: &Matrix<T>) -> Matrix<T> {
    let mut out = Matrix::zeros(x.rows(), dense.w.cols());
    dense.forward_into(x, &mut out, Backend::scalar());
    out
}

/// Classifier backward into a fresh `dx` buffer.
fn dense_backward<T: Float>(
    dense: &DenseParams<T>,
    x: &Matrix<T>,
    dlogits: &Matrix<T>,
    grads: &mut DenseParams<T>,
) -> Matrix<T> {
    let mut dx = Matrix::zeros(x.rows(), x.cols());
    let ws = &mut Workspace::new();
    dense.backward_ws(x, dlogits, grads, &mut dx, ws, Backend::scalar());
    dx
}

/// Everything the forward pass must remember for BPTT.
pub(crate) struct FwdTrace<T: Float> {
    /// Inputs consumed by each layer: `layer_inputs[l][t]`.
    pub layer_inputs: Vec<Vec<Matrix<T>>>,
    /// Forward-direction caches, `[layer][t]`.
    pub fwd_caches: Vec<Vec<CellCache<T>>>,
    /// Reverse-direction caches, `[layer][t]` (indexed by input position).
    pub rev_caches: Vec<Vec<CellCache<T>>>,
    /// Forward-direction hidden outputs, `[layer][t]`.
    pub fwd_h: Vec<Vec<Matrix<T>>>,
    /// Reverse-direction hidden outputs, `[layer][t]`.
    pub rev_h: Vec<Vec<Matrix<T>>>,
    /// Classifier input features: one matrix (many-to-one) or per-t.
    pub features: Vec<Matrix<T>>,
    /// Classifier outputs matching `features`.
    pub logits: Vec<Matrix<T>>,
}

/// Runs the full forward pass, recording the trace.
pub(crate) fn forward_trace<T: Float>(model: &Brnn<T>, batch: &[Matrix<T>]) -> FwdTrace<T> {
    let (seq_len, rows) = check_batch(model, batch);
    let cfg = &model.config;
    let hidden = cfg.hidden_size;
    let kind = cfg.cell;
    let mut ws = Workspace::new();

    let mut trace = FwdTrace {
        layer_inputs: Vec::with_capacity(cfg.layers),
        fwd_caches: Vec::with_capacity(cfg.layers),
        rev_caches: Vec::with_capacity(cfg.layers),
        fwd_h: Vec::with_capacity(cfg.layers),
        rev_h: Vec::with_capacity(cfg.layers),
        features: Vec::new(),
        logits: Vec::new(),
    };

    let mut inputs: Vec<Matrix<T>> = batch.to_vec();
    for l in 0..cfg.layers {
        let params = &model.layers[l];

        // Forward order: t = 0 .. T-1.
        let mut fwd_h = Vec::with_capacity(seq_len);
        let mut fwd_caches = Vec::with_capacity(seq_len);
        let mut state = CellState::zeros(kind, rows, hidden);
        for x in inputs.iter() {
            let (st, cache) = cell_forward(&params.fwd, x, &state, hidden, &mut ws);
            fwd_h.push(st.h.clone());
            fwd_caches.push(cache);
            state = st;
        }

        // Reverse order: t = T-1 .. 0, pushed in traversal order and
        // reversed once at the end — no placeholder matrices, no
        // per-slot `Option` shuffle. The cell-update order (and with it
        // every floating-point result) is unchanged.
        let mut rev_h = Vec::with_capacity(seq_len);
        let mut rev_caches = Vec::with_capacity(seq_len);
        let mut state = CellState::zeros(kind, rows, hidden);
        for x in inputs.iter().rev() {
            let (st, cache) = cell_forward(&params.rev, x, &state, hidden, &mut ws);
            rev_h.push(st.h.clone());
            rev_caches.push(cache);
            state = st;
        }
        rev_h.reverse();
        rev_caches.reverse();

        // Merge cells.
        let last_layer = l == cfg.layers - 1;
        if !last_layer {
            let merged: Vec<Matrix<T>> = (0..seq_len)
                .map(|t| merge(cfg.merge, &fwd_h[t], &rev_h[t]))
                .collect();
            trace
                .layer_inputs
                .push(std::mem::replace(&mut inputs, merged));
        } else {
            match cfg.kind {
                ModelKind::ManyToOne => {
                    // Merge the *final* cells of both directions: fwd at
                    // T-1, rev at 0 (both have seen the full sequence).
                    let feat = merge(cfg.merge, &fwd_h[seq_len - 1], &rev_h[0]);
                    trace.logits.push(dense_forward(&model.dense, &feat));
                    trace.features.push(feat);
                }
                ModelKind::ManyToMany => {
                    for t in 0..seq_len {
                        let feat = merge(cfg.merge, &fwd_h[t], &rev_h[t]);
                        trace.logits.push(dense_forward(&model.dense, &feat));
                        trace.features.push(feat);
                    }
                }
            }
            trace.layer_inputs.push(std::mem::take(&mut inputs));
        }
        trace.fwd_h.push(fwd_h);
        trace.rev_h.push(rev_h);
        trace.fwd_caches.push(fwd_caches);
        trace.rev_caches.push(rev_caches);
    }
    trace
}

/// Computes the loss and its gradient w.r.t. each classifier feature
/// matrix. Returns `(mean_loss, dfeatures)`.
pub(crate) fn loss_and_dfeatures<T: Float>(
    model: &Brnn<T>,
    trace: &FwdTrace<T>,
    target: &Target,
    grads: &mut BrnnGrads<T>,
) -> (f64, Vec<Matrix<T>>) {
    match (model.config.kind, target) {
        (ModelKind::ManyToOne, Target::Classes(classes)) => {
            let (loss, dlogits) = softmax_cross_entropy(&trace.logits[0], classes);
            let dfeat =
                dense_backward(&model.dense, &trace.features[0], &dlogits, &mut grads.dense);
            (loss, vec![dfeat])
        }
        (ModelKind::ManyToMany, Target::SeqClasses(seq)) => {
            assert_eq!(seq.len(), trace.logits.len(), "one target row per timestep");
            // Multiply by the reciprocal rather than dividing so the
            // floating-point result matches the task executor's
            // `loss * weight * inv_outputs` accumulation bit-for-bit.
            let inv = 1.0 / seq.len() as f64;
            let inv_t = T::from_f64(inv);
            let mut total = 0.0;
            let mut dfeats = Vec::with_capacity(seq.len());
            for (t, classes) in seq.iter().enumerate() {
                let (loss, mut dlogits) = softmax_cross_entropy(&trace.logits[t], classes);
                total += loss * inv;
                bpar_tensor::ops::scale(inv_t, &mut dlogits);
                dfeats.push(dense_backward(
                    &model.dense,
                    &trace.features[t],
                    &dlogits,
                    &mut grads.dense,
                ));
            }
            (total, dfeats)
        }
        _ => panic!("target kind does not match model kind"),
    }
}

/// Runs the full backward pass from per-feature gradients, accumulating
/// into `grads`.
pub(crate) fn backward_from_trace<T: Float>(
    model: &Brnn<T>,
    trace: &FwdTrace<T>,
    dfeatures: Vec<Matrix<T>>,
    grads: &mut BrnnGrads<T>,
) {
    let cfg = &model.config;
    let seq_len = trace.fwd_h[0].len();
    let rows = trace.fwd_h[0][0].rows();
    let hidden = cfg.hidden_size;
    let last = cfg.layers - 1;
    let mut ws = Workspace::new();

    // Gradients w.r.t. each direction's hidden output at the current layer.
    let mut dh_fwd: Vec<Matrix<T>> = (0..seq_len).map(|_| Matrix::zeros(rows, hidden)).collect();
    let mut dh_rev: Vec<Matrix<T>> = (0..seq_len).map(|_| Matrix::zeros(rows, hidden)).collect();

    // Seed from the classifier features (last layer merges).
    match cfg.kind {
        ModelKind::ManyToOne => {
            let (df, dr) = merge_backward(
                cfg.merge,
                &dfeatures[0],
                &trace.fwd_h[last][seq_len - 1],
                &trace.rev_h[last][0],
            );
            bpar_tensor::ops::axpy(T::ONE, &df, &mut dh_fwd[seq_len - 1]);
            bpar_tensor::ops::axpy(T::ONE, &dr, &mut dh_rev[0]);
        }
        ModelKind::ManyToMany => {
            for (t, dfeat) in dfeatures.iter().enumerate() {
                let (df, dr) = merge_backward(
                    cfg.merge,
                    dfeat,
                    &trace.fwd_h[last][t],
                    &trace.rev_h[last][t],
                );
                bpar_tensor::ops::axpy(T::ONE, &df, &mut dh_fwd[t]);
                bpar_tensor::ops::axpy(T::ONE, &dr, &mut dh_rev[t]);
            }
        }
    }

    for l in (0..cfg.layers).rev() {
        let params = &model.layers[l];
        let lgrads = &mut grads.layers[l];
        let input_w = cfg.layer_input_size(l);
        let mut dinputs: Vec<Matrix<T>> =
            (0..seq_len).map(|_| Matrix::zeros(rows, input_w)).collect();

        // BPTT through the forward direction: t = T-1 .. 0.
        let mut sg: Option<StateGrad<T>> = None;
        for t in (0..seq_len).rev() {
            let (dx, sg_prev) = cell_backward(
                &params.fwd,
                &trace.fwd_caches[l][t],
                &dh_fwd[t],
                sg.as_ref(),
                &mut lgrads.fwd,
                input_w,
                &mut ws,
            );
            bpar_tensor::ops::axpy(T::ONE, &dx, &mut dinputs[t]);
            sg = Some(sg_prev);
        }

        // BPTT through the reverse direction: processed T-1..0 forward, so
        // gradients flow t = 0 .. T-1.
        let mut sg: Option<StateGrad<T>> = None;
        for (t, dinput) in dinputs.iter_mut().enumerate() {
            let (dx, sg_prev) = cell_backward(
                &params.rev,
                &trace.rev_caches[l][t],
                &dh_rev[t],
                sg.as_ref(),
                &mut lgrads.rev,
                input_w,
                &mut ws,
            );
            bpar_tensor::ops::axpy(T::ONE, &dx, dinput);
            sg = Some(sg_prev);
        }

        // Propagate through the previous layer's merge cells.
        if l > 0 {
            for t in 0..seq_len {
                let (df, dr) = merge_backward(
                    cfg.merge,
                    &dinputs[t],
                    &trace.fwd_h[l - 1][t],
                    &trace.rev_h[l - 1][t],
                );
                dh_fwd[t] = df;
                dh_rev[t] = dr;
            }
        }
    }
}

/// Straight-line reference executor: no parallelism of any kind.
#[derive(Debug, Default, Clone)]
pub struct SequentialExec;

impl SequentialExec {
    /// New sequential executor.
    pub fn new() -> Self {
        Self
    }

    /// Computes the gradients for one batch without applying them.
    /// Returns `(loss, grads)` — reused by B-Seq's per-mini-batch replicas.
    pub(crate) fn compute_grads<T: Float>(
        model: &Brnn<T>,
        batch: &[Matrix<T>],
        target: &Target,
    ) -> (f64, BrnnGrads<T>) {
        let mut grads = model.zero_grads();
        let trace = forward_trace(model, batch);
        let (loss, dfeats) = loss_and_dfeatures(model, &trace, target, &mut grads);
        backward_from_trace(model, &trace, dfeats, &mut grads);
        (loss, grads)
    }
}

impl<T: Float> Executor<T> for SequentialExec {
    fn forward(&self, model: &Brnn<T>, batch: &[Matrix<T>]) -> ForwardOutput<T> {
        let trace = forward_trace(model, batch);
        match model.config.kind {
            ModelKind::ManyToOne => ForwardOutput {
                logits: trace.logits[0].clone(),
                seq_logits: Vec::new(),
            },
            ModelKind::ManyToMany => ForwardOutput {
                logits: trace.logits.last().unwrap().clone(),
                seq_logits: trace.logits,
            },
        }
    }

    fn train_batch(
        &self,
        model: &mut Brnn<T>,
        batch: &[Matrix<T>],
        target: &Target,
        opt: &mut dyn Optimizer<T>,
    ) -> f64 {
        let (loss, grads) = Self::compute_grads(model, batch, target);
        model.apply_grads(opt, &grads);
        loss
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::merge::MergeMode;
    use crate::model::BrnnConfig;
    use crate::optim::Sgd;
    use bpar_tensor::init;

    fn small_batch(seq: usize, rows: usize, input: usize) -> Vec<Matrix<f64>> {
        (0..seq)
            .map(|t| init::uniform(rows, input, -1.0, 1.0, 100 + t as u64))
            .collect()
    }

    fn config(cell: CellKind, kind: ModelKind) -> BrnnConfig {
        BrnnConfig {
            cell,
            input_size: 3,
            hidden_size: 4,
            layers: 3,
            seq_len: 5,
            output_size: 3,
            merge: MergeMode::Sum,
            kind,
        }
    }

    #[test]
    fn forward_shapes_many_to_one() {
        let model: Brnn<f64> = Brnn::new(config(CellKind::Lstm, ModelKind::ManyToOne), 1);
        let out = SequentialExec::new().forward(&model, &small_batch(5, 2, 3));
        assert_eq!(out.logits.shape(), (2, 3));
        assert!(out.seq_logits.is_empty());
    }

    #[test]
    fn forward_shapes_many_to_many() {
        let model: Brnn<f64> = Brnn::new(config(CellKind::Gru, ModelKind::ManyToMany), 1);
        let out = SequentialExec::new().forward(&model, &small_batch(5, 2, 3));
        assert_eq!(out.seq_logits.len(), 5);
        for l in &out.seq_logits {
            assert_eq!(l.shape(), (2, 3));
        }
    }

    /// End-to-end finite-difference check through the whole deep BRNN.
    #[test]
    fn whole_model_gradient_check_lstm_many_to_one() {
        let cfg = config(CellKind::Lstm, ModelKind::ManyToOne);
        let model: Brnn<f64> = Brnn::new(cfg, 7);
        let batch = small_batch(5, 2, 3);
        let target = Target::Classes(vec![0, 2]);

        let (_, grads) = SequentialExec::compute_grads(&model, &batch, &target);

        let loss_of = |m: &Brnn<f64>| {
            let trace = forward_trace(m, &batch);
            let (l, _) = softmax_cross_entropy(&trace.logits[0], &[0, 2]);
            l
        };
        let eps = 1e-6;
        // Probe one weight in each layer/direction plus the dense layer.
        for l in 0..3 {
            for dir in 0..2 {
                let mut m = model.clone();
                let (w, gw) = {
                    let pair = (&mut m.layers[l], &grads.layers[l]);
                    match dir {
                        0 => match (&mut pair.0.fwd, &pair.1.fwd) {
                            (
                                crate::cell::CellParams::Lstm(p),
                                crate::cell::CellParams::Lstm(g),
                            ) => (&mut p.w, &g.w),
                            _ => unreachable!(),
                        },
                        _ => match (&mut pair.0.rev, &pair.1.rev) {
                            (
                                crate::cell::CellParams::Lstm(p),
                                crate::cell::CellParams::Lstm(g),
                            ) => (&mut p.w, &g.w),
                            _ => unreachable!(),
                        },
                    }
                };
                let (r, c) = (1, 2);
                let orig = w.get(r, c);
                w.set(r, c, orig + eps);
                let lp = loss_of(&m);
                // Reset and re-borrow for the minus side.
                let mut m2 = model.clone();
                let w2 = match dir {
                    0 => match &mut m2.layers[l].fwd {
                        crate::cell::CellParams::Lstm(p) => &mut p.w,
                        _ => unreachable!(),
                    },
                    _ => match &mut m2.layers[l].rev {
                        crate::cell::CellParams::Lstm(p) => &mut p.w,
                        _ => unreachable!(),
                    },
                };
                w2.set(r, c, orig - eps);
                let lm = loss_of(&m2);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (gw.get(r, c) - fd).abs() < 1e-5,
                    "layer {l} dir {dir}: {} vs {fd}",
                    gw.get(r, c)
                );
            }
        }
        // Dense weight.
        let mut m = model.clone();
        let orig = m.dense.w.get(0, 1);
        m.dense.w.set(0, 1, orig + eps);
        let lp = loss_of(&m);
        m.dense.w.set(0, 1, orig - eps);
        let lm = loss_of(&m);
        let fd = (lp - lm) / (2.0 * eps);
        assert!((grads.dense.w.get(0, 1) - fd).abs() < 1e-5);
    }

    #[test]
    fn whole_model_gradient_check_gru_many_to_many() {
        let cfg = config(CellKind::Gru, ModelKind::ManyToMany);
        let model: Brnn<f64> = Brnn::new(cfg, 11);
        let batch = small_batch(4, 2, 3);
        let targets: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 0], vec![1, 1], vec![0, 2]];
        let target = Target::SeqClasses(targets.clone());

        let (_, grads) = SequentialExec::compute_grads(&model, &batch, &target);
        let loss_of = |m: &Brnn<f64>| {
            let mut g = m.zero_grads();
            let trace = forward_trace(m, &batch);
            let (l, _) = loss_and_dfeatures(m, &trace, &target, &mut g);
            l
        };
        let eps = 1e-6;
        // Probe a reverse-direction wzr entry in layer 1.
        let mut mp = model.clone();
        let (orig, gref) = match (&mut mp.layers[1].rev, &grads.layers[1].rev) {
            (crate::cell::CellParams::Gru(p), crate::cell::CellParams::Gru(g)) => {
                (p.wzr.get(2, 3), g.wzr.get(2, 3))
            }
            _ => unreachable!(),
        };
        match &mut mp.layers[1].rev {
            crate::cell::CellParams::Gru(p) => p.wzr.set(2, 3, orig + eps),
            _ => unreachable!(),
        }
        let lp = loss_of(&mp);
        match &mut mp.layers[1].rev {
            crate::cell::CellParams::Gru(p) => p.wzr.set(2, 3, orig - eps),
            _ => unreachable!(),
        }
        let lm = loss_of(&mp);
        let fd = (lp - lm) / (2.0 * eps);
        assert!((gref - fd).abs() < 1e-5, "{gref} vs {fd}");
    }

    #[test]
    fn training_reduces_loss() {
        let cfg = BrnnConfig {
            cell: CellKind::Lstm,
            input_size: 4,
            hidden_size: 8,
            layers: 2,
            seq_len: 6,
            output_size: 2,
            merge: MergeMode::Sum,
            kind: ModelKind::ManyToOne,
        };
        let mut model: Brnn<f64> = Brnn::new(cfg, 5);
        let batch = small_batch(6, 4, 4);
        let target = Target::Classes(vec![0, 1, 0, 1]);
        let exec = SequentialExec::new();
        let mut opt = Sgd::new(0.5);
        let first = exec.train_batch(&mut model, &batch, &target, &mut opt);
        let mut last = first;
        for _ in 0..30 {
            last = exec.train_batch(&mut model, &batch, &target, &mut opt);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn concat_merge_trains_too() {
        let cfg = BrnnConfig {
            merge: MergeMode::Concat,
            output_size: 2,
            ..config(CellKind::Gru, ModelKind::ManyToOne)
        };
        let mut model: Brnn<f64> = Brnn::new(cfg, 5);
        let batch = small_batch(5, 3, 3);
        let target = Target::Classes(vec![0, 1, 0]);
        let mut opt = Sgd::new(0.3);
        let exec = SequentialExec::new();
        let first = exec.train_batch(&mut model, &batch, &target, &mut opt);
        let mut last = first;
        for _ in 0..40 {
            last = exec.train_batch(&mut model, &batch, &target, &mut opt);
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "does not match model kind")]
    fn mismatched_target_kind_panics() {
        let model: Brnn<f64> = Brnn::new(config(CellKind::Lstm, ModelKind::ManyToOne), 1);
        let batch = small_batch(5, 2, 3);
        let mut opt = Sgd::new(0.1);
        SequentialExec::new().train_batch(
            &mut model.clone(),
            &batch,
            &Target::SeqClasses(vec![vec![0, 0]; 5]),
            &mut opt,
        );
    }
}
