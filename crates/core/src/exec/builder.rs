//! Task-graph construction: the only code that emits B-Par tasks.
//!
//! A [`ReplicaGraph`] owns all the *slots* (shared data cells, one
//! dependency region each) for one mini-batch replica of a training batch,
//! and knows how to submit the forward-cell, reverse-cell, merge, loss and
//! backward tasks with exactly the `in`/`out` clauses of the paper's
//! Algorithms 2 and 3, each annotated with its flop count and working set.
//! [`submit_batch`] drives a whole batch — every replica's layers, output
//! stage and backward pass, then the cross-replica reductions — into a
//! [`TaskSink`], so the same construction code serves three consumers:
//!
//! * [`LiveSink`] submits directly to a [`Runtime`] — used by
//!   [`super::BarrierExec`];
//! * `bpar_runtime::PlanBuilder` records the stream for one-shot
//!   compilation into a replayable plan — used by [`super::TaskGraphExec`],
//!   which re-runs the same graph every batch (task bodies are `Fn`, and
//!   all per-batch values — inputs, targets, weights — live behind shared
//!   stores the executor swaps between replays);
//! * `bpar_runtime::TaskGraph` keeps labels, clauses and costs and drops
//!   the bodies — the simulator's graphs ([`crate::graphgen`]), built from
//!   shape-only replicas that hold no weights and no inputs.
//!
//! Model weights are read through a [`WeightStore`]: a persistent snapshot
//! deep-copied only when the model's revision stamp changes, never once per
//! batch.
//!
//! Floating-point note: task bodies perform the same in-place kernel calls
//! as [`super::SequentialExec`] in an order whose only reorderings are
//! commutative two-operand additions, so results are bit-identical to it
//! when built with the scalar [`Backend`] (the default). Graphs built with
//! the SIMD backend dispatch their *forward* cell, merge and classifier
//! kernels through it (see [`ReplicaGraph::backend`]); the loss and every
//! backward kernel always use the scalar oracle, since gradient checks
//! depend on exact arithmetic.
//!
//! Both phases share one slot discipline: every task body overwrites its
//! output slots in place ([`Slot::write_in_place`]), so a cached plan —
//! inference or training — keeps its buffers between runs and a warm
//! replay allocates only what the gradient accumulators drained by
//! [`ReplicaGraph::take_grads`] re-create.

use super::taskgraph::row_chunks;
use crate::cell::{CellCache, CellParams, CellState, StateGrad};
use crate::dense::DenseParams;
use crate::loss::softmax_cross_entropy_into;
use crate::merge::MergeMode;
use crate::model::{Brnn, BrnnConfig, BrnnGrads, LayerPair, ModelKind};
use crate::scanplan::{NodeRef, RecurrenceStrategy, ScanPlan};
use bpar_runtime::graph::{TaskGraph, TaskNode};
use bpar_runtime::{
    record_read_at, record_write_at, PlanBuilder, PlanSpec, RegionId, Runtime, TaskSpec,
};
use bpar_tensor::{Backend, Float, Matrix, Workspace};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How faithfully to build a graph — `Normal`, or with one of three
/// deliberately seeded bugs, each invisible to every detector except the
/// one prong designed to catch it.
///
/// * [`BuildMode::MissingStateClause`] drops one `in` clause — the `t-1`
///   recurrent-state dependency of the first replica's
///   `cell_fwd(l=0, t=1)` — while leaving the task body untouched. The
///   body still reads the state slot, so the plan carries a real
///   undeclared dependency: caught by the clause differ (`BPV201`).
/// * [`BuildMode::DroppedEdge`] declares every clause faithfully and then
///   surgically removes the compiled dependency edge between the first
///   two `loss` tasks (see `ExecPlan::build_with_mode`) — a
///   dependency-*protocol* bug, not a clause bug. Both tasks' observed
///   accesses match their declarations perfectly, and the lost orderings
///   are two-operand FP additions (bitwise commutative), so clause
///   validation, fuzzing and exploration all stay clean: only the
///   happens-before engine sees the unordered conflicting pair
///   (`BPV301`). Requires a many-to-many training graph.
/// * [`BuildMode::CrossEpochRace`] appends an `epoch_probe` task whose
///   clauses are complete and truthful *for the region ids it uses* — but
///   one of those ids is a fresh alias of `feat[0]`'s physical storage
///   (the stale-region-id-recycled-across-epochs bug class). Every
///   region-keyed analysis is blind by construction; only exhaustive
///   schedule exploration, whose conflict relation is keyed on observed
///   *physical sites*, reorders the probe against the real
///   `merge_final`/`dense` pair and witnesses the fingerprint divergence
///   (`BPV401`).
///
/// Used by `bpar analyze --seed-bug` and the detector tests; the normal
/// build path always uses [`BuildMode::Normal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum BuildMode {
    /// Declare exactly the clauses the bodies need (sound).
    #[default]
    Normal,
    /// Omit the `st_fwd[0][0]` in-clause of `cell_fwd(l=0, t=1)`.
    MissingStateClause,
    /// Remove the compiled edge between the first two `loss` tasks.
    DroppedEdge,
    /// Append a probe task writing `feat[0]` under an aliased region id.
    CrossEpochRace,
}

/// Hands out fresh region ids for one batch, and decides whether the
/// [`Slot`]s they guard get storage.
#[derive(Debug, Default)]
pub(crate) struct RegionAlloc {
    next: u64,
    /// Slots get region ids but no storage — for graphs that are inspected
    /// but never run (the simulator's).
    shape_only: bool,
}

impl RegionAlloc {
    /// An allocator whose slots carry no storage (see
    /// [`WeightStore::shape_only`] for the matching weight store).
    pub(crate) fn shape_only() -> Self {
        Self {
            next: 0,
            shape_only: true,
        }
    }

    pub(crate) fn fresh(&mut self) -> RegionId {
        let id = RegionId(self.next);
        self.next += 1;
        id
    }
}

/// Where constructed tasks go: straight to a runtime, or into a plan.
pub(crate) trait TaskSink {
    fn push(&mut self, spec: PlanSpec);
}

impl TaskSink for PlanBuilder {
    fn push(&mut self, spec: PlanSpec) {
        self.submit(spec);
    }
}

/// A static graph keeps each task's label, tag, clauses and costs; the
/// body is dropped unrun.
impl TaskSink for TaskGraph {
    fn push(&mut self, spec: PlanSpec) {
        self.add_task(
            TaskNode::new(spec.label)
                .tag(spec.tag)
                .flops(spec.flops)
                .working_set(spec.working_set_bytes),
            &spec.ins,
            &spec.outs,
        );
    }
}

/// Adapts a [`Runtime`] to [`TaskSink`]: each pushed spec is submitted
/// immediately as a one-shot task.
pub(crate) struct LiveSink<'a>(pub &'a Runtime);

impl TaskSink for LiveSink<'_> {
    fn push(&mut self, spec: PlanSpec) {
        let body = spec.body.expect("spec submitted without a body");
        self.0.submit(
            TaskSpec::new(spec.label)
                .tag(spec.tag)
                .ins(spec.ins)
                .outs(spec.outs)
                .working_set(spec.working_set_bytes)
                .body(move || body()),
        );
    }
}

/// Persistent shared handle on model weights.
///
/// Task bodies read the current snapshot; the owning executor calls
/// [`WeightStore::sync`] once per batch, which deep-copies the model *only*
/// when its revision stamp differs from the snapshot's — in steady-state
/// inference serving that is never, fixing the per-batch
/// `Arc::new(model.clone())` of the original executors.
pub(crate) struct WeightStore<T: Float> {
    /// `None` only for a [`WeightStore::shape_only`] store.
    snapshot: RwLock<Option<Arc<Brnn<T>>>>,
    /// Deep copies made over this store's lifetime (1 at seeded
    /// construction).
    deep_copies: AtomicU64,
}

impl<T: Float> WeightStore<T> {
    /// A store seeded with one deep copy of `model`.
    pub fn new(model: &Brnn<T>) -> Self {
        Self {
            snapshot: RwLock::new(Some(Arc::new(model.clone()))),
            deep_copies: AtomicU64::new(1),
        }
    }

    /// A store holding no weights, for graphs that are inspected but never
    /// run (the simulator's): their task bodies must not execute.
    pub fn shape_only() -> Self {
        Self {
            snapshot: RwLock::new(None),
            deep_copies: AtomicU64::new(0),
        }
    }

    /// The current weight snapshot (cheap: one `Arc` clone).
    pub fn snapshot(&self) -> Arc<Brnn<T>> {
        self.snapshot
            .read()
            .clone()
            .expect("a shape-only graph has no weights to run with")
    }

    /// Brings the snapshot up to date with `model`. Returns `true` iff a
    /// deep copy was made (i.e. the revisions differed). Clones preserve
    /// the revision stamp, so the snapshot compares equal to the model it
    /// was copied from.
    pub fn sync(&self, model: &Brnn<T>) -> bool {
        if self
            .snapshot
            .read()
            .as_ref()
            .is_some_and(|s| s.revision() == model.revision())
        {
            return false;
        }
        *self.snapshot.write() = Some(Arc::new(model.clone()));
        self.deep_copies.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Deep copies made so far (at least 1).
    pub fn deep_copies(&self) -> u64 {
        self.deep_copies.load(Ordering::Relaxed)
    }
}

/// A shared data cell guarded by its dependency region.
///
/// The runtime's dependency protocol guarantees readers and writers never
/// overlap, so the `RwLock` is always uncontended; it exists to make the
/// sharing safe without `unsafe`.
///
/// Every access reports itself to the runtime's validation recorder
/// ([`bpar_runtime::record_read_at`] / [`bpar_runtime::record_write_at`])
/// — a single relaxed atomic load when validation is off. Because all
/// task data flows through slots, the recorder's event stream is a
/// complete trace of what each task body *actually* touched, which
/// `bpar-verify` diffs against the declared `in`/`out` clauses. Each
/// event carries both the *region id* (what the dependency protocol
/// reasons about) and the *physical site* — the address of the shared
/// data cell — so the schedule-exploration prong can detect storage
/// aliased under two region ids, which no region-keyed analysis can see.
pub(crate) struct Slot<X> {
    /// `None` for slots of a shape-only graph, whose bodies never run.
    data: Option<Arc<RwLock<Option<X>>>>,
    /// Dependency region representing this value.
    pub region: RegionId,
}

impl<X> Clone for Slot<X> {
    fn clone(&self) -> Self {
        Self {
            data: self.data.clone(),
            region: self.region,
        }
    }
}

impl<X> Slot<X> {
    fn new(regions: &mut RegionAlloc) -> Self {
        Self {
            data: (!regions.shape_only).then(|| Arc::new(RwLock::new(None))),
            region: regions.fresh(),
        }
    }

    /// The shared data cell.
    fn cell(&self) -> &Arc<RwLock<Option<X>>> {
        self.data
            .as_ref()
            .expect("a shape-only graph has no slot storage to run with")
    }

    /// A second handle to the *same* data cell under a *fresh* region id.
    ///
    /// This deliberately breaks the slot invariant that one region guards
    /// one cell: the dependency protocol sees two independent regions and
    /// will happily schedule their tasks concurrently, while the physical
    /// storage is shared. Only the [`BuildMode::CrossEpochRace`] fixture
    /// uses this — it is the seeded bug itself, not a building block.
    pub fn alias_with_fresh_region(&self, regions: &mut RegionAlloc) -> Self {
        Self {
            data: self.data.clone(),
            region: regions.fresh(),
        }
    }

    /// The address of the shared data cell, reported as the access `site`
    /// so physical aliasing is visible to the exploration prong even when
    /// region ids disagree.
    fn site(&self) -> u64 {
        Arc::as_ptr(self.cell()) as u64
    }

    /// Removes the value (single-consumer reads).
    pub fn take(&self) -> Option<X> {
        record_read_at(self.region, self.site());
        self.cell().write().take()
    }

    /// Reads the value by reference (multi-consumer reads).
    pub fn with<R>(&self, f: impl FnOnce(Option<&X>) -> R) -> R {
        record_read_at(self.region, self.site());
        f(self.cell().read().as_ref())
    }

    /// Mutates the value in place, initialising with `init` if absent
    /// (accumulator slots). A read-modify-write: tasks using it must
    /// declare the region *inout* (both `in` and `out`).
    pub fn update(&self, init: impl FnOnce() -> X, f: impl FnOnce(&mut X)) {
        record_read_at(self.region, self.site());
        record_write_at(self.region, self.site());
        let mut guard = self.cell().write();
        let v = guard.get_or_insert_with(init);
        f(v);
    }

    /// Overwrites the value in place, initialising the backing buffer with
    /// `init` only when the slot is empty (first run, or after
    /// [`ReplicaGraph::clear_values`]). The closure must **fully**
    /// overwrite the value — no prior-batch data may flow into the result
    /// — so this records only a *write*: tasks using it declare the region
    /// `out`. Warm replays reuse the buffer instead of reallocating it
    /// every batch. Returns whatever `f` returns.
    pub fn write_in_place<R>(&self, init: impl FnOnce() -> X, f: impl FnOnce(&mut X) -> R) -> R {
        record_write_at(self.region, self.site());
        let mut guard = self.cell().write();
        f(guard.get_or_insert_with(init))
    }

    /// Accumulator write: stores `v` if the slot is empty, otherwise folds
    /// it into the existing value with `add`. A read-modify-write: tasks
    /// using it must declare the region *inout*.
    pub fn accumulate(&self, v: X, add: impl FnOnce(&mut X, X)) {
        record_read_at(self.region, self.site());
        record_write_at(self.region, self.site());
        let mut guard = self.cell().write();
        match guard.as_mut() {
            Some(acc) => add(acc, v),
            None => *guard = Some(v),
        }
    }
}

/// A cell's forward output: recurrent state plus the BPTT cache.
pub(crate) type CellSlot<T> = Slot<(CellState<T>, CellCache<T>)>;

/// A scan transfer `(a, b) : h ↦ a ⊙ h + b` — `a` is `1 × hidden`
/// (a diagonal decay power), `b` is `rows × hidden`.
pub(crate) type TransferSlot<T> = Slot<(Matrix<T>, Matrix<T>)>;

/// Transfer slots for one direction of one layer under
/// [`RecurrenceStrategy::Scan`].
pub(crate) struct DirScanSlots<T: Float> {
    /// Per-chunk total transfers, written by the chunk-local sweeps
    /// (indexed by *scan-order* chunk: forward chunk order for the
    /// activation scan).
    pub totals: Vec<TransferSlot<T>>,
    /// Combine-node outputs, indexed like `ScanPlan::combines`.
    pub nodes: Vec<TransferSlot<T>>,
    /// Adjoint-scan chunk totals (training). Indexed by *backward*
    /// scan order: `btotals[bc]` holds forward chunk `C-1-bc`'s adjoint
    /// transfer, so the one [`ScanPlan`] serves both sweeps.
    pub btotals: Vec<TransferSlot<T>>,
    /// Adjoint combine-node outputs (training).
    pub bnodes: Vec<TransferSlot<T>>,
}

impl<T: Float> DirScanSlots<T> {
    fn new(plan: &ScanPlan, regions: &mut RegionAlloc) -> Self {
        let slots = |n: usize, regions: &mut RegionAlloc| -> Vec<TransferSlot<T>> {
            (0..n).map(|_| Slot::new(regions)).collect()
        };
        Self {
            totals: slots(plan.chunk_count(), regions),
            nodes: slots(plan.combines.len(), regions),
            btotals: slots(plan.chunk_count(), regions),
            bnodes: slots(plan.combines.len(), regions),
        }
    }

    /// The slot a [`NodeRef`] resolves to (activation or adjoint set).
    fn resolve(&self, r: NodeRef, adjoint: bool) -> TransferSlot<T> {
        let (totals, nodes) = if adjoint {
            (&self.btotals, &self.bnodes)
        } else {
            (&self.totals, &self.nodes)
        };
        match r {
            NodeRef::Total(i) => totals[i].clone(),
            NodeRef::Node(i) => nodes[i].clone(),
            NodeRef::Identity => unreachable!("identity transfers are never materialised"),
        }
    }
}

/// Scan topology plus all transfer slots of a replica built under
/// [`RecurrenceStrategy::Scan`].
pub(crate) struct ScanSlots<T: Float> {
    pub plan: ScanPlan,
    /// Forward-direction transfer slots, `[layer]`.
    pub fwd: Vec<DirScanSlots<T>>,
    /// Reverse-direction transfer slots, `[layer]`.
    pub rev: Vec<DirScanSlots<T>>,
}

/// Everything a batch graph is built for except the values: model
/// hyper-parameters, batch shape and how the graph is scheduled.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchShape {
    /// Hyper-parameters (plan-cache keys guarantee a graph is only ever
    /// replayed for models with this config).
    pub config: BrnnConfig,
    /// Total batch rows, split over the replicas by [`row_chunks`].
    pub rows: usize,
    /// Timesteps.
    pub seq: usize,
    /// Mini-batch replicas (`mbs:N`).
    pub mbs: usize,
    /// Kernel backend the forward task bodies dispatch through.
    pub backend: Backend,
    /// *Effective* recurrence strategy (callers resolve fallback and
    /// clamping via [`RecurrenceStrategy::effective`] first).
    pub strategy: RecurrenceStrategy,
    /// Emit the framework-style barrier tasks (see [`Barriers`]).
    pub barriers: bool,
}

/// Region ids of one replica's framework-style barrier tasks, `[layer]`.
///
/// Per §II, frameworks "apply per-layer barriers between forward and
/// reverse order RNNs": each layer runs its forward direction, then its
/// reverse direction, then merges, and the next layer starts only after
/// every merge. A barrier is a zero-work `barrier` task reading every
/// value of the stage it closes and writing one region that every task of
/// the next stage reads. Removing exactly these constraints is what B-Par
/// contributes.
pub(crate) struct Barriers {
    /// Forward pass, tag `l`: the forward direction of layer `l` is done;
    /// read by its reverse-direction cells.
    dir: Vec<RegionId>,
    /// Forward pass, tag `100 + l`: every merge of layer `l` is done; read
    /// by layer `l + 1`'s forward-direction cells.
    layer: Vec<RegionId>,
    /// Backward pass, tag `200 + l`: the forward direction's BPTT of layer
    /// `l` is done; read by the reverse direction's.
    bdir: Vec<RegionId>,
    /// Backward pass, tag `300 + l`: layer `l`'s backward (merge-backward
    /// included) is done; read by layer `l - 1`'s forward-direction BPTT.
    blayer: Vec<RegionId>,
}

impl Barriers {
    fn new(layers: usize, regions: &mut RegionAlloc) -> Self {
        let mut per_layer = || (0..layers).map(|_| regions.fresh()).collect();
        Self {
            dir: per_layer(),
            layer: per_layer(),
            bdir: per_layer(),
            blayer: per_layer(),
        }
    }
}

/// Cost of one scan combine `(a1,b1)∘(a2,b2) = (a1⊙a2, a2⊙b1+b2)`: a
/// `1×H` element-wise product plus a `rows×H` row-scaled add.
fn combine_flops(rows: usize, hidden: usize) -> u64 {
    ((2 * rows + 1) * hidden) as u64
}

/// Pushes one zero-work barrier task: reads `ins`, writes `out`.
fn push_barrier(sink: &mut dyn TaskSink, tag: u64, ins: Vec<RegionId>, out: RegionId) {
    sink.push(
        PlanSpec::new("barrier")
            .tag(tag)
            .ins(ins)
            .outs([out])
            .body(|| {}),
    );
}

/// The gradient a backward body reads from a `dh` slot: the slot's value,
/// or — at a position no merge-backward task feeds (see
/// [`ReplicaGraph::dh_zero`]) — the shared zero state's `h`.
fn dh_value<'a, T: Float>(
    slot: Option<&'a Matrix<T>>,
    zero: Option<&'a CellState<T>>,
) -> &'a Matrix<T> {
    match zero {
        Some(z) => &z.h,
        None => slot.expect("missing hidden-state gradient"),
    }
}

/// Merge backward (Eq. 11) straight into the two directions' `dh` slots.
fn merge_backward_in_place<T: Float>(
    mode: MergeMode,
    dmerged: &Matrix<T>,
    fh: &Matrix<T>,
    rh: &Matrix<T>,
    dhf: &Slot<Matrix<T>>,
    dhr: &Slot<Matrix<T>>,
) {
    let zeros = || Matrix::zeros(fh.rows(), fh.cols());
    dhf.write_in_place(zeros, |df| {
        dhr.write_in_place(zeros, |dr| mode.backward_into(dmerged, fh, rh, df, dr))
    });
}

/// Builds one replica graph per row chunk of `shape`, all reading weights
/// from `weights`. Input stores start empty: fill them with
/// [`ReplicaGraph::load_inputs`] before running. Returns the replicas and
/// their `(start, count)` row ranges.
pub(crate) fn build_replicas<T: Float>(
    weights: &Arc<WeightStore<T>>,
    shape: &BatchShape,
    regions: &mut RegionAlloc,
) -> (Vec<ReplicaGraph<T>>, Vec<(usize, usize)>) {
    let chunks = row_chunks(shape.rows, shape.mbs);
    let replicas = chunks
        .iter()
        .map(|&(_, count)| {
            let weight = count as f64 / shape.rows as f64;
            ReplicaGraph::new(weights.clone(), shape, count, weight, regions)
        })
        .collect();
    (replicas, chunks)
}

/// Submits one whole batch into `sink`: per replica the forward layers,
/// the output stage and (training) the backward layers deepest-first,
/// then the cross-replica gradient reductions. Every sabotaged
/// [`BuildMode`] seeds its bug in the first replica only.
pub(crate) fn submit_batch<T: Float>(
    sink: &mut dyn TaskSink,
    replicas: &[ReplicaGraph<T>],
    train: bool,
    mode: BuildMode,
    regions: &mut RegionAlloc,
) {
    for (ri, rep) in replicas.iter().enumerate() {
        let rep_mode = if ri == 0 { mode } else { BuildMode::Normal };
        let layers = rep.config.layers;
        for l in 0..layers {
            rep.submit_forward_layer(sink, l, rep_mode);
        }
        rep.submit_output(sink, train);
        if train {
            for l in (0..layers).rev() {
                rep.submit_backward_layer(sink, l);
            }
        }
    }
    if train {
        for rep in replicas.iter().skip(1) {
            rep.submit_reduce_into(sink, &replicas[0]);
        }
    }
    if mode == BuildMode::CrossEpochRace {
        // Submitted last so the probe's declared clauses attach no edges
        // to the classifier chain — the aliasing bug, not a clause bug, is
        // what makes it racy.
        replicas[0].submit_epoch_probe(sink, regions);
    }
}

/// All slots and regions for one mini-batch replica.
pub(crate) struct ReplicaGraph<T: Float> {
    /// Shared weight snapshot read by every task.
    pub weights: Arc<WeightStore<T>>,
    /// Hyper-parameters frozen at construction (plan-cache keys guarantee
    /// a replica is only ever replayed for models with this config).
    pub config: BrnnConfig,
    /// Input timesteps for this replica (`rows × input_size` each);
    /// refilled between replays via [`ReplicaGraph::load_inputs`].
    pub xs: Arc<RwLock<Vec<Matrix<T>>>>,
    /// Per-output-position target classes; swappable between replays via
    /// [`ReplicaGraph::set_target`]. Empty for inference graphs.
    pub targets: Arc<RwLock<Vec<Vec<usize>>>>,
    /// Sequence length (timesteps) this replica was built for.
    pub seq: usize,
    /// Batch rows in this replica.
    pub rows: usize,
    /// Loss weight `rows / total_rows` (1.0 when mbs = 1).
    pub weight: f64,
    /// Forward-direction cell outputs, `[layer][t]`.
    pub st_fwd: Vec<Vec<CellSlot<T>>>,
    /// Reverse-direction cell outputs, `[layer][t]`.
    pub st_rev: Vec<Vec<CellSlot<T>>>,
    /// Merge-cell outputs feeding layer `l+1`, `[layer][t]` for `l < L-1`.
    pub merged: Vec<Vec<Slot<Matrix<T>>>>,
    /// Classifier features (1 entry for many-to-one, T for many-to-many).
    pub feat: Vec<Slot<Matrix<T>>>,
    /// Classifier logits matching `feat`.
    pub logits: Vec<Slot<Matrix<T>>>,
    /// Gradients w.r.t. classifier features.
    pub dfeat: Vec<Slot<Matrix<T>>>,
    /// Gradients w.r.t. forward-direction hidden outputs, `[layer][t]`.
    pub dh_fwd: Vec<Vec<Slot<Matrix<T>>>>,
    /// Gradients w.r.t. reverse-direction hidden outputs, `[layer][t]`.
    pub dh_rev: Vec<Vec<Slot<Matrix<T>>>>,
    /// Recurrent state gradients, forward direction, `[layer][t]`.
    pub sg_fwd: Vec<Vec<Slot<StateGrad<T>>>>,
    /// Recurrent state gradients, reverse direction, `[layer][t]`.
    pub sg_rev: Vec<Vec<Slot<StateGrad<T>>>>,
    /// Gradients w.r.t. each layer's inputs via the forward-direction
    /// cells, `[layer][t]`. Kept separate from the reverse-direction
    /// contribution so the two BPTT chains share no output region — a
    /// shared accumulator would add a WAW edge serialising the directions.
    pub dinput_f: Vec<Vec<Slot<Matrix<T>>>>,
    /// Gradients w.r.t. each layer's inputs via the reverse-direction
    /// cells, `[layer][t]`.
    pub dinput_r: Vec<Vec<Slot<Matrix<T>>>>,
    /// Per-layer forward-direction weight-gradient accumulators.
    pub grads_fwd: Vec<Slot<CellParams<T>>>,
    /// Per-layer reverse-direction weight-gradient accumulators.
    pub grads_rev: Vec<Slot<CellParams<T>>>,
    /// Classifier weight-gradient accumulator.
    pub grads_dense: Slot<DenseParams<T>>,
    /// Weighted loss accumulator.
    pub loss: Slot<f64>,
    /// Shared all-zero recurrent state read by every sequence-boundary
    /// cell (`t = 0` forward, `t = T-1` reverse) instead of allocating a
    /// fresh zero state inside each boundary task on every replay.
    pub zero_state: Arc<CellState<T>>,
    /// Kernel backend every forward-path task body dispatches through
    /// (cell GEMMs, bias broadcasts, gate non-linearities, classifier
    /// projection). [`Backend::scalar`] reproduces the reference
    /// bit-for-bit; backward/training tasks always use the scalar oracle.
    pub backend: Backend,
    /// How each direction's timestep recurrence is executed (the
    /// *effective* strategy — callers resolve fallback/clamping via
    /// [`RecurrenceStrategy::effective`] before construction).
    pub strategy: RecurrenceStrategy,
    /// Scan topology and transfer slots; `Some` iff `strategy` is scan.
    pub scan: Option<ScanSlots<T>>,
    /// Framework-style barrier regions; `Some` iff built with barriers.
    pub barriers: Option<Barriers>,
}

impl<T: Float> ReplicaGraph<T> {
    /// Allocates all slots for a replica of `rows` batch rows of `shape`.
    /// The input store starts empty (see [`ReplicaGraph::load_inputs`]).
    pub fn new(
        weights: Arc<WeightStore<T>>,
        shape: &BatchShape,
        rows: usize,
        weight: f64,
        regions: &mut RegionAlloc,
    ) -> Self {
        let cfg = shape.config;
        let seq = shape.seq;
        let strategy = shape.strategy;
        let scan = strategy.scan_chunks().map(|chunks| {
            assert!(
                cfg.cell.scannable(),
                "scan recurrence requires a scannable cell (got {:?}); callers \
                 must resolve RecurrenceStrategy::effective first",
                cfg.cell
            );
            assert!(
                !shape.barriers,
                "the scan strategy excludes the barrier ablation"
            );
            let plan = ScanPlan::new(seq, chunks);
            ScanSlots {
                fwd: (0..cfg.layers)
                    .map(|_| DirScanSlots::new(&plan, regions))
                    .collect(),
                rev: (0..cfg.layers)
                    .map(|_| DirScanSlots::new(&plan, regions))
                    .collect(),
                plan,
            }
        });
        fn grid<X>(layers: usize, seq: usize, regions: &mut RegionAlloc) -> Vec<Vec<Slot<X>>> {
            (0..layers)
                .map(|_| (0..seq).map(|_| Slot::new(regions)).collect())
                .collect()
        }
        let n_out = match cfg.kind {
            ModelKind::ManyToOne => 1,
            ModelKind::ManyToMany => seq,
        };
        Self {
            xs: Arc::new(RwLock::new(Vec::new())),
            targets: Arc::new(RwLock::new(Vec::new())),
            seq,
            rows,
            weight,
            st_fwd: grid(cfg.layers, seq, regions),
            st_rev: grid(cfg.layers, seq, regions),
            merged: (0..cfg.layers.saturating_sub(1))
                .map(|_| (0..seq).map(|_| Slot::new(regions)).collect())
                .collect(),
            feat: (0..n_out).map(|_| Slot::new(regions)).collect(),
            logits: (0..n_out).map(|_| Slot::new(regions)).collect(),
            dfeat: (0..n_out).map(|_| Slot::new(regions)).collect(),
            dh_fwd: grid(cfg.layers, seq, regions),
            dh_rev: grid(cfg.layers, seq, regions),
            sg_fwd: grid(cfg.layers, seq, regions),
            sg_rev: grid(cfg.layers, seq, regions),
            dinput_f: grid(cfg.layers, seq, regions),
            dinput_r: grid(cfg.layers, seq, regions),
            grads_fwd: (0..cfg.layers).map(|_| Slot::new(regions)).collect(),
            grads_rev: (0..cfg.layers).map(|_| Slot::new(regions)).collect(),
            grads_dense: Slot::new(regions),
            loss: Slot::new(regions),
            zero_state: Arc::new(CellState::zeros(cfg.cell, rows, cfg.hidden_size)),
            weights,
            config: cfg,
            backend: shape.backend,
            strategy,
            scan,
            barriers: shape.barriers.then(|| Barriers::new(cfg.layers, regions)),
        }
    }

    /// Sequence length of this replica.
    pub fn seq_len(&self) -> usize {
        self.seq
    }

    /// Copies batch rows `[start, start + count)` of `batch` into this
    /// replica's persistent input buffers — the steady-state path of
    /// [`super::plan::ExecPlan::load_batch`], which allocates nothing.
    /// Falls back to allocating fresh buffers when the store is empty
    /// (first run, or after [`ReplicaGraph::clear_values`]).
    pub fn load_inputs(&self, batch: &[Matrix<T>], start: usize, count: usize) {
        assert_eq!(batch.len(), self.seq, "input timestep count changed");
        assert_eq!(count, self.rows, "input row count changed");
        let mut xs = self.xs.write();
        if xs.len() != self.seq {
            *xs = batch.iter().map(|x| x.row_block(start, count)).collect();
        } else {
            for (dst, src) in xs.iter_mut().zip(batch) {
                src.row_block_into(start, count, dst);
            }
        }
    }

    /// Analytic size of this replica's persistent buffers — the arena a
    /// resident plan holds between replays: inputs, the shared zero state,
    /// per-cell states and BPTT caches, merge outputs, features and
    /// logits, plus for a `train` graph every gradient slot the backward
    /// tasks overwrite in place. Per-task scratch workspaces (bounded by
    /// the cells' working-set estimates) and the weight-gradient
    /// accumulators are excluded: the former are small, the latter are
    /// drained every batch by [`ReplicaGraph::take_grads`].
    pub fn persistent_bytes(&self, train: bool) -> u64 {
        let cfg = self.config;
        let scalar = std::mem::size_of::<T>();
        // State and cache buffers all scale linearly with batch rows, so a
        // one-row probe gives the per-row footprint without materialising
        // full-size buffers.
        let state_row = CellState::<T>::zeros(cfg.cell, 1, cfg.hidden_size).nbytes();
        let mut total = self.seq * self.rows * cfg.input_size * scalar;
        total += self.rows * state_row;
        for l in 0..cfg.layers {
            let per_row = state_row
                + CellCache::<T>::zeros(cfg.cell, 1, cfg.layer_input_size(l), cfg.hidden_size)
                    .nbytes();
            // Forward + reverse grids, one cell per timestep.
            total += 2 * self.seq * self.rows * per_row;
        }
        let merge_w = cfg.merge.output_width(cfg.hidden_size);
        total += cfg.layers.saturating_sub(1) * self.seq * self.rows * merge_w * scalar;
        total += self.feat.len() * self.rows * (merge_w + cfg.output_size) * scalar;
        if let Some(scan) = &self.scan {
            // Scan transfer slots stay warm between replays: one
            // (1 × h, rows × h) pair per chunk total and per combine node,
            // per direction, per layer — twice over for training, whose
            // adjoint scan has the same topology.
            let per = (cfg.hidden_size + self.rows * cfg.hidden_size) * scalar;
            let n = scan.plan.chunk_count() + scan.plan.combines.len();
            total += 2 * cfg.layers * n * per * if train { 2 } else { 1 };
        }
        if train {
            let hidden_row = self.rows * cfg.hidden_size * scalar;
            // Per timestep and direction: the state gradient and the
            // layer-input gradient, plus `dh` where a merge feeds it.
            for l in 0..cfg.layers {
                let input_row = self.rows * cfg.layer_input_size(l) * scalar;
                let fed = (0..self.seq)
                    .flat_map(|t| [(t, true), (t, false)])
                    .filter(|&(t, fwd)| self.dh_fed(l, t, fwd))
                    .count();
                total += 2 * self.seq * (self.rows * state_row + input_row) + fed * hidden_row;
            }
            total += self.dfeat.len() * self.rows * cfg.classifier_input_size() * scalar;
        }
        total as u64
    }

    /// Sets the training targets for the next run of the graph to rows
    /// `[start, start + count)` of `target`, one class vector per output
    /// position, reusing the store's buffers.
    pub fn set_target(&self, target: &super::Target, start: usize, count: usize) {
        let per_pos: &[Vec<usize>] = match (self.config.kind, target) {
            (ModelKind::ManyToOne, super::Target::Classes(c)) => std::slice::from_ref(c),
            (ModelKind::ManyToMany, super::Target::SeqClasses(s)) => s,
            _ => panic!("target kind does not match model kind"),
        };
        assert_eq!(per_pos.len(), self.logits.len(), "target positions");
        let mut dst = self.targets.write();
        dst.resize_with(per_pos.len(), Vec::new);
        for (d, classes) in dst.iter_mut().zip(per_pos) {
            d.clear();
            d.extend_from_slice(&classes[start..start + count]);
        }
    }

    /// Drops every transient value (activations, caches, gradients,
    /// inputs, targets) while keeping slots and regions alive, so the next
    /// run starts from the same all-empty state a freshly built graph has
    /// (see [`super::plan::ExecPlan::clear_values`]).
    pub fn clear_values(&self) {
        fn clear_grid<X>(grid: &[Vec<Slot<X>>]) {
            for row in grid {
                for s in row {
                    s.take();
                }
            }
        }
        clear_grid(&self.st_fwd);
        clear_grid(&self.st_rev);
        clear_grid(&self.merged);
        clear_grid(&self.dh_fwd);
        clear_grid(&self.dh_rev);
        clear_grid(&self.sg_fwd);
        clear_grid(&self.sg_rev);
        clear_grid(&self.dinput_f);
        clear_grid(&self.dinput_r);
        for s in self.feat.iter().chain(&self.logits).chain(&self.dfeat) {
            s.take();
        }
        for s in self.grads_fwd.iter().chain(&self.grads_rev) {
            s.take();
        }
        if let Some(scan) = &self.scan {
            for dir in scan.fwd.iter().chain(&scan.rev) {
                for s in dir
                    .totals
                    .iter()
                    .chain(&dir.nodes)
                    .chain(&dir.btotals)
                    .chain(&dir.bnodes)
                {
                    s.take();
                }
            }
        }
        self.grads_dense.take();
        self.loss.take();
        self.xs.write().clear();
        self.targets.write().clear();
    }

    /// Whether a merge-backward task writes `dh[l][t]` of direction
    /// `fwd`. Every position below the last layer is fed; at the last
    /// layer only the classifier's positions are (all of them for
    /// many-to-many, `T-1` forward and `0` reverse for many-to-one).
    fn dh_fed(&self, l: usize, t: usize, fwd: bool) -> bool {
        let cfg = self.config;
        l + 1 < cfg.layers
            || cfg.kind == ModelKind::ManyToMany
            || t == if fwd { self.seq - 1 } else { 0 }
    }

    /// The shared zero state at `dh` positions no merge feeds, else
    /// `None`: fixed at build time, so backward bodies read a zero
    /// gradient there without allocating one per run.
    fn dh_zero(&self, l: usize, t: usize, fwd: bool) -> Option<Arc<CellState<T>>> {
        (!self.dh_fed(l, t, fwd)).then(|| self.zero_state.clone())
    }

    /// Submits all cell and merge tasks of layer `l` (Algorithms 2 and 3:
    /// forward-order cells, reverse-order cells, merge cells). `mode` is
    /// the sabotage hook for the clause-soundness detectors.
    fn submit_forward_layer(&self, sink: &mut dyn TaskSink, l: usize, mode: BuildMode) {
        if self.scan.is_some() {
            assert!(
                mode != BuildMode::MissingStateClause,
                "the MissingStateClause sabotage targets a chain task that \
                 scan graphs do not contain"
            );
            self.submit_forward_layer_scan(sink, l);
            self.submit_merge_tasks(sink, l);
            return;
        }
        let seq = self.seq_len();
        // Forward-order cells, t ascending (Algorithm 2). Sabotage hook:
        // drop exactly the (l=0, t=1) -> (l=0, t=0) state clause. The body
        // is untouched and still reads the slot, so the resulting plan
        // contains a genuine undeclared dependency for the detectors.
        for t in 0..seq {
            let sabotaged = mode == BuildMode::MissingStateClause && l == 0 && t == 1;
            self.push_cell(sink, l, t, true, !sabotaged);
        }
        if let Some(b) = &self.barriers {
            let ins = (0..seq).map(|t| self.st_fwd[l][t].region).collect();
            push_barrier(sink, l as u64, ins, b.dir[l]);
        }
        // Reverse-order cells, created t descending (Algorithm 3).
        for t in (0..seq).rev() {
            self.push_cell(sink, l, t, false, true);
        }
        self.submit_merge_tasks(sink, l);
    }

    /// One cell update of layer `l` at timestep `t` in the forward
    /// (`fwd`) or reverse direction. It depends on its own recurrent state
    /// (`t-1` forward, `t+1` reverse; the clause is declared iff
    /// `state_clause`) and, for `l > 0`, on the merge cell below.
    fn push_cell(
        &self,
        sink: &mut dyn TaskSink,
        l: usize,
        t: usize,
        fwd: bool,
        state_clause: bool,
    ) {
        let cfg = self.config;
        let (st, label) = if fwd {
            (&self.st_fwd[l], "cell_fwd")
        } else {
            (&self.st_rev[l], "cell_rev")
        };
        let prev_t = if fwd {
            t.checked_sub(1)
        } else {
            Some(t + 1).filter(|&p| p < self.seq_len())
        };
        let prev = prev_t.map(|p| st[p].clone());
        let below = (l > 0).then(|| self.merged[l - 1][t].clone());
        let mut ins: Vec<RegionId> = Vec::with_capacity(3);
        if let Some(p) = prev.as_ref().filter(|_| state_clause) {
            ins.push(p.region);
        }
        if let Some(b) = &below {
            ins.push(b.region);
        }
        if let Some(b) = &self.barriers {
            // Forward cells wait for the layer below to finish, reverse
            // cells for their own layer's forward direction.
            match (fwd, l) {
                (true, 0) => {}
                (true, _) => ins.push(b.layer[l - 1]),
                (false, _) => ins.push(b.dir[l]),
            }
        }
        let input_w = cfg.layer_input_size(l);
        let hidden = cfg.hidden_size;
        let scalar = std::mem::size_of::<T>();
        let weights = self.weights.clone();
        let xs = self.xs.clone();
        let dst = st[t].clone();
        let zero = self.zero_state.clone();
        let rows = self.rows;
        let be = self.backend;
        // Per-task scratch arena. A compiled task runs at most once per
        // replay and replays are separated by `taskwait`, so the lock is
        // never contended; it exists to keep the body `Fn + Sync`.
        let scratch = Arc::new(Mutex::new(Workspace::new()));
        sink.push(
            PlanSpec::new(label)
                .tag(((l as u64) << 32) | t as u64)
                .ins(ins)
                .outs([dst.region])
                .flops(cfg.cell.forward_flops(rows, input_w, hidden))
                .working_set(cfg.cell.forward_working_set(rows, input_w, hidden, scalar))
                .body(move || {
                    let model = weights.snapshot();
                    let cfg = model.config;
                    let params = if fwd {
                        &model.layers[l].fwd
                    } else {
                        &model.layers[l].rev
                    };
                    let mut scratch = scratch.lock();
                    let init = || {
                        (
                            CellState::zeros(cfg.cell, rows, cfg.hidden_size),
                            CellCache::zeros(
                                cfg.cell,
                                rows,
                                cfg.layer_input_size(l),
                                cfg.hidden_size,
                            ),
                        )
                    };
                    match (&below, &prev) {
                        (Some(below), Some(prev)) => below.with(|m| {
                            let m = m.expect("missing merge");
                            prev.with(|v| {
                                let p = &v.expect("missing recurrent state").0;
                                dst.write_in_place(init, |(st, cache)| {
                                    params.forward_ws(m, p, st, cache, &mut scratch, be)
                                })
                            })
                        }),
                        (Some(below), None) => below.with(|m| {
                            let m = m.expect("missing merge");
                            dst.write_in_place(init, |(st, cache)| {
                                params.forward_ws(m, &zero, st, cache, &mut scratch, be)
                            })
                        }),
                        (None, Some(prev)) => {
                            let xs = xs.read();
                            prev.with(|v| {
                                let p = &v.expect("missing recurrent state").0;
                                dst.write_in_place(init, |(st, cache)| {
                                    params.forward_ws(&xs[t], p, st, cache, &mut scratch, be)
                                })
                            })
                        }
                        (None, None) => {
                            let xs = xs.read();
                            dst.write_in_place(init, |(st, cache)| {
                                params.forward_ws(&xs[t], &zero, st, cache, &mut scratch, be)
                            })
                        }
                    }
                }),
        );
    }

    /// Merge cells (all layers except the last, which is handled by
    /// `submit_output`), then the layer barrier when built with barriers.
    /// Kept as separate tasks so forward and reverse cells never depend on
    /// each other (§III-A). Shared by the chain and scan forward paths —
    /// merges read completed `st` slots either way.
    fn submit_merge_tasks(&self, sink: &mut dyn TaskSink, l: usize) {
        let cfg = self.config;
        let seq = self.seq_len();
        let hidden = cfg.hidden_size;
        if l + 1 >= cfg.layers {
            return;
        }
        let merge_ws = 3 * self.rows * cfg.merge.output_width(hidden) * std::mem::size_of::<T>();
        let width = cfg.merge.output_width(hidden);
        for t in 0..seq {
            let f = self.st_fwd[l][t].clone();
            let r = self.st_rev[l][t].clone();
            let dst = self.merged[l][t].clone();
            let mode = cfg.merge;
            let rows = self.rows;
            sink.push(
                PlanSpec::new("merge")
                    .tag(((l as u64) << 32) | t as u64)
                    .ins([f.region, r.region])
                    .outs([dst.region])
                    .flops(cfg.merge.flops(rows, hidden))
                    .working_set(merge_ws)
                    .body(move || {
                        f.with(|fv| {
                            r.with(|rv| {
                                dst.write_in_place(
                                    || Matrix::zeros(rows, width),
                                    |m| {
                                        mode.apply_into(
                                            &fv.expect("fwd missing").0.h,
                                            &rv.expect("rev missing").0.h,
                                            m,
                                        )
                                    },
                                )
                            })
                        });
                    }),
            );
        }
        if let Some(b) = &self.barriers {
            let ins = (0..seq).map(|t| self.merged[l][t].region).collect();
            push_barrier(sink, 100 + l as u64, ins, b.layer[l]);
        }
    }

    /// Submits layer `l`'s forward tasks under
    /// [`RecurrenceStrategy::Scan`]: per direction, `C` chunk-local
    /// sweeps (`scan_local`), the Blelloch combine tree (`scan_comb`),
    /// and `C-1` fix-ups (`scan_fix`) that fold each chunk's exclusive
    /// prefix into its states. After the fix-ups every `st` slot holds
    /// the same `(state, cache)` a chain execution would have produced
    /// (up to FP reassociation in chunks > 0), so merges and everything
    /// downstream are strategy-oblivious.
    fn submit_forward_layer_scan(&self, sink: &mut dyn TaskSink, l: usize) {
        let scan = self.scan.as_ref().expect("scan slots");
        let cfg = self.config;
        let seq = self.seq_len();
        let hidden = cfg.hidden_size;
        let input_w = cfg.layer_input_size(l);
        let scalar = std::mem::size_of::<T>();
        let step_flops = cfg.cell.forward_flops(self.rows, input_w, hidden);
        let cell_ws = cfg
            .cell
            .forward_working_set(self.rows, input_w, hidden, scalar);
        let transfer_bytes = (hidden + self.rows * hidden) * scalar;

        for fwd_dir in [true, false] {
            let (st, dirslots) = if fwd_dir {
                (&self.st_fwd[l], &scan.fwd[l])
            } else {
                (&self.st_rev[l], &scan.rev[l])
            };
            // Logical scan position -> physical timestep: the reverse
            // direction's recurrence runs right-to-left, so its chunk 0
            // starts at t = T-1.
            let phys = |j: usize| if fwd_dir { j } else { seq - 1 - j };
            let dir_bit = u64::from(!fwd_dir);
            let tag = |i: usize| (dir_bit << 56) | ((l as u64) << 32) | i as u64;

            // Chunk-local sweeps: a sequential chain from a *zero*
            // incoming state, writing every `st` slot of the chunk plus
            // the chunk's total transfer (λ^len, h_last). Chunk 0's
            // incoming state really is zero, so its states are final
            // (and bit-identical to the chain executor's).
            for (c, &(j0, j1)) in scan.plan.chunks.iter().enumerate() {
                let len = j1 - j0;
                let mut ins: Vec<RegionId> = Vec::new();
                if l > 0 {
                    ins.extend((j0..j1).map(|j| self.merged[l - 1][phys(j)].region));
                }
                let mut outs: Vec<RegionId> = (j0..j1).map(|j| st[phys(j)].region).collect();
                outs.push(dirslots.totals[c].region);
                let weights = self.weights.clone();
                let xs = self.xs.clone();
                let below: Option<Vec<Slot<Matrix<T>>>> = (l > 0).then(|| {
                    (j0..j1)
                        .map(|j| self.merged[l - 1][phys(j)].clone())
                        .collect()
                });
                let dsts: Vec<CellSlot<T>> = (j0..j1).map(|j| st[phys(j)].clone()).collect();
                let phys_ts: Vec<usize> = (j0..j1).map(phys).collect();
                let total = dirslots.totals[c].clone();
                let rows = self.rows;
                let be = self.backend;
                let scratch = Arc::new(Mutex::new(Workspace::new()));
                // Persistent running state: the within-chunk recurrence
                // carry, reset to zero at the top of every run.
                let carry = Arc::new(Mutex::new(CellState::<T>::zeros(cfg.cell, rows, hidden)));
                sink.push(
                    PlanSpec::new("scan_local")
                        .tag(tag(c))
                        .ins(ins)
                        .outs(outs)
                        // Chain sweep over the chunk plus the λ^len total.
                        .flops(len as u64 * step_flops + (len * hidden) as u64)
                        .working_set(cell_ws * len)
                        .body(move || {
                            let model = weights.snapshot();
                            let cfg = model.config;
                            let params = if fwd_dir {
                                &model.layers[l].fwd
                            } else {
                                &model.layers[l].rev
                            };
                            let mut scratch = scratch.lock();
                            let mut carry = carry.lock();
                            carry.h.fill_zero();
                            let xs_guard = below.is_none().then(|| xs.read());
                            for (i, dst) in dsts.iter().enumerate() {
                                let init = || {
                                    (
                                        CellState::zeros(cfg.cell, rows, cfg.hidden_size),
                                        CellCache::zeros(
                                            cfg.cell,
                                            rows,
                                            cfg.layer_input_size(l),
                                            cfg.hidden_size,
                                        ),
                                    )
                                };
                                match &below {
                                    Some(b) => b[i].with(|m| {
                                        let m = m.expect("missing merge");
                                        dst.write_in_place(init, |(stv, cache)| {
                                            params.forward_ws(
                                                m,
                                                &carry,
                                                stv,
                                                cache,
                                                &mut scratch,
                                                be,
                                            );
                                            carry.h.copy_from(&stv.h);
                                        })
                                    }),
                                    None => {
                                        let x = &xs_guard.as_ref().expect("inputs")[phys_ts[i]];
                                        dst.write_in_place(init, |(stv, cache)| {
                                            params.forward_ws(
                                                x,
                                                &carry,
                                                stv,
                                                cache,
                                                &mut scratch,
                                                be,
                                            );
                                            carry.h.copy_from(&stv.h);
                                        })
                                    }
                                }
                            }
                            let lam = match params {
                                CellParams::Linear(p) => &p.lambda,
                                _ => unreachable!("scan requires a scannable cell"),
                            };
                            total.write_in_place(
                                || {
                                    (
                                        Matrix::zeros(1, cfg.hidden_size),
                                        Matrix::zeros(rows, cfg.hidden_size),
                                    )
                                },
                                |(a, b)| {
                                    a.fill(T::ONE);
                                    for _ in 0..len {
                                        be.row_scale(lam, a);
                                    }
                                    b.copy_from(&carry.h);
                                },
                            );
                        }),
                );
            }

            // Combine tree: `(a1,b1) ∘ (a2,b2) = (a1⊙a2, a2⊙b1+b2)`,
            // emitted in the plan's dependency-safe order.
            for (k, comb) in scan.plan.combines.iter().enumerate() {
                let lhs = dirslots.resolve(comb.lhs, false);
                let rhs = dirslots.resolve(comb.rhs, false);
                let dst = dirslots.nodes[k].clone();
                let rows = self.rows;
                let be = self.backend;
                sink.push(
                    PlanSpec::new("scan_comb")
                        .tag(tag(k))
                        .ins([lhs.region, rhs.region])
                        .outs([dst.region])
                        .flops(combine_flops(rows, hidden))
                        .working_set(3 * transfer_bytes)
                        .body(move || {
                            lhs.with(|lv| {
                                let (a1, b1) = lv.expect("missing scan operand");
                                rhs.with(|rv| {
                                    let (a2, b2) = rv.expect("missing scan operand");
                                    dst.write_in_place(
                                        || (Matrix::zeros(1, hidden), Matrix::zeros(rows, hidden)),
                                        |(oa, ob)| be.scan_combine(a1, b1, a2, b2, oa, ob),
                                    )
                                })
                            });
                        }),
                );
            }

            // Fix-ups: chunk c's true incoming state is the `b` component
            // of its exclusive prefix (the global initial state is zero).
            // Walk the chunk once, updating carry `p ← λ⊙p` and adding the
            // decayed correction to each state (and, for BPTT, to each
            // cached h_prev). Read-modify-writes, so the `st` regions are
            // declared inout.
            for (c, &(j0, j1)) in scan.plan.chunks.iter().enumerate().skip(1) {
                let len = j1 - j0;
                let pref = dirslots.resolve(scan.plan.prefix_of_chunk[c], false);
                let dsts: Vec<CellSlot<T>> = (j0..j1).map(|j| st[phys(j)].clone()).collect();
                let mut ins: Vec<RegionId> = vec![pref.region];
                ins.extend(dsts.iter().map(|s| s.region));
                let outs: Vec<RegionId> = dsts.iter().map(|s| s.region).collect();
                let weights = self.weights.clone();
                let rows = self.rows;
                let be = self.backend;
                let scratch = Arc::new(Mutex::new(Workspace::new()));
                sink.push(
                    PlanSpec::new("scan_fix")
                        .tag(tag(c))
                        .ins(ins)
                        .outs(outs)
                        // Per position: h_prev += carry, carry ← λ⊙carry,
                        // h += carry (all rows×H element-wise).
                        .flops((5 * rows * hidden * len) as u64)
                        .working_set((2 * len + 1) * rows * hidden * scalar)
                        .body(move || {
                            let model = weights.snapshot();
                            let params = if fwd_dir {
                                &model.layers[l].fwd
                            } else {
                                &model.layers[l].rev
                            };
                            let lam = match params {
                                CellParams::Linear(p) => &p.lambda,
                                _ => unreachable!("scan requires a scannable cell"),
                            };
                            let mut scratch = scratch.lock();
                            let mut carry = scratch.checkout(rows, model.config.hidden_size);
                            pref.with(|p| {
                                let (_, pb) = p.expect("missing scan prefix");
                                carry.copy_from(pb);
                            });
                            for dst in &dsts {
                                dst.update(
                                    || unreachable!("scan_fix ran before its chunk-local sweep"),
                                    |(stv, cache)| {
                                        // True h_prev at this step gains
                                        // λ^i ⊙ h_in (carry before the
                                        // scale), the state λ^(i+1) ⊙ h_in.
                                        if let CellCache::Linear(lc) = cache {
                                            bpar_tensor::ops::axpy(T::ONE, &carry, &mut lc.h_prev);
                                        }
                                        be.row_scale(lam, &mut carry);
                                        bpar_tensor::ops::axpy(T::ONE, &carry, &mut stv.h);
                                    },
                                );
                            }
                            scratch.give_back(carry);
                        }),
                );
            }
        }
    }

    /// Submits layer `l`'s BPTT tasks under [`RecurrenceStrategy::Scan`].
    /// The adjoint `δ_t = dh_t + λ ⊙ δ_{t+1}` is itself a diagonal linear
    /// recurrence over *reversed* scan order (BPPSA), so the same
    /// [`ScanPlan`] runs again: `bscan_local` sweeps each chunk from a
    /// zero incoming adjoint, `bscan_comb` builds the tree over the
    /// reversed chunk sequence, `bscan_fix` folds each chunk's exclusive
    /// adjoint prefix in, and `bscan_grad` turns the corrected adjoints
    /// into weight/input gradients (one task per chunk, accumulator-
    /// serialised in the chain executor's t-descending order).
    fn submit_backward_layer_scan(&self, sink: &mut dyn TaskSink, l: usize) {
        let scan = self.scan.as_ref().expect("scan slots");
        let cfg = self.config;
        let seq = self.seq_len();
        let hidden = cfg.hidden_size;
        let input_w = cfg.layer_input_size(l);
        let scalar = std::mem::size_of::<T>();
        let bwd_flops = cfg.cell.backward_flops(self.rows, input_w, hidden);
        let cell_ws = cfg
            .cell
            .backward_working_set(self.rows, input_w, hidden, scalar);
        let transfer_bytes = (hidden + self.rows * hidden) * scalar;
        let cc = scan.plan.chunk_count();

        for fwd_dir in [true, false] {
            let (st, dh, sg, dinput, gacc_slot, dirslots) = if fwd_dir {
                (
                    &self.st_fwd[l],
                    &self.dh_fwd[l],
                    &self.sg_fwd[l],
                    &self.dinput_f[l],
                    &self.grads_fwd[l],
                    &scan.fwd[l],
                )
            } else {
                (
                    &self.st_rev[l],
                    &self.dh_rev[l],
                    &self.sg_rev[l],
                    &self.dinput_r[l],
                    &self.grads_rev[l],
                    &scan.rev[l],
                )
            };
            let phys = |j: usize| if fwd_dir { j } else { seq - 1 - j };
            let dir_bit = u64::from(!fwd_dir);
            let tag = |i: usize| (dir_bit << 56) | ((l as u64) << 32) | i as u64;

            // Adjoint chunk-local sweeps. Backward scan-order chunk `bc`
            // is forward chunk `C-1-bc`; within it the adjoint runs over
            // logical positions descending from a zero incoming adjoint.
            // The `sg` slots hold the (local, later corrected) total
            // adjoint δ — a different convention from the chain executor,
            // whose `sg[t]` holds the λ-scaled gradient flowing into
            // `t-1`; both are internal to their own task sets.
            for bc in 0..cc {
                let c = cc - 1 - bc;
                let (j0, j1) = scan.plan.chunks[c];
                let len = j1 - j0;
                let ins: Vec<RegionId> = (j0..j1).map(|j| dh[phys(j)].region).collect();
                let mut outs: Vec<RegionId> = (j0..j1).map(|j| sg[phys(j)].region).collect();
                outs.push(dirslots.btotals[bc].region);
                let weights = self.weights.clone();
                let dhs: Vec<Slot<Matrix<T>>> = (j0..j1).map(|j| dh[phys(j)].clone()).collect();
                let sgs: Vec<Slot<StateGrad<T>>> = (j0..j1).map(|j| sg[phys(j)].clone()).collect();
                let btotal = dirslots.btotals[bc].clone();
                let zeros: Vec<Option<Arc<CellState<T>>>> = (j0..j1)
                    .map(|j| self.dh_zero(l, phys(j), fwd_dir))
                    .collect();
                let rows = self.rows;
                let scratch = Arc::new(Mutex::new(Workspace::new()));
                sink.push(
                    PlanSpec::new("bscan_local")
                        .tag(tag(bc))
                        .ins(ins)
                        .outs(outs)
                        // Per position: δ = dh + λ⊙carry plus the λ^len total.
                        .flops((3 * rows * hidden * len + hidden * len) as u64)
                        .working_set(2 * len * rows * hidden * scalar)
                        .body(move || {
                            let model = weights.snapshot();
                            let cfg = model.config;
                            let params = if fwd_dir {
                                &model.layers[l].fwd
                            } else {
                                &model.layers[l].rev
                            };
                            let lam = match params {
                                CellParams::Linear(p) => &p.lambda,
                                _ => unreachable!("scan requires a scannable cell"),
                            };
                            let mut scratch = scratch.lock();
                            // Checkout zeroes the buffer: the chunk-local
                            // sweep starts from a zero incoming adjoint.
                            let mut carry = scratch.checkout(rows, cfg.hidden_size);
                            for i in (0..len).rev() {
                                dhs[i].with(|d| {
                                    let dh_val = dh_value(d, zeros[i].as_deref());
                                    sgs[i].write_in_place(
                                        || StateGrad::zeros(cfg.cell, rows, cfg.hidden_size),
                                        |sgv| {
                                            bpar_tensor::ops::row_mul_add(
                                                lam,
                                                &carry,
                                                dh_val,
                                                &mut sgv.dh,
                                            );
                                            carry.copy_from(&sgv.dh);
                                        },
                                    )
                                });
                            }
                            btotal.write_in_place(
                                || {
                                    (
                                        Matrix::zeros(1, cfg.hidden_size),
                                        Matrix::zeros(rows, cfg.hidden_size),
                                    )
                                },
                                |(a, b)| {
                                    a.fill(T::ONE);
                                    for _ in 0..len {
                                        bpar_tensor::ops::row_scale(lam, a);
                                    }
                                    b.copy_from(&carry);
                                },
                            );
                            scratch.give_back(carry);
                        }),
                );
            }

            // Adjoint combine tree — the transfers compose identically,
            // just over the reversed chunk sequence. Backward tasks stay
            // on the scalar oracle like all training kernels.
            for (k, comb) in scan.plan.combines.iter().enumerate() {
                let lhs = dirslots.resolve(comb.lhs, true);
                let rhs = dirslots.resolve(comb.rhs, true);
                let dst = dirslots.bnodes[k].clone();
                let rows = self.rows;
                sink.push(
                    PlanSpec::new("bscan_comb")
                        .tag(tag(k))
                        .ins([lhs.region, rhs.region])
                        .outs([dst.region])
                        .flops(combine_flops(rows, hidden))
                        .working_set(3 * transfer_bytes)
                        .body(move || {
                            lhs.with(|lv| {
                                let (a1, b1) = lv.expect("missing adjoint operand");
                                rhs.with(|rv| {
                                    let (a2, b2) = rv.expect("missing adjoint operand");
                                    dst.write_in_place(
                                        || (Matrix::zeros(1, hidden), Matrix::zeros(rows, hidden)),
                                        |(oa, ob)| {
                                            bpar_tensor::ops::scan_combine(a1, b1, a2, b2, oa, ob)
                                        },
                                    )
                                })
                            });
                        }),
                );
            }

            // Adjoint fix-ups: chunk `bc`'s incoming adjoint δ_in is the
            // `b` of its exclusive prefix (the adjoint past the last
            // timestep is zero); each position j gains λ^(j1-j) ⊙ δ_in.
            for bc in 1..cc {
                let c = cc - 1 - bc;
                let (j0, j1) = scan.plan.chunks[c];
                let len = j1 - j0;
                let pref = dirslots.resolve(scan.plan.prefix_of_chunk[bc], true);
                let sgs: Vec<Slot<StateGrad<T>>> = (j0..j1).map(|j| sg[phys(j)].clone()).collect();
                let mut ins: Vec<RegionId> = vec![pref.region];
                ins.extend(sgs.iter().map(|s| s.region));
                let outs: Vec<RegionId> = sgs.iter().map(|s| s.region).collect();
                let weights = self.weights.clone();
                let rows = self.rows;
                let scratch = Arc::new(Mutex::new(Workspace::new()));
                sink.push(
                    PlanSpec::new("bscan_fix")
                        .tag(tag(bc))
                        .ins(ins)
                        .outs(outs)
                        // Per position: carry ← λ⊙carry, δ += carry.
                        .flops((3 * rows * hidden * len) as u64)
                        .working_set((len + 1) * rows * hidden * scalar)
                        .body(move || {
                            let model = weights.snapshot();
                            let params = if fwd_dir {
                                &model.layers[l].fwd
                            } else {
                                &model.layers[l].rev
                            };
                            let lam = match params {
                                CellParams::Linear(p) => &p.lambda,
                                _ => unreachable!("scan requires a scannable cell"),
                            };
                            let mut scratch = scratch.lock();
                            let mut carry = scratch.checkout(rows, model.config.hidden_size);
                            pref.with(|p| {
                                let (_, pb) = p.expect("missing adjoint prefix");
                                carry.copy_from(pb);
                            });
                            for i in (0..len).rev() {
                                bpar_tensor::ops::row_scale(lam, &mut carry);
                                sgs[i].update(
                                    || unreachable!("bscan_fix ran before its local sweep"),
                                    |sgv| bpar_tensor::ops::axpy(T::ONE, &carry, &mut sgv.dh),
                                );
                            }
                            scratch.give_back(carry);
                        }),
                );
            }

            // Gradient tasks: with the corrected total adjoint δ in hand,
            // each timestep's parameter/input gradients follow from the
            // cell's ordinary backward with a zero recurrent state-grad
            // (the recurrence is already folded into δ). Chunks are
            // emitted in reverse order and walked descending, so the
            // inout-serialised accumulator adds timesteps in exactly the
            // chain executor's order for both directions.
            for bc in 0..cc {
                let c = cc - 1 - bc;
                let (j0, j1) = scan.plan.chunks[c];
                let len = j1 - j0;
                let mut ins: Vec<RegionId> = Vec::with_capacity(2 * len + 1);
                for j in j0..j1 {
                    ins.push(sg[phys(j)].region);
                    ins.push(st[phys(j)].region);
                }
                ins.push(gacc_slot.region);
                let mut outs: Vec<RegionId> = (j0..j1).map(|j| dinput[phys(j)].region).collect();
                outs.push(gacc_slot.region);
                let weights = self.weights.clone();
                let sts: Vec<CellSlot<T>> = (j0..j1).map(|j| st[phys(j)].clone()).collect();
                let sgs: Vec<Slot<StateGrad<T>>> = (j0..j1).map(|j| sg[phys(j)].clone()).collect();
                let dinputs: Vec<Slot<Matrix<T>>> =
                    (j0..j1).map(|j| dinput[phys(j)].clone()).collect();
                let gacc = gacc_slot.clone();
                let rows = self.rows;
                let scratch = Arc::new(Mutex::new(Workspace::new()));
                sink.push(
                    PlanSpec::new("bscan_grad")
                        .tag(tag(c))
                        .ins(ins)
                        .outs(outs)
                        .flops(len as u64 * bwd_flops)
                        .working_set(cell_ws * len)
                        .body(move || {
                            let model = weights.snapshot();
                            let params = if fwd_dir {
                                &model.layers[l].fwd
                            } else {
                                &model.layers[l].rev
                            };
                            let mut scratch = scratch.lock();
                            let ws = &mut *scratch;
                            gacc.update(
                                || params.zeros_like(),
                                |g| {
                                    for i in (0..len).rev() {
                                        sts[i].with(|cached| {
                                            let (_, cache) = cached.expect("missing forward cache");
                                            sgs[i].with(|sgv| {
                                                let delta = &sgv.expect("missing scan adjoint").dh;
                                                // δ already folds the recurrence in, so the
                                                // cell's own λ ⊙ δ output is scratch (the
                                                // linear cell has no `dc`).
                                                let mut dprev = StateGrad {
                                                    dh: ws.checkout(rows, hidden),
                                                    dc: None,
                                                };
                                                dinputs[i].write_in_place(
                                                    || Matrix::zeros(rows, input_w),
                                                    |dx| {
                                                        params.backward_ws(
                                                            cache,
                                                            delta,
                                                            None,
                                                            g,
                                                            dx,
                                                            &mut dprev,
                                                            ws,
                                                            Backend::scalar(),
                                                        )
                                                    },
                                                );
                                                ws.give_back(dprev.dh);
                                            });
                                        });
                                    }
                                },
                            );
                        }),
                );
            }
        }
    }

    /// Submits the last layer's merge + classifier tasks. With
    /// `train = true` also computes the weighted loss and `dfeat`, reading
    /// classes from the target store (see [`ReplicaGraph::set_target`]).
    fn submit_output(&self, sink: &mut dyn TaskSink, train: bool) {
        let cfg = self.config;
        let seq = self.seq_len();
        let last = cfg.layers - 1;
        let dense_in = cfg.classifier_input_size();
        let dense_flops = (2 * self.rows * dense_in * cfg.output_size) as u64;
        let merge_flops = cfg.merge.flops(self.rows, cfg.hidden_size);
        let positions: Vec<(usize, usize, usize)> = match cfg.kind {
            // (output index, fwd t, rev t)
            ModelKind::ManyToOne => vec![(0, seq - 1, 0)],
            ModelKind::ManyToMany => (0..seq).map(|t| (t, t, t)).collect(),
        };
        let inv_outputs = 1.0 / positions.len() as f64;

        for &(i, tf, tr) in &positions {
            // Final merge task.
            let f = self.st_fwd[last][tf].clone();
            let r = self.st_rev[last][tr].clone();
            let dst = self.feat[i].clone();
            let mode = cfg.merge;
            let rows = self.rows;
            let width = cfg.merge.output_width(cfg.hidden_size);
            sink.push(
                PlanSpec::new("merge_final")
                    .tag(i as u64)
                    .ins([f.region, r.region])
                    .outs([dst.region])
                    .flops(merge_flops)
                    .working_set(3 * rows * dense_in * std::mem::size_of::<T>())
                    .body(move || {
                        f.with(|fv| {
                            r.with(|rv| {
                                dst.write_in_place(
                                    || Matrix::zeros(rows, width),
                                    |m| mode.apply_into(&fv.unwrap().0.h, &rv.unwrap().0.h, m),
                                )
                            })
                        });
                    }),
            );

            if !train {
                // Inference: classifier only.
                let weights = self.weights.clone();
                let feat = self.feat[i].clone();
                let out = self.logits[i].clone();
                let rows = self.rows;
                let be = self.backend;
                sink.push(
                    PlanSpec::new("dense")
                        .tag(i as u64)
                        .ins([feat.region])
                        .outs([out.region])
                        .flops(dense_flops)
                        .body(move || {
                            let model = weights.snapshot();
                            feat.with(|x| {
                                let x = x.expect("missing features");
                                out.write_in_place(
                                    || Matrix::zeros(rows, model.dense.w.cols()),
                                    |logits| model.dense.forward_into(x, logits, be),
                                )
                            });
                        }),
                );
            } else {
                // Training: classifier + loss + classifier backward in
                // one task (small working set; Eq. (11) merge tasks are
                // the paper's analogue of lightweight glue tasks).
                let weights = self.weights.clone();
                let targets = self.targets.clone();
                let feat = self.feat[i].clone();
                let out = self.logits[i].clone();
                let dfeat = self.dfeat[i].clone();
                let gdense = self.grads_dense.clone();
                let loss_slot = self.loss.clone();
                let weight = self.weight;
                let rows = self.rows;
                let scratch = Arc::new(Mutex::new(Workspace::new()));
                // The classifier-gradient and loss slots are accumulated
                // across output positions (read-modify-write), so they are
                // declared *inout*. The added read edges coincide with the
                // existing write-after-write chain between consecutive loss
                // tasks and dedup away — the graph shape is unchanged.
                sink.push(
                    PlanSpec::new("loss")
                        .tag(i as u64)
                        .ins([feat.region, gdense.region, loss_slot.region])
                        .outs([out.region, dfeat.region, gdense.region, loss_slot.region])
                        .flops(3 * dense_flops)
                        .body(move || {
                            let model = weights.snapshot();
                            let dense = &model.dense;
                            let mut scratch = scratch.lock();
                            let ws = &mut *scratch;
                            feat.with(|x| {
                                let x = x.expect("missing features");
                                let mut dlogits = ws.checkout(rows, dense.w.cols());
                                let l = out.write_in_place(
                                    || Matrix::zeros(rows, dense.w.cols()),
                                    |logits| {
                                        dense.forward_into(x, logits, Backend::scalar());
                                        let targets = targets.read();
                                        softmax_cross_entropy_into(
                                            logits,
                                            &targets[i],
                                            &mut dlogits,
                                        )
                                    },
                                );
                                let scale = T::from_f64(weight * inv_outputs);
                                bpar_tensor::ops::scale(scale, &mut dlogits);
                                gdense.update(
                                    || dense.zeros_like(),
                                    |g| {
                                        dfeat.write_in_place(
                                            || Matrix::zeros(rows, dense_in),
                                            |dx| {
                                                dense.backward_ws(
                                                    x,
                                                    &dlogits,
                                                    g,
                                                    dx,
                                                    ws,
                                                    Backend::scalar(),
                                                )
                                            },
                                        )
                                    },
                                );
                                loss_slot.update(|| 0.0, |acc| *acc += l * weight * inv_outputs);
                                ws.give_back(dlogits);
                            });
                        }),
                );

                // Backward seed: split dfeat into the two directions.
                let mode = cfg.merge;
                let f = self.st_fwd[last][tf].clone();
                let r = self.st_rev[last][tr].clone();
                let dfeat2 = self.dfeat[i].clone();
                let dhf = self.dh_fwd[last][tf].clone();
                let dhr = self.dh_rev[last][tr].clone();
                sink.push(
                    PlanSpec::new("merge_bwd")
                        .tag(i as u64)
                        .ins([dfeat2.region, f.region, r.region])
                        .outs([dhf.region, dhr.region])
                        .flops(merge_flops)
                        .body(move || {
                            dfeat2.with(|d| {
                                let d = d.expect("missing feature gradient");
                                f.with(|fv| {
                                    r.with(|rv| {
                                        let fh = &fv.expect("fwd missing").0.h;
                                        let rh = &rv.expect("rev missing").0.h;
                                        merge_backward_in_place(mode, d, fh, rh, &dhf, &dhr)
                                    })
                                })
                            });
                        }),
                );
            }
        }
    }

    /// Submits the [`BuildMode::CrossEpochRace`] probe task. Declared
    /// clauses: reads `st_fwd[0][0]`, writes a *fresh* region that is
    /// secretly an alias of `feat[0]`'s physical storage (see
    /// [`Slot::alias_with_fresh_region`]). Every clause matches what the
    /// body touches — region-keyed clause validation and happens-before
    /// analysis both pass — but the graph admits schedules where the
    /// probe's zero-fill lands between `merge_final` and the classifier,
    /// corrupting the logits. Only exhaustive schedule exploration, which
    /// keys conflicts on physical sites, can witness the divergence.
    fn submit_epoch_probe(&self, sink: &mut dyn TaskSink, regions: &mut RegionAlloc) {
        let probe_src = self.st_fwd[0][0].clone();
        let aliased = self.feat[0].alias_with_fresh_region(regions);
        let rows = self.rows;
        let width = self.config.merge.output_width(self.config.hidden_size);
        sink.push(
            PlanSpec::new("epoch_probe")
                .ins([probe_src.region])
                .outs([aliased.region])
                .body(move || {
                    // Touch the declared input so the recorded trace
                    // matches the clauses exactly.
                    probe_src.with(|_| {});
                    aliased.write_in_place(
                        || Matrix::zeros(rows, width),
                        |m| {
                            for v in m.as_mut_slice() {
                                *v = T::from_f64(0.0);
                            }
                        },
                    );
                }),
        );
    }

    /// Submits the BPTT tasks of layer `l`: forward-direction backward
    /// cells (t descending), reverse-direction backward cells (t
    /// ascending), and — for `l > 0` — the merge-backward tasks that seed
    /// layer `l-1`.
    fn submit_backward_layer(&self, sink: &mut dyn TaskSink, l: usize) {
        if self.scan.is_some() {
            self.submit_backward_layer_scan(sink, l);
            self.submit_merge_bwd_tasks(sink, l);
            return;
        }
        let seq = self.seq_len();
        for t in (0..seq).rev() {
            self.push_cell_bwd(sink, l, t, true);
        }
        if let Some(b) = &self.barriers {
            let ins = (0..seq).map(|t| self.sg_fwd[l][t].region).collect();
            push_barrier(sink, 200 + l as u64, ins, b.bdir[l]);
        }
        for t in 0..seq {
            self.push_cell_bwd(sink, l, t, false);
        }
        self.submit_merge_bwd_tasks(sink, l);
        if let Some(b) = &self.barriers {
            let ins = if l > 0 {
                (0..seq)
                    .flat_map(|t| [self.dh_fwd[l - 1][t].region, self.dh_rev[l - 1][t].region])
                    .collect()
            } else {
                (0..seq).map(|t| self.sg_rev[l][t].region).collect()
            };
            push_barrier(sink, 300 + l as u64, ins, b.blayer[l]);
        }
    }

    /// One BPTT cell of layer `l` at timestep `t` in the forward (`fwd`,
    /// gradient flowing from `t+1`) or reverse direction (from `t-1`).
    fn push_cell_bwd(&self, sink: &mut dyn TaskSink, l: usize, t: usize, fwd: bool) {
        let cfg = self.config;
        let (st, dh, sg, dinput, gacc, label) = if fwd {
            let g = &self.grads_fwd[l];
            (
                &self.st_fwd[l],
                &self.dh_fwd[l],
                &self.sg_fwd[l],
                &self.dinput_f[l],
                g,
                "cell_fwd_bwd",
            )
        } else {
            let g = &self.grads_rev[l];
            (
                &self.st_rev[l],
                &self.dh_rev[l],
                &self.sg_rev[l],
                &self.dinput_r[l],
                g,
                "cell_rev_bwd",
            )
        };
        let from_t = if fwd {
            Some(t + 1).filter(|&p| p < self.seq_len())
        } else {
            t.checked_sub(1)
        };
        let sg_in = from_t.map(|p| sg[p].clone());
        // The per-layer weight-gradient accumulator is read-modify-written
        // by every timestep's backward cell, so it is inout; its read edge
        // duplicates the BPTT chain edge (same predecessor) and dedups away.
        let mut ins = vec![st[t].region, dh[t].region, gacc.region];
        if let Some(s) = &sg_in {
            ins.push(s.region);
        }
        if let Some(b) = &self.barriers {
            // The forward direction waits for the layer above to finish,
            // the reverse direction for its own layer's forward direction.
            match (fwd, l + 1 < cfg.layers) {
                (true, true) => ins.push(b.blayer[l + 1]),
                (true, false) => {}
                (false, _) => ins.push(b.bdir[l]),
            }
        }
        let input_w = cfg.layer_input_size(l);
        let scalar = std::mem::size_of::<T>();
        let weights = self.weights.clone();
        let st = st[t].clone();
        let dh = dh[t].clone();
        let sg_out = sg[t].clone();
        let dinput = dinput[t].clone();
        let gacc = gacc.clone();
        let zero = self.dh_zero(l, t, fwd);
        let (rows, kind, hidden) = (self.rows, cfg.cell, cfg.hidden_size);
        let scratch = Arc::new(Mutex::new(Workspace::new()));
        sink.push(
            PlanSpec::new(label)
                .tag(((l as u64) << 32) | t as u64)
                .ins(ins)
                .outs([sg_out.region, dinput.region, gacc.region])
                .flops(cfg.cell.backward_flops(rows, input_w, cfg.hidden_size))
                .working_set(
                    cfg.cell
                        .backward_working_set(rows, input_w, cfg.hidden_size, scalar),
                )
                .body(move || {
                    let model = weights.snapshot();
                    let params = if fwd {
                        &model.layers[l].fwd
                    } else {
                        &model.layers[l].rev
                    };
                    let mut scratch = scratch.lock();
                    let mut run = |dh_val: &Matrix<T>, sg_val: Option<&StateGrad<T>>| {
                        st.with(|cached| {
                            let (_, cache) = cached.expect("missing forward-pass cache");
                            gacc.update(
                                || params.zeros_like(),
                                |g| {
                                    dinput.write_in_place(
                                        || Matrix::zeros(rows, input_w),
                                        |dx| {
                                            sg_out.write_in_place(
                                                || StateGrad::zeros(kind, rows, hidden),
                                                |dprev| {
                                                    params.backward_ws(
                                                        cache,
                                                        dh_val,
                                                        sg_val,
                                                        g,
                                                        dx,
                                                        dprev,
                                                        &mut scratch,
                                                        Backend::scalar(),
                                                    )
                                                },
                                            )
                                        },
                                    )
                                },
                            )
                        })
                    };
                    dh.with(|d| {
                        let dh_val = dh_value(d, zero.as_deref());
                        match &sg_in {
                            Some(s) => s.with(|v| {
                                run(dh_val, Some(v.expect("missing recurrent state gradient")))
                            }),
                            None => run(dh_val, None),
                        }
                    });
                }),
        );
    }

    /// Merge-backward tasks seeding layer l-1. The layer-input gradient
    /// is the sum of the two directions' contributions; summing here —
    /// in fwd-then-rev order, matching the sequential reference — keeps
    /// the directions' BPTT chains free of mutual dependencies. Shared by
    /// the chain and scan backward paths.
    fn submit_merge_bwd_tasks(&self, sink: &mut dyn TaskSink, l: usize) {
        let cfg = self.config;
        let seq = self.seq_len();
        if l > 0 {
            let mode = cfg.merge;
            for t in 0..seq {
                let din_f = self.dinput_f[l][t].clone();
                let din_r = self.dinput_r[l][t].clone();
                let f = self.st_fwd[l - 1][t].clone();
                let r = self.st_rev[l - 1][t].clone();
                let dhf = self.dh_fwd[l - 1][t].clone();
                let dhr = self.dh_rev[l - 1][t].clone();
                let (rows, width) = (self.rows, cfg.layer_input_size(l));
                let scratch = Arc::new(Mutex::new(Workspace::new()));
                sink.push(
                    PlanSpec::new("merge_bwd")
                        .tag((((l - 1) as u64) << 32) | t as u64)
                        .ins([din_f.region, din_r.region, f.region, r.region])
                        .outs([dhf.region, dhr.region])
                        .flops(cfg.merge.flops(self.rows, cfg.hidden_size))
                        .body(move || {
                            // The layer-input gradient: forward-direction
                            // contribution plus reverse-direction one.
                            let mut scratch = scratch.lock();
                            let mut dmerged = scratch.checkout(rows, width);
                            din_f.with(|d| dmerged.copy_from(d.expect("missing fwd dinput")));
                            din_r.with(|d| {
                                bpar_tensor::ops::axpy(
                                    T::ONE,
                                    d.expect("missing rev dinput"),
                                    &mut dmerged,
                                );
                            });
                            f.with(|fv| {
                                r.with(|rv| {
                                    let fh = &fv.expect("fwd missing").0.h;
                                    let rh = &rv.expect("rev missing").0.h;
                                    merge_backward_in_place(mode, &dmerged, fh, rh, &dhf, &dhr)
                                })
                            });
                            scratch.give_back(dmerged);
                        }),
                );
            }
        }
    }

    /// Collects this replica's accumulated gradients into a [`BrnnGrads`].
    /// Call only after `taskwait`.
    pub fn take_grads(&self) -> BrnnGrads<T> {
        let model = self.weights.snapshot();
        let layers = self
            .grads_fwd
            .iter()
            .zip(&self.grads_rev)
            .enumerate()
            .map(|(l, (f, r))| LayerPair {
                fwd: f.take().unwrap_or_else(|| model.layers[l].fwd.zeros_like()),
                rev: r.take().unwrap_or_else(|| model.layers[l].rev.zeros_like()),
            })
            .collect();
        BrnnGrads {
            layers,
            dense: self
                .grads_dense
                .take()
                .unwrap_or_else(|| model.dense.zeros_like()),
        }
    }

    /// The weighted loss this replica accumulated. Call after `taskwait`.
    pub fn take_loss(&self) -> f64 {
        self.loss.take().unwrap_or(0.0)
    }

    /// Appends `(region, coordinate)` pairs for every slot this replica
    /// owns, e.g. `"r0.st_fwd[1][2]"` for `prefix = "r0."`. Analysis
    /// findings use these names instead of raw region numbers.
    pub fn region_names(&self, prefix: &str, names: &mut Vec<(RegionId, String)>) {
        fn grid<X>(
            prefix: &str,
            what: &str,
            g: &[Vec<Slot<X>>],
            names: &mut Vec<(RegionId, String)>,
        ) {
            for (l, row) in g.iter().enumerate() {
                for (t, s) in row.iter().enumerate() {
                    names.push((s.region, format!("{prefix}{what}[{l}][{t}]")));
                }
            }
        }
        fn list<X>(prefix: &str, what: &str, l: &[Slot<X>], names: &mut Vec<(RegionId, String)>) {
            for (i, s) in l.iter().enumerate() {
                names.push((s.region, format!("{prefix}{what}[{i}]")));
            }
        }
        grid(prefix, "st_fwd", &self.st_fwd, names);
        grid(prefix, "st_rev", &self.st_rev, names);
        grid(prefix, "merged", &self.merged, names);
        list(prefix, "feat", &self.feat, names);
        list(prefix, "logits", &self.logits, names);
        list(prefix, "dfeat", &self.dfeat, names);
        grid(prefix, "dh_fwd", &self.dh_fwd, names);
        grid(prefix, "dh_rev", &self.dh_rev, names);
        grid(prefix, "sg_fwd", &self.sg_fwd, names);
        grid(prefix, "sg_rev", &self.sg_rev, names);
        grid(prefix, "dinput_f", &self.dinput_f, names);
        grid(prefix, "dinput_r", &self.dinput_r, names);
        list(prefix, "grads_fwd", &self.grads_fwd, names);
        list(prefix, "grads_rev", &self.grads_rev, names);
        if let Some(scan) = &self.scan {
            for (dir_name, dirs) in [("f", &scan.fwd), ("r", &scan.rev)] {
                for (l, d) in dirs.iter().enumerate() {
                    for (what, slots) in [
                        ("scan_total", &d.totals),
                        ("scan_node", &d.nodes),
                        ("bscan_total", &d.btotals),
                        ("bscan_node", &d.bnodes),
                    ] {
                        for (i, s) in slots.iter().enumerate() {
                            names.push((s.region, format!("{prefix}{what}_{dir_name}[{l}][{i}]")));
                        }
                    }
                }
            }
        }
        names.push((self.grads_dense.region, format!("{prefix}grads_dense")));
        names.push((self.loss.region, format!("{prefix}loss")));
    }

    /// Submits gradient-reduction tasks adding this replica's gradients
    /// into `target` (replica 0), one task per accumulator so reductions
    /// of different layers proceed in parallel (§III-B: "dependencies
    /// enforce gradient synchronization among model replicas").
    fn submit_reduce_into(&self, sink: &mut dyn TaskSink, target: &ReplicaGraph<T>) {
        let cfg = self.config;
        for l in 0..cfg.layers {
            let grad_size = cfg.cell.params(cfg.layer_input_size(l), cfg.hidden_size) as u64;
            for (mine, theirs, label) in [
                (&self.grads_fwd[l], &target.grads_fwd[l], "reduce_fwd"),
                (&self.grads_rev[l], &target.grads_rev[l], "reduce_rev"),
            ] {
                let src = mine.clone();
                let dst = theirs.clone();
                // The destination accumulator is read-modify-written, so it
                // is inout; the read edge duplicates the existing WAW edge
                // on the reduction chain and dedups away.
                sink.push(
                    PlanSpec::new(label)
                        .tag(l as u64)
                        .ins([src.region, dst.region])
                        .outs([dst.region])
                        .flops(grad_size)
                        .body(move || {
                            if let Some(g) = src.take() {
                                dst.accumulate(g, |acc, g| acc.add_assign(&g));
                            }
                        }),
                );
            }
        }
        // Classifier gradients and loss.
        let src = self.grads_dense.clone();
        let dst = target.grads_dense.clone();
        sink.push(
            PlanSpec::new("reduce_dense")
                .ins([src.region, dst.region])
                .outs([dst.region])
                .body(move || {
                    if let Some(g) = src.take() {
                        dst.accumulate(g, |acc, g| acc.add_assign(&g));
                    }
                }),
        );
        let src = self.loss.clone();
        let dst = target.loss.clone();
        sink.push(
            PlanSpec::new("reduce_loss")
                .ins([src.region, dst.region])
                .outs([dst.region])
                .body(move || {
                    if let Some(l) = src.take() {
                        dst.accumulate(l, |acc, l| *acc += l);
                    }
                }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::merge::MergeMode;
    use crate::model::ModelKind;

    fn tiny() -> Brnn<f64> {
        Brnn::new(
            BrnnConfig {
                cell: CellKind::Lstm,
                input_size: 3,
                hidden_size: 2,
                layers: 1,
                seq_len: 2,
                output_size: 2,
                merge: MergeMode::Sum,
                kind: ModelKind::ManyToOne,
            },
            7,
        )
    }

    #[test]
    fn weight_store_copies_only_on_revision_change() {
        let mut model = tiny();
        let store = WeightStore::new(&model);
        assert_eq!(store.deep_copies(), 1);

        // Unchanged model: sync is a no-op, the snapshot stays shared.
        let before = store.snapshot();
        assert!(!store.sync(&model));
        assert_eq!(store.deep_copies(), 1);
        assert!(Arc::ptr_eq(&before, &store.snapshot()));

        // Revision bump forces exactly one fresh copy.
        model.touch();
        assert!(store.sync(&model));
        assert!(!store.sync(&model));
        assert_eq!(store.deep_copies(), 2);
        assert!(!Arc::ptr_eq(&before, &store.snapshot()));
    }

    #[test]
    fn replica_rejects_mismatched_inputs() {
        let model = tiny();
        let store = Arc::new(WeightStore::new(&model));
        let mut regions = RegionAlloc::default();
        let shape = BatchShape {
            config: model.config,
            rows: 4,
            seq: 2,
            mbs: 1,
            backend: Backend::scalar(),
            strategy: RecurrenceStrategy::Chain,
            barriers: false,
        };
        let rep = ReplicaGraph::new(store, &shape, 4, 1.0, &mut regions);
        let wrong_len: Vec<Matrix<f64>> = vec![Matrix::zeros(4, 3)];
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rep.load_inputs(&wrong_len, 0, 4)
        }))
        .is_err());
        let wrong_rows: Vec<Matrix<f64>> = (0..2).map(|_| Matrix::zeros(3, 3)).collect();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rep.load_inputs(&wrong_rows, 0, 3)
        }))
        .is_err());
    }
}
