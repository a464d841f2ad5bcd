//! Per-layer-barrier executor — the execution discipline of
//! Keras/TensorFlow and PyTorch that the paper identifies as the
//! bottleneck (§II):
//!
//! > "State-of-the-art deep learning frameworks apply per-layer barriers
//! > between forward and reverse order RNNs. […] these barrier
//! > synchronization points significantly undermine the parallel
//! > performance of BRNN workloads."
//!
//! This executor submits exactly the same tasks as
//! [`super::TaskGraphExec`] plus zero-work `barrier` tasks at the §II
//! points (see `builder::Barriers`): within each layer the reverse
//! direction starts only after the whole forward direction, and layer
//! `l+1` starts only after every merge of layer `l`; the backward pass
//! mirrors both. It is the graph the simulator's framework baseline
//! (`GraphSpec::with_barriers`) replays, so the ablation benches compare
//! it directly against barrier-free B-Par on the same runtime, isolating
//! the cost of the barriers themselves.

use super::builder::{
    build_replicas, submit_batch, BatchShape, BuildMode, LiveSink, RegionAlloc, ReplicaGraph,
    WeightStore,
};
use super::taskgraph::collect_logits;
use super::{check_batch, Executor, ForwardOutput, Target};
use crate::model::Brnn;
use crate::optim::Optimizer;
use crate::scanplan::RecurrenceStrategy;
use bpar_runtime::{Runtime, RuntimeConfig, SchedulerPolicy};
use bpar_tensor::{Backend, Float, Matrix};
use std::sync::Arc;

/// Task executor with per-layer barriers (framework-style scheduling).
pub struct BarrierExec {
    runtime: Runtime,
    mbs: usize,
}

impl BarrierExec {
    /// Barrier executor with `workers` threads and no data parallelism.
    pub fn new(workers: usize) -> Self {
        Self::with_config(workers, SchedulerPolicy::LocalityAware, 1)
    }

    /// Full configuration (see [`super::TaskGraphExec::with_config`]).
    pub fn with_config(workers: usize, policy: SchedulerPolicy, mbs: usize) -> Self {
        assert!(mbs >= 1, "mbs must be at least 1");
        Self {
            runtime: Runtime::new(RuntimeConfig {
                workers,
                policy,
                record_trace: true,
            }),
            mbs,
        }
    }

    /// The underlying runtime (task statistics, trace records).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Builds the barriered graph for `batch`, submits it whole and waits
    /// for it. Returns the replicas holding the batch's results.
    fn run<T: Float>(
        &self,
        model: &Brnn<T>,
        batch: &[Matrix<T>],
        target: Option<&Target>,
    ) -> Vec<ReplicaGraph<T>> {
        self.runtime.reset();
        let (seq, rows) = check_batch(model, batch);
        let shape = BatchShape {
            config: model.config,
            rows,
            seq,
            mbs: self.mbs,
            backend: Backend::scalar(),
            strategy: RecurrenceStrategy::Chain,
            barriers: true,
        };
        let weights = Arc::new(WeightStore::new(model));
        let mut regions = RegionAlloc::default();
        let (replicas, chunks) = build_replicas(&weights, &shape, &mut regions);
        for (rep, &(start, count)) in replicas.iter().zip(&chunks) {
            rep.load_inputs(batch, start, count);
            if let Some(target) = target {
                rep.set_target(target, start, count);
            }
        }
        submit_batch(
            &mut LiveSink(&self.runtime),
            &replicas,
            target.is_some(),
            BuildMode::Normal,
            &mut regions,
        );
        self.runtime.taskwait().expect("task panicked");
        replicas
    }
}

impl<T: Float> Executor<T> for BarrierExec {
    fn forward(&self, model: &Brnn<T>, batch: &[Matrix<T>]) -> ForwardOutput<T> {
        collect_logits(model, &self.run(model, batch, None))
    }

    fn train_batch(
        &self,
        model: &mut Brnn<T>,
        batch: &[Matrix<T>],
        target: &Target,
        opt: &mut dyn Optimizer<T>,
    ) -> f64 {
        let replicas = self.run(model, batch, Some(target));
        let loss = replicas[0].take_loss();
        let grads = replicas[0].take_grads();
        model.apply_grads(opt, &grads);
        loss
    }

    fn name(&self) -> &'static str {
        "barrier"
    }
}
