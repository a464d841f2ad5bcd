//! Layer attribution for the traced pass.
//!
//! The benchmark records spans around the calls it makes into each
//! layer. A request's (or training step's) end-to-end time is split into
//! the *self* time of each layer on its path: a layer's span minus the
//! part its child spans cover. Whatever no span covers is the residual,
//! reported rather than hidden.

use bpar_runtime::stats::TaskRecord;

/// Layers in path order. `exec` contains `runtime`, which contains
/// `kernel`; the rest are consecutive stages of a served request.
pub const LAYERS: [&str; 9] = [
    "loadgen",
    "router",
    "serve.queue",
    "serve.batcher",
    "serve.pool",
    "exec",
    "runtime",
    "kernel",
    "serve.server",
];

/// Index of `name` in [`LAYERS`].
pub fn layer(name: &str) -> usize {
    LAYERS
        .iter()
        .position(|l| *l == name)
        .unwrap_or_else(|| panic!("unknown layer {name}"))
}

/// Self times of one operation, seconds, indexed like [`LAYERS`], plus
/// its measured end-to-end time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attribution {
    pub self_s: [f64; LAYERS.len()],
    pub total_s: f64,
}

impl Attribution {
    /// End-to-end time no layer span accounts for.
    pub fn residual(&self) -> f64 {
        self.total_s - self.self_s.iter().sum::<f64>()
    }

    /// Splits one executor call into `exec` / `runtime` / `kernel` self
    /// times: the call's wall time, the runtime's task span inside it,
    /// and the part of that span during which some task body ran.
    pub fn add_exec(&mut self, call_s: f64, tasks: &TaskStats) {
        self.self_s[layer("exec")] += call_s - tasks.span_s;
        self.self_s[layer("runtime")] += tasks.span_s - tasks.busy_s;
        self.self_s[layer("kernel")] += tasks.busy_s;
    }
}

/// Sums of [`Attribution`]s over a pass.
#[derive(Debug, Clone, Default)]
pub struct LayerSums {
    pub ops: usize,
    pub self_s: [f64; LAYERS.len()],
    pub total_s: f64,
    pub residual_s: f64,
}

impl LayerSums {
    pub fn add(&mut self, a: &Attribution) {
        self.ops += 1;
        for (sum, v) in self.self_s.iter_mut().zip(a.self_s) {
            *sum += v;
        }
        self.total_s += a.total_s;
        self.residual_s += a.residual();
    }

    /// Residual as a share of the summed end-to-end time.
    pub fn residual_frac(&self) -> f64 {
        if self.total_s > 0.0 {
            self.residual_s / self.total_s
        } else {
            0.0
        }
    }

    /// Mean self time of layer `ix` per operation, seconds.
    pub fn mean(&self, ix: usize) -> f64 {
        self.self_s[ix] / self.ops.max(1) as f64
    }
}

/// Task kinds timed per task, by runtime label.
pub const KERNELS: [&str; 4] = ["cell_fwd", "cell_bwd", "merge", "dense"];

fn kernel_of(label: &str) -> Option<usize> {
    match label {
        "cell_fwd" | "cell_rev" => Some(0),
        "cell_fwd_bwd" | "cell_rev_bwd" => Some(1),
        "dense" | "loss" => Some(3),
        l if l.starts_with("merge") => Some(2),
        _ => None,
    }
}

/// What one batch's (or step's) task records say.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskStats {
    pub tasks: usize,
    /// First task start to last task end, seconds.
    pub span_s: f64,
    /// Time within the span during which at least one body ran.
    pub busy_s: f64,
    /// Summed body time over all workers.
    pub body_s: f64,
    /// Per [`KERNELS`] entry: task count and summed body time.
    pub kernel_n: [usize; KERNELS.len()],
    pub kernel_s: [f64; KERNELS.len()],
}

impl TaskStats {
    pub fn of(records: &[TaskRecord]) -> Self {
        let mut s = Self {
            tasks: records.len(),
            ..Self::default()
        };
        if records.is_empty() {
            return s;
        }
        let mut spans: Vec<(f64, f64)> = records.iter().map(|r| (r.start, r.end)).collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        let first = spans[0].0;
        let mut last = first;
        let (mut run_start, mut run_end) = spans[0];
        for &(start, end) in &spans[1..] {
            if start > run_end {
                s.busy_s += run_end - run_start;
                run_start = start;
            }
            run_end = run_end.max(end);
        }
        s.busy_s += run_end - run_start;
        for r in records {
            last = last.max(r.end);
            let d = r.duration();
            s.body_s += d;
            if let Some(k) = kernel_of(r.label) {
                s.kernel_n[k] += 1;
                s.kernel_s[k] += d;
            }
        }
        s.span_s = last - first;
        s
    }

    pub fn accumulate(&mut self, o: &TaskStats) {
        self.tasks += o.tasks;
        self.span_s += o.span_s;
        self.busy_s += o.busy_s;
        self.body_s += o.body_s;
        for k in 0..KERNELS.len() {
            self.kernel_n[k] += o.kernel_n[k];
            self.kernel_s[k] += o.kernel_s[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(label: &'static str, worker: usize, start: f64, end: f64) -> TaskRecord {
        TaskRecord {
            id: 0,
            label,
            tag: 0,
            worker,
            start,
            end,
            working_set_bytes: 0,
        }
    }

    #[test]
    fn task_stats_union_and_kernels() {
        // Two workers: [0,2] and [1,3] overlap, then a gap, then [4,5].
        let recs = [
            rec("cell_fwd", 0, 0.0, 2.0),
            rec("cell_rev", 1, 1.0, 3.0),
            rec("merge_final", 0, 4.0, 5.0),
            rec("epoch_probe", 1, 4.5, 4.5),
        ];
        let s = TaskStats::of(&recs);
        assert_eq!(s.tasks, 4);
        assert_eq!(s.span_s, 5.0);
        assert_eq!(s.busy_s, 4.0);
        assert_eq!(s.body_s, 5.0);
        assert_eq!(s.kernel_n, [2, 0, 1, 0]);
        assert_eq!(s.kernel_s[0], 4.0);
        assert_eq!(TaskStats::of(&[]).span_s, 0.0);
    }

    #[test]
    fn layer_sum_residual_on_synthetic_trace() {
        // A request due at 0: sent at 1, queued until 3, batched until 4,
        // pool until 5, an executor call 5..15 whose tasks span 2..10 of
        // it with bodies busy for 6, response built until 16; measured
        // end to end at 17, so one unit is covered by no span.
        let mut a = Attribution {
            total_s: 17.0,
            ..Attribution::default()
        };
        a.self_s[layer("loadgen")] = 1.0;
        a.self_s[layer("serve.queue")] = 2.0;
        a.self_s[layer("serve.batcher")] = 1.0;
        a.self_s[layer("serve.pool")] = 1.0;
        let tasks = TaskStats {
            span_s: 8.0,
            busy_s: 6.0,
            ..TaskStats::default()
        };
        a.add_exec(10.0, &tasks);
        a.self_s[layer("serve.server")] = 1.0;
        assert_eq!(a.self_s[layer("exec")], 2.0);
        assert_eq!(a.self_s[layer("runtime")], 2.0);
        assert_eq!(a.self_s[layer("kernel")], 6.0);
        assert_eq!(a.residual(), 1.0);

        let mut sums = LayerSums::default();
        sums.add(&a);
        let exact = Attribution {
            total_s: 3.0,
            self_s: {
                let mut s = [0.0; LAYERS.len()];
                s[layer("router")] = 3.0;
                s
            },
        };
        sums.add(&exact);
        assert_eq!(sums.ops, 2);
        assert_eq!(sums.residual_s, 1.0);
        assert_eq!(sums.residual_frac(), 0.05);
        assert_eq!(sums.mean(layer("router")), 1.5);
    }
}
