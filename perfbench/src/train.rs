//! The `train-step` workload: SGD steps of the speech BLSTM through the
//! B-Par task-graph executor, closed loop.

use crate::model::speech_models;
use crate::report::Report;
use crate::serving::{add_plan_growth, cell_fwd_flops, exec_layers, trace_layers};
use crate::stats::lower_quartile;
use crate::trace::{Attribution, LayerSums, TaskStats};
use bpar_core::exec::{Executor, PlanCacheStats, SequentialExec, Target, TaskGraphExec};
use bpar_core::model::Brnn;
use bpar_core::optim::Sgd;
use bpar_data::tidigits::TidigitsDataset;
use bpar_tensor::Matrix;
use std::time::{Duration, Instant};

/// Rows per training batch.
pub const ROWS: usize = 16;
/// Timesteps per training batch (utterances padded or cut to it).
pub const SEQ: usize = 14;
/// Distinct pre-generated batches, cycled through.
const BATCHES: usize = 32;
/// Leading steps whose loss must equal the sequential trainer's.
pub const CHECK_STEPS: usize = 8;
const LR: f64 = 0.05;
const WARM_STEPS: usize = 2;

type Batch = (Vec<Matrix<f32>>, Target);

/// The seeded training inputs.
fn batches(seed: u64) -> Vec<Batch> {
    let data = TidigitsDataset::new(crate::loadgen::INPUT, crate::loadgen::MEAN_FRAMES, seed);
    (0..BATCHES)
        .map(|b| {
            let (xs, labels) = data.batch::<f32>((b * ROWS) as u64, ROWS, SEQ);
            (xs, Target::Classes(labels))
        })
        .collect()
}

/// Builds the model and the executor and runs the warm-up steps (on a
/// copy of the model, so timed training starts from the initial weights).
fn setup(workers: usize, batches: &[Batch]) -> (Brnn<f32>, TaskGraphExec) {
    let model = speech_models(1).remove(0);
    let exec = TaskGraphExec::new(workers);
    let mut scratch = model.clone();
    let mut sgd = Sgd::new(LR);
    for (xs, target) in batches.iter().take(WARM_STEPS) {
        exec.train_batch(&mut scratch, xs, target, &mut sgd);
    }
    (model, exec)
}

/// What one pass of training measured.
struct Pass {
    step_s: Vec<f64>,
    losses: Vec<f64>,
    wall_s: f64,
    sums: LayerSums,
    traced_s: Vec<f64>,
    tasks: TaskStats,
    span_workers_s: f64,
    overhead_s: f64,
    exec_outside_s: f64,
    plan: PlanCacheStats,
}

fn pass(
    exec: &TaskGraphExec,
    model: &mut Brnn<f32>,
    batches: &[Batch],
    seconds: f64,
    traced: bool,
) -> Pass {
    let workers = exec.runtime().workers() as f64;
    let before = exec.plan_cache_stats();
    let mut sgd = Sgd::new(LR);
    let mut p = Pass {
        step_s: Vec::new(),
        losses: Vec::new(),
        wall_s: 0.0,
        sums: LayerSums::default(),
        traced_s: Vec::new(),
        tasks: TaskStats::default(),
        span_workers_s: 0.0,
        overhead_s: 0.0,
        exec_outside_s: 0.0,
        plan: PlanCacheStats::default(),
    };
    let limit = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut end = start;
    for (xs, target) in batches.iter().cycle() {
        if end.duration_since(start) >= limit {
            break;
        }
        let iteration = Instant::now();
        let t0 = Instant::now();
        let loss = exec.train_batch(model, xs, target, &mut sgd);
        end = Instant::now();
        let call_s = end.duration_since(t0).as_secs_f64();
        p.step_s.push(call_s);
        p.losses.push(loss);
        if traced {
            let overhead_s = exec.runtime().stats().overhead_time;
            let tasks = TaskStats::of(&exec.runtime().take_records());
            let mut a = Attribution {
                total_s: end.duration_since(iteration).as_secs_f64(),
                ..Attribution::default()
            };
            a.add_exec(call_s, &tasks);
            p.sums.add(&a);
            p.traced_s.push(a.total_s);
            p.tasks.accumulate(&tasks);
            p.span_workers_s += tasks.span_s * workers;
            p.overhead_s += overhead_s;
            p.exec_outside_s += call_s - tasks.span_s;
        }
    }
    p.wall_s = end.duration_since(start).as_secs_f64();
    add_plan_growth(&mut p.plan, before, exec.plan_cache_stats());
    p
}

/// Losses of the first [`CHECK_STEPS`] steps under `SequentialExec`.
fn reference_losses(batches: &[Batch]) -> Vec<f64> {
    let mut model = speech_models(1).remove(0);
    let mut sgd = Sgd::new(LR);
    batches
        .iter()
        .cycle()
        .take(CHECK_STEPS)
        .map(|(xs, target)| SequentialExec.train_batch(&mut model, xs, target, &mut sgd))
        .collect()
}

/// Leading steps whose loss differs in any bit from the reference.
fn loss_mismatches(got: &[f64], want: &[f64]) -> u64 {
    got.iter()
        .zip(want)
        .filter(|(g, w)| g.to_bits() != w.to_bits())
        .count() as u64
}

pub fn run(seed: u64, seconds: f64, trace: bool, setup_reps: usize, workers: usize) -> Report {
    let batches = batches(seed);
    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut system = None;
    for _ in 0..setup_reps {
        let t0 = Instant::now();
        let s = setup(workers, &batches);
        setup_s.push(t0.elapsed().as_secs_f64());
        system = Some(s);
    }
    let (mut model, exec) = system.expect("at least one set-up");
    // A traced run splits its time between the two passes.
    let seconds = if trace { seconds / 2.0 } else { seconds };
    let u = pass(&exec, &mut model, &batches, seconds, false);
    let want = reference_losses(&batches);

    let mut report = Report::new("train-step");
    report.attempted = u.step_s.len() as u64;
    report.mismatches = loss_mismatches(&u.losses, &want);
    report.failed = report.mismatches;
    if u.losses.len() < CHECK_STEPS {
        report.problems.push(format!(
            "only {} steps ran; the loss check needs {CHECK_STEPS}",
            u.losses.len()
        ));
    }
    let e = &mut report.end_to_end;
    e.put(
        "setup_s",
        lower_quartile(&setup_s),
        setup_reps,
        "lower quartile of set-ups: model, executor start, warm-up steps",
    );
    e.put_windowed(
        "latency_p50_ms",
        &u.step_s,
        50.0,
        "training step time (step_p50_ms)",
    );
    e.put(
        "goodput_per_s",
        (ROWS * u.step_s.len()) as f64 / u.wall_s,
        u.step_s.len(),
        "training samples per second (train_samples_per_s)",
    );

    report.info_windowed(
        "latency_p95_ms",
        &u.step_s,
        95.0,
        "training step time (step_p95_ms)",
    );

    if trace {
        let (mut tmodel, texec) = setup(workers, &batches);
        let t = pass(&texec, &mut tmodel, &batches, seconds, true);
        let tm = loss_mismatches(&t.losses, &want);
        report.attempted += t.step_s.len() as u64;
        report.mismatches += tm;
        report.failed += tm;
        let p = &mut report.per_layer;
        let n = t.step_s.len();
        exec_layers(
            p,
            &t.plan,
            n,
            &t.tasks,
            t.span_workers_s,
            t.overhead_s,
            t.exec_outside_s,
        );
        let fwd = cell_fwd_flops(ROWS, SEQ) * n as f64;
        p.put(
            "kernel.cell_fwd.gflops",
            fwd / t.tasks.kernel_s[0] / 1e9,
            t.tasks.kernel_n[0],
            "flops from tensor shapes, not counted",
        );
        // The backward pass does two products per forward product: the
        // gradients with respect to the inputs and to the weights.
        p.put(
            "kernel.cell_bwd.gflops",
            2.0 * fwd / t.tasks.kernel_s[1] / 1e9,
            t.tasks.kernel_n[1],
            "flops from tensor shapes, not counted",
        );
        trace_layers(p, &t.sums, &t.traced_s, &u.step_s);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_check_is_bitwise() {
        assert_eq!(loss_mismatches(&[1.0, 2.0], &[1.0, 2.0, 3.0]), 0);
        assert_eq!(
            loss_mismatches(&[1.0, 2.0 + f64::EPSILON * 2.0], &[1.0, 2.0]),
            1
        );
    }
}
