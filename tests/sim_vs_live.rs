//! Consistency between the three representations of a B-Par batch:
//! the static generated graph (`graphgen`), the live executor's task
//! stream, and the simulator's replay. The scaling experiments are only
//! meaningful if all three agree on structure.
//!
//! The checks here go through the public API (label histograms of the
//! live trace). The stricter edge-for-edge comparison of the simulated
//! graph with the crate-private compiled plan lives in `bpar-core`
//! (`graphgen::live_agreement_tests`).

use bpar_core::graphgen::{build_graph, GraphSpec};
use bpar_core::prelude::*;
use bpar_sim::{simulate, SimConfig};
use bpar_tensor::init;
use std::collections::HashMap;

fn config() -> BrnnConfig {
    BrnnConfig {
        cell: CellKind::Lstm,
        input_size: 6,
        hidden_size: 8,
        layers: 3,
        seq_len: 5,
        output_size: 3,
        merge: MergeMode::Sum,
        kind: ModelKind::ManyToOne,
    }
}

/// Label histogram of the static graph.
fn static_counts(spec: &GraphSpec) -> HashMap<&'static str, usize> {
    let g = build_graph(spec);
    let mut counts = HashMap::new();
    for n in g.nodes() {
        *counts.entry(n.label).or_insert(0) += 1;
    }
    counts
}

/// Label histogram of the live executor's trace for one batch.
fn live_counts(cfg: &BrnnConfig, batch_rows: usize, mbs: usize) -> HashMap<&'static str, usize> {
    let exec = TaskGraphExec::with_config(2, bpar_runtime::SchedulerPolicy::LocalityAware, mbs);
    let mut model: Brnn<f64> = Brnn::new(*cfg, 1);
    let xs: Vec<_> = (0..cfg.seq_len)
        .map(|t| init::uniform(batch_rows, cfg.input_size, -1.0, 1.0, t as u64))
        .collect();
    let target = Target::Classes((0..batch_rows).map(|r| r % cfg.output_size).collect());
    let mut opt = Sgd::new(0.01);
    exec.train_batch(&mut model, &xs, &target, &mut opt);
    let mut counts = HashMap::new();
    for rec in exec.runtime().take_records() {
        *counts.entry(rec.label).or_insert(0) += 1;
    }
    counts
}

#[test]
fn static_graph_matches_live_trace_mbs1() {
    let cfg = config();
    let stat = static_counts(&GraphSpec::training(cfg, 4));
    let live = live_counts(&cfg, 4, 1);
    for (label, &n) in &stat {
        assert_eq!(
            live.get(label).copied().unwrap_or(0),
            n,
            "task count mismatch for {label}: static {stat:?} vs live {live:?}"
        );
    }
    assert_eq!(
        stat.values().sum::<usize>(),
        live.values().sum::<usize>(),
        "total task counts differ"
    );
}

#[test]
fn static_graph_matches_live_trace_mbs3() {
    let cfg = config();
    let stat = static_counts(&GraphSpec::training(cfg, 9).with_mbs(3));
    let live = live_counts(&cfg, 9, 3);
    for (label, &n) in &stat {
        assert_eq!(
            live.get(label).copied().unwrap_or(0),
            n,
            "task count mismatch for {label}"
        );
    }
}

#[test]
fn simulator_conservation_laws_on_brnn_graph() {
    let cfg = config();
    let g = build_graph(&GraphSpec::training(cfg, 8).with_mbs(2));
    g.validate().unwrap();
    for cores in [1usize, 3, 7, 24] {
        let r = simulate(&g, &SimConfig::xeon(cores));
        assert_eq!(r.records.len(), g.len(), "every task completes");
        let busy: f64 = r.core_busy.iter().sum();
        assert!(
            busy <= r.makespan * cores as f64 + 1e-9,
            "busy {} > makespan x cores at {cores}",
            busy
        );
        let total: f64 = r.records.iter().map(|t| t.end - t.start).sum();
        assert!(
            r.makespan >= total / cores as f64 - 1e-9,
            "makespan below work bound at {cores} cores"
        );
        // Dependencies respected.
        let mut end_of = vec![0.0f64; g.len()];
        for rec in &r.records {
            end_of[rec.task] = rec.end;
        }
        for rec in &r.records {
            for &p in g.preds(rec.task) {
                assert!(rec.start >= end_of[p] - 1e-9, "task started before pred");
            }
        }
    }
}

#[test]
fn simulated_makespan_is_monotone_enough_in_cores() {
    // Not strictly monotone in general, but over the standard sweep the
    // BRNN training graphs must never get *much* slower with more cores.
    let cfg = config();
    let g = build_graph(&GraphSpec::training(cfg, 16).with_mbs(4));
    let mut prev = f64::INFINITY;
    for cores in [1usize, 2, 4, 8, 16] {
        let t = simulate(&g, &SimConfig::xeon(cores)).makespan;
        assert!(t <= prev * 1.05, "{cores} cores: {t} vs prev {prev}");
        prev = t;
    }
}

#[test]
fn inference_graph_matches_live_forward() {
    let cfg = config();
    let stat = static_counts(&GraphSpec::inference(cfg, 4));
    let exec = TaskGraphExec::new(2);
    let model: Brnn<f64> = Brnn::new(cfg, 1);
    let xs: Vec<_> = (0..cfg.seq_len)
        .map(|t| init::uniform(4, cfg.input_size, -1.0, 1.0, t as u64))
        .collect();
    exec.forward(&model, &xs);
    let live: usize = exec.runtime().take_records().len();
    assert_eq!(stat.values().sum::<usize>(), live);
}
