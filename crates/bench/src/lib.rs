//! # bpar-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§IV). One binary per experiment:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table3` | Table III — BLSTM training times and speed-ups |
//! | `table4` | Table IV — BGRU training times and speed-ups |
//! | `fig3` | Fig. 3 — B-Par speed-up vs mbs and core count |
//! | `fig4` | Fig. 4 — Keras / B-Seq / PyTorch / B-Par vs core count |
//! | `fig5` | Fig. 5 — batch-size / hidden-size sweep |
//! | `fig6` | Fig. 6 — layer-count sweep, training and inference |
//! | `fig7` | Fig. 7 — locality-aware scheduling: IPC / L3-MPKI / time |
//! | `fig8` | Fig. 8 — next-character prediction (many-to-many) |
//! | `granularity` | §IV-B task-granularity statistics |
//! | `memory` | §IV-B working-set / concurrency accounting |
//! | `accuracy` | §III accuracy-preservation check on live executors |
//! | `sensitivity` | calibration-robustness sweep of the cost model |
//! | `trace` | Chrome-trace timelines of the schedules |
//!
//! Every binary prints a side-by-side table of the paper's measurement
//! and ours, and writes a JSON record into `results/`. The *absolute*
//! numbers come from the discrete-event simulator calibrated per
//! DESIGN.md §2; the deliverable is the *shape*: who wins, by what
//! factor, and where the crossovers fall.

pub mod paper;
pub mod tables;

use bpar_core::cell::CellKind;
use bpar_core::graphgen::{build_graph, GraphSpec, Phase as GraphPhase};
use bpar_core::merge::MergeMode;
use bpar_core::model::{BrnnConfig, ModelKind};
use bpar_runtime::graph::TaskGraph;
use bpar_runtime::SchedulerPolicy;
use bpar_sim::{simulate, SimConfig, SimResult};
use serde::Serialize;
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

pub use bpar_baselines::{CpuFramework, GpuFramework, Phase};

/// A model configuration row of Tables III/IV.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TableConfig {
    /// Input feature width.
    pub input: usize,
    /// Hidden units.
    pub hidden: usize,
    /// Batch rows.
    pub batch: usize,
    /// Sequence length.
    pub seq: usize,
}

/// The twelve model configurations of Tables III and IV, in row order.
pub fn table_configs() -> Vec<TableConfig> {
    let c = |input, hidden, batch, seq| TableConfig {
        input,
        hidden,
        batch,
        seq,
    };
    vec![
        c(64, 256, 128, 100),
        c(256, 256, 128, 100),
        c(1024, 256, 128, 100),
        c(256, 256, 1, 2),
        c(256, 256, 1, 10),
        c(256, 256, 1, 100),
        c(64, 256, 256, 100),
        c(64, 1024, 256, 100),
        c(256, 256, 256, 100),
        c(256, 1024, 256, 100),
        c(1024, 256, 256, 100),
        c(1024, 1024, 256, 100),
    ]
}

/// Builds the 6-layer many-to-one BRNN config for a table row.
pub fn brnn_config(cell: CellKind, tc: &TableConfig, layers: usize) -> BrnnConfig {
    BrnnConfig {
        cell,
        input_size: tc.input,
        hidden_size: tc.hidden,
        layers,
        seq_len: tc.seq,
        output_size: 11,
        merge: MergeMode::Sum,
        kind: ModelKind::ManyToOne,
    }
}

/// Simulated B-Par batch time (seconds) at a fixed configuration.
pub fn bpar_time(cfg: &BrnnConfig, batch: usize, cores: usize, mbs: usize, phase: Phase) -> f64 {
    bpar_result(
        cfg,
        batch,
        cores,
        mbs,
        phase,
        SchedulerPolicy::LocalityAware,
    )
    .makespan
}

/// Full simulation result for B-Par.
pub fn bpar_result(
    cfg: &BrnnConfig,
    batch: usize,
    cores: usize,
    mbs: usize,
    phase: Phase,
    policy: SchedulerPolicy,
) -> SimResult {
    let mut spec = GraphSpec::training(*cfg, batch).with_mbs(mbs);
    if phase == Phase::Inference {
        spec.phase = GraphPhase::Inference;
    }
    simulate(&graph(&spec), &SimConfig::xeon(cores).with_policy(policy))
}

/// The task graph for `spec`. The last graph built is kept, so a sweep
/// over core counts — or over the equal-sized chunks of a B-Seq graph —
/// builds each distinct graph once.
fn graph(spec: &GraphSpec) -> Rc<TaskGraph> {
    thread_local! {
        static LAST: RefCell<Option<(GraphSpec, Rc<TaskGraph>)>> = const { RefCell::new(None) };
    }
    LAST.with_borrow_mut(|last| {
        if let Some((_, g)) = last.as_ref().filter(|(s, _)| s == spec) {
            return g.clone();
        }
        // Free the previous graph before building its successor.
        *last = None;
        let g = Rc::new(build_graph(spec));
        *last = Some((*spec, g.clone()));
        g
    })
}

/// Best simulated B-Par time over the paper's mbs sweep {1,2,4,6,8,10,12}
/// at a fixed core count. Returns `(seconds, mbs)`.
pub fn bpar_best(cfg: &BrnnConfig, batch: usize, cores: usize, phase: Phase) -> (f64, usize) {
    [1usize, 2, 4, 6, 8, 10, 12, 16, 24]
        .iter()
        .filter(|&&m| m <= batch.max(1))
        .map(|&m| (bpar_time(cfg, batch, cores, m, phase), m))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("non-empty mbs sweep")
}

/// B-Seq task graph: `mbs` fully serial per-replica chains (data
/// parallelism only — each mini-batch runs the whole network
/// sequentially, §IV-A).
pub fn bseq_graph(cfg: &BrnnConfig, batch: usize, mbs: usize, phase: Phase) -> TaskGraph {
    let chunks = split_rows(batch, mbs);
    let mut g = TaskGraph::new();
    for &rows in &chunks {
        let mut spec = GraphSpec::training(*cfg, rows);
        if phase == Phase::Inference {
            spec.phase = GraphPhase::Inference;
        }
        let sub = graph(&spec);
        // Chain the replica's tasks in creation (i.e. sequential
        // execution) order.
        let mut prev: Option<usize> = None;
        for node in sub.nodes() {
            let preds: Vec<usize> = prev.into_iter().collect();
            let id = g.add_task_with_preds(node.clone(), &preds);
            prev = Some(id.index());
        }
    }
    g
}

/// Simulated B-Seq batch time at a fixed configuration.
pub fn bseq_time(cfg: &BrnnConfig, batch: usize, cores: usize, mbs: usize, phase: Phase) -> f64 {
    let g = bseq_graph(cfg, batch, mbs, phase);
    simulate(&g, &SimConfig::xeon(cores)).makespan
}

/// Best simulated B-Seq time over the mbs sweep at a fixed core count.
pub fn bseq_best(cfg: &BrnnConfig, batch: usize, cores: usize, phase: Phase) -> (f64, usize) {
    [1usize, 2, 4, 6, 8, 10, 12, 16, 24]
        .iter()
        .filter(|&&m| m <= batch.max(1))
        .map(|&m| (bseq_time(cfg, batch, cores, m, phase), m))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("non-empty mbs sweep")
}

fn split_rows(rows: usize, mbs: usize) -> Vec<usize> {
    let n = mbs.min(rows).max(1);
    let base = rows / n;
    let rem = rows % n;
    (0..n).map(|i| base + usize::from(i < rem)).collect()
}

/// Renders an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Writes a JSON record under `results/`.
pub fn write_json(name: &str, value: &impl Serialize) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    std::fs::write(&path, json).expect("write result file");
    println!("\n[written {}]", path.display());
}

/// `results/` at the workspace root, located from this crate's manifest
/// directory so the binaries work regardless of the invocation cwd.
fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Formats seconds as milliseconds with sensible precision.
pub fn ms(seconds: f64) -> String {
    if seconds >= 10.0 {
        format!("{:.1}", seconds * 1e3)
    } else {
        format!("{:.2}", seconds * 1e3)
    }
}

/// Formats an optional time (empty cell = hung run, like the paper).
pub fn ms_opt(seconds: Option<f64>) -> String {
    seconds.map(ms).unwrap_or_else(|| "-".into())
}

/// Formats a speed-up factor.
pub fn speedup(base: f64, ours: f64) -> String {
    format!("{:.2}x", base / ours)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_table_rows() {
        assert_eq!(table_configs().len(), 12);
    }

    #[test]
    fn split_rows_covers() {
        assert_eq!(split_rows(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(split_rows(1, 8), vec![1]);
    }

    #[test]
    fn bseq_graph_is_serial_per_replica() {
        let tc = TableConfig {
            input: 8,
            hidden: 8,
            batch: 8,
            seq: 4,
        };
        let cfg = brnn_config(CellKind::Lstm, &tc, 2);
        let g = bseq_graph(&cfg, 8, 2, Phase::Training);
        g.validate().unwrap();
        // Two chains → max width 2.
        assert_eq!(g.max_width(), 2);
    }

    #[test]
    fn bseq_does_not_scale_past_mbs() {
        let tc = TableConfig {
            input: 32,
            hidden: 32,
            batch: 16,
            seq: 10,
        };
        let cfg = brnn_config(CellKind::Lstm, &tc, 2);
        let t4_4 = bseq_time(&cfg, 16, 4, 4, Phase::Training);
        let t16_4 = bseq_time(&cfg, 16, 16, 4, Phase::Training);
        // Extra cores beyond mbs buy nothing.
        assert!((t16_4 / t4_4 - 1.0).abs() < 0.05, "{t4_4} vs {t16_4}");
    }

    #[test]
    fn bpar_beats_bseq_at_same_mbs() {
        let tc = TableConfig {
            input: 64,
            hidden: 64,
            batch: 32,
            seq: 20,
        };
        let cfg = brnn_config(CellKind::Lstm, &tc, 4);
        let bp = bpar_time(&cfg, 32, 16, 4, Phase::Training);
        let bs = bseq_time(&cfg, 32, 16, 4, Phase::Training);
        assert!(
            bp < bs * 0.7,
            "B-Par {bp} should clearly beat B-Seq {bs} (model parallelism)"
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(0.932), "932.00");
        assert_eq!(ms(28.5713), "28571.3");
        assert_eq!(ms_opt(None), "-");
        assert_eq!(speedup(2.0, 1.0), "2.00x");
    }
}
