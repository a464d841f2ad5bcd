//! Reproduces Fig. 3: B-Par speed-up against B-Par-mbs:1-on-1-core for
//! mini-batch counts {1, 2, 4, 6, 8, 10, 12} across core counts
//! {1, 2, 4, 8, 16, 24, 32, 48}, on 8- and 12-layer BLSTMs (seq 100,
//! input 256).
//!
//! Expected shape (paper §IV-B): speed-up grows with `mbs` (each replica
//! adds two direction-chains of model parallelism); small-`mbs`
//! configurations saturate early and suffer NUMA effects past one socket,
//! while mbs ≥ 8 keeps improving beyond 24 cores. Best configuration:
//! mbs:8–12 on 48 cores.
//!
//! Usage: `cargo run --release -p bpar-bench --bin fig3`

use bpar_bench::{bpar_time, print_table, write_json, Phase};
use bpar_core::cell::CellKind;
use bpar_core::merge::MergeMode;
use bpar_core::model::{BrnnConfig, ModelKind};
use serde::Serialize;

#[derive(Serialize)]
struct Fig3Point {
    layers: usize,
    cores: usize,
    mbs: usize,
    seconds: f64,
    speedup: f64,
}

fn main() {
    let cores_axis = [1usize, 2, 4, 8, 16, 24, 32, 48];
    let mbs_axis = [1usize, 2, 4, 6, 8, 10, 12];
    let batch = 120; // divisible by every mbs in the sweep
    let mut points: Vec<Fig3Point> = Vec::new();

    for layers in [8usize, 12] {
        let cfg = BrnnConfig {
            cell: CellKind::Lstm,
            input_size: 256,
            hidden_size: 256,
            layers,
            seq_len: 100,
            output_size: 11,
            merge: MergeMode::Sum,
            kind: ModelKind::ManyToOne,
        };
        let baseline = bpar_time(&cfg, batch, 1, 1, Phase::Training);
        // mbs outer, cores inner: each graph is built once and replayed
        // on every core count (see `bpar_time`).
        let times: Vec<Vec<f64>> = mbs_axis
            .iter()
            .map(|&mbs| {
                eprint!(".");
                cores_axis
                    .iter()
                    .map(|&cores| bpar_time(&cfg, batch, cores, mbs, Phase::Training))
                    .collect()
            })
            .collect();
        let mut rows = Vec::new();
        for (ci, &cores) in cores_axis.iter().enumerate() {
            let mut row = vec![cores.to_string()];
            for (mi, &mbs) in mbs_axis.iter().enumerate() {
                let t = times[mi][ci];
                row.push(format!("{:.2}", baseline / t));
                points.push(Fig3Point {
                    layers,
                    cores,
                    mbs,
                    seconds: t,
                    speedup: baseline / t,
                });
            }
            rows.push(row);
        }
        eprintln!();
        print_table(
            &format!(
                "Fig. 3 ({layers}-layer BLSTM): speed-up vs B-Par-mbs:1 on 1 core \
                 (baseline {:.2} s)",
                baseline
            ),
            &[
                "cores", "mbs:1", "mbs:2", "mbs:4", "mbs:6", "mbs:8", "mbs:10", "mbs:12",
            ],
            &rows,
        );
    }

    // Shape checks against the paper's described behaviour.
    let best = points
        .iter()
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        .unwrap();
    println!(
        "\nBest configuration: mbs:{} on {} cores, speed-up {:.2}x \
         (paper: best at mbs:8 with all 48 cores).",
        best.mbs, best.cores, best.speedup
    );
    let at = |layers, cores, mbs| {
        points
            .iter()
            .find(|p| p.layers == layers && p.cores == cores && p.mbs == mbs)
            .unwrap()
            .speedup
    };
    println!(
        "mbs:8 keeps gaining 24->48 cores: {:.2}x -> {:.2}x (paper: improves); \
         mbs:2 stalls: {:.2}x -> {:.2}x (paper: degrades/stalls from NUMA).",
        at(8, 24, 8),
        at(8, 48, 8),
        at(8, 24, 2),
        at(8, 48, 2)
    );
    write_json("fig3", &points);
}
