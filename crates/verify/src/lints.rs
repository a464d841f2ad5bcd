//! Static lints over a [`GraphView`].
//!
//! These run without executing anything: they check the *declared* task
//! graph for structural violations the paper's barrier-free execution
//! model depends on. Task ids are assigned in submission order and the
//! `DepTracker` only ever creates edges from earlier to later ids, so a
//! well-formed graph is acyclic by construction — `backward-edge` firing
//! means that invariant was broken somewhere.
//!
//! Gating lints (severity `error`):
//! * `backward-edge` — an edge points to an equal or smaller task id
//!   (cycle / topological-order violation);
//! * `mirror-mismatch` — pred/succ lists disagree, or a plan's frozen
//!   `pending` counter differs from its real in-degree (a task would
//!   either run early or deadlock at replay);
//! * `duplicate-edge` — the same dependency edge appears twice (the
//!   replay ready-counter would be decremented twice);
//! * `dead-write` — a task's declared write is overwritten by a later
//!   task before any task declares a read of it (lost update; this is
//!   exactly the shape an accumulator with a missing `in` clause has);
//! * `isolated-task` — a task with no edges at all in a multi-task graph
//!   (almost always a forgotten clause).
//!
//! Region-level accounting (never-read / never-written regions, duplicate
//! clause entries) is informational and reported through
//! [`GraphMetrics`], not as findings: graph inputs and outputs
//! legitimately have one-sided access patterns.

use crate::report::{Finding, GraphMetrics};
use crate::view::GraphView;
use bpar_runtime::region::RegionId;
use std::collections::{HashMap, HashSet};

/// Runs every structural lint; findings are in discovery order (callers
/// sort via [`crate::report::GraphReport::new`]). `region_name` renders a
/// region id as a human-readable coordinate.
pub fn run_lints(view: &GraphView, region_name: &dyn Fn(RegionId) -> String) -> Vec<Finding> {
    let mut findings = run_edge_lints(view);
    lint_dead_writes(view, region_name, &mut findings);
    lint_isolated_tasks(view, &mut findings);
    findings
}

/// Runs only the edge-structure lints (`backward-edge`,
/// `mirror-mismatch`, `duplicate-edge`): the invariants a scheduler's
/// ready counters rely on, independent of what the clauses mean.
pub fn run_edge_lints(view: &GraphView) -> Vec<Finding> {
    let mut findings = Vec::new();
    lint_backward_edges(view, &mut findings);
    lint_mirror(view, &mut findings);
    lint_duplicate_edges(view, &mut findings);
    findings
}

/// Computes the informational size/region metrics for a view.
pub fn collect_metrics(view: &GraphView) -> GraphMetrics {
    let mut read_anywhere: HashSet<u64> = HashSet::new();
    let mut written_anywhere: HashSet<u64> = HashSet::new();
    let mut duplicate_clause_entries = 0usize;
    for t in &view.tasks {
        for clause in [&t.ins, &t.outs] {
            let mut seen = HashSet::new();
            for r in clause {
                if !seen.insert(r.0) {
                    duplicate_clause_entries += 1;
                }
            }
        }
        read_anywhere.extend(t.ins.iter().map(|r| r.0));
        written_anywhere.extend(t.outs.iter().map(|r| r.0));
    }
    let regions: HashSet<u64> = read_anywhere.union(&written_anywhere).copied().collect();
    GraphMetrics {
        tasks: view.len(),
        edges: view.edge_count(),
        roots: view.tasks.iter().filter(|t| t.preds.is_empty()).count(),
        regions: regions.len(),
        regions_never_read: written_anywhere.difference(&read_anywhere).count(),
        regions_never_written: read_anywhere.difference(&written_anywhere).count(),
        duplicate_clause_entries,
        // Filled in by the exploration prong when it runs on this graph.
        ..Default::default()
    }
}

fn lint_backward_edges(view: &GraphView, findings: &mut Vec<Finding>) {
    for (i, t) in view.tasks.iter().enumerate() {
        for &s in &t.succs {
            if s <= i {
                findings.push(Finding::error(
                    "backward-edge",
                    i,
                    &t.label,
                    format!("edge {i} -> {s} does not point forward in task-id order"),
                ));
            }
        }
        for &p in &t.preds {
            if p >= i {
                findings.push(Finding::error(
                    "backward-edge",
                    i,
                    &t.label,
                    format!("predecessor {p} does not precede task {i}"),
                ));
            }
        }
    }
}

fn lint_mirror(view: &GraphView, findings: &mut Vec<Finding>) {
    for (i, t) in view.tasks.iter().enumerate() {
        for &s in &t.succs {
            if view.tasks.get(s).is_none_or(|st| !st.preds.contains(&i)) {
                findings.push(Finding::error(
                    "mirror-mismatch",
                    i,
                    &t.label,
                    format!("successor {s} does not list {i} as a predecessor"),
                ));
            }
        }
        for &p in &t.preds {
            if view.tasks.get(p).is_none_or(|pt| !pt.succs.contains(&i)) {
                findings.push(Finding::error(
                    "mirror-mismatch",
                    i,
                    &t.label,
                    format!("predecessor {p} does not list {i} as a successor"),
                ));
            }
        }
        if t.declared_pred_count != t.preds.len() {
            findings.push(Finding::error(
                "mirror-mismatch",
                i,
                &t.label,
                format!(
                    "declared predecessor count {} but {} incoming edges exist \
                     (replay would {} this task)",
                    t.declared_pred_count,
                    t.preds.len(),
                    if t.declared_pred_count > t.preds.len() {
                        "deadlock on"
                    } else {
                        "release early"
                    }
                ),
            ));
        }
    }
}

fn lint_duplicate_edges(view: &GraphView, findings: &mut Vec<Finding>) {
    for (i, t) in view.tasks.iter().enumerate() {
        let mut seen = HashSet::new();
        for &s in &t.succs {
            if !seen.insert(s) {
                findings.push(Finding::error(
                    "duplicate-edge",
                    i,
                    &t.label,
                    format!(
                        "edge {i} -> {s} appears more than once \
                         (the ready counter would be decremented twice)"
                    ),
                ));
            }
        }
    }
}

/// Lost-update detection: scans tasks in id order (a legal execution
/// order, since every edge points forward) tracking, per region, the last
/// declared writer and whether any task has declared a read since. A
/// second write with no intervening read discards the first writer's
/// value — for B-Par graphs this pattern only appears when an accumulator
/// task forgot its `in` clause, so it gates. Final writes (graph outputs
/// such as logits) are read after `taskwait`, outside the graph, and are
/// deliberately not flagged.
fn lint_dead_writes(
    view: &GraphView,
    region_name: &dyn Fn(RegionId) -> String,
    findings: &mut Vec<Finding>,
) {
    // region -> (last writer, read since that write)
    let mut state: HashMap<u64, (usize, bool)> = HashMap::new();
    for (i, t) in view.tasks.iter().enumerate() {
        // Reads first: a task declaring a region in *and* out (an inout /
        // accumulator) reads the previous value before overwriting it.
        for r in &t.ins {
            if let Some(entry) = state.get_mut(&r.0) {
                entry.1 = true;
            }
        }
        for r in &t.outs {
            if let Some(&(writer, read_since)) = state.get(&r.0) {
                if !read_since {
                    findings.push(
                        Finding::error(
                            "dead-write",
                            writer,
                            &view.tasks[writer].label,
                            format!(
                                "write to {} by task {writer} is overwritten by task {i} \
                                 ({}) before any task reads it",
                                region_name(*r),
                                t.label
                            ),
                        )
                        .with_region(region_name(*r)),
                    );
                }
            }
            state.insert(r.0, (i, false));
        }
    }
}

fn lint_isolated_tasks(view: &GraphView, findings: &mut Vec<Finding>) {
    if view.len() <= 1 {
        return;
    }
    for (i, t) in view.tasks.iter().enumerate() {
        if t.preds.is_empty() && t.succs.is_empty() {
            findings.push(Finding::error(
                "isolated-task",
                i,
                &t.label,
                "task has no dependency edges in a multi-task graph".to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{default_region_name, GraphView, TaskView};
    use bpar_runtime::graph::{TaskGraph, TaskNode};

    fn r(i: u64) -> RegionId {
        RegionId(i)
    }

    fn task(label: &str) -> TaskView {
        TaskView {
            label: label.to_string(),
            tag: 0,
            ins: Vec::new(),
            outs: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            declared_pred_count: 0,
        }
    }

    fn checks(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.check.as_str()).collect()
    }

    #[test]
    fn clean_graph_has_no_findings() {
        let mut g = TaskGraph::new();
        g.add_task(TaskNode::new("a"), &[], &[r(0)]);
        g.add_task(TaskNode::new("b"), &[r(0)], &[r(1)]);
        g.add_task(TaskNode::new("c"), &[r(1)], &[r(1)]); // inout rewrite
        let v = GraphView::from_graph(&g);
        assert!(run_lints(&v, &default_region_name).is_empty());
        let m = collect_metrics(&v);
        assert_eq!((m.tasks, m.edges, m.roots, m.regions), (3, 2, 1, 2));
        assert_eq!(m.regions_never_read, 0); // r1 is read by c
        assert_eq!(m.regions_never_written, 0);
    }

    #[test]
    fn backward_edge_is_reported() {
        let mut v = GraphView {
            tasks: vec![task("a"), task("b")],
        };
        v.tasks[1].succs.push(0); // edge 1 -> 0
        v.tasks[0].preds.push(1);
        let f = run_lints(&v, &default_region_name);
        assert!(checks(&f).contains(&"backward-edge"), "{f:?}");
    }

    #[test]
    fn pending_mismatch_is_a_mirror_finding() {
        let mut v = GraphView {
            tasks: vec![task("a"), task("b")],
        };
        v.tasks[0].succs.push(1);
        v.tasks[1].preds.push(0);
        v.tasks[1].declared_pred_count = 2; // claims an edge that is not there
        let f = run_lints(&v, &default_region_name);
        assert_eq!(checks(&f), vec!["mirror-mismatch"]);
        assert!(f[0].detail.contains("deadlock"), "{}", f[0].detail);
    }

    #[test]
    fn one_sided_edge_is_a_mirror_finding() {
        let mut v = GraphView {
            tasks: vec![task("a"), task("b")],
        };
        v.tasks[0].succs.push(1); // succ without matching pred
        let f = run_lints(&v, &default_region_name);
        // The dangling succ and the (consistent) pending counters both
        // reference the same missing edge; at least the mirror fires.
        assert!(checks(&f).contains(&"mirror-mismatch"), "{f:?}");
    }

    #[test]
    fn duplicate_edge_is_reported() {
        let mut v = GraphView {
            tasks: vec![task("a"), task("b")],
        };
        v.tasks[0].succs = vec![1, 1];
        v.tasks[1].preds = vec![0, 0];
        v.tasks[1].declared_pred_count = 2;
        let f = run_lints(&v, &default_region_name);
        assert!(checks(&f).contains(&"duplicate-edge"), "{f:?}");
    }

    #[test]
    fn accumulator_without_in_clause_is_a_dead_write() {
        // Two "accumulate" tasks declare only out(r2): the second write
        // kills the first — the exact shape of a missing inout clause.
        let mut g = TaskGraph::new();
        g.add_task(TaskNode::new("produce"), &[], &[r(1)]);
        g.add_task(TaskNode::new("acc0"), &[r(1)], &[r(2)]);
        g.add_task(TaskNode::new("acc1"), &[r(1)], &[r(2)]);
        let v = GraphView::from_graph(&g);
        let f = run_lints(&v, &default_region_name);
        assert_eq!(checks(&f), vec!["dead-write"]);
        assert_eq!(f[0].task, Some(1), "anchored at the clobbered writer");
        assert_eq!(f[0].region.as_deref(), Some("r2"));
    }

    #[test]
    fn declaring_the_accumulator_inout_clears_the_dead_write() {
        let mut g = TaskGraph::new();
        g.add_task(TaskNode::new("produce"), &[], &[r(1)]);
        g.add_task(TaskNode::new("acc0"), &[r(1), r(2)], &[r(2)]);
        g.add_task(TaskNode::new("acc1"), &[r(1), r(2)], &[r(2)]);
        let v = GraphView::from_graph(&g);
        assert!(run_lints(&v, &default_region_name).is_empty());
    }

    #[test]
    fn final_writes_are_not_dead() {
        let mut g = TaskGraph::new();
        g.add_task(TaskNode::new("a"), &[], &[r(0)]);
        g.add_task(TaskNode::new("logits"), &[r(0)], &[r(1)]); // never read
        let v = GraphView::from_graph(&g);
        assert!(run_lints(&v, &default_region_name).is_empty());
        assert_eq!(collect_metrics(&v).regions_never_read, 1);
    }

    #[test]
    fn isolated_task_is_reported() {
        let mut v = GraphView {
            tasks: vec![task("a"), task("floating"), task("c")],
        };
        v.tasks[0].succs.push(2);
        v.tasks[2].preds.push(0);
        v.tasks[2].declared_pred_count = 1;
        let f = run_lints(&v, &default_region_name);
        assert_eq!(checks(&f), vec!["isolated-task"]);
        assert_eq!(f[0].task, Some(1));
    }

    #[test]
    fn singleton_graph_is_not_isolated() {
        let v = GraphView {
            tasks: vec![task("only")],
        };
        assert!(run_lints(&v, &default_region_name).is_empty());
    }

    #[test]
    fn duplicate_clause_entries_are_counted() {
        let mut g = TaskGraph::new();
        g.add_task(TaskNode::new("a"), &[], &[r(0)]);
        g.add_task(TaskNode::new("b"), &[r(0), r(0)], &[r(1)]);
        let m = collect_metrics(&GraphView::from_graph(&g));
        assert_eq!(m.duplicate_clause_entries, 1);
        // The duplicate in-clause entry must not create a duplicate edge.
        assert!(run_lints(&GraphView::from_graph(&g), &default_region_name).is_empty());
    }
}
