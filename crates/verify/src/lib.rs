//! # bpar-verify
//!
//! Static and dynamic verification of B-Par task graphs.
//!
//! The paper's barrier-free execution model (§III) is only sound if every
//! task's `in`/`out` dependency clauses cover everything its body actually
//! touches — the runtime never checks this, it just builds edges from the
//! declarations. This crate is the checker, with two complementary
//! prongs:
//!
//! * **Static** ([`lints`], [`shape`]) — structural lints over a
//!   [`view::GraphView`] of either a `TaskGraph` or a `CompiledPlan`
//!   (acyclicity, pred/succ mirroring, duplicate edges, dead writes,
//!   isolated tasks) plus a closed-form Fig. 2 shape check: the graph's
//!   task/edge counts must equal an exact function of `(L, T, n, R)`.
//! * **Dynamic** ([`clauses`], [`fingerprint`]) — replay a plan with the
//!   runtime's access recorder installed and diff observed accesses
//!   against declared clauses (`undeclared-read` / `undeclared-write` /
//!   `dead-declaration`); and re-execute the same plan under adversarial
//!   ready-queue orders ([`fuzz_policies`]), fingerprinting the outputs —
//!   any divergence or panic is a concrete race witness, because every
//!   legal topological order of a sound graph must produce identical
//!   bits.
//! * **Concurrency soundness** ([`hb`], [`explore`], [`locks`]) — derive
//!   the happens-before relation from the executed plan plus taskwait
//!   barriers and classify every conflicting recorded access pair
//!   (`hb-race`); exhaustively enumerate all dependency-consistent
//!   schedules of small plans with sleep-set pruning and prove output
//!   fingerprints invariant (`exploration-divergence`); and lint the
//!   witnessed lock-acquisition-order graph (`lock-cycle`,
//!   `task-blocks-runtime-lock`).
//! * **Source audit** ([`audit`]) — in-repo lints over the workspace's
//!   own `unsafe` code (`missing-safety-comment`, `missing-unsafe-lint`),
//!   run by the `unsafe_audit` binary in CI.
//!
//! Everything reports through [`report::Finding`] /
//! [`report::AnalysisReport`], which serialize to byte-deterministic JSON
//! for the `bpar analyze` CI gate. Every check carries a stable `BPV` code
//! ([`report::code_for`]); CI greps codes, never prose.
//!
//! The drivers that build plans and execute them live in `bpar-core`
//! (`bpar_core::analyze`); this crate holds only the analyses, so it
//! depends on nothing heavier than `bpar-runtime`.

pub mod audit;
pub mod clauses;
pub mod explore;
pub mod fingerprint;
pub mod hb;
pub mod lints;
pub mod locks;
pub mod report;
pub mod shape;
pub mod view;

pub use audit::{audit_crate_root, audit_source};
pub use clauses::validate_clauses;
pub use explore::{explore_schedules, ExploreBudget, ExploreStats, ReplayOutcome};
pub use fingerprint::Fnv64;
pub use hb::check_happens_before;
pub use lints::{collect_metrics, run_edge_lints, run_lints};
pub use locks::check_lock_discipline;
pub use report::{
    code_for, sort_findings, AnalysisReport, Finding, GraphMetrics, GraphReport, Severity,
};
pub use shape::{check_shape, expected_shape, scan_combine_count, ExpectedShape, ShapeSpec};
pub use view::{default_region_name, GraphView, TaskView};

use bpar_runtime::scheduler::{AdversarialOrder, SchedulerPolicy};

/// The canonical schedule-fuzzing policy set: the submission-biased FIFO
/// baseline, the depth-first reversal, and one seeded random order per
/// given seed. Single-worker runs under each of these are deterministic,
/// so a divergence between any two is reproducible.
pub fn fuzz_policies(seeds: &[u64]) -> Vec<SchedulerPolicy> {
    let mut policies = vec![
        SchedulerPolicy::Fifo,
        SchedulerPolicy::Adversarial(AdversarialOrder::Reverse),
    ];
    policies.extend(
        seeds
            .iter()
            .map(|&s| SchedulerPolicy::Adversarial(AdversarialOrder::Random(s))),
    );
    policies
}

/// Short, stable display name for a policy, used in reports.
pub fn policy_name(policy: SchedulerPolicy) -> String {
    match policy {
        SchedulerPolicy::Fifo => "fifo".to_string(),
        SchedulerPolicy::LocalityAware => "locality".to_string(),
        SchedulerPolicy::WorkStealing => "work-stealing".to_string(),
        SchedulerPolicy::Adversarial(AdversarialOrder::Reverse) => "reverse".to_string(),
        SchedulerPolicy::Adversarial(AdversarialOrder::Random(seed)) => {
            format!("random-{seed}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_policy_set_is_fifo_reverse_then_seeds() {
        let p = fuzz_policies(&[7, 8]);
        assert_eq!(p.len(), 4);
        assert_eq!(p[0], SchedulerPolicy::Fifo);
        assert_eq!(
            p[1],
            SchedulerPolicy::Adversarial(AdversarialOrder::Reverse)
        );
        assert_eq!(
            p[2],
            SchedulerPolicy::Adversarial(AdversarialOrder::Random(7))
        );
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(policy_name(SchedulerPolicy::Fifo), "fifo");
        assert_eq!(policy_name(SchedulerPolicy::WorkStealing), "work-stealing");
        assert_eq!(
            policy_name(SchedulerPolicy::Adversarial(AdversarialOrder::Random(42))),
            "random-42"
        );
    }
}
