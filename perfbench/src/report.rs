//! Metric catalogue, the human-readable report and the result line.

use crate::stats::{self, highest_supported};

/// End-to-end metrics: (name, unit). Every workload reports each one.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("goodput_per_s", "1/s"),
];

/// Per-layer metrics: (name, unit). A workload whose path skips a layer
/// reports its metrics as 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("loadgen.lag_ms_p50", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("router.submit_us_p50", "us"),
    ("router.submit_us_p99", "us"),
    ("router.replica_skew", "ratio"),
    ("serve.queue.wait_ms_p50", "ms"),
    ("serve.queue.wait_ms_p99", "ms"),
    ("serve.queue.depth_max", "count"),
    ("serve.batcher.rows_mean", "count"),
    ("serve.batcher.padding_frac", "ratio"),
    ("serve.pool.hit_ratio", "ratio"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p99", "ms"),
    ("exec.plan.hit_ratio", "ratio"),
    ("exec.plan.misses", "count"),
    ("exec.plan.build_ms", "ms"),
    ("exec.replay_us_per_batch", "us"),
    ("exec.weight_syncs_per_step", "count"),
    ("exec.outside_runtime_us", "us"),
    ("runtime.tasks_per_batch", "count"),
    ("runtime.gap_ns_per_task", "ns"),
    ("runtime.replay_overhead_us", "us"),
    ("runtime.body_share", "ratio"),
    ("runtime.avg_concurrency", "count"),
    ("kernel.cell_fwd.us_per_task", "us"),
    ("kernel.cell_fwd.gflops", "GFLOP/s"),
    ("kernel.cell_bwd.us_per_task", "us"),
    ("kernel.cell_bwd.gflops", "GFLOP/s"),
    ("kernel.merge.us_per_task", "us"),
    ("kernel.dense.us_per_task", "us"),
    ("self_ms.loadgen", "ms"),
    ("self_ms.router", "ms"),
    ("self_ms.serve.queue", "ms"),
    ("self_ms.serve.batcher", "ms"),
    ("self_ms.serve.pool", "ms"),
    ("self_ms.exec", "ms"),
    ("self_ms.runtime", "ms"),
    ("self_ms.kernel", "ms"),
    ("self_ms.serve.server", "ms"),
    ("self_ms.residual", "ms"),
    ("trace.residual_frac", "ratio"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.untraced_p50_ms", "ms"),
];

/// One measured value with its sample count and what it is.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
    pub note: String,
}

/// An ordered set of metrics drawn from one catalogue.
#[derive(Debug, Clone)]
pub struct Metrics {
    catalogue: &'static [(&'static str, &'static str)],
    pub items: Vec<Metric>,
}

impl Metrics {
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            catalogue,
            items: Vec::new(),
        }
    }

    /// Records `name`; its unit comes from the catalogue.
    pub fn put(&mut self, name: &str, value: f64, n: usize, note: &str) {
        let unit = self
            .catalogue
            .iter()
            .find(|(m, _)| *m == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
            .1;
        let value = if value.is_finite() { value } else { 0.0 };
        self.items.retain(|m| m.name != name);
        self.items.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            note: note.to_string(),
        });
    }

    /// Records percentile `p` of `ordered_s` (seconds, in schedule
    /// order) in ms, as [`stats::windowed_percentile`] takes it.
    pub fn put_windowed(&mut self, name: &str, ordered_s: &[f64], p: f64, what: &str) {
        let (value_ms, note) = windowed(ordered_s, p, what);
        self.put(name, value_ms, ordered_s.len(), &note);
    }

    /// Fills every catalogue entry not yet recorded with 0, marked as off
    /// this workload's path, and orders items as the catalogue does.
    pub fn complete(&mut self) {
        for (name, unit) in self.catalogue {
            if !self.items.iter().any(|m| m.name == *name) {
                self.items.push(Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit,
                    n: 0,
                    note: "layer not on this workload's path".to_string(),
                });
            }
        }
        let order = |m: &Metric| self.catalogue.iter().position(|(c, _)| *c == m.name);
        let mut items = std::mem::take(&mut self.items);
        items.sort_by_key(order);
        self.items = items;
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Percentile `p` of `ordered_s` (seconds, in schedule order) in ms, as
/// [`stats::windowed_percentile`] takes it, with a note naming the
/// windows and whether each supports the percentile.
fn windowed(ordered_s: &[f64], p: f64, what: &str) -> (f64, String) {
    let (value, windows) = stats::windowed_percentile(ordered_s, p);
    let n = ordered_s.len();
    let per = n / windows;
    let support = if stats::supports(per, p) {
        format!("{} beyond it per window", stats::beyond(per, p))
    } else {
        format!("UNSUPPORTED: only {} beyond it", stats::beyond(per, p))
    };
    let best = highest_supported(n).map_or("none".to_string(), |b| format!("p{b}"));
    let note = format!(
        "{what}, p{p}, lower quartile of {windows} windows ({support}; whole run supports {best})"
    );
    (value * 1e3, note)
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    /// Accounting violations; any makes the run incorrect.
    pub problems: Vec<String>,
    pub lag_p99_ms: f64,
    /// Printed with the end-to-end metrics, not part of the result line.
    pub info: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
}

impl Report {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            mismatches: 0,
            problems: Vec::new(),
            lag_p99_ms: 0.0,
            info: Vec::new(),
            end_to_end: Metrics::new(&END_TO_END),
            per_layer: Metrics::new(&PER_LAYER),
        }
    }

    /// Prints percentile `p` of `ordered_s` beside the end-to-end metrics
    /// without making it one: run to run it moves by more than any bound.
    pub fn info_windowed(&mut self, name: &str, ordered_s: &[f64], p: f64, what: &str) {
        let (value_ms, note) = windowed(ordered_s, p, what);
        self.info.push(format!(
            "{name:<32} {value_ms:>14.6} ms       n={:<7} {note}; printed, not bounded",
            ordered_s.len()
        ));
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.problems.is_empty()
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Human-readable lines, one metric each.
    pub fn print(&self, trace: bool) {
        println!("== {} ==", self.workload);
        println!(
            "failed_frac = {} (failed {} of {} attempted; {} bit-identity mismatches)",
            self.failed_frac(),
            self.failed,
            self.attempted,
            self.mismatches
        );
        for p in &self.problems {
            println!("PROBLEM: {p}");
        }
        print_metrics("end-to-end (untraced pass)", &self.end_to_end);
        for line in &self.info {
            println!("{line}");
        }
        if trace {
            print_metrics("per-layer (traced pass unless noted)", &self.per_layer);
        }
    }

    /// The result line: the end-to-end metrics, or with `trace` the
    /// per-layer ones.
    pub fn json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .items
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("-- {title}");
    for m in &metrics.items {
        println!(
            "{:<32} {:>14.6} {:<8} n={:<7} {}",
            m.name, m.value, m.unit, m.n, m.note
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_fills_bypassed_layers_in_catalogue_order() {
        let mut m = Metrics::new(&END_TO_END);
        m.put("latency_p50_ms", 2.5, 100, "x");
        m.put("setup_s", f64::NAN, 5, "y");
        m.complete();
        let names: Vec<&str> = m.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["setup_s", "latency_p50_ms", "goodput_per_s"]);
        assert_eq!(m.get("setup_s"), Some(0.0));
        assert_eq!(m.get("goodput_per_s"), Some(0.0));
        assert_eq!(m.items[1].unit, "ms");
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_is_a_bug() {
        Metrics::new(&END_TO_END).put("nope", 1.0, 1, "");
    }

    #[test]
    fn windowed_metric_names_its_support() {
        let mut m = Metrics::new(&END_TO_END);
        let v: Vec<f64> = (1..=1000).map(|i| i as f64 / 1e3).collect();
        m.put_windowed("latency_p50_ms", &v, 99.0, "lat");
        assert_eq!(m.get("latency_p50_ms"), Some(990.0));
        assert!(m.items[0].note.contains("10 beyond it per window"));
        m.put_windowed("latency_p50_ms", &v[..500], 99.0, "lat");
        assert!(m.items[0].note.contains("UNSUPPORTED"));
        let mut r = Report::new("w");
        r.info_windowed("latency_p99_ms", &v, 99.0, "lat");
        assert!(r.info[0].contains("990.000000 ms") && r.info[0].contains("not bounded"));
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report::new("w");
        r.attempted = 3;
        r.end_to_end.put("setup_s", 0.5, 5, "");
        let line = r.json(false);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.mismatches = 1;
        assert!(r.json(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn catalogues_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
