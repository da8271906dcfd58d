//! Metric collection and the result line.

use std::fmt::Write as _;

/// Which list of `BENCHMARK.json` a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An `end_to_end` metric: printed in the result line of `--trace 0`.
    EndToEnd,
    /// A `per_layer` metric: printed in the result line of `--trace 1`.
    Layer,
    /// A per-layer metric that exists on some workloads only: printed in
    /// the run output, never in the result line.
    Detail,
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as cited by `BENCHMARK.json` and issues.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Which list it belongs to.
    pub kind: Kind,
    /// Free-text context (sample count, base of a ratio).
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    info: Vec<(String, String)>,
    /// Operations attempted (syscall ops, events, reloads).
    pub attempted: u64,
    /// Operations whose outcome differed from the oracle's.
    pub failed: u64,
    /// Descriptions of the first few failures.
    pub failures: Vec<String>,
}

/// How many failure descriptions a report keeps.
const MAX_FAILURE_NOTES: usize = 16;

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Records a metric.
    pub fn metric(&mut self, kind: Kind, name: &str, unit: &'static str, value: f64, note: String) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            kind,
            note,
        });
    }

    /// Records a run property (seed, thread counts, commit, ...).
    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Counts one checked operation; `ok == false` is a failure.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(describe());
        }
    }

    /// Records one failure that is not tied to a single attempted op (a
    /// lost or extra event, a wrong final state).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_NOTES {
            self.failures.push(what);
        }
    }

    /// Merges the op accounting of `other` into this report.
    pub fn absorb_checks(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < MAX_FAILURE_NOTES {
                self.failures.push(f);
            }
        }
    }

    /// True when every op matched the oracle and every value is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the run output: info, failures, every metric, then the
    /// one-line JSON result (last line of stdout).
    pub fn print(&self, traced: bool) {
        let mut info = String::from("run");
        for (k, v) in &self.info {
            let _ = write!(info, " {k}={v}");
        }
        println!("{info}");
        for f in &self.failures {
            println!("FAILED {f}");
        }
        println!(
            "checked attempted={} failed={} failed_frac={}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for m in &self.metrics {
            let tag = match m.kind {
                Kind::EndToEnd => "e2e",
                Kind::Layer => "layer",
                Kind::Detail => "detail",
            };
            println!(
                "metric {tag:<6} {:<40} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        println!("{}", self.result_line(traced));
    }

    /// The JSON result: every end-to-end metric untraced, every per-layer
    /// metric traced.
    pub fn result_line(&self, traced: bool) -> String {
        let wanted = if traced { Kind::Layer } else { Kind::EndToEnd };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let mut first = true;
        for m in self.metrics.iter().filter(|m| m.kind == wanted) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_holds_only_the_requested_list() {
        let mut r = Report::new();
        r.metric(Kind::EndToEnd, "op_p50_us", "us", 1.5, String::new());
        r.metric(
            Kind::Layer,
            "core.ssm.deliver_us",
            "us",
            0.25,
            String::new(),
        );
        r.check(true, String::new);
        let e2e = r.result_line(false);
        assert!(e2e.contains("\"op_p50_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        assert!(!e2e.contains("deliver"));
        assert!(r.result_line(true).contains("core.ssm.deliver_us"));
        assert!(e2e.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = Report::new();
        r.check(true, String::new);
        r.check(false, || "wrong verdict".to_string());
        assert!(!r.correct());
        assert_eq!(r.failed, 1);
        assert_eq!(r.failures, vec!["wrong verdict".to_string()]);
    }
}
