//! Metric tables, the answer checker, and the result line.
//!
//! The two tables below are the benchmark's metric lists: every run
//! prints every end-to-end metric (untraced) or every per-layer metric
//! (traced), in this order, whichever workload it runs. `BENCHMARK.json`
//! lists the same names and units.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: what a user of the workload sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("throughput", "1/s"),
];

/// Per-layer metrics, grouped by the crate whose public calls they time
/// or whose counters they read. A layer a workload never calls reports
/// 0 work and 0 busy time (README.md, "Layers a workload bypasses").
pub const PER_LAYER: &[(&str, &str)] = &[
    // the benchmark process as a whole
    ("process.peak_rss_mb", "MB"),
    // twgraph
    ("graph.gen_s", "s"),
    // congest_sim
    ("congest.rounds", "count"),
    ("congest.supersteps", "count"),
    ("congest.messages", "count"),
    ("congest.words", "count"),
    ("congest.us_per_superstep", "us"),
    ("congest.ns_per_message", "ns"),
    // subgraph_ops
    ("primitives.backbone_calls", "count"),
    ("primitives.backbone_messages", "count"),
    ("primitives.backbone_s", "s"),
    // treedec
    ("treedec.decompose_s", "s"),
    ("treedec.decompose_rounds", "count"),
    ("treedec.decompose_messages", "count"),
    ("treedec.width", "count"),
    ("treedec.depth", "count"),
    ("treedec.centralized_decompose_s", "s"),
    // distlabel
    ("distlabel.label_s", "s"),
    ("distlabel.label_messages", "count"),
    ("distlabel.label_words_total", "count"),
    ("distlabel.sssp_s", "s"),
    ("distlabel.src_label_words", "count"),
    ("distlabel.query_supersteps", "count"),
    ("distlabel.decode_ns", "ns"),
    ("distlabel.apply_ms_p50", "ms"),
    ("distlabel.scoped_ratio", "ratio"),
    ("distlabel.fallbacks", "count"),
    ("distlabel.dirty_vertices", "count"),
    ("distlabel.region_nodes", "count"),
    // stateful_walks / girth / bmatch
    ("girth.s", "s"),
    ("girth.trials", "count"),
    ("girth.ms_per_trial", "ms"),
    ("walks.cdl_build_ms", "ms"),
    ("matching.s", "s"),
    ("matching.size", "count"),
    ("matching.ms_per_augmentation", "ms"),
    ("matching.rounds", "count"),
    // labelserve
    ("labelserve.store_build_s", "s"),
    ("labelserve.store_bytes", "bytes"),
    ("labelserve.store_bytes_per_node", "bytes"),
    ("labelserve.inproc_hit_ns", "ns"),
    ("labelserve.inproc_miss_ns", "ns"),
    ("labelserve.cache_hit_rate", "ratio"),
    ("labelserve.publish_ms_p50", "ms"),
    ("labelserve.dirty_shards", "count"),
    ("labelserve.carried_pairs", "count"),
    // servd
    ("servd.requests", "count"),
    ("servd.queries", "count"),
    ("servd.overloads", "count"),
    ("servd.rejected_batches", "count"),
    ("servd.malformed", "count"),
    ("servd.client_p50_us", "us"),
    ("servd.client_p90_us", "us"),
    ("servd.client_p99_us", "us"),
    ("servd.wire_us", "us"),
    ("servd.generator_lag_us", "us"),
    ("servd.ladder_max_qps", "1/s"),
];

/// Named metric values of one run; unknown names are a programming error.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(k, _)| *k)
            .find(|k| *k == name)
            .unwrap_or_else(|| panic!("metric {name} is in neither table"));
        assert!(value.is_finite(), "metric {name} = {value} is not finite");
        self.0.insert(key, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over one table.
    pub fn json(&self, table: &[(&str, &str)]) -> String {
        let mut s = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                self.get(name)
            );
        }
        s.push('}');
        s
    }

    /// One aligned `name = value unit` line per metric of a table.
    pub fn print(&self, title: &str, table: &[(&str, &str)]) {
        println!("{title}:");
        for (name, unit) in table {
            println!("  {name:<34} {:>18.6} {unit}", self.get(name));
        }
    }
}

/// Counts every answer checked against an oracle. A wrong, refused or
/// errored answer is a failure; `inject` turns the first check into one,
/// which is how the self-test proves each workload's checks can fail.
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    inject: bool,
    first_failure: Option<String>,
}

impl Checker {
    pub fn new(inject: bool) -> Self {
        Checker {
            attempted: 0,
            failed: 0,
            inject,
            first_failure: None,
        }
    }

    /// Compare one answer with the oracle's.
    pub fn check<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) -> bool {
        self.attempted += 1;
        if std::mem::take(&mut self.inject) {
            self.fail(format!(
                "{what}: injected wrong answer (oracle said {want:?})"
            ));
            return false;
        }
        if got != want {
            self.fail(format!("{what}: got {got:?}, oracle says {want:?}"));
            return false;
        }
        true
    }

    /// Compare answers element by element; each element is one answer.
    pub fn check_all<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: &[T], want: &[T]) {
        if got.len() != want.len() {
            self.refused(
                what,
                format!("{} answers for {} questions", got.len(), want.len()),
            );
            return;
        }
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            self.attempted += 1;
            if std::mem::take(&mut self.inject) {
                self.fail(format!(
                    "{what}[{i}]: injected wrong answer (oracle said {w:?})"
                ));
            } else if g != w {
                self.fail(format!("{what}[{i}]: got {g:?}, oracle says {w:?}"));
            }
        }
    }

    /// An operation that was refused or errored instead of answering.
    pub fn refused(&mut self, what: &str, err: impl std::fmt::Display) {
        self.refused_many(what, err, 1);
    }

    /// A refusal or error that cost `lost` answers.
    pub fn refused_many(&mut self, what: &str, err: impl std::fmt::Display, lost: u64) {
        self.attempted += lost;
        self.failed += lost.saturating_sub(1);
        self.fail(format!("{what}: {err}"));
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            eprintln!("perfbench: check failed: {msg}");
            self.first_failure = Some(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: String) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

/// Median (the lower one of an even count); 0 when empty.
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    xs[(xs.len() - 1) / 2]
}

/// Mean after dropping the ⌈n/6⌉ highest and lowest values (when n ≥ 3):
/// the aggregate over measurement windows. It averages away the spread
/// between windows (instances of a pool) and ignores a window a host stall
/// spoiled. 0 when empty.
pub fn trimmed_mean(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let trim = if xs.len() >= 3 {
        xs.len().div_ceil(6)
    } else {
        0
    };
    let kept = &xs[trim..xs.len() - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
