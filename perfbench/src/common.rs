//! What every workload shares: the run context, repeated set-up, the
//! measuring loop, and the instance family of the `lab` engine experiment.

use crate::report::{Checker, Metrics};
use crate::trace::Tracer;
use lowtw_bench::drivers::{gen_instance, Instance};
use lowtw_bench::lab::plan::Trial;
use lowtw_bench::lab::spec::{Driver, ParamValue, Params};
use std::time::{Duration, Instant};

/// Set-ups per run: at least `SETUP_MIN_REPS`, and more while they have
/// taken less than `SETUP_MIN_S` in all (up to `SETUP_MAX_REPS`), so that
/// the median of a set-up of a few milliseconds is steady too.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 50;
const SETUP_MIN_S: f64 = 0.3;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub checker: Checker,
    /// Per-layer values; only printed by traced runs.
    pub layers: Metrics,
}

/// What a workload hands back for the end-to-end metrics.
pub struct EndToEnd {
    /// Median wall of one set-up.
    pub setup_s: f64,
    /// Wall of every measured operation, ns, grouped into measurement
    /// windows; the run reports the trimmed mean over windows of each
    /// window's percentile ([`crate::report::trimmed_mean`]).
    pub op_windows: Vec<Vec<u64>>,
    /// Work units that complete per operation time: 1 for a sequential
    /// operation; distances per burst times connections when serving.
    /// Throughput is this over the trimmed mean of the windows' mean
    /// operation time.
    pub work_per_op: f64,
}

/// Seed of the `i`-th instance of a run: instance 0 is the run's own seed,
/// so it is exactly the `lab` instance for that seed.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    seed + i as u64 * 1_000_003
}

/// The weighted partial k-tree (`keep` 0.5, weights 1..30) that the `lab`
/// engine experiment builds for `(n, k, seed)`.
pub fn lab_instance(n: usize, k: usize, seed: u64) -> Instance {
    gen_instance(&lab_trial(n, k, seed), n, k)
}

/// A trial of the `lab` engine experiment at `(n, k, keep = 0.5, seed)`.
pub fn lab_trial(n: usize, k: usize, seed: u64) -> Trial {
    let int = |x: u64| ParamValue::Int(i64::try_from(x).expect("parameter fits i64"));
    let mut params = Params::default();
    params.0.insert("n".into(), int(n as u64));
    params.0.insert("k".into(), int(k as u64));
    params.0.insert("keep".into(), ParamValue::Float(0.5));
    params.0.insert("seed".into(), int(seed));
    Trial {
        experiment: "engine".into(),
        driver: Driver::Engine,
        scenario: "-".into(),
        pipeline: "-".into(),
        variant: "-".into(),
        rep: 0,
        params,
    }
}

/// Run `setup` repeatedly (see [`SETUP_MIN_REPS`]) and keep the last result. `setup`
/// returns its product and the wall of each named sub-step; the result
/// carries the median total wall and the median of each sub-step.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> (T, Vec<(&'static str, Duration)>),
) -> (T, f64, Vec<(&'static str, f64)>) {
    let mut totals = Vec::new();
    let mut parts: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while totals.len() < SETUP_MIN_REPS
        || (totals.len() < SETUP_MAX_REPS && start.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        drop(last.take());
        let t = Instant::now();
        let (product, steps) = setup();
        totals.push(t.elapsed().as_secs_f64());
        for (name, d) in steps {
            match parts.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => v.push(d.as_secs_f64()),
                None => parts.push((name, vec![d.as_secs_f64()])),
            }
        }
        last = Some(product);
    }
    let medians = parts
        .into_iter()
        .map(|(name, v)| (name, crate::report::median(v)))
        .collect();
    (
        last.expect("at least one set-up"),
        crate::report::median(totals),
        medians,
    )
}

/// The measuring loop's stop rule: run until `seconds` have passed and at
/// least `min_ops` operations are done.
pub struct Deadline {
    start: Instant,
    seconds: f64,
    min_ops: usize,
}

impl Deadline {
    pub fn new(seconds: f64, min_ops: usize) -> Self {
        Deadline {
            start: Instant::now(),
            seconds,
            min_ops,
        }
    }

    pub fn more(&self, done: usize) -> bool {
        done < self.min_ops || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}
