//! perfbench: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>] [--inject-wrong]
//! perfbench self-test [--seed <n>]
//! perfbench compare <result-a> <result-b>
//! ```
//!
//! A run builds its inputs from the seed, sets up several times, measures
//! the workload's operation for the given seconds, checks every answer
//! against an oracle outside the timed region, and prints as its last
//! line `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics when untraced, the per-layer metrics when traced. See
//! README.md for the workloads and the metric → layer → workload table.

mod churn;
mod common;
mod congest;
mod fingerprint;
mod loadgen;
mod probe;
mod report;
mod serve;
mod trace;
mod walks;

use common::{Ctx, EndToEnd};
use report::{Checker, Metrics, END_TO_END, PER_LAYER};

const WORKLOADS: &[&str] = &["congest-k1", "walks", "serve-socket", "update-churn"];

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    inject_wrong: bool,
}

fn usage(msg: &str) -> i32 {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <file>] [--inject-wrong]\n       perfbench self-test [--seed <n>]\n       perfbench compare <result-a> <result-b>",
        WORKLOADS.join("|")
    );
    2
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        inject_wrong: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--inject-wrong" {
            run.inject_wrong = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out" => run.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("unknown workload {:?}", run.workload));
    }
    // Instance seeds pass through the experiment harness's integer (i64)
    // params: reduce the seed below 2^62, which leaves room for the
    // per-instance offsets.
    run.seed %= 1 << 62;
    if !(run.seconds > 0.0 && run.seconds <= 600.0) {
        return Err(format!("seconds must be in (0, 600], got {}", run.seconds));
    }
    Ok(run)
}

/// Run one workload; returns its end-to-end and per-layer metrics.
fn measure(workload: &str, ctx: &mut Ctx) -> (Metrics, Metrics) {
    let e2e: EndToEnd = match workload {
        "congest-k1" => congest::run(ctx),
        "walks" => walks::run(ctx),
        "serve-socket" => serve::run(ctx),
        "update-churn" => churn::run(ctx),
        other => unreachable!("workload {other} passed validation"),
    };
    let mut end = Metrics::default();
    let windows: Vec<&Vec<u64>> = e2e.op_windows.iter().filter(|w| !w.is_empty()).collect();
    let across = |per_window: &dyn Fn(&[u64]) -> f64| {
        report::trimmed_mean(windows.iter().map(|w| per_window(w)).collect())
    };
    let mean_op_s = across(&|w| w.iter().sum::<u64>() as f64 / w.len() as f64 / 1e9);
    end.set("setup_s", e2e.setup_s);
    end.set("op_p50_ms", across(&|w| loadgen::pct(w, 50.0) as f64 / 1e6));
    end.set("op_p90_ms", across(&|w| loadgen::pct(w, 90.0) as f64 / 1e6));
    end.set(
        "throughput",
        if mean_op_s > 0.0 {
            e2e.work_per_op / mean_op_s
        } else {
            0.0
        },
    );
    ctx.layers.set("process.peak_rss_mb", report::peak_rss_mb());
    if ctx.tracer.enabled() {
        probe::fill_unmeasured(ctx);
    }
    let ops: usize = e2e.op_windows.iter().map(Vec::len).sum();
    println!(
        "operations measured: {ops} in {} window(s)",
        e2e.op_windows.len()
    );
    (end, std::mem::take(&mut ctx.layers))
}

fn run(args: RunArgs) -> i32 {
    let fp = fingerprint::collect();
    for (k, v) in fp.lines() {
        println!("{k} {v}");
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: trace::Tracer::new(args.trace),
        checker: Checker::new(args.inject_wrong),
        layers: Metrics::default(),
    };
    let (end, layers) = measure(&args.workload, &mut ctx);
    ctx.tracer.print_summary();
    end.print("end-to-end", END_TO_END);
    if args.trace {
        layers.print("per-layer", PER_LAYER);
    }
    let (attempted, failed) = (ctx.checker.attempted, ctx.checker.failed);
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!("answers checked: {attempted}, failed: {failed}, failed_frac: {failed_frac}");
    if let Some(path) = &args.out {
        let mut text = String::new();
        for (k, v) in fp.lines() {
            text.push_str(&format!("{k} {v}\n"));
        }
        text.push_str(&format!(
            "run.workload {}\nrun.seed {}\nrun.seconds {}\nrun.trace {}\n",
            args.workload, args.seed, args.seconds, args.trace as u8
        ));
        for (name, _) in END_TO_END {
            text.push_str(&format!("metric.{name} {}\n", end.get(name)));
        }
        if args.trace {
            for (name, _) in PER_LAYER {
                text.push_str(&format!("metric.{name} {}\n", layers.get(name)));
            }
        }
        text.push_str(&format!("run.attempted {attempted}\nrun.failed {failed}\n"));
        let parent = std::path::Path::new(path).parent();
        let written = parent
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|_| std::fs::write(path, text));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {path}: {e}");
            return 2;
        }
    }
    let correct = ctx.checker.correct();
    let metrics = if args.trace {
        layers.json(PER_LAYER)
    } else {
        end.json(END_TO_END)
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, metrics)
    );
    if correct {
        0
    } else {
        1
    }
}

/// Every workload, briefly, with one wrong answer injected into its
/// checker: passes only if each run notices and reports a failure.
fn self_test(args: &[String]) -> i32 {
    let seed = match args {
        [] => 1,
        [flag, v] if flag == "--seed" => match v.parse() {
            Ok(s) => s,
            Err(_) => return usage(&format!("bad seed {v:?}")),
        },
        _ => return usage("self-test takes only --seed"),
    };
    let mut all_caught = true;
    for w in WORKLOADS {
        let mut ctx = Ctx {
            seed,
            seconds: 1.0,
            tracer: trace::Tracer::new(false),
            checker: Checker::new(true),
            layers: Metrics::default(),
        };
        measure(w, &mut ctx);
        let caught = ctx.checker.failed > 0 && !ctx.checker.correct();
        println!(
            "self-test {w}: attempted {}, failed {} -> {}",
            ctx.checker.attempted,
            ctx.checker.failed,
            if caught {
                "wrong answer caught"
            } else {
                "WRONG ANSWER MISSED"
            }
        );
        all_caught &= caught;
    }
    if all_caught {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => fingerprint::compare(&args[1], &args[2]),
        Some("compare") => usage("compare takes two result files"),
        Some("self-test") => self_test(&args[1..]),
        _ => match parse_run(&args) {
            Ok(run_args) => run(run_args),
            Err(msg) => usage(&msg),
        },
    };
    std::process::exit(code);
}
