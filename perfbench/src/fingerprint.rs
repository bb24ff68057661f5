//! Host fingerprints, result files, and the `compare` subcommand.
//!
//! Every run prints the fingerprint of the host it ran on, and `--out`
//! saves it with the run's metrics. `compare` refuses two result files
//! whose hosts differ: same hostname is not enough, the CPU model, core
//! count and compiler must match too, and a fixed-work calibration loop
//! must take about as long on both (two machines can share a hostname).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Calibration loops on one host agree within this share of the smaller.
const CALIBRATION_TOLERANCE: f64 = 0.25;

pub struct Fingerprint {
    pub hostname: String,
    pub cpu_model: String,
    pub nproc: usize,
    pub rustc: String,
    pub calibration_us: f64,
}

/// Microseconds of a fixed integer workload (the median of three tries).
fn calibration_us() -> f64 {
    let mut tries: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..20_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    tries.sort_by(f64::total_cmp);
    tries[1]
}

fn one_line(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

pub fn collect() -> Fingerprint {
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .or_else(|_| std::fs::read_to_string("/etc/hostname"))
        .unwrap_or_else(|_| "unknown".into());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
        .unwrap_or_else(|| "unknown".into());
    Fingerprint {
        hostname: one_line(&hostname),
        cpu_model: one_line(&cpu_model),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: one_line(&rustc),
        calibration_us: calibration_us(),
    }
}

impl Fingerprint {
    pub fn lines(&self) -> Vec<(String, String)> {
        vec![
            ("fingerprint.hostname".into(), self.hostname.clone()),
            ("fingerprint.cpu_model".into(), self.cpu_model.clone()),
            ("fingerprint.nproc".into(), self.nproc.to_string()),
            ("fingerprint.rustc".into(), self.rustc.clone()),
            (
                "fingerprint.calibration_us".into(),
                format!("{:.1}", self.calibration_us),
            ),
        ]
    }
}

/// Parse a result file: one `key value` pair per line.
fn load(path: &str) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

/// Why two result files' hosts differ, if they do.
fn host_mismatch(a: &BTreeMap<String, String>, b: &BTreeMap<String, String>) -> Option<String> {
    for key in ["hostname", "cpu_model", "nproc", "rustc"] {
        let k = format!("fingerprint.{key}");
        if a.get(&k) != b.get(&k) {
            return Some(format!("{key} differs: {:?} vs {:?}", a.get(&k), b.get(&k)));
        }
    }
    let cal = |m: &BTreeMap<String, String>| {
        m.get("fingerprint.calibration_us")
            .and_then(|v| v.parse::<f64>().ok())
    };
    match (cal(a), cal(b)) {
        (Some(x), Some(y)) if (x - y).abs() <= CALIBRATION_TOLERANCE * x.min(y) => None,
        (x, y) => Some(format!("calibration loop differs: {x:?} vs {y:?} us")),
    }
}

/// `perfbench compare A B`: per-metric change from A to B, refused when
/// the two runs come from different hosts. Comparing an untraced run
/// with a traced run of the same workload and seed gives the tracing
/// overhead per end-to-end metric.
pub fn compare(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    if let Some(why) = host_mismatch(&a, &b) {
        eprintln!("perfbench compare: refusing to compare runs from different hosts: {why}");
        return 3;
    }
    for key in ["run.workload", "run.seed", "run.seconds", "run.trace"] {
        println!(
            "{key:<40} {:>18} {:>18}",
            a.get(key).map_or("-", |s| s),
            b.get(key).map_or("-", |s| s)
        );
    }
    println!("{:<40} {:>18} {:>18} {:>9}", "metric", "A", "B", "B/A-1");
    for (k, va) in a.iter().filter(|(k, _)| k.starts_with("metric.")) {
        let (Some(vb), Ok(x)) = (b.get(k), va.parse::<f64>()) else {
            continue;
        };
        let y: f64 = vb.parse().unwrap_or(f64::NAN);
        let rel = if x != 0.0 {
            format!("{:+.2}%", (y / x - 1.0) * 100.0)
        } else {
            "-".into()
        };
        println!("{:<40} {x:>18.6} {y:>18.6} {rel:>9}", &k["metric.".len()..]);
    }
    0
}
