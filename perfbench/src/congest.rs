//! `congest-k1`: the distributed pipeline decompose → label → SSSP on
//! partial 1-trees, the instance family of the `lab` engine experiment.
//! One operation is the whole pipeline on a fresh `Network`; operations
//! cycle over a small pool of instances, and each instance's timings form
//! one measurement window, so one run averages over several graphs.

use crate::common::{self, Ctx, Deadline, EndToEnd};
use lowtw::baselines;
use lowtw::congest_sim::{Metrics, Network, NetworkConfig, PhaseSnapshot};
use lowtw::distlabel::{self, Label};
use lowtw::subgraph_ops::global::build_global_tree;
use lowtw::treedec::DistDecompOutcome;
use lowtw::{treedec, SepConfig};
use lowtw_bench::drivers::Instance;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const N: usize = 2_000;
const POOL: usize = 16;
/// Every instance runs at least twice.
const MIN_OPS: usize = 2 * POOL;
const BACKBONE: &str = "primitives/backbone";

fn label_words(labels: &[Label]) -> u64 {
    labels.iter().map(|l| 3 * l.entries.len() as u64).sum()
}

pub fn run(ctx: &mut Ctx) -> EndToEnd {
    let seed = ctx.seed;
    let (pool, setup_s, steps) = common::repeated_setup(|| {
        let t = Instant::now();
        let pool: Vec<_> = (0..POOL)
            .map(|i| common::lab_instance(N, 1, common::instance_seed(seed, i)))
            .collect();
        let gen = t.elapsed();
        (pool, vec![("gen", gen)])
    });
    ctx.layers.set("graph.gen_s", steps[0].1);

    let mut oracle: Vec<Option<Vec<u64>>> = vec![None; POOL];
    let mut first_totals: Vec<Option<Metrics>> = vec![None; POOL];
    let mut labels0: Option<Vec<Label>> = None;
    // One measurement window of samples per instance.
    let mut op_ns: Vec<Vec<u64>> = vec![Vec::new(); POOL];
    let (mut ops, mut busy) = (0usize, Duration::ZERO);
    let (mut supersteps, mut messages) = (0u64, 0u64);
    let deadline = Deadline::new(ctx.seconds, MIN_OPS);
    while deadline.more(ops) {
        let k = ops % POOL;
        ops += 1;
        let inst = &pool[k];
        let Some(run) = pipeline(ctx, inst) else {
            continue;
        };
        op_ns[k].push(common::ns(run.wall));
        busy += run.wall;
        let total = run.after[2];
        supersteps += total.supersteps;
        messages += total.messages;

        // Untimed: every distance against Dijkstra, and the charged totals
        // against this instance's first run (they are deterministic).
        let want = oracle[k].get_or_insert_with(|| baselines::sssp_oracle(&inst.inst, 0));
        ctx.checker.check_all("sssp distance", &run.dists, want);
        match &first_totals[k] {
            Some(f) => {
                ctx.checker.check(
                    "charged totals repeat",
                    (total.rounds, total.messages, total.words),
                    (f.rounds, f.messages, f.words),
                );
            }
            None => first_totals[k] = Some(total),
        }
        if k == 0 && labels0.is_none() {
            record_layers(ctx, &run);
            labels0 = Some(run.labels);
        }
    }

    set_call_times(ctx, busy, supersteps, messages);

    if ctx.tracer.enabled() {
        probes(
            ctx,
            &pool[0],
            labels0.as_deref(),
            oracle[0].as_deref(),
            first_totals[0],
        );
    }
    EndToEnd {
        setup_s,
        work_per_op: 1.0,
        op_windows: op_ns,
    }
}

/// Per-call medians from the trace, and the engine's cost per superstep
/// and per message over `busy` wall in distributed calls.
pub fn set_call_times(ctx: &mut Ctx, busy: Duration, supersteps: u64, messages: u64) {
    let busy_s = busy.as_secs_f64();
    let tr = &ctx.tracer;
    let l = &mut ctx.layers;
    l.set(
        "congest.us_per_superstep",
        busy_s * 1e6 / supersteps.max(1) as f64,
    );
    l.set(
        "congest.ns_per_message",
        busy_s * 1e9 / messages.max(1) as f64,
    );
    for (metric, span) in [
        ("treedec.decompose_s", "treedec.decompose_distributed"),
        ("distlabel.label_s", "distlabel.build_labels_distributed"),
        ("distlabel.sssp_s", "distlabel.sssp_distributed"),
    ] {
        l.set(metric, crate::report::median(tr.durations_s(span)));
    }
}

/// What one pipeline leaves behind.
pub struct Run {
    pub wall: Duration,
    /// Charged totals after decompose, after label, after SSSP.
    pub after: [Metrics; 3],
    net: Network,
    dec: DistDecompOutcome,
    pub labels: Vec<Label>,
    pub dists: Vec<u64>,
}

/// One decompose → label → SSSP pipeline on a fresh network; `None`
/// (after recording the refusal) when a stage errors.
pub fn pipeline(ctx: &mut Ctx, inst: &Instance) -> Option<Run> {
    let mut net = Network::new(inst.g.clone(), NetworkConfig::default());
    let cfg = SepConfig::practical(inst.n);
    let mut rng = SmallRng::seed_from_u64(inst.seed);
    let tr = &mut ctx.tracer;
    let t = Instant::now();
    let dec = tr.time("treedec.decompose_distributed", || {
        treedec::decompose_distributed(&mut net, 2, &cfg, &mut rng)
    });
    let dec = dec
        .map_err(|e| ctx.checker.refused("decompose_distributed", e))
        .ok()?;
    let m1 = *net.metrics();
    let labels = ctx.tracer.time("distlabel.build_labels_distributed", || {
        distlabel::build_labels_distributed(&mut net, &inst.inst, &dec.td, &dec.info)
    });
    let (labels, _) = labels
        .map_err(|e| ctx.checker.refused("build_labels_distributed", e))
        .ok()?;
    let m2 = *net.metrics();
    let sssp = ctx.tracer.time("distlabel.sssp_distributed", || {
        distlabel::sssp_distributed(&mut net, &labels, 0)
    });
    let wall = t.elapsed();
    let (dists, _) = sssp
        .map_err(|e| ctx.checker.refused("sssp_distributed", e))
        .ok()?;
    let after = [m1, m2, *net.metrics()];
    Some(Run {
        wall,
        after,
        net,
        dec,
        labels,
        dists,
    })
}

/// Charged counts of one pipeline: totals, per call, and the backbone
/// phases the calls log.
fn record_layers(ctx: &mut Ctx, run: &Run) {
    let [m1, m2, total] = run.after;
    let backbone: Vec<&PhaseSnapshot> = run
        .net
        .phase_log()
        .iter()
        .filter(|p| p.phase == BACKBONE)
        .collect();
    let l = &mut ctx.layers;
    l.set("congest.rounds", total.rounds as f64);
    l.set("congest.supersteps", total.supersteps as f64);
    l.set("congest.messages", total.messages as f64);
    l.set("congest.words", total.words as f64);
    l.set("primitives.backbone_calls", backbone.len() as f64);
    l.set(
        "primitives.backbone_messages",
        backbone.iter().map(|p| p.messages).sum::<u64>() as f64,
    );
    l.set("treedec.decompose_rounds", m1.rounds as f64);
    l.set("treedec.decompose_messages", m1.messages as f64);
    l.set("treedec.width", run.dec.td.width() as f64);
    l.set("treedec.depth", run.dec.td.stats().depth as f64);
    l.set(
        "distlabel.label_messages",
        (m2.messages - m1.messages) as f64,
    );
    l.set(
        "distlabel.label_words_total",
        label_words(&run.labels) as f64,
    );
    l.set(
        "distlabel.src_label_words",
        label_words(&run.labels[..1]) as f64,
    );
    l.set(
        "distlabel.query_supersteps",
        (total.supersteps - m2.supersteps) as f64,
    );
}

/// Traced-run probes: one standalone backbone build, a centralized decode
/// of the same labels, and the `lab` engine driver on instance 0, whose
/// charged totals must equal this workload's.
pub fn probes(
    ctx: &mut Ctx,
    inst: &Instance,
    labels: Option<&[Label]>,
    want: Option<&[u64]>,
    totals: Option<Metrics>,
) {
    let mut net = Network::new(inst.g.clone(), NetworkConfig::default());
    let t = Instant::now();
    let tree = ctx.tracer.time("subgraph_ops.build_global_tree", || {
        build_global_tree(&mut net)
    });
    let backbone_s = t.elapsed().as_secs_f64();
    match tree {
        Ok(_) => ctx.layers.set("primitives.backbone_s", backbone_s),
        Err(e) => ctx.checker.refused("build_global_tree", e),
    }

    if let (Some(labels), Some(want)) = (labels, want) {
        let t = Instant::now();
        let dists = ctx.tracer.time("distlabel.sssp_centralized", || {
            distlabel::sssp_centralized(labels, 0)
        });
        ctx.layers.set(
            "distlabel.decode_ns",
            t.elapsed().as_secs_f64() * 1e9 / labels.len() as f64,
        );
        ctx.checker
            .check_all("centralized decode of the same labels", &dists, want);
    }

    if let Some(totals) = totals {
        let row = lowtw_bench::drivers::engine::run(&common::lab_trial(inst.n, 1, inst.seed));
        let det = |key: &str| row.det.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        ctx.checker.check(
            "charged totals equal the lab engine driver's",
            (det("rounds"), det("messages")),
            (Some(totals.rounds), Some(totals.messages)),
        );
    }
}
