//! Layer probes of traced runs. A workload that never calls a layer leaves
//! that layer's per-layer times unmeasured; a traced run then times the
//! layer once here, on small instances built from the run's seed, so that
//! every per-layer time it reports is a measurement. Counts stay those of
//! the workload (0 for a layer it bypasses). Every probe answer is checked
//! like a workload answer.

use crate::common::{self, Ctx};
use crate::report::{Checker, Metrics, PER_LAYER};
use crate::trace::Tracer;
use crate::{churn, congest, loadgen, serve};
use lowtw::baselines;
use lowtw::bmatch::{self, MatchMode};
use lowtw::distlabel::{self, DynamicLabeling};
use lowtw::girth::{self, GirthConfig};
use lowtw::labelserve::{seeded_queries, ServeConfig, VersionedEngine, WorkloadSpec};
use lowtw::servd::{percentile_us, ServdConfig, Server};
use lowtw::stateful_walks::{CdlLabeling, CountWalk};
use lowtw::twgraph::gen::{bipartite_banded, BipartiteInstance};
use lowtw::twgraph::EdgeBatch;
use lowtw::{treedec, SepConfig, Session};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Probe sizes: a CONGEST pipeline, a girth instance, the smallest banded
/// bipartite graph whose decomposition is not a single leaf, a dynamic
/// labeling, and a served store.
const PIPELINE_N: usize = 400;
const GIRTH_N: usize = 60;
const MATCH_SIDE: usize = 40;
const DYNAMIC_N: usize = 400;
const SERVE_N: usize = 2_000;
const SERVE_REQUESTS: usize = 2_000;
const SERVE_RPS: f64 = 5_000.0;

fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

/// Fill every per-layer time the workload left at 0 from the probes.
pub fn fill_unmeasured(ctx: &mut Ctx) {
    let mut p = Ctx {
        seed: ctx.seed,
        seconds: 0.0,
        tracer: Tracer::new(true),
        checker: Checker::new(false),
        layers: Metrics::default(),
    };
    pipeline(&mut p);
    walks(&mut p);
    dynamic(&mut p);
    serving(&mut p);
    for (name, unit) in PER_LAYER {
        if is_time(unit) && ctx.layers.get(name) == 0.0 {
            ctx.layers.set(name, p.layers.get(name));
        }
    }
    ctx.checker.attempted += p.checker.attempted;
    ctx.checker.failed += p.checker.failed;
}

fn pipeline(ctx: &mut Ctx) {
    let inst = common::lab_instance(PIPELINE_N, 1, ctx.seed);
    let Some(run) = congest::pipeline(ctx, &inst) else {
        return;
    };
    let want = baselines::sssp_oracle(&inst.inst, 0);
    ctx.checker
        .check_all("probe sssp distance", &run.dists, &want);
    let total = run.after[2];
    congest::set_call_times(ctx, run.wall, total.supersteps, total.messages);
    congest::probes(ctx, &inst, Some(&run.labels), Some(&want), Some(total));
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let t = Instant::now();
    let dec =
        treedec::decompose_centralized(&inst.g, 2, &SepConfig::practical(PIPELINE_N), &mut rng);
    ctx.layers
        .set("treedec.centralized_decompose_s", t.elapsed().as_secs_f64());
    if let Err(e) = dec {
        ctx.checker.refused("probe decompose_centralized", e);
    }
}

fn walks(ctx: &mut Ctx) {
    let g = common::lab_instance(GIRTH_N, 2, ctx.seed);
    let dec = Session::decompose(&g.g, 3, ctx.seed).expect("probe girth decomposition");
    let t = Instant::now();
    match girth::girth_undirected(
        &g.inst,
        &dec.td,
        &dec.info,
        &GirthConfig::practical(GIRTH_N, ctx.seed),
    ) {
        Ok(run) => {
            let s = t.elapsed().as_secs_f64();
            ctx.layers.set("girth.s", s);
            ctx.layers
                .set("girth.ms_per_trial", s * 1e3 / run.trials.max(1) as f64);
            ctx.checker.check(
                "probe girth",
                run.girth,
                baselines::girth_exact_centralized(&g.inst),
            );
        }
        Err(e) => ctx.checker.refused("probe girth", e),
    }
    let t = Instant::now();
    let cdl = CdlLabeling::build_centralized(&g.inst, &CountWalk { c: 1 }, &dec.td, &dec.info);
    ctx.layers
        .set("walks.cdl_build_ms", t.elapsed().as_secs_f64() * 1e3);
    ctx.checker
        .check("probe CDL labels", cdl.labels.len(), cdl.product.graph.n());

    let (bg, side) = bipartite_banded(MATCH_SIDE, MATCH_SIDE, 1, 0.5, ctx.seed);
    let mdec = Session::decompose(&bg, 4, ctx.seed).expect("probe matching decomposition");
    let want = baselines::matching_oracle(&bg, &side);
    let bip = BipartiteInstance::new(bg, side);
    let t = Instant::now();
    match bmatch::max_matching(&bip, &mdec.td, &mdec.info, MatchMode::Distributed) {
        Ok(m) => {
            let s = t.elapsed().as_secs_f64();
            ctx.layers.set("matching.s", s);
            ctx.layers.set(
                "matching.ms_per_augmentation",
                s * 1e3 / m.augmentations.max(1) as f64,
            );
            ctx.checker.check("probe matching size", m.size(), want);
        }
        Err(e) => ctx.checker.refused("probe matching", e),
    }
}

fn dynamic(ctx: &mut Ctx) {
    let inst = common::lab_instance(DYNAMIC_N, 2, ctx.seed).inst;
    let mut dl = DynamicLabeling::build(&inst, 3, ctx.seed).expect("probe labeling");
    let cfg = ServeConfig::default();
    let engine = VersionedEngine::from_labeling(&dl, cfg).expect("probe store");
    let Some((a, b)) = churn::deep_leaf_pair(&dl, 0) else {
        return;
    };
    let heavy = 25_000;
    let (mut apply, mut publish) = (Vec::new(), Vec::new());
    for batch in [
        EdgeBatch::new().insert(a, b, heavy),
        EdgeBatch::new().delete(a, b),
    ] {
        let t = Instant::now();
        let rep = match dl.apply(&batch) {
            Ok(r) => r,
            Err(e) => return ctx.checker.refused("probe apply", e),
        };
        apply.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        if let Err(e) = engine.publish_from(&dl, &rep.dirty) {
            return ctx.checker.refused("probe publish", e);
        }
        publish.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ctx.layers
        .set("distlabel.apply_ms_p50", crate::report::median(apply));
    ctx.layers
        .set("labelserve.publish_ms_p50", crate::report::median(publish));
    let want = baselines::sssp_oracle(dl.inst(), a);
    let got: Vec<u64> = (0..DYNAMIC_N as u32)
        .map(|t| engine.distance(a, t).unwrap_or(u64::MAX))
        .collect();
    ctx.checker
        .check_all("probe distance after publish", &got, &want);
}

fn serving(ctx: &mut Ctx) {
    let inst = common::lab_instance(SERVE_N, 1, ctx.seed);
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let dec = match treedec::decompose_centralized(
        &inst.g,
        2,
        &SepConfig::practical(SERVE_N),
        &mut rng,
    ) {
        Ok(d) => d,
        Err(e) => return ctx.checker.refused("probe decompose_centralized", e),
    };
    let labels = distlabel::build_labels_centralized(&inst.inst, &dec.td, &dec.info);
    let cfg = ServeConfig::default();
    let t = Instant::now();
    let store = serve::build_store(&labels, cfg);
    ctx.layers
        .set("labelserve.store_build_s", t.elapsed().as_secs_f64());
    let engine = Arc::new(VersionedEngine::new(store, cfg));
    let server = match Server::spawn(
        Arc::clone(&engine),
        ("127.0.0.1", 0),
        ServdConfig::default(),
    ) {
        Ok(s) => s,
        Err(e) => return ctx.checker.refused("probe servd spawn", e),
    };
    let spec = WorkloadSpec {
        queries: loadgen::pairs_needed(SERVE_REQUESTS),
        hot_pairs: 256,
        hot_fraction: 0.75,
    };
    let pairs = seeded_queries(SERVE_N, &spec, ctx.seed);
    let out = match loadgen::connect(server.local_addr(), SERVE_REQUESTS) {
        Ok(mut client) => loadgen::drive(&mut client, &pairs, SERVE_REQUESTS, Some(SERVE_RPS)),
        Err(out) => out,
    };
    server.shutdown();
    for (kind, msg, lost) in &out.failures {
        ctx.checker.refused_many(kind, msg, *lost);
    }
    let got: Vec<u64> = out.answers.iter().map(|a| a.2).collect();
    let want: Vec<u64> = out
        .answers
        .iter()
        .map(|&(s, t, _)| distlabel::decode(&labels[s as usize], &labels[t as usize]))
        .collect();
    ctx.checker.check_all("probe served distance", &got, &want);
    let mut lat = out.lat_ns.clone();
    lat.sort_unstable();
    let lag_mean = out.lag_ns.iter().sum::<u64>() as f64 / out.lag_ns.len().max(1) as f64;
    let us = |ns: u64| Duration::from_nanos(ns).as_secs_f64() * 1e6;
    ctx.layers
        .set("servd.client_p50_us", us(percentile_us(&lat, 50.0)));
    ctx.layers
        .set("servd.client_p90_us", us(percentile_us(&lat, 90.0)));
    ctx.layers
        .set("servd.client_p99_us", us(percentile_us(&lat, 99.0)));
    ctx.layers.set("servd.generator_lag_us", lag_mean / 1e3);
    serve::inproc_probes(ctx, &labels, cfg, &pairs, percentile_us(&lat, 50.0));
}
