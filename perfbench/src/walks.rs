//! `walks`: the paper's stateful-walk problems, the weighted girth of a
//! partial 2-tree (count-1 closed walks through the CDL labeling) and the
//! distributed maximum matching of a banded bipartite graph (alternating
//! walks through the charged virtual network). One operation solves both
//! problems on one instance pair; operations cycle over a small pool of
//! pairs, and each pair's timings form one measurement window.

use crate::common::{self, Ctx, Deadline, EndToEnd};
use crate::report::median;
use lowtw::baselines;
use lowtw::bmatch::{self, MatchMode};
use lowtw::congest_sim::PhaseSnapshot;
use lowtw::girth::{self, GirthConfig};
use lowtw::stateful_walks::{CdlLabeling, CountWalk};
use lowtw::twgraph::gen::{bipartite_banded, BipartiteInstance};
use lowtw::twgraph::{Dist, MultiDigraph};
use lowtw::Session;
use std::time::{Duration, Instant};

/// Small instances, so that a run holds many operations and its medians
/// ride out the host's slow spells: a pair takes about 0.5 s, two thirds
/// of it matching. At 28 + 28 each of 90 seeded instances tried decomposed
/// into more than one bag, so augmentations run; at 24 + 24 the
/// decomposition can be a single bag, and then none do.
const GIRTH_N: usize = 60;
const MATCH_SIDE: usize = 28;
const BAND: usize = 1;
const POOL: usize = 8;
/// Every instance pair runs at least once.
const MIN_OPS: usize = POOL;

struct Pair {
    seed: u64,
    girth_inst: MultiDigraph,
    girth_dec: Session,
    bip: BipartiteInstance,
    match_dec: Session,
}

pub fn run(ctx: &mut Ctx) -> EndToEnd {
    let seed = ctx.seed;
    let (pool, setup_s, steps) = common::repeated_setup(|| {
        let mut gen = Duration::ZERO;
        let mut dec = Duration::ZERO;
        let pool: Vec<Pair> = (0..POOL)
            .map(|i| {
                let s = common::instance_seed(seed, i);
                let t = Instant::now();
                let g = common::lab_instance(GIRTH_N, 2, s);
                let (bg, side) = bipartite_banded(MATCH_SIDE, MATCH_SIDE, BAND, 0.5, s);
                gen += t.elapsed();
                let t = Instant::now();
                let girth_dec = Session::decompose(&g.g, 3, s).expect("girth decomposition");
                let match_dec = Session::decompose(&bg, 2 * BAND as u64 + 2, s)
                    .expect("matching decomposition");
                dec += t.elapsed();
                Pair {
                    seed: s,
                    girth_inst: g.inst,
                    girth_dec,
                    bip: BipartiteInstance::new(bg, side),
                    match_dec,
                }
            })
            .collect();
        (pool, vec![("gen", gen), ("decompose", dec)])
    });
    ctx.layers.set("graph.gen_s", steps[0].1);
    ctx.layers
        .set("treedec.centralized_decompose_s", steps[1].1);
    ctx.layers
        .set("treedec.width", pool[0].girth_dec.width() as f64);
    ctx.layers
        .set("treedec.depth", pool[0].girth_dec.depth() as f64);

    let girth_want: Vec<Dist> = pool
        .iter()
        .map(|p| baselines::girth_exact_centralized(&p.girth_inst))
        .collect();
    let match_want: Vec<usize> = pool
        .iter()
        .map(|p| baselines::matching_oracle(&p.bip.graph, &p.bip.side))
        .collect();
    // One window of samples per instance pair.
    let mut op_ns: Vec<Vec<u64>> = vec![Vec::new(); POOL];
    let mut ops = 0usize;
    let (mut trials, mut augmentations, mut supersteps, mut messages) = (0u64, 0u64, 0u64, 0u64);
    let deadline = Deadline::new(ctx.seconds, MIN_OPS);
    while deadline.more(ops) {
        let k = ops % POOL;
        ops += 1;
        let p = &pool[k];
        let cfg = GirthConfig::practical(GIRTH_N, p.seed);
        let tr = &mut ctx.tracer;
        let t = Instant::now();
        let g = tr.time("girth.girth_undirected", || {
            girth::girth_undirected(&p.girth_inst, &p.girth_dec.td, &p.girth_dec.info, &cfg)
        });
        let m = tr.time("bmatch.max_matching", || {
            bmatch::max_matching(
                &p.bip,
                &p.match_dec.td,
                &p.match_dec.info,
                MatchMode::Distributed,
            )
        });
        let wall = t.elapsed();
        let (g, m) = match (g, m) {
            (Ok(g), Ok(m)) => (g, m),
            (Err(e), _) | (_, Err(e)) => {
                ctx.checker.refused("walk problem", e);
                continue;
            }
        };
        op_ns[k].push(common::ns(wall));
        let phase_sum = |f: fn(&PhaseSnapshot) -> u64| m.phases.iter().map(f).sum::<u64>();
        trials += g.trials as u64;
        augmentations += m.augmentations as u64;
        supersteps += phase_sum(|ph| ph.supersteps);
        messages += phase_sum(|ph| ph.messages);

        // Untimed: both answers against the exact centralized oracles.
        ctx.checker.check("girth", g.girth, girth_want[k]);
        ctx.checker.check("matching size", m.size(), match_want[k]);
        ctx.checker.check(
            "matching is valid",
            baselines::matching::is_valid_matching(&p.bip.graph, &p.bip.side, &m.mate),
            true,
        );
        if ops == 1 {
            let l = &mut ctx.layers;
            l.set("girth.trials", g.trials as f64);
            l.set("matching.size", m.size() as f64);
            l.set("matching.rounds", m.rounds as f64);
            l.set("congest.rounds", m.rounds as f64);
            l.set("congest.supersteps", phase_sum(|ph| ph.supersteps) as f64);
            l.set("congest.messages", phase_sum(|ph| ph.messages) as f64);
            l.set("congest.words", phase_sum(|ph| ph.words) as f64);
        }
    }

    let tr = &ctx.tracer;
    let (girth_total, match_total) = (
        tr.total_s("girth.girth_undirected"),
        tr.total_s("bmatch.max_matching"),
    );
    let l = &mut ctx.layers;
    l.set("girth.s", median(tr.durations_s("girth.girth_undirected")));
    l.set(
        "girth.ms_per_trial",
        girth_total * 1e3 / trials.max(1) as f64,
    );
    l.set("matching.s", median(tr.durations_s("bmatch.max_matching")));
    l.set(
        "matching.ms_per_augmentation",
        match_total * 1e3 / augmentations.max(1) as f64,
    );
    l.set(
        "congest.us_per_superstep",
        match_total * 1e6 / supersteps.max(1) as f64,
    );
    l.set(
        "congest.ns_per_message",
        match_total * 1e9 / messages.max(1) as f64,
    );

    if ctx.tracer.enabled() {
        // One standalone count-1 CDL build on instance 0's decomposition:
        // the unit of work each girth trial repeats.
        let p = &pool[0];
        let t = Instant::now();
        let cdl = ctx.tracer.time("stateful_walks.cdl_build_centralized", || {
            CdlLabeling::build_centralized(
                &p.girth_inst,
                &CountWalk { c: 1 },
                &p.girth_dec.td,
                &p.girth_dec.info,
            )
        });
        ctx.layers
            .set("walks.cdl_build_ms", t.elapsed().as_secs_f64() * 1e3);
        ctx.checker.check(
            "CDL labels, one per product vertex",
            cdl.labels.len(),
            cdl.product.graph.n(),
        );
    }
    EndToEnd {
        setup_s,
        work_per_op: 1.0,
        op_windows: op_ns,
    }
}
