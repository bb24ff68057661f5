//! `serve-socket`: read-only distance serving over loopback. Set-up is the
//! centralized build (decompose, label, compact the store) behind an
//! in-process `servd` with the default `ServeConfig`. Two connections
//! send single pairs, every 64th request a 32-pair batch. First a closed
//! loop: each connection sends bursts of requests back to back, and one
//! operation is one burst. Then an open loop, latency charged from each
//! request's scheduled send: one fixed offered rate and a short ladder of
//! rising rates, reported as per-layer metrics.

use crate::common::{self, Ctx, EndToEnd};
use crate::loadgen::{self, ConnOut};
use lowtw::baselines;
use lowtw::distlabel::{self, Label};
use lowtw::labelserve::{
    seeded_queries, QueryEngine, ServeConfig, StoreBuilder, VersionedEngine, WorkloadSpec,
};
use lowtw::servd::{percentile_us, ServdConfig, Server};
use lowtw::{treedec, SepConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 50_000;
const CONNS: usize = 2;
const HOT_PAIRS: usize = 4096;
const HOT_FRACTION: f64 = 0.75;
/// Requests per closed-loop burst, per connection.
const BURST: usize = 256;
/// Share of the run spent in closed-loop bursts, and in the open loop at
/// the fixed rate; the ladder gets the rest.
const BURST_SHARE: f64 = 0.5;
const FIXED_SHARE: f64 = 0.3;
/// Stream budget of the closed loop, requests/s per connection.
const MAX_CLOSED_RPS: f64 = 100_000.0;
/// Offered load of the fixed-rate part, requests/s over all connections.
const FIXED_RPS: f64 = 10_000.0;
const LADDER_RPS: [f64; 2] = [20_000.0, 40_000.0];
/// A step meets the limit when its p90 is at most this and its backlog
/// does not grow by more than this.
const P90_LIMIT_NS: u64 = 1_000_000;
/// Sources whose labels are checked against Dijkstra for every target.
const ORACLE_SOURCES: usize = 4;

/// Measurement windows of the closed loop and of each open-loop step.
const BURST_WINDOWS: usize = 12;
const STEP_WINDOWS: usize = 6;

/// One open-loop step over all connections.
struct Step {
    rate: f64,
    requests: usize,
    wall: Duration,
    conns: Vec<ConnOut>,
}

impl Step {
    fn answers(&self) -> usize {
        self.conns.iter().map(|c| c.answers.len()).sum()
    }

    fn lat_windows(&self, n: usize) -> Vec<Vec<u64>> {
        loadgen::windows(
            self.conns.iter().map(|c| c.lat_ns.as_slice()),
            self.requests,
            n,
        )
    }

    /// Per-window p90 latency and median lag.
    fn window_stats(&self) -> Vec<(u64, u64)> {
        let lag = loadgen::windows(
            self.conns.iter().map(|c| c.lag_ns.as_slice()),
            self.requests,
            STEP_WINDOWS,
        );
        self.lat_windows(STEP_WINDOWS)
            .iter()
            .zip(&lag)
            .map(|(l, g)| (loadgen::pct(l, 90.0), loadgen::pct(g, 50.0)))
            .collect()
    }

    /// The generator fell behind and stayed behind: the median lag of the
    /// last third of windows exceeds the first third's by the limit.
    fn backlog_grew(&self) -> bool {
        let lags: Vec<u64> = self.window_stats().iter().map(|w| w.1).collect();
        let third = (lags.len() / 3).max(1);
        let median = |xs: &[u64]| loadgen::pct(xs, 50.0);
        median(&lags[lags.len() - third..]) > median(&lags[..third]) + P90_LIMIT_NS
    }

    /// Most windows keep p90 within the limit (a short stall of the host
    /// spoils a window, not the step), the backlog does not grow, and no
    /// request was refused or failed.
    fn meets_limit(&self) -> bool {
        let stats = self.window_stats();
        let within = stats.iter().filter(|w| w.0 <= P90_LIMIT_NS).count();
        2 * within > stats.len()
            && !self.backlog_grew()
            && self.conns.iter().all(|c| c.failures.is_empty())
    }
}

pub fn build_store(labels: &[Label], cfg: ServeConfig) -> lowtw::labelserve::LabelStore {
    let ids: Vec<u32> = (0..labels.len() as u32).collect();
    let mut b = StoreBuilder::new(labels.len());
    b.add_component(labels, &ids).expect("store compaction");
    b.build_layout(cfg.shard_size, cfg.layout)
        .expect("store build")
}

pub fn run(ctx: &mut Ctx) -> EndToEnd {
    let seed = ctx.seed;
    let cfg = ServeConfig::default();
    let ((inst, labels, engine, width, depth), setup_s, steps) = common::repeated_setup(|| {
        let t = Instant::now();
        let inst = common::lab_instance(N, 1, seed);
        let gen = t.elapsed();
        let t = Instant::now();
        let mut rng = SmallRng::seed_from_u64(seed);
        let dec = treedec::decompose_centralized(&inst.g, 2, &SepConfig::practical(N), &mut rng)
            .expect("centralized decomposition");
        let decompose = t.elapsed();
        let t = Instant::now();
        let labels = distlabel::build_labels_centralized(&inst.inst, &dec.td, &dec.info);
        let label = t.elapsed();
        let t = Instant::now();
        let engine = Arc::new(VersionedEngine::new(build_store(&labels, cfg), cfg));
        let store = t.elapsed();
        let (w, d) = (dec.td.width(), dec.td.stats().depth);
        (
            (inst, labels, engine, w, d),
            vec![
                ("gen", gen),
                ("decompose", decompose),
                ("label", label),
                ("store", store),
            ],
        )
    });
    let store_bytes = engine.snapshot().engine().store().bytes() as f64;
    let l = &mut ctx.layers;
    l.set("graph.gen_s", steps[0].1);
    l.set("treedec.centralized_decompose_s", steps[1].1);
    l.set("distlabel.label_s", steps[2].1);
    l.set("labelserve.store_build_s", steps[3].1);
    l.set("labelserve.store_bytes", store_bytes);
    l.set("labelserve.store_bytes_per_node", store_bytes / N as f64);
    l.set("treedec.width", width as f64);
    l.set("treedec.depth", depth as f64);

    // One seeded stream, dealt round-robin to the connections; each part
    // of the run takes the next stretch of it, so no pair is re-sent by
    // design.
    let burst_s = ctx.seconds * BURST_SHARE;
    let fixed_s = ctx.seconds * FIXED_SHARE;
    let step_s = ctx.seconds * (1.0 - BURST_SHARE - FIXED_SHARE) / LADDER_RPS.len() as f64;
    let plan: Vec<(f64, usize)> = std::iter::once((FIXED_RPS, fixed_s))
        .chain(LADDER_RPS.iter().map(|&r| (r, step_s)))
        .map(|(rate, secs)| {
            (
                rate,
                ((rate * secs) / CONNS as f64).ceil().max(1.0) as usize,
            )
        })
        .collect();
    let burst_budget = loadgen::pairs_needed((MAX_CLOSED_RPS * burst_s) as usize);
    let per_conn = burst_budget
        + plan
            .iter()
            .map(|&(_, req)| loadgen::pairs_needed(req))
            .sum::<usize>();
    let spec = WorkloadSpec {
        queries: per_conn * CONNS,
        hot_pairs: HOT_PAIRS,
        hot_fraction: HOT_FRACTION,
    };
    let stream = seeded_queries(N, &spec, seed);
    let conn_pairs: Vec<Vec<(u32, u32)>> = (0..CONNS)
        .map(|c| stream.iter().skip(c).step_by(CONNS).copied().collect())
        .collect();

    let server = match Server::spawn(
        Arc::clone(&engine),
        ("127.0.0.1", 0),
        ServdConfig::default(),
    ) {
        Ok(s) => s,
        Err(e) => {
            ctx.checker.refused("servd spawn", e);
            return EndToEnd {
                setup_s,
                op_windows: Vec::new(),
                work_per_op: 0.0,
            };
        }
    };
    let addr = server.local_addr();

    // Closed loop: each connection sends bursts back to back; one
    // operation is one burst, windowed by when it started.
    let t0 = Instant::now();
    let bursts: Vec<(Vec<(Duration, Duration)>, ConnOut)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conn_pairs
            .iter()
            .map(|pairs| {
                scope.spawn(move || {
                    let mut client = match loadgen::connect(addr, BURST) {
                        Ok(c) => c,
                        Err(out) => return (Vec::new(), out),
                    };
                    let (mut times, mut out, mut off) = (Vec::new(), ConnOut::default(), 0);
                    while t0.elapsed().as_secs_f64() < burst_s
                        && off + loadgen::pairs_needed(BURST) <= burst_budget
                    {
                        let start = t0.elapsed();
                        let burst = loadgen::drive(&mut client, &pairs[off..], BURST, None);
                        times.push((start, t0.elapsed() - start));
                        off += loadgen::pairs_needed(BURST);
                        let gone = burst.failures.iter().any(|f| f.0 == "io_error");
                        out.absorb(burst);
                        if gone {
                            break;
                        }
                    }
                    (times, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let burst_wall = t0.elapsed().as_secs_f64();
    let mut op_windows = vec![Vec::new(); BURST_WINDOWS];
    for &(start, wall) in bursts.iter().flat_map(|b| &b.0) {
        let w = (start.as_secs_f64() / burst_s * BURST_WINDOWS as f64) as usize;
        op_windows[w.min(BURST_WINDOWS - 1)].push(common::ns(wall));
    }
    let burst_answers: usize = bursts.iter().map(|b| b.1.answers.len()).sum();
    let n_bursts: usize = bursts.iter().map(|b| b.0.len()).sum();
    println!("closed loop: {n_bursts} bursts, {burst_answers} distances in {burst_wall:.3} s");

    // Open loop: the fixed rate, then the ladder.
    let mut offset = burst_budget;
    let mut steps: Vec<Step> = Vec::new();
    for &(rate, requests) in &plan {
        let t = Instant::now();
        let conns = std::thread::scope(|scope| {
            let handles: Vec<_> = conn_pairs
                .iter()
                .map(|pairs| {
                    let pairs = &pairs[offset..];
                    scope.spawn(move || match loadgen::connect(addr, requests) {
                        Ok(mut client) => {
                            loadgen::drive(&mut client, pairs, requests, Some(rate / CONNS as f64))
                        }
                        Err(out) => out,
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        steps.push(Step {
            rate,
            requests,
            wall: t.elapsed(),
            conns,
        });
        offset += loadgen::pairs_needed(requests);
    }
    let stats = server.shutdown();

    // The ladder: distances/s of the highest-rate step that met the limit.
    let mut ladder_max = 0.0;
    for s in &steps {
        let ok = s.meets_limit();
        let qps = s.answers() as f64 / s.wall.as_secs_f64();
        let p90s: Vec<String> = s
            .window_stats()
            .iter()
            .map(|w| format!("{:.0}", w.0 as f64 / 1e3))
            .collect();
        println!(
            "step {:>8.0} req/s: {qps:>9.0} distances/s, window p90s [{}] us, backlog grew: {}, meets limit: {ok}",
            s.rate,
            p90s.join(" "),
            s.backlog_grew()
        );
        if ok {
            ladder_max = qps;
        }
    }

    // Untimed: every answer against a decode of the labels, the labels of
    // a few sources against Dijkstra, and the server's own counts.
    let mut sent_queries = 0u64;
    let mut answered = 0u64;
    for c in bursts
        .iter()
        .map(|b| &b.1)
        .chain(steps.iter().flat_map(|s| &s.conns))
    {
        for (kind, msg, lost) in &c.failures {
            ctx.checker.refused_many(kind, msg, *lost);
            sent_queries += lost;
        }
        let got: Vec<u64> = c.answers.iter().map(|a| a.2).collect();
        let want: Vec<u64> = c
            .answers
            .iter()
            .map(|&(s, t, _)| distlabel::decode(&labels[s as usize], &labels[t as usize]))
            .collect();
        ctx.checker.check_all("served distance", &got, &want);
        answered += c.answers.len() as u64;
        sent_queries += c.answers.len() as u64;
    }
    let sources = std::iter::once(0)
        .chain(stream.iter().map(|p| p.0))
        .take(ORACLE_SOURCES);
    for s in sources {
        let want = baselines::sssp_oracle(&inst.inst, s);
        ctx.checker.check_all(
            "label decode",
            &distlabel::sssp_centralized(&labels, s),
            &want,
        );
    }
    ctx.checker
        .check("server-counted queries", stats.queries, answered);
    ctx.checker.check(
        "server-counted requests",
        stats.requests,
        bursts
            .iter()
            .map(|b| &b.1)
            .chain(steps.iter().flat_map(|s| &s.conns))
            .map(|c| c.requests)
            .sum(),
    );

    let fixed = &steps[0];
    let mut lat: Vec<u64> = fixed
        .conns
        .iter()
        .flat_map(|c| c.lat_ns.iter().copied())
        .collect();
    lat.sort_unstable();
    let lag: Vec<u64> = fixed
        .conns
        .iter()
        .flat_map(|c| c.lag_ns.iter().copied())
        .collect();
    let l = &mut ctx.layers;
    l.set("servd.requests", stats.requests as f64);
    l.set("servd.queries", stats.queries as f64);
    l.set("servd.overloads", stats.overloads as f64);
    l.set("servd.rejected_batches", stats.rejected_batches as f64);
    l.set("servd.malformed", stats.malformed as f64);
    l.set(
        "servd.client_p50_us",
        percentile_us(&lat, 50.0) as f64 / 1e3,
    );
    l.set(
        "servd.client_p90_us",
        percentile_us(&lat, 90.0) as f64 / 1e3,
    );
    l.set(
        "servd.client_p99_us",
        percentile_us(&lat, 99.0) as f64 / 1e3,
    );
    l.set(
        "servd.generator_lag_us",
        lag.iter().sum::<u64>() as f64 / lag.len().max(1) as f64 / 1e3,
    );
    l.set(
        "labelserve.cache_hit_rate",
        engine.snapshot().engine().stats().hit_rate(),
    );
    l.set("servd.ladder_max_qps", ladder_max);
    println!("queries sent {sent_queries}, answered {answered}");

    if ctx.tracer.enabled() {
        let span = burst_budget..burst_budget + loadgen::pairs_needed(plan[0].1);
        let replay: Vec<(u32, u32)> = conn_pairs
            .iter()
            .flat_map(|p| p[span.clone()].iter().copied())
            .collect();
        inproc_probes(ctx, &labels, cfg, &replay, percentile_us(&lat, 50.0));
    }
    EndToEnd {
        setup_s,
        op_windows,
        work_per_op: CONNS as f64 * burst_answers as f64 / n_bursts.max(1) as f64,
    }
}

/// Traced-run probes: the fixed-rate part's query stream replayed through
/// a `QueryEngine` in this process, with the cache on and off.
pub fn inproc_probes(
    ctx: &mut Ctx,
    labels: &[Label],
    cfg: ServeConfig,
    replay: &[(u32, u32)],
    client_p50_ns: u64,
) {
    let on = QueryEngine::new(build_store(labels, cfg), cfg);
    let mut per_query: Vec<u64> = Vec::with_capacity(replay.len());
    let mut errors = 0u64;
    ctx.tracer.time("labelserve.replay_cache_on", || {
        for &(s, t) in replay {
            let q = Instant::now();
            errors += on.distance(s, t).is_err() as u64;
            per_query.push(q.elapsed().as_nanos() as u64);
        }
    });
    per_query.sort_unstable();
    let inproc_p50 = percentile_us(&per_query, 50.0);
    ctx.layers.set(
        "servd.wire_us",
        (client_p50_ns as f64 - inproc_p50 as f64) / 1e3,
    );

    // Pairs seen more than once are the hot ones: resident after the pass
    // above, so one more pass over them is all cache hits.
    let mut seen: HashMap<(u32, u32), u32> = HashMap::new();
    for &p in replay {
        *seen.entry(p).or_default() += 1;
    }
    // Distinct pairs in stream order, so the passes repeat run to run.
    let mut hot = Vec::new();
    let mut cold = Vec::new();
    for &p in replay {
        match seen.insert(p, 0) {
            Some(1) => cold.push(p),
            Some(c) if c > 1 => hot.push(p),
            _ => {}
        }
    }
    let hit_s = timed_pass(ctx, "labelserve.hot_pass", &on, &hot, &mut errors);
    ctx.layers.set(
        "labelserve.inproc_hit_ns",
        hit_s * 1e9 / hot.len().max(1) as f64,
    );

    let off_cfg = cfg.without_cache();
    let off = QueryEngine::new(build_store(labels, off_cfg), off_cfg);
    let miss_s = timed_pass(
        ctx,
        "labelserve.cold_pass_no_cache",
        &off,
        &cold,
        &mut errors,
    );
    ctx.layers.set(
        "labelserve.inproc_miss_ns",
        miss_s * 1e9 / cold.len().max(1) as f64,
    );
    ctx.checker.check("in-process replay errors", errors, 0);
}

fn timed_pass(
    ctx: &mut Ctx,
    name: &'static str,
    engine: &QueryEngine,
    pairs: &[(u32, u32)],
    errors: &mut u64,
) -> f64 {
    let t = Instant::now();
    ctx.tracer.time(name, || {
        for &(s, t) in pairs {
            *errors += engine.distance(s, t).is_err() as u64;
        }
    });
    t.elapsed().as_secs_f64()
}
