//! `update-churn`: writes beside reads. A `DynamicLabeling` over four
//! disjoint partial 2-trees (its parts) and the `VersionedEngine` it
//! publishes to sit behind `servd`. The writer applies a seeded stream of
//! edge batches in a fixed cycle, each cycle in the next part: twice a
//! heavy insert at a deep leaf and its delete (the site the `lab` update
//! experiment edits, which takes the scoped path), then a random-pair
//! insert (which almost always falls back to rebuilding the part's
//! decomposition). One operation is one batch's apply + publish; each
//! part's batches form one measurement window. Meanwhile one connection
//! queries at a fixed low rate and re-pins after each publish; every one
//! of its answers is checked against Dijkstra on the graph of the epoch
//! it was pinned to.

use crate::common::{self, Ctx, Deadline, EndToEnd};
use crate::loadgen::{self, Pacer};
use crate::report::median;
use lowtw::baselines;
use lowtw::distlabel::{DynamicLabeling, PartLabeling};
use lowtw::labelserve::{ServeConfig, VersionedEngine};
use lowtw::servd::{percentile_us, Client, ServdConfig, Server};
use lowtw::twgraph::{Arc, ArcId, Dist, EdgeBatch, MultiDigraph, UEdgeId};
use lowtw::{treedec, SepConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The graph is the disjoint union of `PARTS` partial 2-trees of
/// `PART_N` vertices each; edits cycle over the parts, so one run averages
/// over several graphs.
const PARTS: usize = 4;
const PART_N: usize = 3_000;
const N: usize = PARTS * PART_N;
const K: usize = 2;
/// The reader's offered load, requests/s.
const READ_RPS: f64 = 500.0;
/// The reader asks from this many sources, so each epoch's answers are
/// checked with at most this many Dijkstra runs.
const READ_SOURCES: usize = 16;
const MIN_OPS: usize = 8;

fn adjacent(inst: &MultiDigraph, u: u32, v: u32) -> bool {
    let has = |a: u32, b: u32| {
        inst.out_arcs(a)
            .iter()
            .any(|&x| inst.arc(ArcId(x)).dst == b)
    };
    has(u, v) || has(v, u)
}

/// The `lab` instances of the parts' seeds, side by side: part `i` holds
/// vertices `i·PART_N ..`.
fn union_instance(seed: u64) -> MultiDigraph {
    let mut arcs = Vec::new();
    let mut uedges = 0u32;
    for i in 0..PARTS {
        let part = common::lab_instance(PART_N, K, common::instance_seed(seed, i)).inst;
        let off = (i * PART_N) as u32;
        arcs.extend(part.arcs().iter().map(|a| Arc {
            src: a.src + off,
            dst: a.dst + off,
            uedge: if a.uedge.is_some() {
                UEdgeId(a.uedge.0 + uedges)
            } else {
                a.uedge
            },
            ..*a
        }));
        uedges += part.n_uedges() as u32;
    }
    MultiDigraph::from_arcs(N, arcs)
}

/// The labeling's part holding vertex `v`.
fn part_of(dl: &DynamicLabeling, v: u32) -> &PartLabeling {
    &dl.parts()[dl.comp_of()[v as usize] as usize]
}

/// The deepest decomposition leaf of part `p` holding a non-adjacent
/// vertex pair.
pub fn deep_leaf_pair(dl: &DynamicLabeling, p: usize) -> Option<(u32, u32)> {
    let part = part_of(dl, (p * PART_N) as u32);
    let depths = part.td().depths();
    let mut leaves: Vec<usize> = (0..part.info().len())
        .filter(|&x| part.info()[x].is_leaf && part.info()[x].gpx.len() >= 2)
        .collect();
    leaves.sort_unstable_by_key(|&x| std::cmp::Reverse(depths[x]));
    leaves.iter().find_map(|&x| {
        let gpx = &part.info()[x].gpx;
        let ids: Vec<u32> = gpx.iter().map(|&v| part.old_of()[v as usize]).collect();
        (0..ids.len()).find_map(|i| {
            (i + 1..ids.len())
                .find_map(|j| (!adjacent(dl.inst(), ids[i], ids[j])).then_some((ids[i], ids[j])))
        })
    })
}

/// A random non-adjacent vertex pair inside part `p`.
fn random_pair(dl: &DynamicLabeling, p: usize, rng: &mut SmallRng) -> (u32, u32) {
    let range = (p * PART_N) as u32..((p + 1) * PART_N) as u32;
    loop {
        let (u, v) = (rng.gen_range(range.clone()), rng.gen_range(range.clone()));
        if u != v && !adjacent(dl.inst(), u, v) {
            return (u, v);
        }
    }
}

/// What the writer records per batch.
struct Applied {
    part: usize,
    local: bool,
    apply: Duration,
    publish: Duration,
    fallbacks: usize,
    scoped: bool,
    dirty: usize,
    region_nodes: usize,
    dirty_shards: usize,
    carried_pairs: usize,
}

/// The reader connection's record.
#[derive(Default)]
struct Reader {
    /// (pinned epoch, s, t, answer).
    answers: Vec<(u64, u32, u32, Dist)>,
    lat_ns: Vec<u64>,
    lag_ns: Vec<u64>,
    requests: u64,
    failures: Vec<(&'static str, String)>,
}

fn read(addr: std::net::SocketAddr, seed: u64, published: &AtomicU64, stop: &AtomicBool) -> Reader {
    let mut r = Reader::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            r.failures.push(("io_error", e.to_string()));
            return r;
        }
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x00EA_D0E5);
    let sources: Vec<u32> = (0..READ_SOURCES)
        .map(|_| rng.gen_range(0..N as u32))
        .collect();
    let mut pinned = match client.epoch() {
        Ok(e) => e,
        Err(e) => {
            r.failures.push((loadgen::classify(&e), e.to_string()));
            return r;
        }
    };
    r.requests += 1;
    // Sleep-only pacing: the writer keeps a core busy anyway, and a
    // spinning reader would take the other from the server.
    let pacer = Pacer::new(READ_RPS, Duration::ZERO);
    let mut i = 0;
    while !stop.load(Ordering::Acquire) {
        let due = pacer.wait(i);
        i += 1;
        r.lag_ns.push(due.elapsed().as_nanos() as u64);
        if published.load(Ordering::Acquire) > pinned {
            r.requests += 1;
            match client.repin() {
                Ok(e) => pinned = e,
                Err(e) => r.failures.push((loadgen::classify(&e), e.to_string())),
            }
        }
        let (s, t) = (
            sources[rng.gen_range(0..READ_SOURCES)],
            rng.gen_range(0..N as u32),
        );
        r.requests += 1;
        match client.distance(s, t) {
            Ok(d) => r.answers.push((pinned, s, t, d)),
            Err(e) => r.failures.push((loadgen::classify(&e), e.to_string())),
        }
        r.lat_ns.push(due.elapsed().as_nanos() as u64);
    }
    r
}

/// Raised on every exit path, so a panicking writer still stops the reader.
struct StopGuard<'a>(&'a AtomicBool);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

pub fn run(ctx: &mut Ctx) -> EndToEnd {
    let seed = ctx.seed;
    let cfg = ServeConfig::default();
    let ((base, mut dl, engine), setup_s, steps) = common::repeated_setup(|| {
        let t = Instant::now();
        let inst = union_instance(seed);
        let gen = t.elapsed();
        let t = Instant::now();
        let dl = DynamicLabeling::build(&inst, K as u64 + 1, seed).expect("initial labeling");
        let label = t.elapsed();
        let t = Instant::now();
        let engine =
            std::sync::Arc::new(VersionedEngine::from_labeling(&dl, cfg).expect("initial store"));
        let store = t.elapsed();
        (
            (inst, dl, engine),
            vec![("gen", gen), ("label", label), ("store", store)],
        )
    });
    let store_bytes = engine.snapshot().engine().store().bytes() as f64;
    let l = &mut ctx.layers;
    l.set("graph.gen_s", steps[0].1);
    l.set("distlabel.label_s", steps[1].1);
    l.set("labelserve.store_build_s", steps[2].1);
    l.set("labelserve.store_bytes", store_bytes);
    l.set("labelserve.store_bytes_per_node", store_bytes / N as f64);
    l.set("treedec.width", part_of(&dl, 0).td().width() as f64);
    l.set("treedec.depth", part_of(&dl, 0).td().stats().depth as f64);

    let server = match Server::spawn(
        std::sync::Arc::clone(&engine),
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
    let published = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4_0000);
    let mut log: Vec<(u64, EdgeBatch)> = Vec::new();
    let mut applied: Vec<Applied> = Vec::new();
    let heavy = 25_000u64.max(N as u64);

    let reader = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read(addr, seed, &published, &stop));
        let _stop = StopGuard(&stop);
        let deadline = Deadline::new(ctx.seconds, MIN_OPS);
        let mut cycle: Vec<(bool, EdgeBatch)> = Vec::new();
        let mut part = PARTS - 1;
        while deadline.more(applied.len()) {
            if cycle.is_empty() {
                part = (part + 1) % PARTS;
                let Some((a, b)) = deep_leaf_pair(&dl, part) else {
                    ctx.checker
                        .refused("edit site", "no leaf with a non-adjacent pair");
                    break;
                };
                let (u, v) = random_pair(&dl, part, &mut rng);
                let w = rng.gen_range(1..=30);
                // Popped from the back: two deep-leaf insert/delete pairs,
                // then one random-pair insert. Random edges stay: deleting
                // one falls back only sometimes, which would make the share
                // of slow batches vary from run to run.
                cycle = vec![
                    (false, EdgeBatch::new().insert(u, v, w)),
                    (true, EdgeBatch::new().delete(a, b)),
                    (true, EdgeBatch::new().insert(a, b, heavy + 1)),
                    (true, EdgeBatch::new().delete(a, b)),
                    (true, EdgeBatch::new().insert(a, b, heavy)),
                ];
            }
            let (local, batch) = cycle.pop().expect("cycle refilled above");
            let tr = &mut ctx.tracer;
            let t = Instant::now();
            let rep = tr.time("distlabel.apply", || dl.apply(&batch));
            let apply = t.elapsed();
            let rep = match rep {
                Ok(r) => r,
                Err(e) => {
                    ctx.checker.refused("apply", e);
                    cycle.clear();
                    continue;
                }
            };
            let stats = tr.time("labelserve.publish_from", || {
                engine.publish_from(&dl, &rep.dirty)
            });
            let wall = t.elapsed();
            let stats = match stats {
                Ok(s) => s,
                Err(e) => {
                    ctx.checker.refused("publish", e);
                    break;
                }
            };
            published.store(stats.epoch, Ordering::Release);
            log.push((stats.epoch, batch));
            applied.push(Applied {
                part,
                local,
                apply,
                publish: wall - apply,
                fallbacks: rep.fallbacks,
                scoped: rep.fallbacks == 0 && rep.parts_scoped > 0,
                dirty: rep.dirty.len(),
                region_nodes: rep.region_nodes,
                dirty_shards: stats.dirty_shards,
                carried_pairs: stats.carried_pairs,
            });
        }
        drop(_stop);
        reader.join().expect("reader thread")
    });
    let stats = server.shutdown();

    // Untimed: each reader answer against Dijkstra on its epoch's graph,
    // rebuilt by replaying the published batches on the base instance.
    for (kind, msg) in &reader.failures {
        ctx.checker.refused(kind, msg);
    }
    let mut by_epoch: BTreeMap<u64, HashMap<u32, Vec<(u32, Dist)>>> = BTreeMap::new();
    for &(e, s, t, d) in &reader.answers {
        by_epoch
            .entry(e)
            .or_default()
            .entry(s)
            .or_default()
            .push((t, d));
    }
    let mut graph = base;
    let mut next = 0;
    for (epoch, by_source) in &by_epoch {
        while next < log.len() && log[next].0 <= *epoch {
            graph = log[next].1.apply(&graph).0;
            next += 1;
        }
        for (&s, answers) in by_source {
            let want = baselines::sssp_oracle(&graph, s);
            let got: Vec<Dist> = answers.iter().map(|a| a.1).collect();
            let want: Vec<Dist> = answers.iter().map(|a| want[a.0 as usize]).collect();
            ctx.checker
                .check_all("distance at the pinned epoch", &got, &want);
        }
    }
    ctx.checker
        .check("server-counted requests", stats.requests, reader.requests);

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mean = |f: &dyn Fn(&Applied) -> usize| {
        applied.iter().map(f).sum::<usize>() as f64 / applied.len().max(1) as f64
    };
    let batches = applied.len().max(1) as f64;
    let mut lat = reader.lat_ns.clone();
    lat.sort_unstable();
    let l = &mut ctx.layers;
    l.set(
        "distlabel.apply_ms_p50",
        median(applied.iter().map(|a| ms(a.apply)).collect()),
    );
    l.set(
        "labelserve.publish_ms_p50",
        median(applied.iter().map(|a| ms(a.publish)).collect()),
    );
    l.set(
        "distlabel.scoped_ratio",
        applied.iter().filter(|a| a.scoped).count() as f64 / batches,
    );
    l.set(
        "distlabel.fallbacks",
        applied.iter().map(|a| a.fallbacks).sum::<usize>() as f64,
    );
    l.set("distlabel.dirty_vertices", mean(&|a| a.dirty));
    l.set("distlabel.region_nodes", mean(&|a| a.region_nodes));
    l.set("labelserve.dirty_shards", mean(&|a| a.dirty_shards));
    l.set("labelserve.carried_pairs", mean(&|a| a.carried_pairs));
    l.set(
        "labelserve.cache_hit_rate",
        engine.snapshot().engine().stats().hit_rate(),
    );
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
        reader.lag_ns.iter().sum::<u64>() as f64 / reader.lag_ns.len().max(1) as f64 / 1e3,
    );
    let local = applied.iter().filter(|a| a.local).count();
    println!(
        "batches {} ({local} deep-leaf, {} random-pair), reader answers {}",
        applied.len(),
        applied.len() - local,
        reader.answers.len()
    );

    if ctx.tracer.enabled() {
        // One standalone centralized decomposition of part 0's base graph:
        // the work a fallback repeats inside `apply`.
        let g = common::lab_instance(PART_N, K, seed).g;
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = Instant::now();
        let dec = ctx.tracer.time("treedec.decompose_centralized", || {
            treedec::decompose_centralized(
                &g,
                K as u64 + 1,
                &SepConfig::practical(PART_N),
                &mut rng,
            )
        });
        ctx.layers
            .set("treedec.centralized_decompose_s", t.elapsed().as_secs_f64());
        if let Err(e) = dec {
            ctx.checker.refused("decompose_centralized", e);
        }
    }
    EndToEnd {
        setup_s,
        op_windows: (0..PARTS)
            .map(|p| {
                applied
                    .iter()
                    .filter(|a| a.part == p)
                    .map(|a| common::ns(a.apply + a.publish))
                    .collect()
            })
            .collect(),
        work_per_op: 1.0,
    }
}
