//! `live_served`: one backend and one router over an on-disk store that
//! holds more runs than the server's cache bound. Queries go through
//! the router by fingerprint with skewed run popularity; appends go
//! straight to the backend, and later queries follow each grown run's
//! new fingerprint.

use crate::check::{self, Receipt, Truth};
use crate::common::{fresh_dir, timed, Recorder, Rng, Shape, Tracer};
use crate::fleet::{self, Fleet};
use crate::inproc::{render, SetupLayers};
use crate::probe::{CoreInput, Probe};
use crate::{Scale, WorkloadRun};
use rpq_core::{QueryRequest, QueryResult, Session};
use rpq_grammar::Specification;
use rpq_labeling::{EventBatch, NodeId, Run};
use rpq_serve::protocol::{RunAddr, WireRequest, WireResponse};
use rpq_serve::ServeClient;
use rpq_store::RunStore;
use rpq_workloads::{bioaid_like, runs, QueryGen, RealisticSpec};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Popularity skew of run choices: with 32 runs and a cache bound of
/// 16, nearly nine requests in ten address one of the 16 hottest runs,
/// so request medians sit among cache hits while reloads still take
/// much of the window.
const ZIPF_S: f64 = 1.2;

struct Params {
    static_runs: usize,
    stream_runs: usize,
    run_edges: usize,
    n_batches: usize,
    cache: usize,
    safe_queries: usize,
    composite_queries: usize,
    points: usize,
    reaches: usize,
    allpairs: usize,
    allpairs_nodes: usize,
    prepares: usize,
    sweeps: usize,
    appends: usize,
}

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Full => Params {
            static_runs: 28,
            stream_runs: 4,
            run_edges: 1000,
            n_batches: 128,
            cache: 16,
            safe_queries: 32,
            composite_queries: 24,
            points: 400,
            reaches: 240,
            allpairs: 96,
            allpairs_nodes: 40,
            prepares: 16,
            // A sweep scans every run through the cache-bound server,
            // evicting the hot set; one per round keeps the point and
            // reach medians among cache hits.
            sweeps: 1,
            appends: 16,
        },
        Scale::Smoke => Params {
            static_runs: 4,
            stream_runs: 2,
            run_edges: 300,
            n_batches: 8,
            cache: 2,
            safe_queries: 3,
            composite_queries: 2,
            points: 12,
            reaches: 4,
            allpairs: 2,
            allpairs_nodes: 10,
            prepares: 2,
            sweeps: 1,
            appends: 2,
        },
    }
}

/// A run as the client knows it: a fixed corpus run, or a streamed one
/// whose copy and fingerprint advance with each append.
struct ClientRun {
    /// Batches to stream into it; empty for fixed runs.
    batches: Vec<EventBatch>,
    applied: usize,
    fingerprint: (u64, u64),
    /// Node ids below this exist at every version.
    stable_nodes: usize,
}

#[derive(Clone)]
enum Op {
    Query {
        query: usize,
        run: usize,
        request: QueryRequest,
        shape: Shape,
    },
    Prepare {
        run: usize,
    },
    Sweep {
        query: usize,
    },
    Append {
        run: usize,
    },
}

/// A bound deployment and everything generated for it.
struct Deployment {
    dir: PathBuf,
    fleet: Fleet,
    router: ServeClient,
    backend: ServeClient,
    spec: Arc<Specification>,
    base_runs: Vec<Run>,
    runs: Vec<ClientRun>,
    safe: Vec<String>,
    composite: Vec<String>,
    /// Query texts no session has seen, `prepares` per round.
    fresh: Vec<String>,
    ops: Vec<Op>,
}

fn deploy(real: &RealisticSpec, p: &Params, seed: u64, layers: &mut SetupLayers) -> Deployment {
    let spec = Arc::new(real.spec.clone());
    let dir = fresh_dir("live_served");
    let ((fixed, streams), t) = timed(|| {
        let fixed = runs::corpus(&spec, p.static_runs, p.run_edges, seed.wrapping_mul(43))
            .expect("realistic specs derive");
        let streams: Vec<(Run, Vec<EventBatch>)> = (0..p.stream_runs)
            .map(|i| {
                let full = runs::simulate(
                    &spec,
                    p.run_edges + 17 * i,
                    seed.wrapping_mul(47).wrapping_add(i as u64),
                )
                .expect("realistic specs derive");
                crate::inproc::stream_tail(&full, 3, p.n_batches)
            })
            .collect();
        (fixed, streams)
    });
    layers.derive_s += t;

    let store = RunStore::create(dir.join("store"), Arc::clone(&spec)).expect("create the store");
    // Streamed runs take every fourth popularity rank from rank 1, all
    // inside the cache bound: the hot set holds both kinds, and appends
    // time the append itself rather than a reload of an evicted run.
    let mut base_runs = Vec::new();
    let mut client = Vec::new();
    let mut fixed = fixed.into_iter();
    let mut streams = streams.into_iter();
    for i in 0..p.static_runs + p.stream_runs {
        let (run, batches) = match (i % 4 == 1).then(|| streams.next()).flatten() {
            Some(s) => s,
            None => match fixed.next() {
                Some(r) => (r, Vec::new()),
                None => streams.next().expect("run counts add up"),
            },
        };
        client.push(ClientRun {
            batches,
            applied: 0,
            fingerprint: run.fingerprint(),
            stable_nodes: run.n_nodes(),
        });
        base_runs.push(run);
    }
    let (_, t) = timed(|| {
        for run in &base_runs {
            store.ingest(run).expect("ingest a run");
        }
    });
    layers.ingest_s += t;
    let (_, t) = timed(|| {
        store
            .materialize_artifacts()
            .expect("materialize artifacts")
    });
    layers.materialize_s += t;
    let fleet = Fleet::start(store, Some(p.cache));
    let mut router = fleet::connect(fleet.router);
    let mut backend = fleet::connect(fleet.backend);
    router.ping().expect("router answers");
    backend.ping().expect("backend answers");

    // Queries: safe IFQs and chain-tag stars for points; unsafe Fig 15
    // queries for reach and the sweep; never-seen IFQs for prepares.
    let session = Session::new(Arc::clone(&spec));
    // The pools of repeated queries come from a fixed seed, as in
    // general_decomposed; `--seed` draws the corpus, nodes, popularity
    // order, batches and the never-seen texts.
    let mut qg = QueryGen::new(&spec, crate::inproc::GENERAL_QUERY_SEED);
    let mut seen = HashSet::new();
    let mut safe = Vec::new();
    for tag in &real.cycle_tags {
        if let Some(q) = qg.kleene_star(tag) {
            if session.is_safe(&q)
                && seen.insert(render(&spec, &q))
                && safe.len() < p.safe_queries / 4
            {
                safe.push(render(&spec, &q));
            }
        }
    }
    while safe.len() < p.safe_queries {
        let k = 1 + safe.len() % 4;
        let text = render(&spec, &qg.ifq_over(&real.pool_tags, k));
        if seen.insert(text.clone()) {
            safe.push(text);
        }
    }
    let mut composite = Vec::new();
    while composite.len() < p.composite_queries {
        let q = qg.random_query(6);
        if rpq_automata::compile_minimal_dfa(&q, spec.n_tags()).n_states() > 64
            || session.is_safe(&q)
        {
            continue;
        }
        let text = render(&spec, &q);
        if seen.insert(text.clone()) {
            composite.push(text);
        }
    }
    let max_rounds = p.n_batches * p.stream_runs / p.appends;
    let mut fresh = Vec::new();
    let mut qg = QueryGen::new(&spec, seed ^ 0x11FE);
    while fresh.len() < max_rounds * p.prepares {
        let k = 3 + fresh.len() % 3;
        let text = render(&spec, &qg.ifq_over(&real.pool_tags, k));
        if seen.insert(text.clone()) {
            fresh.push(text);
        }
    }

    let ops = script(p, &client, seed);
    Deployment {
        dir,
        fleet,
        router,
        backend,
        spec,
        base_runs,
        runs: client,
        safe,
        composite,
        fresh,
        ops,
    }
}

fn script(p: &Params, runs: &[ClientRun], seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ 0x11FE_5C41);
    let n = runs.len();
    let node = |rng: &mut Rng, r: usize| NodeId(rng.below(runs[r].stable_nodes) as u32);
    // Each shape draws its own stratified picks, so every seed sends each
    // shape to each run equally often.
    let point_runs = rng.zipf_picks(p.points, n, ZIPF_S);
    let reach_runs = rng.zipf_picks(p.reaches, n, ZIPF_S);
    let mut ops = Vec::new();
    for (i, &run) in point_runs.iter().enumerate() {
        let request = if i % 4 == 0 {
            QueryRequest::EntryExit
        } else {
            QueryRequest::Pairwise(node(&mut rng, run), node(&mut rng, run))
        };
        ops.push(Op::Query {
            query: i % p.safe_queries,
            run,
            request,
            shape: Shape::Point,
        });
    }
    // A source's answer size follows its position in the run, so each
    // query's sources are stratified over the node-id range.
    let strata = p.reaches.div_ceil(p.composite_queries);
    for (i, &run) in reach_runs.iter().enumerate() {
        let stratum = (i / p.composite_queries) as f64 + rng.unit();
        let u = NodeId((stratum / strata as f64 * runs[run].stable_nodes as f64) as u32);
        let request = if i % 2 == 0 {
            QueryRequest::SourceStar(u)
        } else {
            QueryRequest::Reachable(u)
        };
        ops.push(Op::Query {
            query: p.safe_queries + i % p.composite_queries,
            run,
            request,
            shape: Shape::Reach,
        });
    }
    // All-pairs and never-seen queries address the hottest fixed runs,
    // which stay cached: their medians then time the shape itself, not
    // a reload.
    let hot: Vec<usize> = (0..n)
        .filter(|&r| runs[r].batches.is_empty())
        .take(4)
        .collect();
    for i in 0..p.allpairs {
        let run = hot[i % hot.len()];
        let l1 = (0..p.allpairs_nodes).map(|_| node(&mut rng, run)).collect();
        let l2 = (0..p.allpairs_nodes).map(|_| node(&mut rng, run)).collect();
        ops.push(Op::Query {
            query: i % p.safe_queries,
            run,
            request: QueryRequest::AllPairs(l1, l2),
            shape: Shape::AllPairs,
        });
    }
    for i in 0..p.prepares {
        ops.push(Op::Prepare {
            run: hot[i % hot.len()],
        });
    }
    for i in 0..p.sweeps {
        ops.push(Op::Sweep {
            query: p.safe_queries + i % p.composite_queries,
        });
    }
    let streamed: Vec<usize> = (0..n).filter(|&r| !runs[r].batches.is_empty()).collect();
    for i in 0..p.appends {
        ops.push(Op::Append {
            run: streamed[i % streamed.len()],
        });
    }
    rng.shuffle(&mut ops);
    ops
}

impl Deployment {
    fn text(&self, query: usize) -> &str {
        if query < self.safe.len() {
            &self.safe[query]
        } else {
            &self.composite[query - self.safe.len()]
        }
    }

    /// Requests to streamed runs force the product search: label-decoded
    /// plans answer wrongly on a streamed prefix of a derivation (the
    /// labels describe the whole run), so the label path is left out
    /// there.
    fn strategy(&self, run: usize) -> &'static str {
        if self.runs[run].batches.is_empty() {
            ""
        } else {
            "lazy"
        }
    }

    fn teardown(self) -> u64 {
        let Deployment {
            dir,
            fleet,
            router,
            backend,
            ..
        } = self;
        drop(router);
        drop(backend);
        let report = fleet.stop();
        let _ = std::fs::remove_dir_all(dir);
        report.failovers
    }
}

/// An answer kept for the checks: the query, the run and the number of
/// batches the run held when it was answered.
struct Kept {
    op: usize,
    query: String,
    run: usize,
    version: usize,
    request: QueryRequest,
    result: QueryResult,
}

pub fn run(scale: Scale, seed: u64, seconds: f64, trace: bool) -> WorkloadRun {
    let p = params(scale);
    let real = bioaid_like();
    let setup_reps = if scale == Scale::Smoke { 1 } else { 3 };
    let mut setup_secs = Vec::new();
    let mut layers = SetupLayers::default();
    let mut dep: Option<Deployment> = None;
    for _ in 0..setup_reps {
        if let Some(d) = dep.take() {
            d.teardown();
        }
        layers = SetupLayers::default();
        let start = Instant::now();
        dep = Some(deploy(&real, &p, seed, &mut layers));
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let mut d = dep.expect("at least one set-up");
    let mut out = WorkloadRun::new(setup_secs);
    let mut kept: Vec<Kept> = Vec::new();
    let mut receipts: Vec<(usize, Receipt)> = Vec::new();
    let mut fresh_next = 0;
    let ops = d.ops.clone();

    let passes: &[bool] = if trace { &[false, true] } else { &[false] };
    let mut tracer = Tracer::new(false);
    let mut stats_window = None;
    for &traced in passes {
        tracer = Tracer::new(traced);
        let before = if traced {
            Some(d.backend.stats().expect("stats verb"))
        } else {
            None
        };
        let mut rec = Recorder::default();
        let start = Instant::now();
        let mut round = 0;
        // Whole rounds only, while time, event batches and unseen query
        // texts last.
        let inputs_left = |d: &Deployment, fresh_next: usize| {
            let per_run = p.appends.div_ceil(p.stream_runs);
            d.runs
                .iter()
                .filter(|r| !r.batches.is_empty())
                .all(|r| r.batches.len() - r.applied >= per_run)
                && fresh_next + p.prepares <= d.fresh.len()
        };
        while inputs_left(&d, fresh_next)
            && (round == 0 || start.elapsed() < Duration::from_secs_f64(seconds))
        {
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Query {
                        query,
                        run,
                        request,
                        shape,
                    } => {
                        let spec = fleet::spec_for(
                            d.text(*query),
                            d.runs[*run].fingerprint,
                            request,
                            d.strategy(*run),
                        );
                        let t0 = Instant::now();
                        let res = tracer.span("router.query", i as u64, || {
                            fleet::query(&mut d.router, &spec)
                        });
                        let secs = t0.elapsed().as_secs_f64();
                        match res {
                            Some(o) => {
                                rec.ok(*shape, secs);
                                // Fixed runs keep their first answer;
                                // streamed runs keep one per version.
                                let r = &d.runs[*run];
                                if round == 0 && !traced || !r.batches.is_empty() {
                                    kept.push(Kept {
                                        op: i,
                                        query: d.text(*query).to_owned(),
                                        run: *run,
                                        version: r.applied,
                                        request: request.clone(),
                                        result: fleet::to_result(&o.result),
                                    });
                                }
                            }
                            None => rec.fail(*shape),
                        }
                    }
                    Op::Prepare { run } => {
                        let text = d.fresh[fresh_next].clone();
                        fresh_next += 1;
                        let spec = fleet::spec_for(
                            &text,
                            d.runs[*run].fingerprint,
                            &QueryRequest::EntryExit,
                            d.strategy(*run),
                        );
                        let t0 = Instant::now();
                        let res = tracer.span("router.query[unseen]", i as u64, || {
                            fleet::query(&mut d.router, &spec)
                        });
                        let secs = t0.elapsed().as_secs_f64();
                        match res {
                            Some(o) => {
                                rec.ok(Shape::Prepare, secs);
                                kept.push(Kept {
                                    op: i,
                                    query: text,
                                    run: *run,
                                    version: d.runs[*run].applied,
                                    request: QueryRequest::EntryExit,
                                    result: fleet::to_result(&o.result),
                                });
                            }
                            None => rec.fail(Shape::Prepare),
                        }
                    }
                    Op::Sweep { query } => {
                        let specs: Vec<_> = d
                            .runs
                            .iter()
                            .enumerate()
                            .map(|(ri, r)| {
                                fleet::spec_for(
                                    d.text(*query),
                                    r.fingerprint,
                                    &QueryRequest::EntryExit,
                                    d.strategy(ri),
                                )
                            })
                            .collect();
                        let t0 = Instant::now();
                        let answers: Vec<_> = tracer.span("router.sweep", i as u64, || {
                            specs
                                .iter()
                                .map(|s| fleet::query(&mut d.router, s))
                                .collect()
                        });
                        let secs = t0.elapsed().as_secs_f64();
                        if answers.iter().all(Option::is_some) {
                            rec.ok(Shape::Sweep, secs);
                            for (r, o) in answers.into_iter().enumerate() {
                                let run = &d.runs[r];
                                if round == 0 && !traced || !run.batches.is_empty() {
                                    kept.push(Kept {
                                        op: i,
                                        query: d.text(*query).to_owned(),
                                        run: r,
                                        version: run.applied,
                                        request: QueryRequest::EntryExit,
                                        result: fleet::to_result(&o.expect("checked above").result),
                                    });
                                }
                            }
                        } else {
                            rec.fail(Shape::Sweep);
                        }
                    }
                    Op::Append { run } => {
                        let r = &d.runs[*run];
                        let Some(batch) = r.batches.get(r.applied).cloned() else {
                            rec.fail(Shape::Append);
                            continue;
                        };
                        let addr = RunAddr::Fingerprint(r.fingerprint.0, r.fingerprint.1);
                        let request = WireRequest::Append { run: addr, batch };
                        let t0 = Instant::now();
                        let res =
                            tracer.span("serve.append", i as u64, || d.backend.request(&request));
                        let secs = t0.elapsed().as_secs_f64();
                        match res {
                            Ok(WireResponse::Appended(a)) => {
                                rec.ok(Shape::Append, secs);
                                let r = &mut d.runs[*run];
                                r.applied += 1;
                                r.fingerprint = (a.fp_hi, a.fp_lo);
                                out.append_rebuilds += a.rebuilt;
                                receipts.push((
                                    *run,
                                    Receipt {
                                        epoch: a.epoch,
                                        fingerprint: r.fingerprint,
                                    },
                                ));
                            }
                            _ => rec.fail(Shape::Append),
                        }
                    }
                }
            }
            round += 1;
        }
        let window = start.elapsed().as_secs_f64();
        if traced {
            out.traced_ops_per_s = Some((rec.attempted() - rec.failed()) as f64 / window);
            let after = d.backend.stats().expect("stats verb");
            stats_window = before.map(|b| (b, after));
        } else {
            out.rounds = round;
            out.window_secs = window;
            out.recorder = rec;
            out.peak_rss_mb = crate::common::peak_rss_mb();
            out.store_bytes.add(&d.dir);
        }
    }

    check_kept(&d, &kept, &receipts, &mut out);

    if trace {
        let mut pr = Probe::new(&mut tracer);
        pr.setup(layers);
        pr.store_sizes(&out.store_bytes);
        // Client copies at their current versions.
        let copies: Vec<Arc<Run>> = d
            .base_runs
            .iter()
            .zip(&d.runs)
            .map(|(base, r)| {
                Arc::new(r.batches[..r.applied].iter().fold(base.clone(), |run, b| {
                    run.apply_events(b).expect("seeded batches apply")
                }))
            })
            .collect();
        let texts: Vec<String> = d.safe.iter().chain(&d.composite).cloned().collect();
        let session = Session::new(Arc::clone(&d.spec));
        let prepared: Vec<_> = texts.iter().map(|t| session.prepare(t).ok()).collect();
        let requests: Vec<(usize, usize, QueryRequest)> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Query {
                    query,
                    run,
                    request,
                    ..
                } if d.strategy(*run).is_empty() => Some((*query, *run, request.clone())),
                _ => None,
            })
            .collect();
        // The server's run-load counter is not on the wire: replay one
        // round's run accesses through a store handle with the same
        // cache bound and count the runs it decodes from disk.
        let sweep_store = RunStore::open(d.dir.join("store"))
            .expect("reopen the live store")
            .with_cache_capacity(p.cache);
        let loads0 = sweep_store.stats().run_loads;
        for op in &ops {
            let touched: Vec<usize> = match op {
                Op::Query { run, .. } | Op::Prepare { run } => vec![*run],
                Op::Sweep { .. } => (0..d.runs.len()).collect(),
                Op::Append { .. } => Vec::new(),
            };
            for r in touched {
                let (hi, lo) = d.runs[r].fingerprint;
                if let Some(id) = sweep_store.find_by_fingerprint(hi, lo) {
                    let _ = sweep_store.run(id);
                }
            }
        }
        pr.run_loads(sweep_store.stats().run_loads - loads0);
        pr.core(&CoreInput {
            spec: &d.spec,
            texts: &texts,
            prepared: &prepared,
            runs: &copies,
            requests: &requests,
            sweep: Some((&sweep_store, d.safe.len())),
        });
        if let Some((b, a)) = &stats_window {
            pr.merge_stats(b, a);
        }
        let specs: Vec<_> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Query {
                    query,
                    run,
                    request,
                    shape,
                } if *shape != Shape::AllPairs => Some((
                    fleet::spec_for(
                        d.text(*query),
                        d.runs[*run].fingerprint,
                        request,
                        d.strategy(*run),
                    ),
                    *shape,
                )),
                _ => None,
            })
            .collect();
        pr.served(&d.fleet, &specs);
        let streams: Vec<(Run, Vec<EventBatch>)> = d
            .base_runs
            .iter()
            .zip(&d.runs)
            .filter(|(_, r)| r.applied > 0)
            .map(|(b, r)| (b.clone(), r.batches[..r.applied].to_vec()))
            .collect();
        let replay = fresh_dir("live_served-replay");
        pr.append_replay(&d.spec, &streams, &replay);
        let _ = std::fs::remove_dir_all(&replay);
        pr.append_rebuilds(out.append_rebuilds);
        out.mismatches.append(&mut pr.mismatches);
        let ops_per_s = out.ops_per_s();
        let failovers = d.teardown();
        pr.router_failovers(failovers);
        out.layers = pr.finish(ops_per_s, out.traced_ops_per_s.unwrap_or(0.0));
    } else {
        d.teardown();
    }
    out.trace_spans = std::mem::take(&mut tracer.spans);
    out
}

/// Replay every streamed run version by version and check each kept
/// answer at the version it was given, answer growth across versions,
/// and every append receipt.
fn check_kept(d: &Deployment, kept: &[Kept], receipts: &[(usize, Receipt)], out: &mut WorkloadRun) {
    let mut truths: BTreeMap<&str, Truth> = BTreeMap::new();
    for k in kept {
        truths.entry(k.query.as_str()).or_insert_with(|| {
            Truth::new(
                &Session::new(Arc::clone(&d.spec))
                    .parse(&k.query)
                    .expect("generated queries parse"),
                d.spec.n_tags(),
            )
        });
    }
    for (r, client) in d.runs.iter().enumerate() {
        let mut of_run: Vec<&Kept> = kept.iter().filter(|k| k.run == r).collect();
        of_run.sort_by_key(|k| k.version);
        let mut copy = d.base_runs[r].clone();
        let mut version = 0;
        let mut last: BTreeMap<(usize, String), &QueryResult> = BTreeMap::new();
        for k in of_run {
            while version < k.version {
                copy = copy
                    .apply_events(&client.batches[version])
                    .expect("seeded batches apply");
                version += 1;
            }
            out.checked += 1;
            if let Err(e) =
                check::check_answer(&truths[k.query.as_str()], &copy, &k.request, &k.result)
            {
                out.mismatch(format!("live_served {} run {r} v{version}: {e}", k.query));
            }
            // Growth holds for fixed endpoints; `EntryExit` follows the
            // run's exit, which moves as the run grows.
            let key = (k.op, k.query.clone());
            if k.request == QueryRequest::EntryExit {
                continue;
            }
            if let Some(prev) = last.get(&key) {
                if let Err(e) = check::check_growth(prev, &k.result) {
                    out.mismatch(format!("live_served {} run {r} v{version}: {e}", k.query));
                }
            }
            last.insert(key, &k.result);
        }
    }
    // Receipts: replay each streamed run's batches in append order.
    let mut copies: BTreeMap<usize, Run> = BTreeMap::new();
    let mut expected = Vec::new();
    for (run, _) in receipts {
        let copy = copies
            .entry(*run)
            .or_insert_with(|| d.base_runs[*run].clone());
        let n = expected.iter().filter(|(r, _)| r == run).count();
        *copy = copy
            .apply_events(&d.runs[*run].batches[n])
            .expect("seeded batches apply");
        expected.push((*run, copy.fingerprint()));
    }
    let fps: Vec<(u64, u64)> = expected.into_iter().map(|(_, fp)| fp).collect();
    let recs: Vec<Receipt> = receipts
        .iter()
        .map(|(_, r)| Receipt {
            epoch: r.epoch,
            fingerprint: r.fingerprint,
        })
        .collect();
    out.checked += recs.len() as u64;
    if let Err(e) = check::check_receipts(&recs, &fps) {
        out.mismatch(format!("live_served: {e}"));
    }
}
