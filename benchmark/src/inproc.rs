//! The two in-process workloads, `paper_labels` and
//! `general_decomposed`: a seeded corpus in fresh `RunStore`s per
//! dataset, one `Session` answering a fixed script of requests, and an
//! open run growing by seeded event batches.

use crate::check::{self, Receipt, Truth};
use crate::common::{fresh_dir, timed, Recorder, Rng, Shape, Tracer};
use crate::probe::{self, Probe};
use crate::{Scale, WorkloadRun};
use rpq_automata::Regex;
use rpq_core::{BatchOptions, PreparedQuery, QueryRequest, QueryResult, Session, SessionStats};
use rpq_grammar::Specification;
use rpq_labeling::{EventBatch, NodeId, Run};
use rpq_relalg::TagIndex;
use rpq_store::{OpenRun, RunStore};
use rpq_workloads::{bioaid_like, qblast_like, runs, QueryGen, RealisticSpec};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which query families and corpus a workload uses.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Safe queries only: the paper's label path.
    Labels,
    /// Unsafe Fig 15 queries, decomposed, plus the k-th-from-last
    /// queries the default cost policy refuses.
    General,
}

/// Seed of the general query pool (see `query_texts`).
pub const GENERAL_QUERY_SEED: u64 = 1234;

/// Corpus and script sizes.
struct Params {
    run_edges: &'static [usize],
    fork_edges: &'static [usize],
    stream_edges: usize,
    n_batches: usize,
    appends_per_round: usize,
    pairs_per_run: usize,
    reach_per_run: usize,
    allpairs_nodes: usize,
    allpairs_per_query: usize,
    /// Runs each query's point and reach requests address; `None` is
    /// every run.
    runs_per_query: Option<usize>,
    /// Sweeps per round, all of one query over the first dataset's
    /// store: sweeps of different queries differ in cost by orders of
    /// magnitude, and a median across them would jump between those.
    sweeps: usize,
    /// IFQs per k (Labels) or unsafe random queries (General).
    n_queries: usize,
    n_failing: usize,
}

fn params(family: Family, scale: Scale) -> Params {
    match (family, scale) {
        (Family::Labels, Scale::Full) => Params {
            run_edges: &[2000, 4000, 8000],
            fork_edges: &[2000, 4000],
            stream_edges: 4000,
            n_batches: 512,
            appends_per_round: 16,
            pairs_per_run: 8,
            reach_per_run: 1,
            allpairs_nodes: 250,
            allpairs_per_query: 1,
            runs_per_query: None,
            sweeps: 16,
            n_queries: 2,
            n_failing: 0,
        },
        // Many queries with few requests each: the cost of a random
        // query varies by orders of magnitude, so only a wide sample of
        // them gives medians that repeat from seed to seed.
        (Family::General, Scale::Full) => Params {
            run_edges: &[2000, 2000, 2500, 3000],
            fork_edges: &[2000],
            stream_edges: 4000,
            n_batches: 512,
            appends_per_round: 16,
            pairs_per_run: 2,
            reach_per_run: 1,
            allpairs_nodes: 250,
            allpairs_per_query: 1,
            runs_per_query: Some(2),
            sweeps: 16,
            n_queries: 60,
            n_failing: 2,
        },
        (family, Scale::Smoke) => Params {
            run_edges: &[300],
            fork_edges: &[300],
            stream_edges: 300,
            n_batches: 8,
            appends_per_round: 2,
            pairs_per_run: 2,
            reach_per_run: 1,
            allpairs_nodes: 20,
            allpairs_per_query: 1,
            runs_per_query: None,
            sweeps: 2,
            n_queries: if family == Family::Labels { 1 } else { 3 },
            n_failing: if family == Family::Labels { 0 } else { 1 },
        },
    }
}

/// One query of a dataset's pool.
pub struct Query {
    pub text: String,
    pub regex: Regex,
    /// `None` when the default policy refuses the query.
    pub prepared: Option<PreparedQuery>,
}

/// One dataset's deployment: stores, runs, session and query pool.
pub struct Dataset {
    pub spec: Arc<Specification>,
    pub dir: PathBuf,
    pub store: Arc<RunStore>,
    pub runs: Vec<Arc<Run>>,
    pub session: Session,
    pub queries: Vec<Query>,
    /// The open run that receives appends, in its own store so the
    /// queried corpus stays fixed.
    pub stream: Arc<OpenRun>,
    pub stream_base: Run,
    pub batches: Vec<EventBatch>,
    pub sweep_query: usize,
}

/// One scripted operation.
#[derive(Clone)]
enum Op {
    Eval {
        ds: usize,
        query: usize,
        run: usize,
        request: QueryRequest,
        shape: Shape,
    },
    Prepare {
        ds: usize,
        query: usize,
    },
    Sweep {
        ds: usize,
        query: usize,
    },
    Append {
        ds: usize,
    },
}

/// What setup measured, per layer (seconds).
#[derive(Default, Clone, Copy)]
pub struct SetupLayers {
    pub derive_s: f64,
    pub ingest_s: f64,
    pub materialize_s: f64,
}

fn make_dataset(
    real: RealisticSpec,
    family: Family,
    p: &Params,
    seed: u64,
    layers: &mut SetupLayers,
) -> Dataset {
    let spec = Arc::new(real.spec.clone());
    let dir = fresh_dir(&format!("{}-{}", family_name(family), real.name));
    // Derive and label the corpus.
    let ((corpus, stream_full), t) = timed(|| {
        let mut corpus = Vec::new();
        for (i, &e) in p.run_edges.iter().enumerate() {
            corpus.push(
                runs::simulate(&spec, e, seed.wrapping_mul(31).wrapping_add(i as u64))
                    .expect("realistic specs derive"),
            );
        }
        for (i, &e) in p.fork_edges.iter().enumerate() {
            corpus.push(
                runs::simulate_fork(&spec, 0, e, seed.wrapping_mul(37).wrapping_add(i as u64))
                    .expect("realistic specs derive"),
            );
        }
        let stream = runs::simulate(&spec, p.stream_edges, seed.wrapping_mul(41).wrapping_add(7))
            .expect("realistic specs derive");
        (corpus, stream)
    });
    layers.derive_s += t;
    let ((stream_base, batches), t) = timed(|| stream_tail(&stream_full, 3, p.n_batches));
    layers.derive_s += t;

    let store =
        Arc::new(RunStore::create(dir.join("store"), Arc::clone(&spec)).expect("create a store"));
    let (_, t) = timed(|| {
        for run in &corpus {
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
    let stream_store =
        Arc::new(RunStore::create(dir.join("stream"), Arc::clone(&spec)).expect("create a store"));
    let (ingested, t) = timed(|| {
        stream_store
            .ingest(&stream_base)
            .expect("ingest the stream base")
    });
    layers.ingest_s += t;
    let stream = stream_store
        .open_run(ingested.id)
        .expect("open the stream run");
    let runs: Vec<Arc<Run>> = store
        .ids()
        .into_iter()
        .map(|id| store.run(id).expect("load a stored run"))
        .collect();

    let session = Session::new(Arc::clone(&spec));
    let texts = query_texts(&real, family, p, seed, &session, &runs);
    let queries: Vec<Query> = texts
        .into_iter()
        .map(|text| {
            let regex = session.parse(&text).expect("generated queries parse");
            let prepared = session.prepare(&text).ok();
            Query {
                text,
                regex,
                prepared,
            }
        })
        .collect();
    // The sweep query: the first preparable one from the middle of the
    // pool on (past the trivial k = 0 IFQ of `paper_labels`).
    let sweep_query = (queries.len() / 2..queries.len())
        .chain(0..queries.len() / 2)
        .find(|&i| queries[i].prepared.is_some())
        .expect("a preparable query");
    Dataset {
        spec,
        dir,
        store,
        runs,
        session,
        queries,
        stream,
        stream_base,
        batches,
        sweep_query,
    }
}

/// Split a run into a base holding all but `1 / parts` of it and
/// `n_batches` event batches that stream the rest. A large base keeps
/// append costs nearly flat over a window, however many rounds it runs,
/// and keeps the bases of distinct runs distinct (a store deduplicates
/// equal fingerprints).
pub fn stream_tail(full: &Run, parts: usize, n_batches: usize) -> (Run, Vec<EventBatch>) {
    let (base, batches) =
        runs::event_stream(full, parts * n_batches).expect("derivation runs stream");
    let (head, tail) = batches.split_at((parts - 1) * n_batches);
    let base = head.iter().fold(base, |run, b| {
        run.apply_events(b).expect("seeded batches apply")
    });
    // An empty batch is a no-op that leaves the store epoch as it was.
    (
        base,
        tail.iter().filter(|b| !b.is_empty()).cloned().collect(),
    )
}

pub fn family_name(family: Family) -> &'static str {
    match family {
        Family::Labels => "paper_labels",
        Family::General => "general_decomposed",
    }
}

/// A query as text, with the specification's tag names.
pub fn render(spec: &Specification, regex: &Regex) -> String {
    regex
        .display_with(&|s| spec.tag_name(rpq_grammar::Tag(s.0)).to_owned())
        .to_string()
}

/// The dataset's query texts, generated before timing starts.
fn query_texts(
    real: &RealisticSpec,
    family: Family,
    p: &Params,
    seed: u64,
    session: &Session,
    runs: &[Arc<Run>],
) -> Vec<String> {
    let spec = &real.spec;
    // Random general queries cost from microseconds to hundreds of
    // milliseconds, so a seeded draw of them would move every median
    // from seed to seed; their pool is drawn from a fixed seed instead
    // (as the repo's Fig 15 experiment does), and `--seed` varies the
    // corpus, the nodes and the order of operations.
    let query_seed = match family {
        Family::Labels => seed ^ 0x0051_F7E5,
        Family::General => GENERAL_QUERY_SEED,
    };
    let mut qg = QueryGen::new(spec, query_seed);
    let mut texts: Vec<String> = Vec::new();
    let push = |texts: &mut Vec<String>, t: String| {
        if !texts.contains(&t) {
            texts.push(t);
        }
    };
    match family {
        Family::Labels => {
            // IFQs with k = 0..8 over the safe tag pool.
            for k in 0..=8 {
                for _ in 0..p.n_queries {
                    let q = qg.ifq_over(&real.pool_tags, k);
                    push(&mut texts, render(spec, &q));
                }
            }
            // High- and low-selectivity IFQs (Fig 13e/f), steered by the
            // largest plain run's tag counts.
            let index = TagIndex::build(&runs[p.run_edges.len() - 1], spec.n_tags());
            for high in [true, false] {
                let mut kept = 0;
                for _ in 0..200 {
                    if kept == p.n_queries {
                        break;
                    }
                    let q = qg.ifq_by_selectivity(3, &index, high);
                    if session.is_safe(&q) {
                        push(&mut texts, render(spec, &q));
                        kept += 1;
                    }
                }
            }
            // Chain-tag Kleene stars (Fig 13g/h).
            for tag in &real.cycle_tags {
                if let Some(q) = qg.kleene_star(tag) {
                    if session.is_safe(&q) {
                        push(&mut texts, render(spec, &q));
                    }
                }
            }
        }
        Family::General => {
            // Unsafe Fig 15 queries with at most 64 DFA states.
            let mut tries = 0;
            let mut kept = 0;
            while kept < p.n_queries && tries < p.n_queries * 100 {
                tries += 1;
                let q = qg.random_query(6);
                let dfa = rpq_automata::compile_minimal_dfa(&q, spec.n_tags());
                if dfa.n_states() > 64 || session.is_safe(&q) {
                    continue;
                }
                let before = texts.len();
                push(&mut texts, render(spec, &q));
                kept += texts.len() - before;
            }
            // k-th-from-last queries over the dataset's own tags: 2^7
            // DFA states, above the planner's bound of 64.
            // The same queries for every seed: they fail on every
            // attempt, so the failed share must not depend on the seed.
            for tag in real.pool_tags.iter().take(p.n_failing) {
                push(&mut texts, format!("_* {tag} _ _ _ _ _ _"));
            }
        }
    }
    texts
}

fn datasets(family: Family, p: &Params, seed: u64, layers: &mut SetupLayers) -> Vec<Dataset> {
    vec![
        make_dataset(bioaid_like(), family, p, seed, layers),
        make_dataset(qblast_like(), family, p, seed.wrapping_add(0x9E37), layers),
    ]
}

/// The fixed per-round script, generated from the seed.
fn script(family: Family, p: &Params, dss: &[Dataset], seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ 0x5C41_7700);
    let mut ops = Vec::new();
    for (d, ds) in dss.iter().enumerate() {
        for (qi, q) in ds.queries.iter().enumerate() {
            if q.prepared.is_none() {
                // A refused query: one point request, which re-prepares.
                let run = qi % ds.runs.len();
                let r = &ds.runs[run];
                let request = QueryRequest::Pairwise(r.entry(), r.exit());
                ops.push(Op::Eval {
                    ds: d,
                    query: qi,
                    run,
                    request,
                    shape: Shape::Point,
                });
                continue;
            }
            ops.push(Op::Prepare { ds: d, query: qi });
            let targets: Vec<usize> = match p.runs_per_query {
                Some(k) => (0..k).map(|_| rng.below(ds.runs.len())).collect(),
                None => (0..ds.runs.len()).collect(),
            };
            for (k, &ri) in targets.iter().enumerate() {
                let n = ds.runs[ri].n_nodes();
                for _ in 0..p.pairs_per_run {
                    let u = NodeId(rng.below(n) as u32);
                    let v = NodeId(rng.below(n) as u32);
                    ops.push(Op::Eval {
                        ds: d,
                        query: qi,
                        run: ri,
                        request: QueryRequest::Pairwise(u, v),
                        shape: Shape::Point,
                    });
                }
                ops.push(Op::Eval {
                    ds: d,
                    query: qi,
                    run: ri,
                    request: QueryRequest::EntryExit,
                    shape: Shape::Point,
                });
                for j in 0..p.reach_per_run {
                    let u = NodeId(rng.below(n) as u32);
                    let request = if family == Family::General && (qi + k + j) % 2 == 1 {
                        QueryRequest::Reachable(u)
                    } else {
                        QueryRequest::SourceStar(u)
                    };
                    ops.push(Op::Eval {
                        ds: d,
                        query: qi,
                        run: ri,
                        request,
                        shape: Shape::Reach,
                    });
                }
            }
            for k in 0..p.allpairs_per_query {
                let ri = (qi + k) % ds.runs.len();
                let r = &ds.runs[ri];
                let l1 = runs::sample_nodes(r, p.allpairs_nodes, rng.next());
                let l2 = runs::sample_nodes(r, p.allpairs_nodes, rng.next());
                ops.push(Op::Eval {
                    ds: d,
                    query: qi,
                    run: ri,
                    request: QueryRequest::AllPairs(l1, l2),
                    shape: Shape::AllPairs,
                });
            }
        }
        if d == 0 {
            for _ in 0..p.sweeps {
                ops.push(Op::Sweep {
                    ds: d,
                    query: ds.sweep_query,
                });
            }
        }
        for _ in 0..p.appends_per_round {
            ops.push(Op::Append { ds: d });
        }
    }
    // Interleave the shapes, so no shape always runs on caches another
    // shape just warmed.
    rng.shuffle(&mut ops);
    ops
}

/// Run one in-process workload.
pub fn run(family: Family, scale: Scale, seed: u64, seconds: f64, trace: bool) -> WorkloadRun {
    let p = params(family, scale);
    let setup_reps = if scale == Scale::Smoke { 1 } else { 3 };
    // Set up several times; the last deployment is the one measured.
    let mut setup_secs = Vec::new();
    let mut layers = SetupLayers::default();
    let mut dss = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..setup_reps {
        drop_datasets(std::mem::take(&mut dss));
        layers = SetupLayers::default();
        let start = Instant::now();
        dss = datasets(family, &p, seed, &mut layers);
        ops = script(family, &p, &dss, seed);
        setup_secs.push(start.elapsed().as_secs_f64());
    }

    let mut out = WorkloadRun::new(setup_secs);
    let mut answers: Vec<Option<QueryResult>> = vec![None; ops.len()];
    let mut sweep_answers: Vec<Option<Vec<Option<bool>>>> = vec![None; ops.len()];
    let mut receipts: Vec<Vec<Receipt>> = (0..dss.len()).map(|_| Vec::new()).collect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Traced runs first measure an untraced window of the same length,
    // so the tracing overhead is a same-process comparison.
    let passes: &[bool] = if trace { &[false, true] } else { &[false] };
    let mut tracer = Tracer::new(false);
    let mut next_batch = vec![0usize; dss.len()];
    let stats0: Vec<SessionStats> = dss.iter().map(|d| d.session.stats()).collect();
    let loads0: Vec<u64> = dss.iter().map(|d| d.store.stats().run_loads).collect();
    let mut window_loads = vec![0; dss.len()];
    let mut window_stats = stats0.clone();
    for &traced in passes {
        tracer = Tracer::new(traced);
        let mut rec = Recorder::default();
        let start = Instant::now();
        let mut round = 0;
        // Whole rounds only, while time and event batches last.
        while dss
            .iter()
            .zip(&next_batch)
            .all(|(d, &b)| b + p.appends_per_round <= d.batches.len())
            && (round == 0 || start.elapsed() < Duration::from_secs_f64(seconds))
        {
            let prep: Vec<Session> = dss
                .iter()
                .map(|d| Session::new(Arc::clone(&d.spec)))
                .collect();
            for (i, op) in ops.iter().enumerate() {
                let first = answers[i].is_none();
                match op {
                    Op::Eval {
                        ds,
                        query,
                        run,
                        request,
                        shape,
                    } => {
                        let d = &dss[*ds];
                        let q = &d.queries[*query];
                        let r = &d.runs[*run];
                        let t0 = Instant::now();
                        let outcome = match &q.prepared {
                            Some(pq) => {
                                Some(tracer.span("core.Session::evaluate", i as u64, || {
                                    d.session.evaluate(pq, r, request)
                                }))
                            }
                            None => match tracer.span("core.Session::prepare", i as u64, || {
                                d.session.prepare(&q.text)
                            }) {
                                Ok(pq) => {
                                    Some(tracer.span("core.Session::evaluate", i as u64, || {
                                        d.session.evaluate(&pq, r, request)
                                    }))
                                }
                                Err(_) => None,
                            },
                        };
                        let secs = t0.elapsed().as_secs_f64();
                        match outcome {
                            Some(o) => {
                                rec.ok(*shape, secs);
                                if first {
                                    answers[i] = Some(o.result);
                                }
                            }
                            None => rec.fail(*shape),
                        }
                    }
                    Op::Prepare { ds, query } => {
                        let q = &dss[*ds].queries[*query];
                        let t0 = Instant::now();
                        let res = tracer.span("core.Session::prepare", i as u64, || {
                            prep[*ds].prepare(&q.text)
                        });
                        let secs = t0.elapsed().as_secs_f64();
                        match res {
                            Ok(_) => rec.ok(Shape::Prepare, secs),
                            Err(_) => rec.fail(Shape::Prepare),
                        }
                    }
                    Op::Sweep { ds, query } => {
                        let d = &dss[*ds];
                        let pq = d.queries[*query]
                            .prepared
                            .as_ref()
                            .expect("swept queries prepare");
                        let t0 = Instant::now();
                        let batch = tracer.span("core.Session::evaluate_batch", i as u64, || {
                            d.session.evaluate_batch(
                                pq,
                                &*d.store,
                                &QueryRequest::EntryExit,
                                &BatchOptions::threads(threads),
                            )
                        });
                        let secs = t0.elapsed().as_secs_f64();
                        if batch.n_err() == 0 {
                            rec.ok(Shape::Sweep, secs);
                        } else {
                            rec.fail(Shape::Sweep);
                        }
                        if sweep_answers[i].is_none() {
                            sweep_answers[i] = Some(
                                batch
                                    .items
                                    .iter()
                                    .map(|it| it.outcome.as_ref().ok().and_then(|o| o.as_bool()))
                                    .collect(),
                            );
                        }
                    }
                    Op::Append { ds } => {
                        let d = &dss[*ds];
                        let batch = &d.batches[next_batch[*ds]];
                        next_batch[*ds] += 1;
                        let t0 = Instant::now();
                        let res = tracer.span("store.OpenRun::append_events", i as u64, || {
                            d.stream.append_events(batch)
                        });
                        let secs = t0.elapsed().as_secs_f64();
                        match res {
                            Ok(a) => {
                                rec.ok(Shape::Append, secs);
                                receipts[*ds].push(Receipt {
                                    epoch: a.epoch,
                                    fingerprint: a.fingerprint,
                                });
                                out.append_rebuilds += u64::from(a.rebuilt);
                            }
                            Err(_) => rec.fail(Shape::Append),
                        }
                    }
                }
            }
            round += 1;
        }
        let window = start.elapsed().as_secs_f64();
        if traced {
            out.traced_ops_per_s = Some((rec.attempted() - rec.failed()) as f64 / window);
        } else {
            out.rounds = round;
            out.window_secs = window;
            out.recorder = rec;
            out.peak_rss_mb = crate::common::peak_rss_mb();
            for (di, d) in dss.iter().enumerate() {
                window_stats[di] = d.session.stats().since(stats0[di]);
                window_loads[di] = d.store.stats().run_loads - loads0[di];
            }
            for d in &dss {
                out.store_bytes.add(&d.dir);
            }
        }
    }

    // Checks, after the timed windows.
    let mut truths: Vec<Vec<Option<Truth>>> = dss
        .iter()
        .map(|d| (0..d.queries.len()).map(|_| None).collect())
        .collect();
    for (i, op) in ops.iter().enumerate() {
        let Op::Eval {
            ds,
            query,
            run,
            request,
            ..
        } = op
        else {
            continue;
        };
        let Some(got) = &answers[i] else {
            continue;
        };
        let d = &dss[*ds];
        let truth = truths[*ds][*query]
            .get_or_insert_with(|| Truth::new(&d.queries[*query].regex, d.spec.n_tags()));
        let r = &d.runs[*run];
        out.checked += 1;
        if let Err(e) = check::check_answer(truth, r, request, got) {
            out.mismatch(format!(
                "{} {}: {e}",
                family_name(family),
                d.queries[*query].text
            ));
        }
        let pq = match &d.queries[*query].prepared {
            Some(pq) => pq.clone(),
            None => d
                .session
                .prepare(&d.queries[*query].text)
                .expect("answered queries prepare"),
        };
        match request {
            QueryRequest::Reachable(u) => {
                let star = d
                    .session
                    .evaluate(&pq, r, &QueryRequest::SourceStar(*u))
                    .result;
                if let Err(e) = check::check_projection(got, &star) {
                    out.mismatch(format!("{}: {e}", d.queries[*query].text));
                }
            }
            QueryRequest::EntryExit => {
                let all: Vec<NodeId> = r.node_ids().collect();
                let ap = d
                    .session
                    .evaluate(&pq, r, &QueryRequest::AllPairs(vec![r.entry()], all))
                    .result;
                if let Err(e) = check::check_entry_exit(r, got, &ap) {
                    out.mismatch(format!("{}: {e}", d.queries[*query].text));
                }
            }
            _ => {}
        }
    }
    for (i, op) in ops.iter().enumerate() {
        let (Op::Sweep { ds, query }, Some(items)) = (op, &sweep_answers[i]) else {
            continue;
        };
        let d = &dss[*ds];
        let truth = truths[*ds][*query]
            .get_or_insert_with(|| Truth::new(&d.queries[*query].regex, d.spec.n_tags()));
        for (ri, got) in items.iter().enumerate() {
            out.checked += 1;
            let Some(got) = got else {
                out.mismatch(format!("sweep {}: run {ri} failed", d.queries[*query].text));
                continue;
            };
            if let Err(e) = check::check_answer(
                truth,
                &d.runs[ri],
                &QueryRequest::EntryExit,
                &QueryResult::Bool(*got),
            ) {
                out.mismatch(format!("sweep {} run {ri}: {e}", d.queries[*query].text));
            }
        }
    }
    for (di, d) in dss.iter().enumerate() {
        // Replay the applied batches on the client copy.
        let mut copy = d.stream_base.clone();
        let mut expected = Vec::new();
        for b in &d.batches[..receipts[di].len()] {
            copy = copy.apply_events(b).expect("seeded batches apply");
            expected.push(copy.fingerprint());
        }
        out.checked += receipts[di].len() as u64;
        if let Err(e) = check::check_receipts(&receipts[di], &expected) {
            out.mismatch(format!("stream {di}: {e}"));
        }
    }

    if trace {
        let mut pr = Probe::new(&mut tracer);
        pr.setup(layers);
        pr.store_sizes(&out.store_bytes);
        for (di, d) in dss.iter().enumerate() {
            let texts: Vec<String> = d.queries.iter().map(|q| q.text.clone()).collect();
            let requests: Vec<(usize, usize, QueryRequest)> = ops
                .iter()
                .filter_map(|op| match op {
                    Op::Eval {
                        ds,
                        query,
                        run,
                        request,
                        ..
                    } if *ds == di && d.queries[*query].prepared.is_some() => {
                        Some((*query, *run, request.clone()))
                    }
                    _ => None,
                })
                .collect();
            let prepared: Vec<Option<PreparedQuery>> =
                d.queries.iter().map(|q| q.prepared.clone()).collect();
            pr.core(&probe::CoreInput {
                spec: &d.spec,
                texts: &texts,
                prepared: &prepared,
                runs: &d.runs,
                requests: &requests,
                sweep: Some((&*d.store, d.sweep_query)),
            });
            pr.plan_counts(window_stats[di].plan_hits, window_stats[di].plan_misses);
            pr.run_loads(window_loads[di]);
            pr.served_store(&d.dir.join("store"), &texts, &prepared, &d.runs, &requests);
        }
        pr.append_rebuilds(out.append_rebuilds);
        out.mismatches.append(&mut pr.mismatches);
        out.layers = pr.finish(out.ops_per_s(), out.traced_ops_per_s.unwrap_or(0.0));
    }
    out.trace_spans = std::mem::take(&mut tracer.spans);
    drop_datasets(dss);
    out
}

fn drop_datasets(dss: Vec<Dataset>) {
    for d in dss {
        let dir = d.dir.clone();
        drop(d);
        let _ = std::fs::remove_dir_all(dir);
    }
}
