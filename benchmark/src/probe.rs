//! The traced run's per-layer probes. Every figure is a span the
//! benchmark records around a call into one layer's public API, or a
//! count that API returns; nothing here reads the program's own traces
//! except the per-request stage breakdown a server ships on request.

use crate::common::{median, Layers, Shape, Tracer, MIB};
use crate::fleet::{self, Fleet};
use crate::inproc::SetupLayers;
use rpq_automata::compile_minimal_dfa;
use rpq_core::{
    all_pairs_filtered, check_safety, plan_query_with, BatchOptions, EvalStrategy, PreparedQuery,
    QueryRequest, RunSource, Session, SubqueryPolicy,
};
use rpq_grammar::Specification;
use rpq_labeling::{EventBatch, NodeId, Run};
use rpq_serve::protocol::{QuerySpec, WireStatsReply};
use rpq_store::RunStore;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Bytes of a deployment's stores, by artifact kind.
#[derive(Default, Clone, Copy)]
pub struct StoreBytes {
    pub runs: u64,
    pub index: u64,
    pub plans: u64,
    pub total: u64,
}

impl StoreBytes {
    /// Add every store found at or one level under `dir`.
    pub fn add(&mut self, dir: &Path) {
        use crate::common::dir_bytes;
        self.total += dir_bytes(dir);
        let mut stores = vec![dir.to_path_buf()];
        if let Ok(entries) = std::fs::read_dir(dir) {
            stores.extend(entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()));
        }
        for s in stores {
            self.runs += dir_bytes(&s.join("runs"));
            self.index += dir_bytes(&s.join("index"));
            self.plans += dir_bytes(&s.join("plans"));
        }
    }
}

/// What the in-process core probe works from.
pub struct CoreInput<'a> {
    pub spec: &'a Arc<Specification>,
    pub texts: &'a [String],
    pub prepared: &'a [Option<PreparedQuery>],
    pub runs: &'a [Arc<Run>],
    /// `(query, run, request)` taken from the workload's script.
    pub requests: &'a [(usize, usize, QueryRequest)],
    /// A store to sweep and the query (index into `texts`) to sweep it with.
    pub sweep: Option<(&'a dyn RunSource, usize)>,
}

/// Accumulates spans and counts over one or more datasets.
pub struct Probe<'t> {
    tracer: &'t mut Tracer,
    values: BTreeMap<&'static str, f64>,
    decode_ns: Vec<f64>,
    stage_sums: BTreeMap<String, f64>,
    stage_requests: f64,
    direct_point: Vec<f64>,
    routed_point: Vec<f64>,
    plan_hits: f64,
    plan_calls: f64,
    auto_lazy: f64,
    auto_total: f64,
    pub mismatches: Vec<String>,
    op: u64,
}

/// Every per-layer metric, in report order, with its unit.
pub const METRICS: &[(&str, &str)] = &[
    ("labeling.derive_s", "s"),
    ("store.ingest_s", "s"),
    ("store.materialize_s", "s"),
    ("store.runs_mb", "MiB"),
    ("store.index_mb", "MiB"),
    ("store.plans_mb", "MiB"),
    ("automata.dfa_us", "us"),
    ("automata.dfa_states", "count"),
    ("core.safety_us", "us"),
    ("core.plan_us", "us"),
    ("core.safe_subqueries", "count"),
    ("core.decode_ns", "ns"),
    ("core.allpairs_us", "us"),
    ("core.allpairs_answers", "count"),
    ("core.index_build_us", "us"),
    ("core.csr_build_us", "us"),
    ("core.materialized_us", "us"),
    ("core.lazy_us", "us"),
    ("core.auto_lazy_share", "ratio"),
    ("core.product_states", "count"),
    ("relalg.closures_bits", "count"),
    ("relalg.closures_scc", "count"),
    ("relalg.closures_pairs", "count"),
    ("relalg.condensations_computed", "count"),
    ("relalg.condensations_reused", "count"),
    ("core.batch_1t_ms", "ms"),
    ("core.batch_nt_ms", "ms"),
    ("core.plan_hit_ratio", "ratio"),
    ("core.index_hit_ratio", "ratio"),
    ("core.csr_hit_ratio", "ratio"),
    ("core.evictions", "count"),
    ("store.run_loads", "count"),
    ("store.artifact_reloads", "count"),
    ("store.append_us", "us"),
    ("store.append_rebuilds", "count"),
    ("serve.ping_us", "us"),
    ("serve.server_point_us", "us"),
    ("serve.server_reach_us", "us"),
    ("serve.wire_point_us", "us"),
    ("serve.stage.store_load_us", "us"),
    ("serve.stage.index_us", "us"),
    ("serve.stage.csr_us", "us"),
    ("serve.stage.eval_us", "us"),
    ("serve.stage.lazy_expand_us", "us"),
    ("router.hop_us", "us"),
    ("router.failovers", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.overhead", "ratio"),
];

/// Requests of each shape the probes replay at most.
const SAMPLE: usize = 160;

fn ratio(hits: f64, total: f64) -> f64 {
    if total > 0.0 {
        hits / total
    } else {
        0.0
    }
}

impl<'t> Probe<'t> {
    pub fn new(tracer: &'t mut Tracer) -> Probe<'t> {
        Probe {
            tracer,
            values: BTreeMap::new(),
            decode_ns: Vec::new(),
            stage_sums: BTreeMap::new(),
            stage_requests: 0.0,
            direct_point: Vec::new(),
            routed_point: Vec::new(),
            plan_hits: 0.0,
            plan_calls: 0.0,
            auto_lazy: 0.0,
            auto_total: 0.0,
            mismatches: Vec::new(),
            op: 1 << 40,
        }
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    pub fn setup(&mut self, s: SetupLayers) {
        self.set("labeling.derive_s", s.derive_s);
        self.set("store.ingest_s", s.ingest_s);
        self.set("store.materialize_s", s.materialize_s);
    }

    pub fn store_sizes(&mut self, b: &StoreBytes) {
        self.set("store.runs_mb", b.runs as f64 / MIB);
        self.set("store.index_mb", b.index as f64 / MIB);
        self.set("store.plans_mb", b.plans as f64 / MIB);
    }

    /// Plan-cache hits and misses of an answering session.
    pub fn plan_counts(&mut self, hits: u64, misses: u64) {
        self.plan_hits += hits as f64;
        self.plan_calls += (hits + misses) as f64;
    }

    /// Automata, core, relalg and batch layers, in process.
    pub fn core(&mut self, input: &CoreInput<'_>) {
        let spec = input.spec;
        let session = Session::new(Arc::clone(spec));
        // Parse, minimal DFA, safety check and cost-policy planning of
        // each query text.
        for text in input.texts {
            let Ok(regex) = session.parse(text) else {
                continue;
            };
            let op = self.next_op();
            let dfa = self.tracer.span("automata.compile_minimal_dfa", op, || {
                compile_minimal_dfa(&regex, spec.n_tags())
            });
            self.add("automata.dfa_states", dfa.n_states() as f64);
            if dfa.n_states() <= 64 {
                self.tracer
                    .span("core.check_safety", op, || check_safety(spec, &dfa));
                let _ = self.tracer.span("core.plan_query_with", op, || {
                    plan_query_with(spec, &regex, SubqueryPolicy::CostBased)
                });
            }
        }
        for p in input.prepared.iter().flatten() {
            self.add("core.safe_subqueries", p.stats().n_safe_subqueries as f64);
        }

        // Label decoding and Algorithm 2 on the safe plans; a one-symbol
        // IFQ stands in when the workload has no safe query.
        let mut safe: Vec<rpq_core::SafeQueryPlan> = input
            .prepared
            .iter()
            .flatten()
            .filter_map(|p| p.safe_plan().cloned())
            .collect();
        if safe.is_empty() {
            let tag = spec.tag_name(rpq_grammar::Tag(0)).to_owned();
            let regex = session
                .parse(&format!("_* {tag} _*"))
                .expect("a one-symbol IFQ parses");
            safe.extend(session.plan_safe(&regex).ok());
        }
        let mut rng = crate::common::Rng::new(0xDEC0DE);
        for plan in safe.iter().take(16) {
            for run in input.runs {
                let n = run.n_nodes();
                let pairs: Vec<(NodeId, NodeId)> = (0..256)
                    .map(|_| (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32)))
                    .collect();
                let op = self.next_op();
                let hits = self.tracer.span("core.SafeQueryPlan::pairwise", op, || {
                    pairs
                        .iter()
                        .filter(|&&(u, v)| plan.pairwise(run, u, v))
                        .count()
                });
                std::hint::black_box(hits);
                let d = self.tracer.spans.last().expect("span just recorded").dur_us;
                self.decode_ns.push(d * 1e3 / pairs.len() as f64);
            }
            let run = &input.runs[rng.below(input.runs.len())];
            let l1 = rpq_workloads::runs::sample_nodes(run, 250, rng.next());
            let l2 = rpq_workloads::runs::sample_nodes(run, 250, rng.next());
            let op = self.next_op();
            let answers = self.tracer.span("core.all_pairs_filtered", op, || {
                all_pairs_filtered(plan, spec, run, &l1, &l2)
            });
            self.add("core.allpairs_answers", answers.len() as f64);
        }

        // Per-run artifact builds on a session that has not seen the run.
        for run in input.runs {
            let fresh = Session::new(Arc::clone(spec));
            let op = self.next_op();
            self.tracer
                .span("core.Session::index_for", op, || fresh.index_for(run));
            self.tracer
                .span("core.Session::csr_for", op, || fresh.csr_for(run));
        }

        // The same requests under each strategy.
        let step = (input.requests.len() / SAMPLE).max(1);
        for (q, r, request) in input.requests.iter().step_by(step) {
            let Some(pq) = &input.prepared[*q] else {
                continue;
            };
            let run = &input.runs[*r];
            // Artifacts first, so the spans below time evaluation only.
            session.index_for(run);
            session.csr_for(run);
            let op = self.next_op();
            let m = self.tracer.span(
                "core.Session::evaluate_with_strategy[materialized]",
                op,
                || session.evaluate_with_strategy(pq, run, request, EvalStrategy::Materialized),
            );
            let l = self
                .tracer
                .span("core.Session::evaluate_with_strategy[lazy]", op, || {
                    session.evaluate_with_strategy(pq, run, request, EvalStrategy::Lazy)
                });
            let a = self
                .tracer
                .span("core.Session::evaluate_with_strategy[auto]", op, || {
                    session.evaluate_with_strategy(pq, run, request, EvalStrategy::Auto)
                });
            if m.result != l.result {
                self.mismatches.push(format!(
                    "{}: lazy and materialized answers differ on {request:?}",
                    pq.source()
                ));
            }
            self.add("relalg.closures_bits", m.meta.closures.bits as f64);
            self.add("relalg.closures_scc", m.meta.closures.scc as f64);
            self.add("relalg.closures_pairs", m.meta.closures.pairs as f64);
            self.add(
                "relalg.condensations_computed",
                m.meta.condensations.computed as f64,
            );
            self.add(
                "relalg.condensations_reused",
                m.meta.condensations.reused as f64,
            );
            self.auto_total += 1.0;
            if a.meta.strategy == EvalStrategy::Lazy {
                self.auto_lazy += 1.0;
            }
            self.add("core.product_states", a.meta.product_states as f64);
        }

        // One query over the whole store, at 1 thread and at N.
        if let Some((source, qi)) = input.sweep {
            if let Some(pq) = &input.prepared[qi] {
                let n = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                for _ in 0..5 {
                    let op = self.next_op();
                    self.tracer
                        .span("core.Session::evaluate_batch[1t]", op, || {
                            session.evaluate_batch(
                                pq,
                                source,
                                &QueryRequest::EntryExit,
                                &BatchOptions::threads(1),
                            )
                        });
                    self.tracer
                        .span("core.Session::evaluate_batch[nt]", op, || {
                            session.evaluate_batch(
                                pq,
                                source,
                                &QueryRequest::EntryExit,
                                &BatchOptions::threads(n),
                            )
                        });
                }
            }
        }
    }

    /// Serve, store and router layers: ping, the same requests direct
    /// and via the router, and the per-request stage breakdown.
    pub fn served(&mut self, fleet: &Fleet, requests: &[(QuerySpec, Shape)]) {
        let mut direct = fleet::connect(fleet.backend);
        let mut routed = fleet::connect(fleet.router);
        for _ in 0..200 {
            let op = self.next_op();
            let ok = self
                .tracer
                .span("serve.ServeClient::ping", op, || direct.ping().is_ok());
            if !ok {
                self.mismatches.push("a backend ping failed".to_owned());
            }
        }
        let step = (requests.len() / SAMPLE).max(1);
        let sample: Vec<&(QuerySpec, Shape)> = requests.iter().step_by(step).collect();
        // Warm pass: plans and caches as the timed window left them.
        for (spec, _) in &sample {
            let _ = fleet::query(&mut direct, spec);
        }
        let mut server_point = Vec::new();
        let mut server_reach = Vec::new();
        let mut wire_point = Vec::new();
        for (spec, shape) in &sample {
            let op = self.next_op();
            let Some(o) = self
                .tracer
                .span("serve.direct", op, || fleet::query(&mut direct, spec))
            else {
                self.mismatches
                    .push(format!("{}: direct request refused", spec.query));
                continue;
            };
            let rtt = self.tracer.spans.last().expect("span just recorded").dur_us;
            let routed_o = self
                .tracer
                .span("router.routed", op, || fleet::query(&mut routed, spec));
            let rtt_routed = self.tracer.spans.last().expect("span just recorded").dur_us;
            match routed_o {
                Some(r) if r.result == o.result => {}
                _ => self
                    .mismatches
                    .push(format!("{}: routed answer differs from direct", spec.query)),
            }
            let mut staged = (*spec).clone();
            staged.stages = true;
            if let Some(s) = self.tracer.span("serve.direct[stages]", op, || {
                fleet::query(&mut direct, &staged)
            }) {
                self.stage_requests += 1.0;
                for (name, us) in s.stages {
                    *self.stage_sums.entry(name).or_insert(0.0) += us as f64;
                }
            }
            match shape {
                Shape::Point => {
                    server_point.push(o.micros as f64);
                    wire_point.push(rtt - o.micros as f64);
                    self.direct_point.push(rtt);
                    self.routed_point.push(rtt_routed);
                }
                _ => server_reach.push(o.micros as f64),
            }
        }
        self.set("serve.server_point_us", median(&server_point));
        self.set("serve.server_reach_us", median(&server_reach));
        self.set("serve.wire_point_us", median(&wire_point));
    }

    /// Serve a workload's own store for the served probe.
    pub fn served_store(
        &mut self,
        dir: &Path,
        texts: &[String],
        prepared: &[Option<PreparedQuery>],
        runs: &[Arc<Run>],
        requests: &[(usize, usize, QueryRequest)],
    ) {
        let store = RunStore::open(dir).expect("reopen the workload store");
        let fleet = Fleet::start(store, None);
        let specs: Vec<(QuerySpec, Shape)> = requests
            .iter()
            .filter(|(q, _, r)| prepared[*q].is_some() && !matches!(r, QueryRequest::AllPairs(..)))
            .map(|(q, r, request)| {
                let shape = match request {
                    QueryRequest::Pairwise(..) | QueryRequest::EntryExit => Shape::Point,
                    _ => Shape::Reach,
                };
                (
                    fleet::spec_for(&texts[*q], runs[*r].fingerprint(), request, ""),
                    shape,
                )
            })
            .collect();
        let mut admin = fleet::connect(fleet.backend);
        let before = admin.stats().expect("stats verb");
        self.served(&fleet, &specs);
        let after = admin.stats().expect("stats verb");
        drop(admin);
        self.merge_stats(&before, &after);
        let report = fleet.stop();
        self.add("router.failovers", report.failovers as f64);
    }

    /// Cache, eviction, reload and plan counts: `stats` verb deltas.
    pub fn merge_stats(&mut self, b: &WireStatsReply, a: &WireStatsReply) {
        self.add("stats.index_hits", (a.index_hits - b.index_hits) as f64);
        self.add(
            "stats.index_misses",
            (a.index_misses - b.index_misses) as f64,
        );
        self.add("stats.csr_hits", (a.csr_hits - b.csr_hits) as f64);
        self.add("stats.csr_misses", (a.csr_misses - b.csr_misses) as f64);
        self.add(
            "core.evictions",
            (a.session_evictions - b.session_evictions) as f64,
        );
        self.add(
            "store.artifact_reloads",
            (a.tag_reloads + a.csr_reloads - b.tag_reloads - b.csr_reloads) as f64,
        );
        self.plan_counts(a.plan_hits - b.plan_hits, a.plan_misses - b.plan_misses);
    }

    pub fn router_failovers(&mut self, n: u64) {
        self.add("router.failovers", n as f64);
    }

    /// `OpenRun::append_events` on an in-process copy: the base run and
    /// the batches the window applied, in a store of the probe's own.
    pub fn append_replay(
        &mut self,
        spec: &Arc<Specification>,
        streams: &[(Run, Vec<EventBatch>)],
        dir: &Path,
    ) {
        let store =
            Arc::new(RunStore::create(dir, Arc::clone(spec)).expect("create a replay store"));
        for (base, batches) in streams {
            let id = store.ingest(base).expect("ingest a replay base").id;
            let open = store.open_run(id).expect("open a replay run");
            for b in batches {
                let op = self.next_op();
                let _ = self
                    .tracer
                    .span("store.OpenRun::append_events", op, || open.append_events(b));
            }
        }
    }

    /// Runs decoded from disk (`StoreStats::run_loads`).
    pub fn run_loads(&mut self, n: u64) {
        self.add("store.run_loads", n as f64);
    }

    pub fn append_rebuilds(&mut self, n: u64) {
        self.add("store.append_rebuilds", n as f64);
    }

    /// Every metric of [`METRICS`], measured or 0 where the workload
    /// never exercised the layer.
    pub fn finish(mut self, ops_per_s: f64, traced_ops_per_s: f64) -> Layers {
        let t = &*self.tracer;
        let med = |name: &str| {
            let d = t.durations(name);
            if d.is_empty() {
                0.0
            } else {
                median(&d)
            }
        };
        let mut v = std::mem::take(&mut self.values);
        v.insert("automata.dfa_us", med("automata.compile_minimal_dfa"));
        v.insert("core.safety_us", med("core.check_safety"));
        v.insert("core.plan_us", med("core.plan_query_with"));
        v.insert(
            "core.decode_ns",
            if self.decode_ns.is_empty() {
                0.0
            } else {
                median(&self.decode_ns)
            },
        );
        v.insert("core.allpairs_us", med("core.all_pairs_filtered"));
        v.insert("core.index_build_us", med("core.Session::index_for"));
        v.insert("core.csr_build_us", med("core.Session::csr_for"));
        v.insert(
            "core.materialized_us",
            med("core.Session::evaluate_with_strategy[materialized]"),
        );
        v.insert(
            "core.lazy_us",
            med("core.Session::evaluate_with_strategy[lazy]"),
        );
        v.insert(
            "core.auto_lazy_share",
            ratio(self.auto_lazy, self.auto_total),
        );
        v.insert(
            "core.batch_1t_ms",
            med("core.Session::evaluate_batch[1t]") / 1e3,
        );
        v.insert(
            "core.batch_nt_ms",
            med("core.Session::evaluate_batch[nt]") / 1e3,
        );
        v.insert(
            "core.plan_hit_ratio",
            ratio(self.plan_hits, self.plan_calls),
        );
        let get = |v: &BTreeMap<&str, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
        v.insert(
            "core.index_hit_ratio",
            ratio(
                get(&v, "stats.index_hits"),
                get(&v, "stats.index_hits") + get(&v, "stats.index_misses"),
            ),
        );
        v.insert(
            "core.csr_hit_ratio",
            ratio(
                get(&v, "stats.csr_hits"),
                get(&v, "stats.csr_hits") + get(&v, "stats.csr_misses"),
            ),
        );
        v.insert("store.append_us", med("store.OpenRun::append_events"));
        v.insert("serve.ping_us", med("serve.ServeClient::ping"));
        let stage = |name: &str| {
            if self.stage_requests > 0.0 {
                self.stage_sums.get(name).copied().unwrap_or(0.0) / self.stage_requests
            } else {
                0.0
            }
        };
        v.insert("serve.stage.store_load_us", stage("store_load"));
        v.insert("serve.stage.index_us", stage("index"));
        v.insert("serve.stage.csr_us", stage("csr"));
        v.insert("serve.stage.eval_us", stage("eval"));
        v.insert("serve.stage.lazy_expand_us", stage("lazy_expand"));
        v.insert(
            "router.hop_us",
            if self.direct_point.is_empty() {
                0.0
            } else {
                median(&self.routed_point) - median(&self.direct_point)
            },
        );
        v.insert("trace.ops_per_s", traced_ops_per_s);
        v.insert(
            "trace.overhead",
            ratio(ops_per_s - traced_ops_per_s, ops_per_s),
        );
        let mut layers = Layers::default();
        for &(name, unit) in METRICS {
            let unit: &'static str = unit;
            layers.put(name, unit, v.get(name).copied().unwrap_or(0.0));
        }
        layers
    }
}
