//! Answer checks made apart from the engine.
//!
//! Every distinct request's answer is compared with the product-graph
//! `Referee` of `rpq-baselines`, run on the benchmark's own copy of the
//! run. Queries whose minimal DFA is too large for the referee are
//! k-th-from-last queries (`_* a _^m`), checked by a direct
//! layer-by-layer search written here.

use rpq_automata::{compile_minimal_dfa, Dfa, Regex, Symbol};
use rpq_baselines::Referee;
use rpq_core::{QueryRequest, QueryResult};
use rpq_labeling::{NodeId, Run};
use rpq_relalg::NodePairSet;
use std::collections::BTreeSet;

/// The referee's view of one query.
pub enum Truth {
    Dfa(Dfa),
    /// `_* tag _^m`: the edge `m + 1` from the end carries `tag`.
    KthFromLast {
        tag: u32,
        m: usize,
    },
}

impl Truth {
    pub fn new(regex: &Regex, n_tags: usize) -> Truth {
        if let Some((tag, m)) = kth_from_last_shape(regex) {
            return Truth::KthFromLast { tag, m };
        }
        Truth::Dfa(compile_minimal_dfa(regex, n_tags))
    }

    /// All `(u, v)` with `u ∈ l1`, `v ∈ l2` joined by a matching path.
    pub fn pairs(&self, run: &Run, l1: &[NodeId], l2: &[NodeId]) -> NodePairSet {
        match self {
            Truth::Dfa(dfa) => Referee::new(run, dfa).all_pairs(l1, l2),
            Truth::KthFromLast { tag, m } => {
                let want: BTreeSet<NodeId> = l2.iter().copied().collect();
                let mut out = Vec::new();
                let sources: BTreeSet<NodeId> = l1.iter().copied().collect();
                for &u in &sources {
                    let hits = kth_from_last_targets(run, u, *tag, *m);
                    out.extend(
                        hits.into_iter()
                            .filter(|v| want.contains(v))
                            .map(|v| (u, v)),
                    );
                }
                NodePairSet::from_pairs(out)
            }
        }
    }
}

/// Recognise `_* a _ … _` (a star of the wildcard, one symbol, then
/// only wildcards).
fn kth_from_last_shape(regex: &Regex) -> Option<(u32, usize)> {
    let Regex::Concat(parts) = regex else {
        return None;
    };
    let (first, rest) = parts.split_first()?;
    if *first != Regex::any_star() {
        return None;
    }
    let (sym, tail) = rest.split_first()?;
    let Regex::Sym(Symbol(tag)) = sym else {
        return None;
    };
    if tail.is_empty() || !tail.iter().all(|p| *p == Regex::Wildcard) {
        return None;
    }
    Some((*tag, tail.len()))
}

/// Nodes `v` with a path from `u` whose edge `m + 1` from the end is
/// tagged `tag`: any path to `x`, an `x -tag-> y` edge, then exactly `m`
/// more edges.
fn kth_from_last_targets(run: &Run, u: NodeId, tag: u32, m: usize) -> BTreeSet<NodeId> {
    let n = run.n_nodes();
    let mut seen = vec![false; n];
    let mut stack = vec![u];
    seen[u.index()] = true;
    while let Some(x) = stack.pop() {
        for &(y, _) in run.out_edges(x) {
            if !seen[y.index()] {
                seen[y.index()] = true;
                stack.push(y);
            }
        }
    }
    let mut layer = vec![false; n];
    for x in (0..n).filter(|&x| seen[x]) {
        for &(y, t) in run.out_edges(NodeId(x as u32)) {
            if t.0 == tag {
                layer[y.index()] = true;
            }
        }
    }
    for _ in 0..m {
        let mut next = vec![false; n];
        for x in (0..n).filter(|&x| layer[x]) {
            for &(y, _) in run.out_edges(NodeId(x as u32)) {
                next[y.index()] = true;
            }
        }
        layer = next;
    }
    (0..n)
        .filter(|&v| layer[v])
        .map(|v| NodeId(v as u32))
        .collect()
}

/// Compare one answer with the referee. The error names the mismatch.
pub fn check_answer(
    truth: &Truth,
    run: &Run,
    request: &QueryRequest,
    got: &QueryResult,
) -> Result<(), String> {
    let all: Vec<NodeId> = run.node_ids().collect();
    let expected = match request {
        QueryRequest::Pairwise(u, v) => {
            QueryResult::Bool(!truth.pairs(run, &[*u], &[*v]).is_empty())
        }
        QueryRequest::EntryExit => {
            QueryResult::Bool(!truth.pairs(run, &[run.entry()], &[run.exit()]).is_empty())
        }
        QueryRequest::AllPairs(l1, l2) => QueryResult::Pairs(truth.pairs(run, l1, l2)),
        QueryRequest::SourceStar(u) => QueryResult::Pairs(truth.pairs(run, &[*u], &all)),
        QueryRequest::TargetStar(v) => QueryResult::Pairs(truth.pairs(run, &all, &[*v])),
        QueryRequest::Reachable(u) => {
            let pairs = truth.pairs(run, &[*u], &all);
            QueryResult::Nodes(pairs.iter().map(|(_, v)| v).collect())
        }
    };
    if normalise(got) == normalise(&expected) {
        Ok(())
    } else {
        let kind = format!("{request:?}");
        let kind: String = kind.chars().take(60).collect();
        Err(format!(
            "{kind}: engine answered {} item(s), referee {}",
            got_len(got),
            got_len(&expected)
        ))
    }
}

/// Results as comparable sorted pair lists (nodes as `(v, v)`).
fn normalise(r: &QueryResult) -> (Option<bool>, Vec<(NodeId, NodeId)>) {
    match r {
        QueryResult::Bool(b) => (Some(*b), Vec::new()),
        QueryResult::Pairs(p) => {
            let mut v: Vec<_> = p.iter().collect();
            v.sort_unstable();
            (None, v)
        }
        QueryResult::Nodes(n) => {
            let mut v: Vec<_> = n.iter().map(|&x| (x, x)).collect();
            v.sort_unstable();
            v.dedup();
            (None, v)
        }
    }
}

fn got_len(r: &QueryResult) -> usize {
    match r {
        QueryResult::Bool(b) => usize::from(*b),
        QueryResult::Pairs(p) => p.len(),
        QueryResult::Nodes(n) => n.len(),
    }
}

/// `Reachable(u)` must equal the targets of `SourceStar(u)`.
pub fn check_projection(reachable: &QueryResult, source_star: &QueryResult) -> Result<(), String> {
    match (reachable, source_star) {
        (QueryResult::Nodes(nodes), QueryResult::Pairs(pairs)) => {
            let a: BTreeSet<NodeId> = nodes.iter().copied().collect();
            let b: BTreeSet<NodeId> = pairs.iter().map(|(_, v)| v).collect();
            if a == b {
                Ok(())
            } else {
                Err(format!(
                    "Reachable has {} node(s), SourceStar projects to {}",
                    a.len(),
                    b.len()
                ))
            }
        }
        _ => Err("Reachable/SourceStar answered with the wrong result kinds".to_owned()),
    }
}

/// `EntryExit` must equal membership of (entry, exit) in the all-pairs answer.
pub fn check_entry_exit(
    run: &Run,
    verdict: &QueryResult,
    all_pairs: &QueryResult,
) -> Result<(), String> {
    match (verdict, all_pairs) {
        (QueryResult::Bool(b), QueryResult::Pairs(p)) => {
            let member = p.contains(run.entry(), run.exit());
            if *b == member {
                Ok(())
            } else {
                Err(format!(
                    "EntryExit said {b}, all-pairs membership says {member}"
                ))
            }
        }
        _ => Err("EntryExit/AllPairs answered with the wrong result kinds".to_owned()),
    }
}

/// An answer to the same request after more appends may only grow.
pub fn check_growth(earlier: &QueryResult, later: &QueryResult) -> Result<(), String> {
    let (eb, ep) = normalise(earlier);
    let (lb, lp) = normalise(later);
    let grew = match (eb, lb) {
        (Some(e), Some(l)) => !e || l,
        _ => {
            let l: BTreeSet<_> = lp.into_iter().collect();
            ep.iter().all(|p| l.contains(p))
        }
    };
    if grew {
        Ok(())
    } else {
        Err("an answer shrank after an append".to_owned())
    }
}

/// One append receipt, as the client saw it.
pub struct Receipt {
    pub epoch: u64,
    pub fingerprint: (u64, u64),
}

/// Each receipt's epoch rises strictly, and its fingerprint equals
/// `expected[i]`, the client copy's after the same batches.
pub fn check_receipts(receipts: &[Receipt], expected: &[(u64, u64)]) -> Result<(), String> {
    if receipts.len() != expected.len() {
        return Err(format!(
            "{} receipt(s) for {} append(s)",
            receipts.len(),
            expected.len()
        ));
    }
    for (i, (r, fp)) in receipts.iter().zip(expected).enumerate() {
        if i > 0 && r.epoch <= receipts[i - 1].epoch {
            return Err(format!(
                "append {i}: epoch {} after {}",
                r.epoch,
                receipts[i - 1].epoch
            ));
        }
        if *fp != r.fingerprint {
            return Err(format!(
                "append {i}: fingerprint {:x?} but the client copy has {fp:x?}",
                r.fingerprint
            ));
        }
    }
    Ok(())
}
