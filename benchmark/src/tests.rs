use crate::check::{self, Receipt, Truth};
use crate::common::Shape;
use crate::{probe, run_workload, Scale, WORKLOADS};
use rpq_core::{QueryRequest, QueryResult, Session, SubqueryPolicy};
use rpq_labeling::NodeId;
use rpq_relalg::NodePairSet;
use rpq_workloads::{bioaid_like, runs};

/// Every workload runs whole rounds of every shape at smoke scale, and
/// every check passes. One test, run in sequence: the workloads share
/// the working directory naming.
#[test]
fn every_workload_runs_and_checks_at_smoke_scale() {
    for w in WORKLOADS {
        let run = run_workload(w, Scale::Smoke, 7, 0.2, false);
        assert!(run.mismatches.is_empty(), "{w}: {:?}", run.mismatches);
        assert!(run.checked > 0, "{w} checked nothing");
        for shape in Shape::ALL {
            let t = run.recorder.tallies.get(&shape);
            assert!(
                t.is_some_and(|t| !t.samples.is_empty()),
                "{w}: no {} samples",
                shape.name()
            );
        }
        // Only general_decomposed keeps failures: its k-th-from-last
        // point requests, refused on every attempt.
        let failed = run.recorder.failed();
        if w == "general_decomposed" {
            let points = &run.recorder.tallies[&Shape::Point];
            assert_eq!(
                failed, points.failed,
                "{w}: failures outside point requests"
            );
            assert!(
                failed > 0 && failed.is_multiple_of(run.rounds as u64),
                "{w}: {failed} failures in {} rounds",
                run.rounds
            );
        } else {
            assert_eq!(failed, 0, "{w}");
        }
        for (name, _, v) in run.end_to_end() {
            assert!(v.is_finite() && v > 0.0, "{w}: {name} = {v}");
        }
    }
    let traced = run_workload("live_served", Scale::Smoke, 7, 0.2, true);
    assert!(traced.mismatches.is_empty(), "{:?}", traced.mismatches);
    let names: Vec<&str> = traced
        .layers
        .values
        .iter()
        .map(|(n, _, _)| n.as_str())
        .collect();
    let expected: Vec<&str> = probe::METRICS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected);
    assert!(!traced.trace_spans.is_empty());
}

fn small_case(text: &str) -> (Session, rpq_core::PreparedQuery, rpq_labeling::Run) {
    let real = bioaid_like();
    let session = Session::from_spec(real.spec.clone());
    let run = runs::simulate(&real.spec, 300, 5).expect("derives");
    let text = text.replace("{tag}", &real.pool_tags[1]);
    let pq = session.prepare(&text).expect("prepares");
    (session, pq, run)
}

/// A corrupted answer fails the check: a dropped pair and a flipped
/// verdict.
#[test]
fn corrupted_answers_fail_the_check() {
    let (session, pq, run) = small_case("_* {tag} _*");
    let truth = Truth::new(pq.regex(), session.spec().n_tags());
    let nodes: Vec<NodeId> = run.node_ids().collect();
    let request = QueryRequest::AllPairs(nodes.clone(), nodes.clone());
    let got = session.evaluate(&pq, &run, &request).result;
    check::check_answer(&truth, &run, &request, &got).expect("the engine's answer passes");
    let QueryResult::Pairs(pairs) = &got else {
        panic!("pairs expected")
    };
    assert!(!pairs.is_empty(), "the query matches something");
    let dropped = QueryResult::Pairs(NodePairSet::from_pairs(pairs.iter().skip(1).collect()));
    assert!(check::check_answer(&truth, &run, &request, &dropped).is_err());

    let (u, v) = pairs.iter().next().expect("non-empty");
    let verdict = QueryRequest::Pairwise(u, v);
    let got = session.evaluate(&pq, &run, &verdict).result;
    check::check_answer(&truth, &run, &verdict, &got).expect("the engine's verdict passes");
    assert!(check::check_answer(&truth, &run, &verdict, &QueryResult::Bool(false)).is_err());

    assert!(check::check_growth(&QueryResult::Bool(true), &QueryResult::Bool(false)).is_err());
    assert!(check::check_growth(&got, &dropped).is_ok());
    let receipts = [
        Receipt {
            epoch: 3,
            fingerprint: (1, 2),
        },
        Receipt {
            epoch: 3,
            fingerprint: (1, 3),
        },
    ];
    assert!(check::check_receipts(&receipts, &[(1, 2), (1, 3)]).is_err());
    assert!(check::check_receipts(&receipts[..1], &[(1, 2)]).is_ok());
}

/// The k-th-from-last checker agrees with the naive policy, which
/// answers what the default policy refuses.
#[test]
fn kth_from_last_checker_matches_the_naive_policy() {
    let (session, _, run) = small_case("_*");
    let text = format!("_* {} _ _ _ _ _ _", bioaid_like().pool_tags[1]);
    assert!(
        session.prepare(&text).is_err(),
        "the default policy refuses 2^7 DFA states"
    );
    let naive = session
        .prepare_with(&text, SubqueryPolicy::AlwaysRelational)
        .expect("naive plans");
    let truth = Truth::new(naive.regex(), session.spec().n_tags());
    assert!(matches!(truth, Truth::KthFromLast { m: 6, .. }));
    let nodes: Vec<NodeId> = run.node_ids().collect();
    let request = QueryRequest::AllPairs(nodes.clone(), nodes);
    let got = session.evaluate(&naive, &run, &request).result;
    assert!(matches!(&got, QueryResult::Pairs(p) if !p.is_empty()));
    check::check_answer(&truth, &run, &request, &got).expect("checker agrees with the naive plan");
}
