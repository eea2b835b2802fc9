//! One backend and one router over an on-disk store, in this process.

use rpq_core::QueryRequest;
use rpq_core::QueryResult;
use rpq_labeling::NodeId;
use rpq_relalg::NodePairSet;
use rpq_router::{Router, RouterConfig, RouterReport};
use rpq_serve::protocol::{
    QuerySpec, RunAddr, WireMode, WireOutcome, WireRequest, WireResponse, WireResult,
};
use rpq_serve::{RetryPolicy, ServeClient, ServeConfig, Server};
use rpq_store::RunStore;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

pub struct Fleet {
    pub backend: SocketAddr,
    pub router: SocketAddr,
    backend_handle: rpq_serve::ShutdownHandle,
    router_handle: rpq_router::ShutdownHandle,
    backend_thread: Option<JoinHandle<()>>,
    router_thread: Option<JoinHandle<RouterReport>>,
}

/// Worker threads: never more than the CPUs this process may use.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

impl Fleet {
    /// Bind and warm the backend, then bind the router in front of it
    /// (replication 1, no replication sync).
    pub fn start(store: RunStore, cache: Option<usize>) -> Fleet {
        let server = Server::bind(
            store,
            &ServeConfig {
                workers: workers(),
                queue: 64,
                cache,
                ..ServeConfig::default()
            },
        )
        .expect("bind the backend");
        server.warm().expect("warm the backend");
        let backend = server.local_addr().expect("backend address");
        let backend_handle = server.shutdown_handle();
        let backend_thread = std::thread::spawn(move || {
            server.run(None);
        });
        let router = Router::bind(&RouterConfig {
            backends: vec![backend],
            replication: 1,
            workers: workers(),
            queue: 64,
            deadline: Duration::from_secs(30),
            retry: RetryPolicy::fixed(Duration::from_millis(2), Duration::from_millis(10)),
            sync_interval: None,
            ..RouterConfig::default()
        })
        .expect("bind the router");
        let router_addr = router.local_addr().expect("router address");
        let router_handle = router.shutdown_handle();
        let router_thread = std::thread::spawn(move || router.run(None));
        Fleet {
            backend,
            router: router_addr,
            backend_handle,
            router_handle,
            backend_thread: Some(backend_thread),
            router_thread: Some(router_thread),
        }
    }

    /// Stop both, wait for their threads, and return the router's report.
    pub fn stop(mut self) -> RouterReport {
        self.router_handle.shutdown();
        let report = self
            .router_thread
            .take()
            .expect("running router")
            .join()
            .expect("router thread");
        self.backend_handle.shutdown();
        self.backend_thread
            .take()
            .expect("running backend")
            .join()
            .expect("backend thread");
        report
    }
}

pub fn connect(addr: SocketAddr) -> ServeClient {
    ServeClient::connect(addr).expect("connect")
}

/// The wire form of a request, addressed by fingerprint; `strategy` is
/// empty for the server's default.
pub fn spec_for(query: &str, fp: (u64, u64), request: &QueryRequest, strategy: &str) -> QuerySpec {
    let mode = match request {
        QueryRequest::Pairwise(u, v) => WireMode::Pairwise(u.0, v.0),
        QueryRequest::EntryExit => WireMode::EntryExit,
        QueryRequest::AllPairs(l1, l2) => WireMode::AllPairs(
            l1.iter().map(|n| n.0).collect(),
            l2.iter().map(|n| n.0).collect(),
        ),
        QueryRequest::SourceStar(u) => WireMode::SourceStar(u.0),
        QueryRequest::TargetStar(v) => WireMode::TargetStar(v.0),
        QueryRequest::Reachable(u) => WireMode::Reachable(u.0),
    };
    QuerySpec {
        query: query.to_owned(),
        policy: String::new(),
        strategy: strategy.to_owned(),
        stages: false,
        run: RunAddr::Fingerprint(fp.0, fp.1),
        mode,
    }
}

/// Send one query; `None` on any refusal or transport error.
pub fn query(client: &mut ServeClient, spec: &QuerySpec) -> Option<WireOutcome> {
    match client.request(&WireRequest::Query(spec.clone())) {
        Ok(WireResponse::Outcome(o)) => Some(o),
        _ => None,
    }
}

/// A wire result as the engine's result type, for the shared checks.
pub fn to_result(r: &WireResult) -> QueryResult {
    match r {
        WireResult::Bool(b) => QueryResult::Bool(*b),
        WireResult::Pairs(p) => QueryResult::Pairs(NodePairSet::from_pairs(
            p.iter().map(|&(u, v)| (NodeId(u), NodeId(v))).collect(),
        )),
        WireResult::Nodes(n) => QueryResult::Nodes(n.iter().map(|&v| NodeId(v)).collect()),
    }
}
