//! A serving node driven one of two ways: through `ServingNode` (the
//! untraced runs), or through the public pieces `ServingNode` is built from
//! with a span around each call (the traced runs).

use std::time::{Duration, Instant};

use spinner_core::{StreamEvent, StreamSession, WindowReport};
use spinner_pregel::WorkerId;
use spinner_serving::{
    MemStorage, RoutingReader, RoutingTable, ServingNode, SessionStore, WalRecord,
};

use crate::trace::Tracer;

pub enum Service {
    Node(ServingNode),
    Pieces { session: StreamSession, store: SessionStore, table: RoutingTable },
}

/// What one ingest produced.
pub struct Ingested {
    pub epoch: u64,
    pub report: WindowReport,
    /// Framed WAL bytes the window appended.
    pub record_bytes: u64,
}

/// A node restarted from the store, with the time from the start of the
/// resume until its first lookup answered.
pub struct Resumed {
    pub elapsed: Duration,
    pub labels: Vec<u32>,
    pub placement: Vec<WorkerId>,
    pub replayed_windows: usize,
    pub first_lookup_ok: bool,
}

fn routing_for(session: &StreamSession) -> RoutingTable {
    let placement = session.placement().as_slice();
    let mut table = RoutingTable::with_capacity(placement.len() as u32);
    table.publish_at(session.windows().len() as u64, placement);
    table
}

impl Service {
    /// Serves `session` with a fresh store on `mem`, as `ServingNode` or as
    /// its pieces.
    pub fn new(session: StreamSession, mem: &MemStorage, pieces: bool) -> Result<Self, String> {
        let storage = Box::new(mem.clone());
        if pieces {
            let store = SessionStore::create_on(storage, &session.state())
                .map_err(|e| e.to_string())?;
            let table = routing_for(&session);
            Ok(Service::Pieces { session, store, table })
        } else {
            ServingNode::with_storage(session, storage)
                .map(Service::Node)
                .map_err(|e| e.to_string())
        }
    }

    pub fn session(&self) -> &StreamSession {
        match self {
            Service::Node(node) => node.session(),
            Service::Pieces { session, .. } => session,
        }
    }

    pub fn reader(&self) -> RoutingReader {
        match self {
            Service::Node(node) => node.reader(),
            Service::Pieces { table, .. } => table.reader(),
        }
    }

    pub fn epoch(&self) -> u64 {
        match self {
            Service::Node(node) => node.epoch(),
            Service::Pieces { table, .. } => table.head(),
        }
    }

    /// Lookup restarts the routing table counted so far.
    pub fn routing_retries(&self) -> u64 {
        match self {
            Service::Node(node) => node.routing().retries(),
            Service::Pieces { table, .. } => table.retries(),
        }
    }

    pub fn snapshot_bytes(&self) -> u64 {
        match self {
            Service::Node(_) => 0,
            Service::Pieces { store, .. } => store.snapshot_bytes(),
        }
    }

    /// Applies one window, logs it and publishes its epoch. The pieces
    /// path makes the calls `ServingNode::ingest` makes on a healthy store,
    /// in the same order: state, apply, state, diff, append, publish.
    pub fn ingest(&mut self, event: StreamEvent, tr: &mut Tracer) -> Result<Ingested, String> {
        match self {
            Service::Node(node) => {
                let rep = node.ingest(event).map_err(|e| e.to_string())?;
                Ok(Ingested {
                    epoch: rep.epoch(),
                    record_bytes: rep.record_bytes(),
                    report: rep.report().clone(),
                })
            }
            Service::Pieces { session, store, table } => {
                let before = tr.span("serving.state_capture", || session.state());
                let report = tr.span("core.apply", || session.apply(event.clone()).clone());
                tr.reported_child("pregel.run", report.wall_ns());
                let after = tr.span("serving.state_capture", || session.state());
                let record =
                    tr.span("serving.wal_diff", || WalRecord::diff(&before, &after, event));
                let record_bytes = tr
                    .span("serving.wal_append", || store.append(&record))
                    .map_err(|e| e.to_string())?;
                let epoch = session.windows().len() as u64;
                tr.span("routing.publish", || {
                    table.publish_at(epoch, session.placement().as_slice())
                });
                Ok(Ingested { epoch, report, record_bytes })
            }
        }
    }

    /// Folds the WAL into a fresh snapshot.
    pub fn compact(&mut self, tr: &mut Tracer) -> Result<(), String> {
        match self {
            Service::Node(node) => node.compact().map_err(|e| e.to_string()),
            Service::Pieces { session, store, .. } => tr
                .span("serving.compact", || store.compact(&session.state()))
                .map_err(|e| e.to_string()),
        }
    }
}

/// Restarts a node from the store on `mem` and resolves `probe` through
/// it. Traced, it makes the calls `ServingNode::resume_from_storage` makes:
/// load, rebuild the session, publish the routing table.
pub fn resume(mem: &MemStorage, probe: u32, tr: &mut Tracer) -> Result<Resumed, String> {
    let storage = Box::new(mem.clone());
    let start = Instant::now();
    if !tr.enabled() {
        let (node, stats) =
            ServingNode::resume_from_storage(storage).map_err(|e| e.to_string())?;
        let first_lookup_ok = node.reader().lookup(probe).is_some();
        let elapsed = start.elapsed();
        return Ok(Resumed {
            elapsed,
            labels: node.session().labels().to_vec(),
            placement: node.session().placement().as_slice().to_vec(),
            replayed_windows: stats.replayed_windows,
            first_lookup_ok,
        });
    }
    tr.begin("resume");
    let loaded = tr.span("serving.resume_load", || SessionStore::load_on(storage));
    let (state, _store, stats) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            tr.end();
            return Err(e.to_string());
        }
    };
    let session = tr.span("serving.resume_rebuild", || StreamSession::from_state(state));
    let table = tr.span("routing.build", || routing_for(&session));
    let first_lookup_ok = tr.span("routing.lookup", || table.reader().lookup(probe).is_some());
    let elapsed = start.elapsed();
    tr.end();
    Ok(Resumed {
        elapsed,
        labels: session.labels().to_vec(),
        placement: session.placement().as_slice().to_vec(),
        replayed_windows: stats.replayed_windows,
        first_lookup_ok,
    })
}
