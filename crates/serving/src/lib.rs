//! Online partition serving for Spinner sessions.
//!
//! [`spinner-core`](spinner_core)'s `StreamSession` keeps a graph
//! partitioned as it changes; this crate makes that partition *servable*
//! and *durable*:
//!
//! - [`RoutingTable`] / [`RoutingReader`] — an epoch-versioned,
//!   double-buffered vertex→worker map. Readers are wait-free and
//!   allocation-free: a lookup is two atomic loads around an array read,
//!   validated seqlock-style so a concurrent publish can never yield a torn
//!   mix of two epochs.
//! - [`SessionStore`] / [`SessionPersist`] — a binary snapshot plus an
//!   append-only, CRC-framed write-ahead log. A restarted process calls
//!   [`ServingNode::resume_from`] (or `StreamSession::resume_from` via the
//!   [`SessionPersist`] trait) and gets labels bit-identical to the run
//!   that died, without re-running any label propagation.
//! - [`ServingNode`] — the front-end tying both together: one ingest
//!   thread applies stream windows and publishes epochs; any number of
//!   lookup threads answer routing queries from cloned readers.
//!
//! ```
//! use spinner_core::{SpinnerConfig, StreamSession};
//! use spinner_graph::GraphBuilder;
//! use spinner_serving::ServingNode;
//!
//! let graph = GraphBuilder::new(100).add_edges([(0, 1), (1, 2), (2, 0)]).build();
//! let session = StreamSession::new(graph, SpinnerConfig::new(4));
//! let node = ServingNode::new(session);
//! let reader = node.reader(); // clone one per lookup thread
//! let hit = reader.lookup(2).expect("published at bootstrap");
//! assert_eq!(hit.worker(), node.session().placement().as_slice()[2]);
//! assert_eq!(hit.epoch(), 1);
//! ```

#![deny(missing_docs)]

pub mod fault;
pub mod node;
pub mod persist;
pub mod routing;
pub mod snapshot;
pub mod wal;

pub use fault::{DiskStorage, Fault, FaultPlan, FaultyStorage, MemStorage, Storage, StoreFile};
pub use node::{Health, IngestReport, RetryPolicy, ServingNode};
pub use persist::{PersistError, ResumeStats, SessionPersist, SessionStore};
pub use routing::{Lookup, RoutingReader, RoutingTable};
pub use snapshot::{decode_state, encode_state};
pub use spinner_pregel::codec::CorruptError;
pub use wal::{read_wal, WalRecord, WalScan};
