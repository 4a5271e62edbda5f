//! Append-only per-window write-ahead log.
//!
//! Each [`StreamSession::apply`](spinner_core::StreamSession::apply) window
//! appends one [`WalRecord`]: the stream event itself plus the *state
//! delta* it produced — label changes, placement changes, a replaced
//! feedback map, and the window report. Replaying a record onto a
//! [`SessionState`] is therefore pure bookkeeping: the restarted process
//! reconstructs the exact post-window state without re-running a single
//! LPA iteration, which is what makes restart-to-serving time a function
//! of log size rather than graph size times convergence.
//!
//! Framing: every record is `[varint payload_len][payload][crc32]`. A
//! process killed mid-append leaves a truncated or checksum-failing tail;
//! [`read_wal`] stops at the last whole record and reports the number of
//! clean bytes so the writer can truncate and continue from there.

use spinner_core::{SessionState, StreamEvent, WindowReport, WindowReportParts};
use spinner_graph::mutation::apply_delta;
use spinner_graph::{GraphDelta, VertexId};
use spinner_pregel::WorkerId;

use crate::snapshot::{put_report, read_report};
use spinner_pregel::codec::{crc32, ByteReader, ByteWriter, CorruptError, Result};

/// One window's entry in the write-ahead log: the event and the state
/// delta its application produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Index of the window this record finalises.
    pub window: u32,
    /// Partition count in effect *after* the window (tracks resizes).
    pub k: u32,
    /// The stream event the window applied.
    pub event: StreamEvent,
    /// Labels that changed (or were appended), as `(vertex, new_label)`
    /// sorted by vertex.
    pub label_updates: Vec<(VertexId, u32)>,
    /// Placement entries that changed (or were appended), as
    /// `(vertex, new_worker)` sorted by vertex.
    pub placement_updates: Vec<(VertexId, WorkerId)>,
    /// The full label → worker feedback map, present only when this
    /// window's placement feedback replaced it.
    pub label_assignment: Option<Vec<WorkerId>>,
    /// The window's report.
    pub report: WindowReportParts,
}

impl WalRecord {
    /// Builds the record for the window that took `before` to `after`.
    /// `event` must be the event `StreamSession::apply` consumed, `after`
    /// the session state afterwards.
    pub fn diff(before: &SessionState, after: &SessionState, event: StreamEvent) -> Self {
        let report = after.windows.last().expect("applied window must be reported").to_parts();
        let label_updates = diff_values(&before.labels, &after.labels);
        let placement_updates = diff_values(&before.placement, &after.placement);
        let label_assignment = if after.label_assignment != before.label_assignment {
            after.label_assignment.clone()
        } else {
            None
        };
        Self {
            window: report.window,
            k: after.cfg.k,
            event,
            label_updates,
            placement_updates,
            label_assignment,
            report,
        }
    }

    /// Replays this record onto `state` (the state as of the previous
    /// window), advancing it to the post-window state — no LPA involved.
    pub fn apply_to(&self, state: &mut SessionState) -> Result<()> {
        match &self.event {
            StreamEvent::Delta(delta) => {
                state.graph = apply_delta(&state.graph, delta);
            }
            StreamEvent::Resize { .. } => {}
            // A worker loss changes labels/placement, not the graph; the
            // diff below carries the whole recovery.
            StreamEvent::WorkerLoss { .. } => {}
        }
        state.cfg.k = self.k;
        let n = state.graph.num_vertices() as usize;
        if state.labels.len() > n || state.placement.len() > n {
            return Err(CorruptError { context: "wal shrinks the vertex set" });
        }
        state.labels.resize(n, 0);
        state.placement.resize(n, 0);
        for &(v, label) in &self.label_updates {
            *state
                .labels
                .get_mut(v as usize)
                .ok_or(CorruptError { context: "wal label update out of range" })? = label;
        }
        for &(v, worker) in &self.placement_updates {
            *state
                .placement
                .get_mut(v as usize)
                .ok_or(CorruptError { context: "wal placement update out of range" })? = worker;
        }
        if let Some(assignment) = &self.label_assignment {
            state.label_assignment = Some(assignment.clone());
        }
        if self.report.window as usize != state.windows.len() {
            return Err(CorruptError { context: "wal window out of sequence" });
        }
        state.windows.push(WindowReport::from_parts(self.report.clone()));
        Ok(())
    }

    /// Encodes the record payload (without framing).
    fn encode_payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_varint(u64::from(self.window));
        w.put_varint(u64::from(self.k));
        match &self.event {
            StreamEvent::Delta(delta) => {
                w.put_u8(0);
                w.put_varint(u64::from(delta.new_vertices));
                put_edges(&mut w, &delta.added_edges);
                put_edges(&mut w, &delta.removed_edges);
            }
            StreamEvent::Resize { k } => {
                w.put_u8(1);
                w.put_varint(u64::from(*k));
            }
            StreamEvent::WorkerLoss { worker } => {
                w.put_u8(2);
                w.put_varint(u64::from(*worker));
            }
        }
        put_updates(&mut w, &self.label_updates, |&l| u64::from(l));
        put_updates(&mut w, &self.placement_updates, |&p| u64::from(p));
        match &self.label_assignment {
            None => w.put_u8(0),
            Some(assignment) => {
                w.put_u8(1);
                w.put_varint(assignment.len() as u64);
                for &a in assignment {
                    w.put_varint(u64::from(a));
                }
            }
        }
        put_report(&mut w, &self.report);
        w.into_bytes()
    }

    /// Frames the record for appending: `[varint len][payload][crc32]`.
    pub fn encode_framed(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut framed = ByteWriter::new();
        framed.put_varint(payload.len() as u64);
        let mut out = framed.into_bytes();
        out.reserve(payload.len() + 4);
        let crc = crc32(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode_payload(payload: &[u8]) -> Result<Self> {
        let u32_of = |raw: u64, context: &'static str| {
            u32::try_from(raw).map_err(|_| CorruptError { context })
        };
        let mut r = ByteReader::new(payload);
        let window = u32_of(r.varint("wal window")?, "wal window")?;
        let k = u32_of(r.varint("wal k")?, "wal k")?;
        let event = match r.u8("wal event tag")? {
            0 => {
                let new_vertices = u32_of(r.varint("wal new_vertices")?, "wal new_vertices")?;
                let added_edges = read_edges(&mut r)?;
                let removed_edges = read_edges(&mut r)?;
                StreamEvent::Delta(GraphDelta { added_edges, removed_edges, new_vertices })
            }
            1 => StreamEvent::Resize { k: u32_of(r.varint("wal resize k")?, "wal resize k")? },
            2 => StreamEvent::WorkerLoss {
                worker: u16::try_from(r.varint("wal lost worker")?)
                    .map_err(|_| CorruptError { context: "wal lost worker" })?,
            },
            _ => return Err(CorruptError { context: "wal event tag" }),
        };
        let label_updates = read_updates(&mut r, |raw| Ok(raw as u32))?;
        let placement_updates = read_updates(&mut r, |raw| {
            u16::try_from(raw).map_err(|_| CorruptError { context: "wal worker id" })
        })?;
        let label_assignment = match r.u8("wal assignment tag")? {
            0 => None,
            1 => {
                let len = r.varint("wal assignment len")?;
                let mut assignment = Vec::with_capacity(len.min(1 << 24) as usize);
                for _ in 0..len {
                    assignment.push(
                        u16::try_from(r.varint("wal assignment entry")?)
                            .map_err(|_| CorruptError { context: "wal worker id" })?,
                    );
                }
                Some(assignment)
            }
            _ => return Err(CorruptError { context: "wal assignment tag" }),
        };
        let report = read_report(&mut r)?;
        if !r.is_exhausted() {
            return Err(CorruptError { context: "wal trailing bytes" });
        }
        Ok(Self {
            window,
            k,
            event,
            label_updates,
            placement_updates,
            label_assignment,
            report,
        })
    }
}

/// The outcome of scanning a write-ahead log.
#[derive(Debug)]
pub struct WalScan {
    /// Every whole, checksum-clean record, in order.
    pub records: Vec<WalRecord>,
    /// Bytes covered by those records — the offset a writer should truncate
    /// to before appending (anything past it is a torn tail from a crash).
    pub clean_bytes: u64,
    /// True when trailing bytes had to be discarded.
    pub truncated_tail: bool,
    /// How many trailing bytes were discarded (0 on a clean scan). Lets an
    /// operator distinguish a clean resume from one that lost a tail, and
    /// size what it lost.
    pub truncated_bytes: u64,
}

/// Scans `bytes` as a write-ahead log, tolerating a torn tail: a final
/// record that is incomplete or fails its checksum ends the scan instead of
/// erroring (that is exactly the kill-mid-append case the log exists for).
pub fn read_wal(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut clean: usize = 0;
    loop {
        let rest = &bytes[clean..];
        if rest.is_empty() {
            return WalScan {
                records,
                clean_bytes: clean as u64,
                truncated_tail: false,
                truncated_bytes: 0,
            };
        }
        let mut r = ByteReader::new(rest);
        let whole = (|| -> Result<(WalRecord, usize)> {
            let len = r.varint("wal frame length")? as usize;
            let header = r.position();
            let end = header
                .checked_add(len)
                .and_then(|e| e.checked_add(4))
                .ok_or(CorruptError { context: "wal frame length" })?;
            if end > rest.len() {
                return Err(CorruptError { context: "wal frame body" });
            }
            let payload = &rest[header..header + len];
            let stored =
                u32::from_le_bytes(rest[header + len..end].try_into().expect("4 bytes"));
            if crc32(payload) != stored {
                return Err(CorruptError { context: "wal frame checksum" });
            }
            Ok((WalRecord::decode_payload(payload)?, end))
        })();
        match whole {
            Ok((record, consumed)) => {
                records.push(record);
                clean += consumed;
            }
            Err(_) => {
                return WalScan {
                    records,
                    clean_bytes: clean as u64,
                    truncated_tail: true,
                    truncated_bytes: (bytes.len() - clean) as u64,
                };
            }
        }
    }
}

fn put_edges(w: &mut ByteWriter, edges: &[(VertexId, VertexId)]) {
    w.put_varint(edges.len() as u64);
    for &(src, dst) in edges {
        w.put_varint(u64::from(src));
        w.put_varint(u64::from(dst));
    }
}

fn read_edges(r: &mut ByteReader<'_>) -> Result<Vec<(VertexId, VertexId)>> {
    let len = r.varint("wal edge count")?;
    let mut edges = Vec::with_capacity(len.min(1 << 24) as usize);
    for _ in 0..len {
        let src = r.varint("wal edge src")? as VertexId;
        let dst = r.varint("wal edge dst")? as VertexId;
        edges.push((src, dst));
    }
    Ok(edges)
}

fn put_updates<T>(w: &mut ByteWriter, updates: &[(VertexId, T)], value: impl Fn(&T) -> u64) {
    w.put_varint(updates.len() as u64);
    let mut prev = 0u64;
    for (v, item) in updates {
        w.put_varint(u64::from(*v) - prev);
        prev = u64::from(*v);
        w.put_varint(value(item));
    }
}

fn read_updates<T>(
    r: &mut ByteReader<'_>,
    value: impl Fn(u64) -> Result<T>,
) -> Result<Vec<(VertexId, T)>> {
    let len = r.varint("wal update count")?;
    let mut updates = Vec::with_capacity(len.min(1 << 24) as usize);
    let mut prev = 0u64;
    for _ in 0..len {
        prev += r.varint("wal update vertex")?;
        let v =
            u32::try_from(prev).map_err(|_| CorruptError { context: "wal update vertex" })?;
        updates.push((v, value(r.varint("wal update value")?)?));
    }
    Ok(updates)
}

/// The sorted `(index, new_value)` pairs where `after` differs from
/// `before` (including every appended index).
fn diff_values<T: Copy + PartialEq>(before: &[T], after: &[T]) -> Vec<(VertexId, T)> {
    let mut updates = Vec::new();
    for (i, &value) in after.iter().enumerate() {
        if before.get(i) != Some(&value) {
            updates.push((i as VertexId, value));
        }
    }
    updates
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_core::{SpinnerConfig, StreamSession};
    use spinner_graph::generators::{planted_partition, SbmConfig};

    fn record() -> WalRecord {
        let graph = planted_partition(SbmConfig {
            n: 300,
            communities: 3,
            internal_degree: 6.0,
            external_degree: 1.0,
            skew: None,
            seed: 3,
        });
        let mut cfg = SpinnerConfig::new(3).with_seed(9);
        cfg.num_workers = 3;
        cfg.max_iterations = 30;
        let mut session = StreamSession::new(graph, cfg);
        let before = session.state();
        let event = StreamEvent::Delta(GraphDelta {
            added_edges: vec![(0, 150)],
            ..Default::default()
        });
        session.apply(event.clone());
        WalRecord::diff(&before, &session.state(), event)
    }

    #[test]
    fn record_round_trips_through_framing() {
        let record = record();
        let framed = record.encode_framed();
        let scan = read_wal(&framed);
        assert!(!scan.truncated_tail);
        assert_eq!(scan.clean_bytes, framed.len() as u64);
        assert_eq!(scan.records, vec![record]);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let record = record();
        let mut bytes = record.encode_framed();
        let whole = bytes.len();
        bytes.extend_from_slice(&record.encode_framed()[..10]); // killed mid-append
        let scan = read_wal(&bytes);
        assert!(scan.truncated_tail);
        assert_eq!(scan.clean_bytes, whole as u64);
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn corrupt_record_ends_the_scan() {
        let record = record();
        let mut bytes = record.encode_framed();
        let len = bytes.len();
        bytes.extend_from_slice(&record.encode_framed());
        bytes[len + 8] ^= 0x40; // flip a bit inside the second record
        let scan = read_wal(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert!(scan.truncated_tail);
    }

    #[test]
    fn diff_and_apply_reconstruct_state() {
        let graph = planted_partition(SbmConfig {
            n: 500,
            communities: 4,
            internal_degree: 6.0,
            external_degree: 1.2,
            skew: None,
            seed: 21,
        });
        let mut cfg = SpinnerConfig::new(4).with_seed(2).with_placement_feedback(0.6);
        cfg.num_workers = 4;
        cfg.max_iterations = 40;
        let mut session = StreamSession::new(graph, cfg);
        let mut replayed = session.state();
        for (i, event) in [
            StreamEvent::Delta(GraphDelta {
                added_edges: vec![(1, 250), (3, 400)],
                new_vertices: 5,
                ..Default::default()
            }),
            StreamEvent::Resize { k: 6 },
            StreamEvent::Delta(GraphDelta {
                removed_edges: vec![(1, 250)],
                ..Default::default()
            }),
        ]
        .into_iter()
        .enumerate()
        {
            let before = session.state();
            session.apply(event.clone());
            let record = WalRecord::diff(&before, &session.state(), event);
            record.apply_to(&mut replayed).expect("replay");
            let live = session.state();
            assert_eq!(replayed.labels, live.labels, "window {i} labels diverge");
            assert_eq!(replayed.placement, live.placement, "window {i} placement diverges");
            assert_eq!(replayed.label_assignment, live.label_assignment);
            assert_eq!(replayed.windows, live.windows);
            assert_eq!(replayed.cfg.k, live.cfg.k);
        }
    }
}
