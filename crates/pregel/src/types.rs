//! Shared type bounds and identifiers.

use spinner_graph::VertexId;

/// Identifier of a logical worker (a "machine" in Giraph terms).
pub type WorkerId = u16;

/// One batch of message records bound for one worker: the records in send
/// order plus `marks`, which flags the **broadcast** records among them. A
/// marked record's id is the *sending* vertex, which the receiving worker
/// fans out to every local vertex in the sender's adjacency; an unmarked
/// record's id is its destination. Carrying the flag beside the records
/// instead of inside the id keeps broadcast and unicast records
/// interleaved in one buffer (which is what preserves per-vertex delivery
/// order) with the full id range available — the same split the wire's
/// section headers make.
///
/// `marks` is a bitset over record positions (bit `i % 64` of word
/// `i / 64` flags record `i`), so flagging costs one bit per record rather
/// than a stored position per broadcast; words exist only up to the last
/// broadcast record, so a unicast-only batch leaves it empty.
///
/// Used for each per-destination outbox, the worker-local fast-path queue,
/// and each [`OutboxGrid`] cell. Clearing keeps both capacities.
pub struct Batch<M> {
    pub(crate) records: Vec<(VertexId, M)>,
    pub(crate) marks: Vec<u64>,
}

impl<M> Default for Batch<M> {
    fn default() -> Self {
        Self { records: Vec::new(), marks: Vec::new() }
    }
}

/// Whether `marks` flags record `pos` as a broadcast.
#[inline]
pub(crate) fn is_marked(marks: &[u64], pos: usize) -> bool {
    marks.get(pos / 64).is_some_and(|w| w >> (pos % 64) & 1 != 0)
}

impl<M> Batch<M> {
    /// Appends a unicast record addressed to `target`.
    #[inline]
    pub(crate) fn push(&mut self, target: VertexId, msg: M) {
        self.records.push((target, msg));
    }

    /// Appends a broadcast record from `sender`, marking its position.
    #[inline]
    pub(crate) fn push_broadcast(&mut self, sender: VertexId, msg: M) {
        let pos = self.records.len();
        if pos / 64 >= self.marks.len() {
            self.marks.resize(pos / 64 + 1, 0);
        }
        if let Some(word) = self.marks.last_mut() {
            *word |= 1 << (pos % 64);
        }
        self.records.push((sender, msg));
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Empties the batch in send order, calling `f(broadcast, id, msg)` for
    /// each record; both buffers keep their capacity.
    #[inline]
    pub(crate) fn drain(&mut self, mut f: impl FnMut(bool, VertexId, M)) {
        let mut words = self.marks.iter();
        let mut word = 0u64;
        for (pos, (id, msg)) in self.records.drain(..).enumerate() {
            if pos % 64 == 0 {
                word = words.next().copied().unwrap_or(0);
            }
            f(word & 1 != 0, id, msg);
            word >>= 1;
        }
        self.marks.clear();
    }
}

/// The all-to-all message exchange: a dense `W × W` matrix of [`Batch`]
/// cells, indexed `src * W + dst`. Cell `(i, j)` is published (swapped in)
/// by worker `i` at the end of its compute phase and drained by worker `j`
/// during its delivery phase; the two phases are separated by the superstep
/// barrier, so every lock is uncontended. Draining leaves the buffers empty
/// but keeps their capacity, and the publish swap hands that capacity back
/// to the sender — a double buffer per cell, so the steady state allocates
/// nothing.
pub type OutboxGrid<M> = Vec<std::sync::Mutex<Batch<M>>>;

/// Sentinel in a broadcast plan's `single` track: the sender has more than
/// one neighbour on that destination worker, so a marked broadcast record
/// is shipped. Any other value is the lone neighbour's id, shipped as a
/// plain unicast record — one record either way, but the unicast skips the
/// receiver's fan-out lookup. (A lone neighbour whose id *is* the sentinel
/// ships as a broadcast record, which fans out to that same one vertex.)
pub(crate) const BROADCAST_MULTI: VertexId = VertexId::MAX;

/// Bound for all user data carried by the engine (vertex values, edge
/// values, messages, global state). Auto-implemented.
pub trait Value: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Value for T {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_value<T: Value>() {}

    #[test]
    fn common_types_are_values() {
        assert_value::<u64>();
        assert_value::<f64>();
        assert_value::<(u32, u32)>();
        assert_value::<Vec<i64>>();
        assert_value::<()>();
    }
}
