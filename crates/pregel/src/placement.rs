//! Vertex-to-worker placement.
//!
//! Giraph assigns vertices to workers with hash partitioning by default;
//! the whole point of Spinner is to replace that mapping with the computed
//! labels (paper §V-F: "we plug a hash function that uses only the l_j field
//! of the pair"). Placement here is an explicit map so both options (and a
//! contiguous-range option for tests) are available.

use crate::types::WorkerId;
use spinner_graph::rng::mix3;
use spinner_graph::VertexId;

/// An explicit vertex → logical-worker assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    worker_of: Vec<WorkerId>,
    num_workers: usize,
}

impl Placement {
    /// Hash placement: `worker(v) = hash(v) mod L`. Mirrors Giraph's default
    /// hash partitioning (a seeded mix avoids accidental alignment with
    /// generator id ranges, like Java object hash codes do).
    pub fn hashed(num_vertices: VertexId, num_workers: usize, seed: u64) -> Self {
        assert!(num_workers > 0 && num_workers <= WorkerId::MAX as usize + 1);
        let worker_of = (0..num_vertices)
            .map(|v| (mix3(seed, v as u64, 0x9A57) % num_workers as u64) as WorkerId)
            .collect();
        Self { worker_of, num_workers }
    }

    /// Modulo placement: `worker(v) = v mod L` (round-robin).
    pub fn modulo(num_vertices: VertexId, num_workers: usize) -> Self {
        assert!(num_workers > 0 && num_workers <= WorkerId::MAX as usize + 1);
        let worker_of =
            (0..num_vertices).map(|v| (v as usize % num_workers) as WorkerId).collect();
        Self { worker_of, num_workers }
    }

    /// Contiguous ranges: vertex ids split into `L` equal chunks. Useful in
    /// tests because community-structured generators emit contiguous
    /// communities.
    pub fn contiguous(num_vertices: VertexId, num_workers: usize) -> Self {
        assert!(num_workers > 0 && num_workers <= WorkerId::MAX as usize + 1);
        let n = num_vertices as u64;
        let l = num_workers as u64;
        let worker_of = (0..n).map(|v| ((v * l) / n.max(1)) as WorkerId).collect();
        Self { worker_of, num_workers }
    }

    /// Balance-aware label placement: labels are packed onto workers with a
    /// greedy longest-processing-time heuristic (largest label first, onto
    /// the currently least-loaded worker) instead of the paper's §V-F hash
    /// `worker(v) = l(v) mod L`, whose modulo wrap can pile several large
    /// labels onto one worker when `k > num_workers`; worker loads stay
    /// within the packing bound for any `k`. Vertices with the same label still land on the
    /// same worker. Fully deterministic: equal vertex counts break ties on
    /// the smaller label, equal worker loads on the smaller worker id.
    pub fn from_labels_balanced(labels: &[u32], num_workers: usize) -> Self {
        let assignment = Self::balanced_label_assignment(labels, num_workers);
        Self::from_label_assignment(labels, &assignment, num_workers)
    }

    /// The greedy label → worker packing behind
    /// [`Self::from_labels_balanced`], exposed so callers that must extend a
    /// placement to new vertices later (e.g. a streaming session whose
    /// deltas append vertices) can keep the map and reapply it with
    /// [`Self::from_label_assignment`]. `assignment[l]` is the worker
    /// hosting label `l`, for every label value occurring in `labels`.
    pub fn balanced_label_assignment(labels: &[u32], num_workers: usize) -> Vec<WorkerId> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        assert!(num_workers > 0 && num_workers <= WorkerId::MAX as usize + 1);
        let k = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
        let mut counts = vec![0u64; k];
        for &l in labels {
            counts[l as usize] += 1;
        }
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&l| (Reverse(counts[l]), l));
        let mut loads: BinaryHeap<Reverse<(u64, WorkerId)>> =
            (0..num_workers).map(|w| Reverse((0u64, w as WorkerId))).collect();
        let mut assignment = vec![0 as WorkerId; k];
        for l in order {
            let Reverse((load, w)) = loads.pop().expect("num_workers >= 1");
            assignment[l] = w;
            loads.push(Reverse((load + counts[l], w)));
        }
        assignment
    }

    /// Placement from an explicit per-vertex worker vector — the inverse of
    /// [`Self::as_slice`], used to rehost an engine on a placement restored
    /// from a serialized snapshot (see `spinner_serving`). Panics if any
    /// entry names a worker outside `0..num_workers`.
    pub fn explicit(worker_of: Vec<WorkerId>, num_workers: usize) -> Self {
        assert!(num_workers > 0 && num_workers <= WorkerId::MAX as usize + 1);
        assert!(
            worker_of.iter().all(|&w| (w as usize) < num_workers),
            "worker id out of range"
        );
        Self { worker_of, num_workers }
    }

    /// Placement from an explicit label → worker `assignment` (as produced
    /// by [`Self::balanced_label_assignment`]). Labels beyond the
    /// assignment's range — e.g. partitions added by an elastic resize after
    /// the assignment was computed — fall back to the modulo wrap.
    pub fn from_label_assignment(
        labels: &[u32],
        assignment: &[WorkerId],
        num_workers: usize,
    ) -> Self {
        assert!(num_workers > 0 && num_workers <= WorkerId::MAX as usize + 1);
        debug_assert!(assignment.iter().all(|&w| (w as usize) < num_workers));
        let worker_of = labels
            .iter()
            .map(|&l| match assignment.get(l as usize) {
                Some(&w) => w,
                None => (l as usize % num_workers) as WorkerId,
            })
            .collect();
        Self { worker_of, num_workers }
    }

    /// The number of logical workers.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// The worker hosting vertex `v`.
    #[inline]
    pub fn worker_of(&self, v: VertexId) -> WorkerId {
        self.worker_of[v as usize]
    }

    /// The full map as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[WorkerId] {
        &self.worker_of
    }

    /// The number of vertices covered.
    #[inline]
    pub fn num_vertices(&self) -> VertexId {
        self.worker_of.len() as VertexId
    }

    /// Number of vertices per worker (for balance checks).
    pub fn worker_sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.num_workers];
        for &w in &self.worker_of {
            sizes[w as usize] += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashed_is_roughly_balanced() {
        let p = Placement::hashed(100_000, 16, 42);
        let sizes = p.worker_sizes();
        let expect = 100_000 / 16;
        for &s in &sizes {
            assert!((s as i64 - expect as i64).unsigned_abs() < expect / 10);
        }
    }

    #[test]
    fn modulo_and_contiguous_cover_all_workers() {
        for p in [Placement::modulo(100, 7), Placement::contiguous(100, 7)] {
            let sizes = p.worker_sizes();
            assert_eq!(sizes.len(), 7);
            assert!(sizes.iter().all(|&s| s > 0));
            assert_eq!(sizes.iter().sum::<u64>(), 100);
        }
    }

    #[test]
    fn contiguous_is_monotone() {
        let p = Placement::contiguous(10, 3);
        let ws: Vec<_> = (0..10).map(|v| p.worker_of(v)).collect();
        let mut sorted = ws.clone();
        sorted.sort_unstable();
        assert_eq!(ws, sorted);
    }

    #[test]
    fn from_labels_balanced_groups_by_label() {
        let labels = vec![2, 0, 2, 1, 0];
        let p = Placement::from_labels_balanced(&labels, 3);
        assert_eq!(p.worker_of(0), p.worker_of(2));
        assert_eq!(p.worker_of(1), p.worker_of(4));
        assert_ne!(p.worker_of(0), p.worker_of(3));
    }

    /// The hazard of a `label mod L` placement: with k > L the modulo wrap
    /// can stack the heaviest labels on one worker (labels 0 and 2 collide
    /// mod 2, giving worker sizes [100, 10]); the balanced packing keeps the
    /// same-label-same-worker property while spreading the load.
    #[test]
    fn balanced_fixes_modulo_pileup() {
        // Labels 0 and 2 are huge and collide modulo 2; labels 1 and 3 tiny.
        let mut labels = Vec::new();
        labels.extend(std::iter::repeat_n(0u32, 50));
        labels.extend(std::iter::repeat_n(2u32, 50));
        labels.extend(std::iter::repeat_n(1u32, 5));
        labels.extend(std::iter::repeat_n(3u32, 5));
        let balanced = Placement::from_labels_balanced(&labels, 2);
        assert_eq!(balanced.worker_sizes(), vec![55, 55]);
        // Same label still means same worker.
        for (v, &l) in labels.iter().enumerate() {
            let first = labels.iter().position(|&x| x == l).unwrap();
            assert_eq!(balanced.worker_of(v as u32), balanced.worker_of(first as u32));
        }
    }

    #[test]
    fn balanced_assignment_is_deterministic_and_total() {
        let labels: Vec<u32> = (0..1000u32).map(|v| v % 7).collect();
        let a = Placement::balanced_label_assignment(&labels, 3);
        let b = Placement::balanced_label_assignment(&labels, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
        assert!(a.iter().all(|&w| w < 3));
        // With k <= L each label gets its own worker.
        let few = Placement::balanced_label_assignment(&[0, 1, 2], 4);
        let mut sorted = few.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "labels doubled up despite spare workers: {few:?}");
    }

    #[test]
    fn assignment_fallback_covers_new_labels() {
        // Assignment knows labels 0..2; label 5 (added later) wraps.
        let assignment = vec![1 as WorkerId, 0];
        let p = Placement::from_label_assignment(&[0, 1, 5], &assignment, 3);
        assert_eq!(p.worker_of(0), 1);
        assert_eq!(p.worker_of(1), 0);
        assert_eq!(p.worker_of(2), 2);
    }

    #[test]
    fn explicit_round_trips_as_slice() {
        let p = Placement::hashed(100, 5, 9);
        let q = Placement::explicit(p.as_slice().to_vec(), 5);
        assert_eq!(p, q);
    }

    #[test]
    #[should_panic(expected = "worker id out of range")]
    fn explicit_rejects_out_of_range_workers() {
        let _ = Placement::explicit(vec![0, 3], 3);
    }

    #[test]
    fn empty_labels_make_empty_placement() {
        let p = Placement::from_labels_balanced(&[], 4);
        assert_eq!(p.num_vertices(), 0);
        assert_eq!(p.num_workers(), 4);
    }
}
