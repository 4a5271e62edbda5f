//! Dynamic-graph support: deltas and realistic new-edge sampling.
//!
//! §V-C of the paper takes a Tuenti snapshot, adds "a varying number of edges
//! that correspond to actual new friendships", and measures how cheaply
//! Spinner adapts the previous partitioning. We cannot replay Tuenti's
//! friendship log, so [`sample_new_edges`] generates new friendships with the
//! canonical social-network mechanism: most new edges close open triangles
//! (friend-of-friend), the rest connect random pairs.

use crate::directed::DirectedGraph;
use crate::ids::{edge_key, unpack_edge_key, VertexId};
use crate::rng::SplitMix64;

/// A batch of changes to apply to a directed graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Directed edges to add.
    pub added_edges: Vec<(VertexId, VertexId)>,
    /// Directed edges to remove (ignored if absent).
    pub removed_edges: Vec<(VertexId, VertexId)>,
    /// Number of brand-new vertices appended after the current id range.
    pub new_vertices: VertexId,
}

impl GraphDelta {
    /// A delta that only adds edges.
    pub fn additions(edges: Vec<(VertexId, VertexId)>) -> Self {
        Self { added_edges: edges, ..Self::default() }
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.added_edges.is_empty() && self.removed_edges.is_empty() && self.new_vertices == 0
    }

    /// The delta that undoes this one relative to `base`: applying `self` to
    /// `base` and then the inverse to the result yields `base` again.
    ///
    /// Normalisation happens against `base` because [`apply_delta`] is not
    /// injective on deltas — removing an absent edge or re-adding a removed
    /// one is a no-op, so a naive swap of the add/remove lists would not
    /// round-trip. The inverse removes exactly the additions that were
    /// genuinely new (`added \ E(base)`) and restores exactly the removals
    /// that genuinely existed and were not re-added (`removed ∩ E(base) \
    /// added`).
    ///
    /// Vertex additions are not invertible (ids are dense and stable, so a
    /// graph never loses vertices); inverting a delta with `new_vertices > 0`
    /// — or with added edges whose endpoints lie outside `base`'s id range,
    /// which mint vertices implicitly through [`apply_delta`] — panics.
    pub fn inverse(&self, base: &DirectedGraph) -> GraphDelta {
        assert_eq!(self.new_vertices, 0, "vertex additions cannot be inverted");
        let n = base.num_vertices();
        assert!(
            self.added_edges.iter().all(|&(u, v)| u < n && v < n),
            "added edges outside the base id range mint vertices and cannot be inverted"
        );
        let mut undo_add: Vec<(VertexId, VertexId)> = self
            .added_edges
            .iter()
            .copied()
            .filter(|&(u, v)| u != v && !base.has_edge(u, v))
            .collect();
        undo_add.sort_unstable();
        undo_add.dedup();
        // Removals of out-of-range (hence absent) edges are no-ops under
        // apply_delta, so they contribute nothing to the inverse. The added
        // set is indexed once so large churn deltas invert in linear time.
        let added: std::collections::HashSet<u64> =
            self.added_edges.iter().map(|&(u, v)| edge_key(u, v)).collect();
        let mut undo_remove: Vec<(VertexId, VertexId)> = self
            .removed_edges
            .iter()
            .copied()
            .filter(|&(u, v)| u < n && base.has_edge(u, v) && !added.contains(&edge_key(u, v)))
            .collect();
        undo_remove.sort_unstable();
        undo_remove.dedup();
        GraphDelta { added_edges: undo_remove, removed_edges: undo_add, new_vertices: 0 }
    }
}

/// Applies a delta, producing the updated graph. The edge set becomes
/// `(E \ removed) ∪ added`: an edge both added and removed survives, and
/// added self-loops are dropped. The vertex range grows by `new_vertices`,
/// then further to fit every added endpoint, exactly as
/// [`crate::GraphBuilder`] would.
///
/// Cost is one pass over the CSR rows: untouched rows are copied verbatim
/// and each touched row is merged with its sorted edits, so a window costs
/// `O(V + E)` copying plus `O(Δ log Δ)` for sorting the delta — no sort of
/// the edge set.
pub fn apply_delta(g: &DirectedGraph, delta: &GraphDelta) -> DirectedGraph {
    let added = sorted_keys(delta.added_edges.iter().filter(|&&(u, v)| u != v));
    let removed = sorted_keys(delta.removed_edges.iter());
    let n = added
        .iter()
        .map(|&key| {
            let (u, v) = unpack_edge_key(key);
            u.max(v) + 1
        })
        .fold(g.num_vertices() + delta.new_vertices, VertexId::max);
    let (offsets, targets) = g.as_csr();
    let (offsets, targets) = patch_csr(offsets, targets, n as usize, &added, &removed);
    DirectedGraph::from_csr(offsets, targets)
}

/// The [`edge_key`]s of `edges`, sorted and deduplicated.
fn sorted_keys<'a>(edges: impl Iterator<Item = &'a (VertexId, VertexId)>) -> Vec<u64> {
    let mut keys: Vec<u64> = edges.map(|&(u, v)| edge_key(u, v)).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Rewrites CSR adjacency rows into `n` rows (`n` at least the old row
/// count; rows past the old range start empty). Row `v` of the result is
/// row `v` without the deletes of source `v`, plus the inserts of source
/// `v`. `inserts` and `deletes` are sorted, deduplicated [`edge_key`]s;
/// every insert's source must be below `n`, and deletes naming no edge are
/// ignored. Each maximal run of untouched rows is copied with one slice
/// copy and a constant offset shift.
pub(crate) fn patch_csr(
    offsets: &[u64],
    targets: &[VertexId],
    n: usize,
    inserts: &[u64],
    deletes: &[u64],
) -> (Vec<u64>, Vec<VertexId>) {
    let old_n = offsets.len() - 1;
    debug_assert!(n >= old_n, "patch_csr never drops rows");
    let mut new_offsets = Vec::with_capacity(n + 1);
    new_offsets.push(0u64);
    let mut new_targets = Vec::with_capacity(targets.len() + inserts.len());
    let (mut inserts, mut deletes) = (inserts, deletes);
    let mut v = 0;
    loop {
        let next = [inserts.first(), deletes.first()]
            .into_iter()
            .flatten()
            .map(|&key| unpack_edge_key(key).0 as usize)
            .fold(n, usize::min);
        // Rows v..next are untouched; those below old_n are copied in bulk.
        let hi = next.min(old_n).max(v);
        if v < hi {
            let (lo, start) = (offsets[v], new_targets.len() as u64);
            new_targets.extend_from_slice(&targets[lo as usize..offsets[hi] as usize]);
            new_offsets.extend(offsets[v + 1..=hi].iter().map(|&o| o - lo + start));
        }
        new_offsets.resize(next + 1, new_targets.len() as u64);
        if next == n {
            return (new_offsets, new_targets);
        }
        let row = if next < old_n {
            &targets[offsets[next] as usize..offsets[next + 1] as usize]
        } else {
            &[]
        };
        let row_inserts = take_row(&mut inserts, next);
        let row_deletes = take_row(&mut deletes, next);
        merge_row(row, row_inserts, row_deletes, &mut new_targets);
        new_offsets.push(new_targets.len() as u64);
        v = next + 1;
    }
}

/// Splits off the leading keys of `keys` whose source is `v`.
fn take_row<'a>(keys: &mut &'a [u64], v: usize) -> &'a [u64] {
    let len = keys.partition_point(|&key| unpack_edge_key(key).0 as usize == v);
    let (row, rest) = keys.split_at(len);
    *keys = rest;
    row
}

/// Appends `(row \ deletes) ∪ inserts` to `out` in ascending order. The
/// edits are keys of one source, so their low halves are sorted targets.
fn merge_row(row: &[VertexId], inserts: &[u64], deletes: &[u64], out: &mut Vec<VertexId>) {
    let mut inserts = inserts.iter().map(|&key| key as VertexId).peekable();
    let mut deletes = deletes.iter().map(|&key| key as VertexId).peekable();
    for &t in row {
        while let Some(a) = inserts.next_if(|&a| a < t) {
            out.push(a);
        }
        let reinserted = inserts.next_if_eq(&t).is_some();
        while deletes.next_if(|&d| d < t).is_some() {}
        let deleted = deletes.next_if_eq(&t).is_some();
        if reinserted || !deleted {
            out.push(t);
        }
    }
    out.extend(inserts);
}

/// Samples `count` plausible new friendship edges not present in `g`.
///
/// With probability `triadic_fraction` an edge closes an open triangle
/// (a random two-hop path from a random endpoint); otherwise it joins a
/// uniformly random pair. All sampled edges are distinct and absent from `g`.
pub fn sample_new_edges(
    g: &DirectedGraph,
    count: usize,
    triadic_fraction: f64,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let n = g.num_vertices() as u64;
    assert!(n >= 2, "need at least two vertices");
    let mut rng = SplitMix64::new(seed);
    let mut out: Vec<(VertexId, VertexId)> = Vec::with_capacity(count);
    let mut seen: std::collections::HashSet<u64> =
        std::collections::HashSet::with_capacity(count * 2);
    let mut attempts = 0usize;
    let max_attempts = count.saturating_mul(100).max(10_000);
    while out.len() < count && attempts < max_attempts {
        attempts += 1;
        let candidate = if rng.next_bool(triadic_fraction) {
            triadic_candidate(g, &mut rng)
        } else {
            let u = rng.next_bounded(n) as VertexId;
            let v = rng.next_bounded(n) as VertexId;
            Some((u, v))
        };
        let Some((u, v)) = candidate else {
            continue;
        };
        if u == v || g.has_edge(u, v) {
            continue;
        }
        let key = edge_key(u, v);
        if seen.insert(key) {
            out.push((u, v));
        }
    }
    out
}

/// Samples up to `count` distinct existing edges to delete (friendships that
/// end). Uniform over the edge set: an edge index is drawn and located in the
/// CSR offsets by binary search, so each draw is O(log n) regardless of the
/// degree distribution.
pub fn sample_removed_edges(
    g: &DirectedGraph,
    count: usize,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let m = g.num_edges();
    if m == 0 {
        return Vec::new();
    }
    let (offsets, targets) = g.as_csr();
    let mut rng = SplitMix64::new(seed ^ 0xDE1E7E);
    let mut picked: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut out = Vec::new();
    let want = count.min(m as usize);
    let mut attempts = 0usize;
    let max_attempts = want.saturating_mul(64).max(4_096);
    while out.len() < want && attempts < max_attempts {
        attempts += 1;
        let e = rng.next_bounded(m);
        if !picked.insert(e) {
            continue;
        }
        // `partition_point` finds the first offset beyond e; its predecessor
        // is the source vertex owning CSR slot e.
        let src = offsets.partition_point(|&o| o <= e) - 1;
        out.push((src as VertexId, targets[e as usize]));
    }
    out
}

/// One friend-of-friend candidate: follow two random out-hops from a random
/// start vertex.
fn triadic_candidate(g: &DirectedGraph, rng: &mut SplitMix64) -> Option<(VertexId, VertexId)> {
    let n = g.num_vertices() as u64;
    let u = rng.next_bounded(n) as VertexId;
    let nu = g.out_neighbors(u);
    if nu.is_empty() {
        return None;
    }
    let w = nu[rng.next_bounded(nu.len() as u64) as usize];
    let nw = g.out_neighbors(w);
    if nw.is_empty() {
        return None;
    }
    let v = nw[rng.next_bounded(nw.len() as u64) as usize];
    Some((u, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{planted_partition, SbmConfig};

    fn graph() -> DirectedGraph {
        planted_partition(SbmConfig {
            n: 2000,
            communities: 8,
            internal_degree: 6.0,
            external_degree: 1.0,
            skew: None,
            seed: 3,
        })
    }

    #[test]
    fn apply_delta_adds_and_removes() {
        let g = GraphBuilder::new(3).add_edges([(0, 1), (1, 2)]).build();
        let d = GraphDelta {
            added_edges: vec![(2, 0)],
            removed_edges: vec![(0, 1)],
            new_vertices: 1,
        };
        let g2 = apply_delta(&g, &d);
        assert_eq!(g2.num_vertices(), 4);
        assert!(g2.has_edge(2, 0));
        assert!(!g2.has_edge(0, 1));
        assert!(g2.has_edge(1, 2));
    }

    #[test]
    fn sampled_edges_are_new_and_distinct() {
        let g = graph();
        let edges = sample_new_edges(&g, 500, 0.8, 9);
        assert_eq!(edges.len(), 500);
        let mut keys: Vec<_> = edges.iter().map(|&(u, v)| edge_key(u, v)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 500);
        for (u, v) in edges {
            assert!(!g.has_edge(u, v));
            assert_ne!(u, v);
        }
    }

    #[test]
    fn triadic_edges_tend_to_stay_in_communities() {
        let g = graph();
        let n = g.num_vertices() as u64;
        let triadic = sample_new_edges(&g, 400, 1.0, 5);
        let random = sample_new_edges(&g, 400, 0.0, 5);
        let in_comm = |edges: &[(VertexId, VertexId)]| {
            edges.iter().filter(|&&(u, v)| u as u64 * 8 / n == v as u64 * 8 / n).count() as f64
                / edges.len() as f64
        };
        assert!(
            in_comm(&triadic) > in_comm(&random) + 0.2,
            "triadic {} vs random {}",
            in_comm(&triadic),
            in_comm(&random)
        );
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = graph();
        let g2 = apply_delta(&g, &GraphDelta::default());
        assert_eq!(g, g2);
    }

    #[test]
    fn inverse_round_trips_edge_deltas() {
        let g = graph();
        let delta = GraphDelta {
            added_edges: sample_new_edges(&g, 120, 0.7, 11),
            removed_edges: sample_removed_edges(&g, 80, 13),
            new_vertices: 0,
        };
        let g2 = apply_delta(&g, &delta);
        let back = apply_delta(&g2, &delta.inverse(&g));
        assert_eq!(g, back);
    }

    #[test]
    fn inverse_handles_noop_removals_and_readds() {
        let g = GraphBuilder::new(4).add_edges([(0, 1), (1, 2), (2, 3)]).build();
        // (3, 0) is absent => its removal is a no-op; (1, 2) is removed and
        // re-added => survives; (0, 1) is a genuine removal.
        let delta = GraphDelta {
            added_edges: vec![(1, 2), (0, 2)],
            removed_edges: vec![(3, 0), (1, 2), (0, 1)],
            new_vertices: 0,
        };
        let g2 = apply_delta(&g, &delta);
        assert!(g2.has_edge(1, 2) && g2.has_edge(0, 2) && !g2.has_edge(0, 1));
        let inv = delta.inverse(&g);
        assert_eq!(inv.removed_edges, vec![(0, 2)]);
        assert_eq!(inv.added_edges, vec![(0, 1)]);
        assert_eq!(apply_delta(&g2, &inv), g);
    }

    #[test]
    #[should_panic(expected = "cannot be inverted")]
    fn inverse_rejects_vertex_additions() {
        let g = graph();
        let _ = GraphDelta { new_vertices: 1, ..GraphDelta::default() }.inverse(&g);
    }

    #[test]
    #[should_panic(expected = "mint vertices")]
    fn inverse_rejects_out_of_range_additions() {
        let g = GraphBuilder::new(3).add_edges([(0, 1)]).build();
        // apply_delta would silently grow the graph to 6 vertices here.
        let _ = GraphDelta::additions(vec![(5, 0)]).inverse(&g);
    }

    #[test]
    fn inverse_ignores_out_of_range_removals() {
        let g = GraphBuilder::new(3).add_edges([(0, 1), (1, 2)]).build();
        let delta = GraphDelta {
            added_edges: vec![],
            removed_edges: vec![(7, 0), (0, 9), (0, 1)],
            new_vertices: 0,
        };
        let g2 = apply_delta(&g, &delta);
        let inv = delta.inverse(&g);
        assert_eq!(inv.added_edges, vec![(0, 1)]);
        assert_eq!(apply_delta(&g2, &inv), g);
    }

    #[test]
    fn removed_edge_sampler_yields_distinct_existing_edges() {
        let g = graph();
        let removed = sample_removed_edges(&g, 300, 7);
        assert_eq!(removed.len(), 300);
        let mut keys: Vec<_> = removed.iter().map(|&(u, v)| edge_key(u, v)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 300, "duplicate removals sampled");
        for (u, v) in removed {
            assert!(g.has_edge(u, v), "sampled a non-edge {u}->{v}");
        }
    }

    #[test]
    fn removed_edge_sampler_caps_at_edge_count() {
        let g = GraphBuilder::new(3).add_edges([(0, 1), (1, 2)]).build();
        let removed = sample_removed_edges(&g, 100, 1);
        assert_eq!(removed.len(), 2);
        let empty = GraphBuilder::new(2).build();
        assert!(sample_removed_edges(&empty, 5, 1).is_empty());
    }
}
