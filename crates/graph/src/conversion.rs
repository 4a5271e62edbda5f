//! Directed-to-weighted-undirected conversion (paper §III-A, Eq. 3).
//!
//! The naive symmetrisation used by vanilla LPA is agnostic to edge
//! direction, but Pregel applications send messages along *directed* edges.
//! Spinner therefore weights each undirected edge by the number of directed
//! edges between its endpoints:
//!
//! ```text
//! w(u,v) = 1  if (u,v) ∈ D xor (v,u) ∈ D
//! w(u,v) = 2  if (u,v) ∈ D and (v,u) ∈ D
//! ```
//!
//! so that a partitioning score expressed in these weights counts the number
//! of messages exchanged locally.
//!
//! The paper implements this as two Giraph supersteps (NeighborPropagation /
//! NeighborDiscovery); the Pregel crate mirrors those supersteps for
//! fidelity, while this module provides the equivalent offline conversion
//! used by default because it avoids materialising O(E) messages. Both paths
//! are asserted equal in integration tests.
//!
//! For streams, [`patch_undirected_edges`] carries a unit-weight view across
//! a [`GraphDelta`] without re-symmetrising the whole graph.

use crate::directed::DirectedGraph;
use crate::ids::{edge_key, sym_edge_key, unpack_edge_key, EdgeWeight, VertexId};
use crate::mutation::{patch_csr, GraphDelta};
use crate::undirected::UndirectedGraph;

/// Converts a directed graph into the weighted undirected graph of Eq. 3.
pub fn to_weighted_undirected(g: &DirectedGraph) -> UndirectedGraph {
    symmetrise(g, 2)
}

/// Symmetrises a graph *without* weights (every edge weight 1), i.e. the
/// "naive approach" the paper contrasts against in §III-A/Fig. 1. Used by the
/// conversion ablation experiment.
pub fn to_naive_undirected(g: &DirectedGraph) -> UndirectedGraph {
    symmetrise(g, 1)
}

/// Interprets an already-undirected edge list (each edge listed once in an
/// arbitrary direction) as an [`UndirectedGraph`] with unit weights. Used for
/// datasets that are undirected at the source (Tuenti, Friendster).
pub fn from_undirected_edges(g: &DirectedGraph) -> UndirectedGraph {
    to_naive_undirected(g)
}

/// The symmetric CSR of `g`: row `v` is the union of `v`'s out- and
/// in-neighbours, weight 1 on a one-way pair and `reciprocal_weight` when
/// both directions exist.
///
/// A counting-sort transpose visits sources in ascending order, so every
/// in-neighbour run comes out sorted; each row is then one linear merge of
/// two sorted runs. Cost is `O(V + E)` with no sort of the edge set.
fn symmetrise(g: &DirectedGraph, reciprocal_weight: EdgeWeight) -> UndirectedGraph {
    let n = g.num_vertices() as usize;
    let (out_offsets, out_targets) = g.as_csr();

    let mut in_offsets = vec![0u64; n + 1];
    for &t in out_targets {
        in_offsets[t as usize + 1] += 1;
    }
    for i in 0..n {
        in_offsets[i + 1] += in_offsets[i];
    }
    let mut cursor: Vec<u64> = in_offsets[..n].to_vec();
    let mut in_sources = vec![0 as VertexId; out_targets.len()];
    for u in 0..n {
        for &t in &out_targets[out_offsets[u] as usize..out_offsets[u + 1] as usize] {
            in_sources[cursor[t as usize] as usize] = u as VertexId;
            cursor[t as usize] += 1;
        }
    }

    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u64);
    let mut targets = Vec::with_capacity(2 * out_targets.len());
    let mut weights = Vec::with_capacity(2 * out_targets.len());
    for v in 0..n {
        let outs = &out_targets[out_offsets[v] as usize..out_offsets[v + 1] as usize];
        let ins = &in_sources[in_offsets[v] as usize..in_offsets[v + 1] as usize];
        let (mut i, mut j) = (0, 0);
        while i < outs.len() && j < ins.len() {
            let (a, b) = (outs[i], ins[j]);
            let t = a.min(b);
            i += usize::from(a == t);
            j += usize::from(b == t);
            targets.push(t);
            weights.push(if a == b { reciprocal_weight } else { 1 });
        }
        // At most one of the two runs has a tail left.
        for &t in outs[i..].iter().chain(&ins[j..]) {
            targets.push(t);
            weights.push(1);
        }
        offsets.push(targets.len() as u64);
    }
    UndirectedGraph::from_csr(offsets, targets, weights)
}

/// Patches the unit-weight view `old` of a graph after `delta` turned that
/// graph into `new`, returning what [`from_undirected_edges`]`(new)` would.
///
/// Precondition: `old == from_undirected_edges(old_directed)` and
/// `new == apply_delta(old_directed, delta)`. Only the pairs the delta
/// names are re-decided — `{u, v}` is present iff `new` has `u → v` or
/// `v → u` — and the changed ones are merged into both endpoints' rows;
/// every other row is copied. Cost is `O(V + E)` copying plus
/// `O(Δ log Δ)`, with no re-symmetrisation of the edge set.
pub fn patch_undirected_edges(
    old: &UndirectedGraph,
    new: &DirectedGraph,
    delta: &GraphDelta,
) -> UndirectedGraph {
    let n = new.num_vertices();
    let mut pairs: Vec<u64> = delta
        .added_edges
        .iter()
        .chain(&delta.removed_edges)
        .filter(|&&(u, v)| u != v && u.max(v) < n)
        .map(|&(u, v)| sym_edge_key(u, v))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
    for key in pairs {
        // a < b, so b in range means the whole pair is in range.
        let (a, b) = unpack_edge_key(key);
        let was = b < old.num_vertices() && old.edge_weight(a, b).is_some();
        let is = new.has_edge(a, b) || new.has_edge(b, a);
        let edits = match (was, is) {
            (false, true) => &mut inserts,
            (true, false) => &mut deletes,
            _ => continue,
        };
        edits.extend([edge_key(a, b), edge_key(b, a)]);
    }
    inserts.sort_unstable();
    deletes.sort_unstable();
    let (offsets, targets, _) = old.as_csr();
    let (offsets, targets) = patch_csr(offsets, targets, n as usize, &inserts, &deletes);
    let weights = vec![1; targets.len()];
    UndirectedGraph::from_csr(offsets, targets, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// The example of Fig. 1: a directed graph whose reciprocal edges get
    /// weight 2 in the converted graph.
    #[test]
    fn figure_1_conversion() {
        // Vertices 0,1,2 in partitions; edges: 0->1, 1->0, 1->2, 2->1, 0->2.
        let d =
            GraphBuilder::new(3).add_edges([(0, 1), (1, 0), (1, 2), (2, 1), (0, 2)]).build();
        let u = to_weighted_undirected(&d);
        assert_eq!(u.edge_weight(0, 1), Some(2));
        assert_eq!(u.edge_weight(1, 2), Some(2));
        assert_eq!(u.edge_weight(0, 2), Some(1));
        assert_eq!(u.total_weight(), 2 * d.num_edges());
    }

    #[test]
    fn single_direction_edges_get_weight_one() {
        let d = GraphBuilder::new(4).add_edges([(0, 1), (1, 2), (2, 3)]).build();
        let u = to_weighted_undirected(&d);
        for (_, _, w) in u.edges_once() {
            assert_eq!(w, 1);
        }
        assert_eq!(u.num_edges(), 3);
    }

    #[test]
    fn total_weight_equals_twice_directed_edges() {
        let d = GraphBuilder::new(6)
            .add_edges([(0, 1), (1, 0), (2, 3), (3, 4), (4, 3), (5, 0), (0, 5), (1, 5)])
            .build();
        let u = to_weighted_undirected(&d);
        assert_eq!(u.total_weight(), 2 * d.num_edges());
    }

    #[test]
    fn naive_conversion_loses_weights() {
        let d = GraphBuilder::new(2).add_edges([(0, 1), (1, 0)]).build();
        let naive = to_naive_undirected(&d);
        assert_eq!(naive.edge_weight(0, 1), Some(1));
        let weighted = to_weighted_undirected(&d);
        assert_eq!(weighted.edge_weight(0, 1), Some(2));
    }

    #[test]
    fn conversion_of_empty_and_singleton() {
        let e = GraphBuilder::new(0).build();
        assert_eq!(to_weighted_undirected(&e).num_vertices(), 0);
        let s = GraphBuilder::new(1).build();
        let u = to_weighted_undirected(&s);
        assert_eq!(u.num_vertices(), 1);
        assert_eq!(u.num_edges(), 0);
    }
}
