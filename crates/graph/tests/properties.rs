//! Property-based tests for the graph substrate: CSR invariants, the Eq. 3
//! conversion, deltas, and I/O round-trips.

use proptest::prelude::*;
use proptest::sample::Index;
use spinner_graph::conversion::{
    from_undirected_edges, patch_undirected_edges, to_naive_undirected, to_weighted_undirected,
};
use spinner_graph::mutation::{apply_delta, sample_new_edges, sample_removed_edges};
use spinner_graph::{
    DeltaStream, DeltaStreamConfig, DirectedGraph, GraphBuilder, GraphDelta, VertexId,
};

type Edge = (VertexId, VertexId);

/// Arbitrary edge list over up to `n` vertices.
fn edge_list(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

/// Raw material of a junk-laden delta over a graph of about `n` vertices:
/// additions whose endpoints reach past `n` (minting vertices; self-loops
/// included), picks of additions to repeat, picks of live edges to remove,
/// removals of absent or out-of-range edges, picks of additions to remove
/// as well, and explicit vertex arrivals.
type DeltaParts = (Vec<Edge>, Vec<Index>, Vec<Index>, Vec<Edge>, (Vec<Index>, u32));

fn delta_parts(n: u32) -> impl Strategy<Value = DeltaParts> {
    let picks = |max| prop::collection::vec(any::<Index>(), 0..max);
    (edge_list(n + 6, 30), picks(12), picks(12), edge_list(n + 10, 8), (picks(6), 0u32..3))
}

fn pick(picks: &[Index], from: &[Edge]) -> Vec<Edge> {
    if from.is_empty() {
        return Vec::new();
    }
    picks.iter().map(|i| *i.get(from)).collect()
}

/// Assembles [`DeltaParts`] against the live edges of `g`.
fn junk_delta(g: &DirectedGraph, parts: DeltaParts) -> GraphDelta {
    let (added, repeats, live, bogus, (both, new_vertices)) = parts;
    let existing: Vec<Edge> = g.edges().collect();
    let mut added_edges = added.clone();
    added_edges.extend(pick(&repeats, &added));
    let mut removed_edges = pick(&live, &existing);
    removed_edges.extend(bogus);
    removed_edges.extend(pick(&both, &added));
    GraphDelta { added_edges, removed_edges, new_vertices }
}

/// The full rebuild `apply_delta` must reproduce: every surviving edge and
/// every addition pushed through a [`GraphBuilder`] sized for the arrivals.
fn rebuild_oracle(g: &DirectedGraph, delta: &GraphDelta) -> DirectedGraph {
    let removed: std::collections::HashSet<Edge> =
        delta.removed_edges.iter().copied().collect();
    GraphBuilder::new(g.num_vertices() + delta.new_vertices)
        .add_edges(g.edges().filter(|e| !removed.contains(e)))
        .add_edges(delta.added_edges.iter().copied())
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The builder produces sorted, deduplicated, loop-free CSR whatever the
    /// input order.
    #[test]
    fn builder_invariants(edges in edge_list(40, 300)) {
        let g = GraphBuilder::new(40).add_edges(edges.iter().copied()).build();
        let mut expected: Vec<(u32, u32)> =
            edges.into_iter().filter(|(a, b)| a != b).collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(g.num_edges() as usize, expected.len());
        let got: Vec<(u32, u32)> = g.edges().collect();
        prop_assert_eq!(got, expected);
        for v in g.vertices() {
            let ns = g.out_neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Eq. 3 conversion: symmetric adjacency; weight 2 exactly on reciprocal
    /// pairs; total weight = 2 |directed edges|.
    #[test]
    fn conversion_matches_reference(edges in edge_list(30, 200)) {
        let g = GraphBuilder::new(30).add_edges(edges.iter().copied()).build();
        let u = to_weighted_undirected(&g);
        prop_assert_eq!(u.total_weight(), 2 * g.num_edges());
        for (a, b, w) in u.edges_once() {
            let fwd = g.has_edge(a, b);
            let rev = g.has_edge(b, a);
            prop_assert!(fwd || rev);
            let expect = if fwd && rev { 2 } else { 1 };
            prop_assert_eq!(w, expect, "edge {}-{}", a, b);
            // Symmetry.
            prop_assert_eq!(u.edge_weight(b, a), Some(w));
        }
        // Every directed edge appears as an undirected one.
        for (a, b) in g.edges() {
            prop_assert!(u.edge_weight(a, b).is_some());
        }
        // Naive conversion has the same structure with unit weights.
        let naive = to_naive_undirected(&g);
        prop_assert_eq!(naive.num_edges(), u.num_edges());
        prop_assert!(naive.edges_once().all(|(_, _, w)| w == 1));
    }

    /// Weighted degrees sum to the total weight, and neighbor lookups agree
    /// with edges_once.
    #[test]
    fn weighted_degree_consistency(edges in edge_list(25, 150)) {
        let g = GraphBuilder::new(25).add_edges(edges.iter().copied()).build();
        let u = to_weighted_undirected(&g);
        let sum: u64 = u.vertices().map(|v| u.weighted_degree(v)).sum();
        prop_assert_eq!(sum, u.total_weight());
        let via_edges: u64 = u.edges_once().map(|(_, _, w)| 2 * w as u64).sum();
        prop_assert_eq!(via_edges, u.total_weight());
    }

    /// apply_delta: added edges present, removed edges absent, untouched
    /// edges preserved.
    #[test]
    fn delta_application(
        base in edge_list(20, 100),
        added in edge_list(20, 30),
        removed_idx in prop::collection::vec(any::<prop::sample::Index>(), 0..10),
    ) {
        let g = GraphBuilder::new(20).add_edges(base.iter().copied()).build();
        let existing: Vec<(u32, u32)> = g.edges().collect();
        let removed: Vec<(u32, u32)> = if existing.is_empty() {
            vec![]
        } else {
            removed_idx.iter().map(|i| *i.get(&existing)).collect()
        };
        let delta = GraphDelta {
            added_edges: added.clone(),
            removed_edges: removed.clone(),
            new_vertices: 2,
        };
        let g2 = apply_delta(&g, &delta);
        prop_assert_eq!(g2.num_vertices(), g.num_vertices() + 2);
        for &(a, b) in &removed {
            // Removed unless re-added.
            if !added.contains(&(a, b)) {
                prop_assert!(!g2.has_edge(a, b));
            }
        }
        for &(a, b) in &added {
            if a != b && !removed.contains(&(a, b)) {
                prop_assert!(g2.has_edge(a, b));
            }
        }
        for (a, b) in g.edges() {
            if !removed.contains(&(a, b)) {
                prop_assert!(g2.has_edge(a, b), "lost edge {}->{}", a, b);
            }
        }
    }

    /// The row-merging apply_delta is bit-identical to a full rebuild on
    /// junk-laden deltas: duplicate additions, self-loops, additions minting
    /// vertices past the range, explicit arrivals, absent or out-of-range
    /// removals, and edges both added and removed.
    #[test]
    fn delta_application_matches_rebuild(base in edge_list(20, 100), parts in delta_parts(20)) {
        let g = GraphBuilder::new(20).add_edges(base).build();
        let delta = junk_delta(&g, parts);
        prop_assert_eq!(apply_delta(&g, &delta), rebuild_oracle(&g, &delta));
    }

    /// Patching the unit-weight undirected view window by window never
    /// drifts from re-symmetrising the evolved graph.
    #[test]
    fn patched_undirected_view_matches_rebuild(
        base in edge_list(20, 100),
        windows in prop::collection::vec(delta_parts(20), 1..6),
    ) {
        let mut g = GraphBuilder::new(20).add_edges(base).build();
        let mut u = from_undirected_edges(&g);
        for parts in windows {
            let delta = junk_delta(&g, parts);
            let next = apply_delta(&g, &delta);
            u = patch_undirected_edges(&u, &next, &delta);
            g = next;
            prop_assert_eq!(&u, &from_undirected_edges(&g));
        }
    }

    /// The unit-weight view has the weighted view's structure with every
    /// weight 1, and both match a brute-force symmetrisation: the builder
    /// over both directions of every edge.
    #[test]
    fn unit_view_is_the_weighted_view_unweighted(edges in edge_list(30, 200)) {
        let g = GraphBuilder::new(30).add_edges(edges).build();
        let unit = from_undirected_edges(&g);
        let weighted = to_weighted_undirected(&g);
        let both_ways = GraphBuilder::new(g.num_vertices())
            .add_edges(g.edges().flat_map(|(a, b)| [(a, b), (b, a)]))
            .build();
        let (offsets, targets, weights) = unit.as_csr();
        prop_assert_eq!((offsets, targets), (weighted.as_csr().0, weighted.as_csr().1));
        prop_assert_eq!((offsets, targets), both_ways.as_csr());
        prop_assert!(weights.iter().all(|&w| w == 1));
    }

    /// Edge-list I/O round-trips.
    #[test]
    fn io_roundtrip(edges in edge_list(30, 200)) {
        let g = GraphBuilder::new(0).add_edges(edges.iter().copied()).build();
        let mut buf = Vec::new();
        spinner_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = spinner_graph::io::read_edge_list(buf.as_slice()).unwrap();
        prop_assert_eq!(g, g2);
    }

    /// apply_delta ∘ inverse is the identity on edge-only deltas, whatever
    /// junk the delta carries (absent removals, duplicate/self additions,
    /// removed-then-re-added edges).
    #[test]
    fn delta_inverse_round_trips(
        base in edge_list(25, 150),
        added in edge_list(25, 40),
        removed_idx in prop::collection::vec(any::<prop::sample::Index>(), 0..15),
        bogus_removed in edge_list(25, 10),
    ) {
        let g = GraphBuilder::new(25).add_edges(base.iter().copied()).build();
        let existing: Vec<(u32, u32)> = g.edges().collect();
        let mut removed: Vec<(u32, u32)> = if existing.is_empty() {
            vec![]
        } else {
            removed_idx.iter().map(|i| *i.get(&existing)).collect()
        };
        // Removals of absent edges must not break the round-trip either.
        removed.extend(bogus_removed);
        let delta = GraphDelta { added_edges: added, removed_edges: removed, new_vertices: 0 };
        let g2 = apply_delta(&g, &delta);
        let back = apply_delta(&g2, &delta.inverse(&g));
        prop_assert_eq!(back, g);
    }

    /// Streamed deltas are clean — no self edges, no duplicate additions,
    /// additions absent from and removals present in the pre-window graph —
    /// and the evolving graph keeps its degree sums consistent under mixed
    /// add/delete/arrival windows.
    #[test]
    fn stream_deltas_are_clean_and_degree_consistent(
        seed in 0u64..500,
        windows in 1u32..5,
        hub_pct in 0u32..=100,
    ) {
        let hub_bias = hub_pct as f64 / 100.0;
        let base = GraphBuilder::new(60)
            .add_edges((0..59u32).map(|i| (i, i + 1)).chain((0..58u32).map(|i| (i, i + 2))))
            .build();
        let cfg = DeltaStreamConfig {
            windows,
            add_fraction: 0.06,
            remove_fraction: 0.04,
            vertex_fraction: 0.03,
            attach_degree: 2,
            triadic_fraction: 0.5,
            hub_bias,
            seed,
        };
        let mut replayed = base.clone();
        let mut stream = DeltaStream::new(base, cfg);
        for delta in &mut stream {
            let n = replayed.num_vertices();
            let mut seen = std::collections::HashSet::new();
            for &(u, v) in &delta.added_edges {
                prop_assert!(u != v, "self edge {}->{}", u, v);
                prop_assert!(seen.insert((u, v)), "duplicate addition {}->{}", u, v);
                if u < n {
                    prop_assert!(!replayed.has_edge(u, v), "re-added live edge {}->{}", u, v);
                } else {
                    // Arrival edges come from freshly minted vertices.
                    prop_assert!(u < n + delta.new_vertices);
                }
            }
            for &(u, v) in &delta.removed_edges {
                prop_assert!(replayed.has_edge(u, v), "removed absent edge {}->{}", u, v);
            }
            replayed = apply_delta(&replayed, &delta);

            // Degree sums stay consistent after every window.
            let degree_sum: u64 =
                replayed.vertices().map(|v| replayed.out_degree(v) as u64).sum();
            prop_assert_eq!(degree_sum, replayed.num_edges());
            let u = to_weighted_undirected(&replayed);
            let weighted_sum: u64 = u.vertices().map(|v| u.weighted_degree(v)).sum();
            prop_assert_eq!(weighted_sum, u.total_weight());
            prop_assert_eq!(u.total_weight(), 2 * replayed.num_edges());
        }
        prop_assert_eq!(&replayed, stream.graph());
    }

    /// sample_removed_edges yields distinct live edges only.
    #[test]
    fn removed_edge_sampler(seed in 0u64..1000, count in 0usize..40) {
        let g = GraphBuilder::new(50)
            .add_edges((0..49u32).flat_map(|i| [(i, i + 1), (i + 1, i)]))
            .build();
        let removed = sample_removed_edges(&g, count, seed);
        prop_assert_eq!(removed.len(), count.min(g.num_edges() as usize));
        let mut seen = std::collections::HashSet::new();
        for (u, v) in removed {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(seen.insert((u, v)));
        }
    }

    /// sample_new_edges yields distinct absent edges.
    #[test]
    fn new_edge_sampler(seed in 0u64..1000) {
        let g = GraphBuilder::new(50)
            .add_edges((0..49u32).map(|i| (i, i + 1)))
            .build();
        let edges = sample_new_edges(&g, 30, 0.5, seed);
        let mut seen = std::collections::HashSet::new();
        for (a, b) in edges {
            prop_assert!(a != b);
            prop_assert!(!g.has_edge(a, b));
            prop_assert!(seen.insert((a, b)));
        }
    }
}
