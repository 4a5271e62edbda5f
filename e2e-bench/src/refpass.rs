//! The reference pass: a fixed piece of the benchmark's own code, run
//! between timed operations, that the end-to-end timings are expressed in.
//!
//! The benchmark runs on a few cores of a shared host, whose speed for
//! memory-heavy code drifts by a third over minutes while neighbours come
//! and go. Raw times of one seed then spread as widely between runs as the
//! regressions the benchmark must catch. The pass does the kind of work a
//! window does (build a CSR graph from an edge list in fresh buffers, sort
//! each row, sweep the rows counting neighbour labels), so it slows down
//! with the machine, and an operation's time over the mean time of the
//! passes just before and just after it cancels most of the drift. The
//! pass uses no library code: a faster library lowers the ratio, a faster
//! machine moves both sides.

use std::time::Instant;

use spinner_graph::UndirectedGraph;

use crate::checks::Checks;
use crate::report::{mean, median, ms};

/// Label classes the sweep counts into.
const CLASSES: usize = 16;

pub struct RefPass {
    vertices: usize,
    /// Each undirected edge once.
    edges: Vec<(u32, u32)>,
    /// What every pass returns (the first pass's result).
    expected: Option<u64>,
    /// Time of every pass so far, in ms, in order.
    times_ms: Vec<f64>,
}

impl RefPass {
    /// A pass over a copy of `graph`'s edges.
    pub fn new(graph: &UndirectedGraph) -> Self {
        Self {
            vertices: graph.num_vertices() as usize,
            edges: graph.edges_once().map(|(u, v, _)| (u, v)).collect(),
            expected: None,
            times_ms: Vec::new(),
        }
    }

    /// Runs one pass and returns its index. A pass that computes something
    /// else than the first pass did fails a check.
    pub fn run(&mut self, checks: &mut Checks) -> usize {
        let start = Instant::now();
        let digest = std::hint::black_box(self.pass());
        self.times_ms.push(ms(start.elapsed()));
        let want = *self.expected.get_or_insert(digest);
        checks.record(if digest == want {
            Ok(())
        } else {
            Err(format!("reference pass digest {digest:#x}, want {want:#x}"))
        });
        self.times_ms.len() - 1
    }

    /// The time an operation run right after pass `i` is divided by: the
    /// mean of pass `i` and the pass after it, if there was one.
    fn around(&self, i: usize) -> f64 {
        match self.times_ms.get(i + 1) {
            Some(after) => (self.times_ms[i] + after) / 2.0,
            None => self.times_ms[i],
        }
    }

    /// Median time of the passes, in ms.
    pub fn ms_p50(&self) -> f64 {
        median(&self.times_ms)
    }

    /// Builds the CSR adjacency from the edge list, sorts each row, and
    /// gives every vertex the label most common among its neighbours'
    /// starting labels; returns a digest of the labels.
    fn pass(&self) -> u64 {
        let n = self.vertices;
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut adjacency = vec![0u32; 2 * self.edges.len()];
        for &(u, v) in &self.edges {
            adjacency[fill[u as usize]] = v;
            fill[u as usize] += 1;
            adjacency[fill[v as usize]] = u;
            fill[v as usize] += 1;
        }
        for v in 0..n {
            adjacency[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        let start_label = |v: u32| (v.wrapping_mul(0x9E37_79B1) >> 28) as usize;
        let mut digest = 0u64;
        for v in 0..n {
            let mut counts = [0u32; CLASSES];
            for &u in &adjacency[offsets[v]..offsets[v + 1]] {
                counts[start_label(u)] += 1;
            }
            let best = (0..CLASSES).max_by_key(|&l| (counts[l], l)).unwrap_or(0);
            digest = digest.wrapping_mul(0x100_0000_01B3).wrapping_add(best as u64);
        }
        digest
    }
}

/// Timed operations, each with the index of the reference pass run just
/// before it and the group of like operations it belongs to.
#[derive(Debug, Default)]
pub struct RelTimes {
    op_ms: Vec<f64>,
    pass: Vec<usize>,
    group: Vec<usize>,
}

impl RelTimes {
    pub fn push(&mut self, op_ms: f64, pass: usize, group: usize) {
        self.op_ms.push(op_ms);
        self.pass.push(pass);
        self.group.push(group);
    }

    pub fn len(&self) -> usize {
        self.op_ms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.op_ms.is_empty()
    }

    /// Each operation's time over the mean time of the passes around it:
    /// the median of these ratios in each group, averaged over the groups.
    /// Groups are operations of unequal cost (the event kinds of a cycle,
    /// the Spinner seeds of a partition); a median across them would fall
    /// in the gap between two groups and jump with the mix a run happens
    /// to hold.
    pub fn rel_p50(&self, rp: &RefPass) -> f64 {
        let mut by_group: Vec<Vec<f64>> = Vec::new();
        for ((op, &i), &g) in self.op_ms.iter().zip(&self.pass).zip(&self.group) {
            if by_group.len() <= g {
                by_group.resize(g + 1, Vec::new());
            }
            by_group[g].push(op / rp.around(i));
        }
        let medians: Vec<f64> =
            by_group.iter().filter(|r| !r.is_empty()).map(|r| median(r)).collect();
        mean(&medians)
    }

    /// Median raw operation time, in ms.
    pub fn ms_p50(&self) -> f64 {
        median(&self.op_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_graph::conversion::from_undirected_edges;
    use spinner_graph::generators::{planted_partition, SbmConfig};

    fn small_graph(seed: u64) -> UndirectedGraph {
        from_undirected_edges(&planted_partition(SbmConfig {
            n: 300,
            communities: 3,
            internal_degree: 8.0,
            external_degree: 2.0,
            skew: None,
            seed,
        }))
    }

    #[test]
    fn the_pass_repeats_its_result() {
        let mut pass = RefPass::new(&small_graph(1));
        let mut checks = Checks::default();
        for i in 0..3 {
            assert_eq!(pass.run(&mut checks), i);
        }
        assert_eq!((checks.made, checks.failures.len()), (3, 0));
        // A pass over another graph computes another digest.
        let other = RefPass::new(&small_graph(2));
        assert_ne!(other.pass(), pass.pass());
        pass.expected = Some(pass.pass() ^ 1);
        pass.run(&mut checks);
        assert_eq!(checks.failures.len(), 1);
    }

    #[test]
    fn relative_time_divides_by_the_passes_around_each_operation() {
        let mut rp = RefPass::new(&small_graph(1));
        rp.times_ms = vec![2.0, 4.0, 3.0, 5.0];
        let mut t = RelTimes::default();
        t.push(30.0, 0, 0); // over (2 + 4) / 2
        t.push(7.0, 1, 0); // over (4 + 3) / 2
        t.push(40.0, 3, 0); // no pass after: over 5
        assert_eq!(t.rel_p50(&rp), 8.0);
        assert_eq!(t.ms_p50(), 30.0);
        assert_eq!(t.len(), 3);
        assert_eq!(rp.ms_p50(), 3.5);
        // Group 2 (ratio 1) joins: the mean of the group medians 8 and 1.
        t.push(3.0, 0, 2);
        assert_eq!(t.rel_p50(&rp), 4.5);
    }
}
