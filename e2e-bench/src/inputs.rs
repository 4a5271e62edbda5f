//! Workload inputs, all derived from the `--seed` argument.

use spinner_core::SpinnerConfig;
use spinner_graph::generators::{planted_partition, SbmConfig};
use spinner_graph::rng::{mix3, SplitMix64};
use spinner_graph::{DeltaStream, DeltaStreamConfig, DirectedGraph, GraphDelta};
use spinner_pregel::TransportKind;

/// Partitions and logical workers: equal and fixed, so quality results do
/// not depend on the machine.
pub const K: u32 = 16;
pub const WORKERS: usize = 16;

/// Independent sub-seeds of one workload seed.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub graph: u64,
    pub stream: u64,
    pub keys: u64,
    pub spinner: u64,
}

impl Seeds {
    pub fn new(seed: u64) -> Self {
        Self {
            graph: mix3(seed, 1, 0x6EA9),
            stream: mix3(seed, 2, 0x57EA),
            keys: mix3(seed, 3, 0x4E75),
            spinner: mix3(seed, 4, 0x5917),
        }
    }
}

/// The `small`-scale Tuenti analogue (12k vertices, ~650k edges): the
/// parameters of `Dataset::Tuenti` at `Scale::Small`, with the workload's
/// seed in place of the dataset's fixed one.
pub fn tuenti_small(seed: u64) -> DirectedGraph {
    planted_partition(SbmConfig {
        n: 12_000,
        communities: 24,
        internal_degree: 40.0,
        external_degree: 16.0,
        skew: None,
        seed,
    })
}

/// Spinner with k = 16 over 16 workers on one engine thread.
pub fn config(seed: u64, transport: TransportKind) -> SpinnerConfig {
    let mut cfg = SpinnerConfig::new(K).with_seed(seed).with_workers(WORKERS);
    cfg.num_threads = 1;
    cfg.transport = transport;
    cfg
}

/// Spinner seeds the from-scratch partitions of a run cycle through.
pub const SCRATCH_SEEDS: u64 = 8;

/// `base` with each of the [`SCRATCH_SEEDS`] Spinner seeds of a run, the
/// first being `base` itself. How many supersteps Spinner takes to converge
/// depends on its seed (62 to 112 on the graphs of seeds 1 to 20), so a run
/// that cycles through several seeds times a typical partition rather
/// than one seed's.
pub fn scratch_configs(base: &SpinnerConfig) -> Vec<SpinnerConfig> {
    (0..SCRATCH_SEEDS)
        .map(|i| match i {
            0 => base.clone(),
            _ => base.clone().with_seed(mix3(base.seed, i, 0x5C7A)),
        })
        .collect()
}

/// Small-churn windows: ~0.1% of edges added and ~0.05% removed per
/// window, no new vertices (so every window can be undone exactly).
fn churn(windows: u32, seed: u64) -> DeltaStreamConfig {
    DeltaStreamConfig {
        windows,
        add_fraction: 0.001,
        remove_fraction: 0.0005,
        vertex_fraction: 0.0,
        seed,
        ..DeltaStreamConfig::default()
    }
}

/// One churn window over `base` and the graph it produces.
pub fn one_window(base: &DirectedGraph, seed: u64) -> (GraphDelta, DirectedGraph) {
    let mut stream = DeltaStream::new(base.clone(), churn(1, seed));
    let delta = stream.next().expect("one window");
    (delta, stream.into_graph())
}

/// `forward` churn windows followed by their inverses in reverse order, so
/// a cycle returns the graph to `base` exactly and a run can replay it
/// indefinitely at a steady graph size.
pub fn delta_cycle(base: &DirectedGraph, forward: u32, seed: u64) -> Vec<GraphDelta> {
    let mut stream = DeltaStream::new(base.clone(), churn(forward, seed));
    let mut deltas = Vec::new();
    let mut undo = Vec::new();
    loop {
        let before = stream.graph().clone();
        let Some(delta) = stream.next() else { break };
        undo.push(delta.inverse(&before));
        deltas.push(delta);
    }
    deltas.extend(undo.into_iter().rev());
    deltas
}

/// `count` lookup keys over `n` vertices, Zipf-distributed (exponent 1)
/// over a seeded random ranking of the vertices.
pub fn zipf_keys(n: u32, count: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    let mut by_rank: Vec<u32> = (0..n).collect();
    for i in (1..by_rank.len()).rev() {
        let j = rng.next_bounded(i as u64 + 1) as usize;
        by_rank.swap(i, j);
    }
    let mut cdf = Vec::with_capacity(n as usize);
    let mut total = 0.0;
    for rank in 1..=n {
        total += 1.0 / f64::from(rank);
        cdf.push(total);
    }
    (0..count)
        .map(|_| {
            let u = rng.next_f64() * total;
            let rank = cdf.partition_point(|&c| c < u).min(n as usize - 1);
            by_rank[rank]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_graph::mutation::apply_delta;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = Seeds::new(7);
        let b = Seeds::new(7);
        assert_eq!(
            (a.graph, a.stream, a.keys, a.spinner),
            (b.graph, b.stream, b.keys, b.spinner)
        );
        assert_ne!(Seeds::new(8).graph, a.graph);
        assert_eq!(zipf_keys(1000, 64, 3), zipf_keys(1000, 64, 3));
        assert_ne!(zipf_keys(1000, 64, 3), zipf_keys(1000, 64, 4));
    }

    #[test]
    fn scratch_configs_differ_only_in_seed() {
        let base = config(3, TransportKind::Ring);
        let cfgs = scratch_configs(&base);
        assert_eq!(cfgs.len() as u64, SCRATCH_SEEDS);
        assert_eq!(cfgs[0].seed, base.seed);
        let mut seeds: Vec<u64> = cfgs.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cfgs.len());
        assert!(cfgs.iter().all(|c| c.k == K && c.transport == TransportKind::Ring));
    }

    #[test]
    fn zipf_keys_are_skewed_and_in_range() {
        let keys = zipf_keys(1000, 20_000, 9);
        assert!(keys.iter().all(|&k| k < 1000));
        let mut counts = vec![0u32; 1000];
        for &k in &keys {
            counts[k as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Under Zipf(1) over 1000 ranks the top rank draws ~13% of keys.
        assert!(counts[0] > 1500 && counts[0] < 4000, "top key drew {}", counts[0]);
    }

    #[test]
    fn a_delta_cycle_returns_to_its_base() {
        let base = planted_partition(SbmConfig {
            n: 400,
            communities: 4,
            internal_degree: 6.0,
            external_degree: 2.0,
            skew: None,
            seed: 5,
        });
        let cycle = delta_cycle(&base, 3, 11);
        assert_eq!(cycle.len(), 6);
        let mut g = base.clone();
        for d in &cycle[..3] {
            assert!(!d.is_empty());
            g = apply_delta(&g, d);
        }
        assert_ne!(g, base);
        for d in &cycle[3..] {
            g = apply_delta(&g, d);
        }
        assert_eq!(g, base);
    }
}
