//! `partition-batch`: repeated from-scratch partitions of one graph, cycling
//! through the run's Spinner seeds. Each result is published to a routing
//! table that one reader thread resolves lookups from, and every few
//! partitions a serving node starts from the first seed's result.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spinner_core::{
    partition, PartitionResult, SessionState, SpinnerConfig, StreamSession, WindowReport,
    WindowReportParts,
};
use spinner_graph::conversion::from_undirected_edges;
use spinner_graph::{DirectedGraph, UndirectedGraph};
use spinner_pregel::{TransportKind, WorkerId};
use spinner_serving::{MemStorage, RoutingTable, SessionStore};

use crate::checks::{self, Published};
use crate::inputs::{self, Seeds};
use crate::reader::{Reader, ReaderReport};
use crate::refpass::{RefPass, RelTimes};
use crate::report::{mean, median, ms, peak_rss_mb};
use crate::service;
use crate::trace::Tracer;
use crate::{layer_self_metrics, lookup_metrics, repeated_setup, Args, Outcome};

/// Set-ups per process (`setup_s` is their median). A set-up takes ~0.15 s,
/// a third of the other workloads', so it is repeated more often.
const SETUP_REPS: usize = 9;
/// A serving node starts from the batch result after every this many
/// partitions (`resume_rel` is from their median), so the starts spread
/// over the run like the other workloads' restarts.
const RESUME_EVERY: usize = 2;
/// Distinct lookup keys the reader cycles through.
const KEYS: usize = 1 << 16;

struct Inputs {
    graph: DirectedGraph,
    undirected: UndirectedGraph,
    /// The graph after one churn window: its from-scratch partition gives
    /// the migration a re-partition from scratch would cause (Fig. 7).
    next: UndirectedGraph,
    keys: Arc<Vec<u32>>,
}

fn set_up(seeds: Seeds) -> Inputs {
    let graph = inputs::tuenti_small(seeds.graph);
    let undirected = from_undirected_edges(&graph);
    let (_, after) = inputs::one_window(&graph, seeds.stream);
    let next = from_undirected_edges(&after);
    let keys = Arc::new(inputs::zipf_keys(graph.num_vertices(), KEYS, seeds.keys));
    Inputs { graph, undirected, next, keys }
}

/// The routing table entry of each vertex: partition `l` runs on worker
/// `l` (k equals the worker count).
fn workers(labels: &[u32]) -> Vec<WorkerId> {
    labels.iter().map(|&l| l as WorkerId).collect()
}

#[derive(Default)]
struct Phase {
    partition: RelTimes,
    window: RelTimes,
    resume: RelTimes,
    /// Engine time per superstep of each timed partition, in ms.
    superstep_ms: Vec<f64>,
    reader: ReaderReport,
    routing_retries: u64,
}

/// The run's Spinner configurations, each with the first partition made
/// with it, which every later one must reproduce bit for bit.
struct Arms {
    cfgs: Vec<SpinnerConfig>,
    first: Vec<Option<PartitionResult>>,
}

impl Arms {
    /// Mean of `f` over the first partitions made so far.
    fn mean_of(&self, f: impl Fn(&PartitionResult) -> f64) -> f64 {
        mean(&self.first.iter().flatten().map(f).collect::<Vec<_>>())
    }
}

/// Partitions from scratch, cycling through `arms`, and publishes each
/// result until `budget` is spent (at least until the first serving-node
/// start). Epoch 1 serves `reference`, the first arm's warm-up result,
/// which `mem` holds as a serving node's store. The reference pass runs
/// just before every timed operation, and once more at the end.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    inp: &Inputs,
    arms: &mut Arms,
    reference: &PartitionResult,
    mem: &MemStorage,
    budget: Duration,
    rp: &mut RefPass,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase::default();
    let mut published = Published::default();
    let mut table = RoutingTable::with_capacity(inp.graph.num_vertices());
    let placement = workers(&reference.labels);
    table.publish_at(1, &placement);
    published.record(1, &placement);
    let reader = Reader::spawn(table.reader(), Arc::clone(&inp.keys), tr.enabled());
    out.op(reader.wait_visible(1));
    let start = Instant::now();
    let mut epoch = 1;
    while phase.resume.is_empty() || start.elapsed() < budget {
        epoch += 1;
        tr.set_window(epoch);
        let arm = (epoch - 2) as usize % arms.cfgs.len();
        let cfg = &arms.cfgs[arm];
        let pass = rp.run(&mut out.checks);
        tr.begin("batch");
        let started = Instant::now();
        let result = tr.span("core.partition", || partition(&inp.undirected, cfg));
        tr.reported_child("pregel.run", result.wall_ns);
        let partitioned = started.elapsed();
        let placement = tr.span("routing.publish", || {
            let placement = workers(&result.labels);
            table.publish_at(epoch, &placement);
            placement
        });
        let visible = tr.span("routing.visible", || reader.wait_visible(epoch));
        let elapsed = started.elapsed();
        tr.end();
        if out.op(visible).is_none() {
            continue;
        }
        phase.partition.push(ms(partitioned), pass, arm);
        phase.window.push(ms(elapsed), pass, arm);
        published.record(epoch, &placement);
        out.checks.record(checks::labels_in_range(&result.labels, cfg.k));
        out.checks.record(checks::rho_within(result.quality.rho, cfg.c, checks::RHO_SLACK));
        phase.superstep_ms.push(result.wall_ns as f64 / 1e6 / result.supersteps.max(1) as f64);
        out.checks.record(match &arms.first[arm] {
            None => Ok(()),
            Some(first) if first.labels == result.labels => Ok(()),
            Some(_) => Err(format!("from-scratch partitions with seed {} differ", cfg.seed)),
        });
        arms.first[arm].get_or_insert(result);
        if phase.partition.len() % RESUME_EVERY == 0 {
            tr.set_window(epoch);
            let pass = rp.run(&mut out.checks);
            if let Some(elapsed) = start_serving(inp, reference, mem, tr, out) {
                phase.resume.push(ms(elapsed), pass, 0);
            }
        }
    }
    rp.run(&mut out.checks);
    phase.reader = reader.stop();
    phase.routing_retries = table.retries();
    out.ops += phase.reader.lookups;
    out.failed_ops += phase.reader.failures;
    out.checks.record(checks::routing_agrees(&phase.reader.samples, &published));
    phase
}

/// The session state a serving node starts from: the batch result as the
/// bootstrap window, each partition hosted on its own worker.
fn batch_state(inp: &Inputs, cfg: &SpinnerConfig, r: &PartitionResult) -> SessionState {
    let graph = &inp.graph;
    let bootstrap = WindowReport::from_parts(WindowReportParts {
        window: 0,
        k: r.k,
        num_vertices: graph.num_vertices(),
        num_edges: inp.undirected.num_edges(),
        phi: r.quality.phi,
        rho: r.quality.rho,
        migration_fraction: 1.0,
        iterations: r.iterations,
        supersteps: r.supersteps,
        messages: r.totals.messages,
        sent_local: r.totals.local_messages(),
        sent_remote: r.totals.remote_messages,
        sent_local_records: r.totals.local_records,
        sent_remote_records: r.totals.remote_records,
        placement_moved: 0,
        computed: r.totals.computed,
        wall_ns: r.wall_ns,
        fabric_reallocs: 0,
        lost_vertices: 0,
        wire_bytes: r.totals.wire_bytes,
        wire_frames: r.totals.wire_frames,
        wire_folded: r.totals.wire_folded,
        retransmits: r.totals.retransmits,
        lanes_degraded: 0,
        lanes_dead: 0,
    });
    SessionState {
        cfg: cfg.clone(),
        graph: graph.clone(),
        labels: r.labels.clone(),
        placement: workers(&r.labels),
        label_assignment: None,
        windows: vec![bootstrap],
    }
}

/// Writes the batch result as a serving node's store; returns the store's
/// storage and snapshot size.
fn store_result(
    inp: &Inputs,
    cfg: &SpinnerConfig,
    reference: &PartitionResult,
) -> (MemStorage, u64) {
    let state = batch_state(inp, cfg, reference);
    let mem = MemStorage::new();
    let store =
        SessionStore::create_on(Box::new(mem.clone()), &state).expect("in-memory store");
    (mem, store.snapshot_bytes())
}

/// Starts a serving node from the stored batch result; returns the time
/// from the start until its first lookup answered.
fn start_serving(
    inp: &Inputs,
    reference: &PartitionResult,
    mem: &MemStorage,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Option<Duration> {
    let resumed = out.op(service::resume(mem, inp.keys[0], tr))?;
    out.checks.record(checks::resume_identical(
        (&reference.labels, &workers(&reference.labels)),
        (&resumed.labels, &resumed.placement),
    ));
    out.checks.record(if resumed.first_lookup_ok {
        Ok(())
    } else {
        Err("a node started from the batch result served no lookup".to_string())
    });
    Some(resumed.elapsed)
}

/// Fraction of vertices whose label differs between the two partitions.
fn moved_fraction(a: &[u32], b: &[u32]) -> f64 {
    a.iter().zip(b).filter(|(x, y)| x != y).count() as f64 / a.len().max(1) as f64
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seeds = Seeds::new(args.seed);
    let (inp, setup_s) = repeated_setup(SETUP_REPS, || set_up(seeds));
    let cfg = inputs::config(seeds.spinner, TransportKind::Direct);
    // Untimed warm-up with the first seed: epoch 1 and the stored result.
    let reference = partition(&inp.undirected, &cfg);
    out.ops += 1;
    let cfgs = inputs::scratch_configs(&cfg);
    let mut first = vec![None; cfgs.len()];
    first[0] = Some(reference.clone());
    let mut arms = Arms { cfgs, first };
    let (mem, snapshot_bytes) = store_result(&inp, &cfg, &reference);
    let mut rp = RefPass::new(&inp.undirected);

    if !args.trace {
        let phase = run_phase(
            &inp,
            &mut arms,
            &reference,
            &mem,
            args.budget,
            &mut rp,
            &mut Tracer::new(false),
            &mut out,
        );
        let m = &mut out.metrics;
        m.set("setup_s", setup_s, "s");
        m.set("partition_rel.p50", phase.partition.rel_p50(&rp), "ref");
        m.set("window_rel.p50", phase.window.rel_p50(&rp), "ref");
        m.set("resume_rel", phase.resume.rel_p50(&rp), "ref");
        m.set("phi", arms.mean_of(|r| r.quality.phi), "ratio");
        m.set("rho", arms.mean_of(|r| r.quality.rho), "ratio");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        crate::raw_metrics(m, [&phase.partition, &phase.window, &phase.resume], &rp);
        return out;
    }

    let half = args.budget / 2;
    let untraced = run_phase(
        &inp,
        &mut arms,
        &reference,
        &mem,
        half,
        &mut rp,
        &mut Tracer::new(false),
        &mut out,
    );
    let mut tr = Tracer::new(true);
    let traced = run_phase(&inp, &mut arms, &reference, &mem, half, &mut rp, &mut tr, &mut out);
    crate::raw_metrics(
        &mut out.metrics,
        [&untraced.partition, &untraced.window, &untraced.resume],
        &rp,
    );
    let bootstrap = StreamSession::new(inp.graph.clone(), cfg.clone());
    let speedup = crate::pool_speedup(&inp.undirected, &cfg, &mut out);
    let next = partition(&inp.next, &cfg);
    out.ops += 1;

    // Every timed partition reproduced the first with its seed bit for bit
    // (checked), so the engine's counters are the first ones'; only its
    // time varies. Counters are given per partition, as means over seeds.
    let supersteps = arms.mean_of(|r| r.supersteps as f64);
    let computed = arms.mean_of(|r| r.totals.computed as f64);
    let wire_bytes = arms.mean_of(|r| r.totals.wire_bytes as f64);
    let remote_records = arms.mean_of(|r| r.totals.remote_records as f64);
    let n = inp.graph.num_vertices() as f64;
    let m = &mut out.metrics;
    for idle in [
        "graph.apply_delta_ms",
        "graph.undirected_ms",
        "core.apply_ms",
        "core.reload_ms",
        "transport.ring_direct_ratio",
        "serving.state_capture_ms",
        "serving.wal_diff_ms",
        "serving.wal_append_ms",
        "serving.wal_record_bytes",
        "serving.compact_ms",
    ] {
        let unit = crate::PER_LAYER.iter().find(|(n, _)| *n == idle).expect("declared").1;
        m.set(idle, 0.0, unit);
    }
    m.set("core.migration_fraction", moved_fraction(&reference.labels, &next.labels), "ratio");
    m.set("pregel.superstep_ms", median(&traced.superstep_ms), "ms");
    m.set("pregel.supersteps", supersteps, "count");
    m.set("pregel.computed", computed, "count");
    m.set("pregel.active_fraction", computed / (supersteps * n).max(1.0), "ratio");
    m.set("pregel.remote_records", remote_records, "count");
    m.set("pregel.local_share", arms.mean_of(|r| r.totals.local_share()), "ratio");
    m.set("pregel.fabric_reallocs", bootstrap.windows()[0].fabric_reallocs() as f64, "count");
    m.set("pregel.pool_speedup", speedup, "ratio");
    m.set("wire.bytes", wire_bytes, "bytes");
    m.set("wire.frames", arms.mean_of(|r| r.totals.wire_frames as f64), "count");
    m.set("wire.bytes_per_record", wire_bytes / remote_records.max(1.0), "bytes");
    m.set("wire.folded", arms.mean_of(|r| r.totals.wire_folded as f64), "count");
    m.set("transport.retransmits", arms.mean_of(|r| r.totals.retransmits as f64), "count");
    m.set("routing.publish_us", median(&tr.durations_ms("routing.publish")) * 1e3, "us");
    m.set("serving.snapshot_bytes", snapshot_bytes as f64, "bytes");
    m.set("serving.resume_load_ms", median(&tr.durations_ms("serving.resume_load")), "ms");
    m.set(
        "serving.resume_rebuild_ms",
        median(&tr.durations_ms("serving.resume_rebuild")),
        "ms",
    );
    m.set("routing.seqlock_retries", traced.routing_retries as f64, "count");
    // Lookup latency from the untraced half: tracing adds a head load to
    // every lookup to count stale reads.
    lookup_metrics(&mut out, &untraced.reader.batch_hist);
    let m = &mut out.metrics;
    m.set("routing.stale_reads", traced.reader.stale as f64, "count");
    let traced_window = traced.window.ms_p50();
    let residual = median(&tr.residual_ms("batch"));
    m.set("trace.window_ms", traced_window, "ms");
    m.set("trace.residual_ms", residual, "ms");
    m.set("trace.overhead", traced_window / untraced.window.ms_p50(), "ratio");
    layer_self_metrics(m, &tr, &["batch"], traced.partition.len() as f64);
    out.checks.record(checks::residual_within(residual, traced_window, checks::RESIDUAL_SHARE));
    if let Err(e) = tr.write_jsonl(&crate::trace_path(args)) {
        eprintln!("warning: spans not written: {e}");
    }
    out
}
