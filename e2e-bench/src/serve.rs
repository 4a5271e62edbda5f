//! `stream-serve` and `elastic-ring`: a serving node ingesting windows in a
//! closed loop while one reader thread resolves lookups.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spinner_core::{partition, StreamEvent, StreamSession, WindowReport};
use spinner_graph::conversion::from_undirected_edges;
use spinner_graph::mutation::apply_delta;
use spinner_graph::GraphDelta;
use spinner_pregel::TransportKind;
use spinner_serving::MemStorage;

use crate::checks::{self, Published};
use crate::inputs::{self, Seeds, K};
use crate::reader::{Reader, ReaderReport};
use crate::refpass::{RefPass, RelTimes};
use crate::report::{mean, median, ms, peak_rss_mb};
use crate::service::{self, Service};
use crate::trace::Tracer;
use crate::{layer_self_metrics, lookup_metrics, repeated_setup, Args, Outcome};

/// Set-ups per run (`setup_s` is their median).
const SETUP_REPS: usize = 5;
/// Churn windows per `stream-serve` cycle, each followed later in the
/// cycle by its inverse.
const FORWARD_WINDOWS: u32 = 4;
/// Partition count an `elastic-ring` cycle grows to and shrinks back from.
const GROWN_K: u32 = 20;
/// Distinct lookup keys the reader cycles through.
const KEYS: usize = 1 << 16;
/// From-scratch partitions of the graph at the end of each cycle, back to
/// back, each with the next of the run's Spinner seeds.
const SCRATCH_PER_CYCLE: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Small-churn delta windows on the Direct transport, frontier windows.
    Stream,
    /// Resize and worker-loss events on the Ring transport.
    Elastic,
}

impl Kind {
    fn transport(self) -> TransportKind {
        match self {
            Kind::Stream => TransportKind::Direct,
            Kind::Elastic => TransportKind::Ring,
        }
    }
}

struct Inputs {
    kind: Kind,
    seeds: Seeds,
    deltas: Vec<GraphDelta>,
    keys: Arc<Vec<u32>>,
}

impl Inputs {
    /// The events of cycle `c`. A stream cycle replays the same churn
    /// windows and their inverses; an elastic cycle grows k, loses a
    /// worker, shrinks k back and loses another, rotating the lost worker.
    fn cycle(&self, c: u64) -> Vec<StreamEvent> {
        match self.kind {
            Kind::Stream => self.deltas.iter().cloned().map(StreamEvent::Delta).collect(),
            Kind::Elastic => {
                let first = self.seeds.stream % inputs::WORKERS as u64;
                let lost = |i: u64| ((first + 2 * c + i) % inputs::WORKERS as u64) as u16;
                vec![
                    StreamEvent::Resize { k: GROWN_K },
                    StreamEvent::WorkerLoss { worker: lost(0) },
                    StreamEvent::Resize { k: K },
                    StreamEvent::WorkerLoss { worker: lost(1) },
                ]
            }
        }
    }
}

/// Builds the inputs and boots the node.
fn set_up(kind: Kind, seeds: Seeds) -> (Inputs, Service, MemStorage) {
    let graph = inputs::tuenti_small(seeds.graph);
    let n = graph.num_vertices();
    let deltas = match kind {
        Kind::Stream => inputs::delta_cycle(&graph, FORWARD_WINDOWS, seeds.stream),
        Kind::Elastic => Vec::new(),
    };
    let keys = Arc::new(inputs::zipf_keys(n, KEYS, seeds.keys));
    let mut cfg = inputs::config(seeds.spinner, kind.transport());
    cfg.frontier_windows = kind == Kind::Stream;
    let session = StreamSession::new(graph, cfg);
    let mem = MemStorage::new();
    let svc = Service::new(session, &mem, false).expect("in-memory store");
    (Inputs { kind, seeds, deltas, keys }, svc, mem)
}

/// What one measured phase saw.
#[derive(Default)]
struct Phase {
    window: RelTimes,
    /// From-scratch partitions of the graph, [`SCRATCH_PER_CYCLE`] per cycle.
    scratch: RelTimes,
    resume: RelTimes,
    reports: Vec<WindowReport>,
    record_bytes: Vec<f64>,
    /// φ and ρ after the first cycle.
    first_cycle: Option<(f64, f64)>,
    reader: ReaderReport,
    cycles: u64,
}

/// Ingests whole cycles until `budget` is spent (at least one), each
/// followed by a restart from the store; checks every output. The
/// reference pass runs just before every timed operation, and once more at
/// the end.
fn run_phase(
    inp: &Inputs,
    svc: &mut Service,
    mem: &MemStorage,
    budget: Duration,
    rp: &mut RefPass,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase::default();
    let mut published = Published::default();
    published.record(svc.epoch(), svc.session().placement().as_slice());
    let reader = Reader::spawn(svc.reader(), Arc::clone(&inp.keys), tr.enabled());
    out.op(reader.wait_visible(svc.epoch()));
    let c = svc.session().config().c;
    // The first partition with each Spinner seed, in seed order.
    let mut scratch_labels: Vec<Vec<u32>> = Vec::new();
    let start = Instant::now();
    let mut window = 0u64;
    while phase.cycles == 0 || start.elapsed() < budget {
        let events = inp.cycle(phase.cycles);
        let cycle_len = events.len();
        for (position, event) in events.into_iter().enumerate() {
            window += 1;
            tr.set_window(window);
            let shadow = match &event {
                StreamEvent::Delta(delta) if tr.enabled() => Some(graph_shadow(svc, delta, tr)),
                _ => None,
            };
            let pass = rp.run(&mut out.checks);
            tr.begin("window");
            let started = Instant::now();
            let ingested = svc.ingest(event, tr).and_then(|ing| {
                tr.span("routing.visible", || reader.wait_visible(ing.epoch)).map(|()| ing)
            });
            let elapsed = started.elapsed();
            tr.end();
            let Some(ing) = out.op(ingested) else { continue };
            phase.window.push(ms(elapsed), pass, position);
            published.record(ing.epoch, svc.session().placement().as_slice());
            let session = svc.session();
            let rep = &ing.report;
            out.checks.record(checks::labels_in_range(session.labels(), session.k()));
            if inp.kind == Kind::Stream {
                out.checks.record(checks::rho_within(rep.rho(), c, checks::RHO_SLACK));
            } else {
                out.checks.record(checks::rho_within(rep.rho(), c, checks::RHO_SLACK_ELASTIC));
                out.checks.record(checks::transport_clean(
                    rep.retransmits(),
                    rep.lanes_degraded(),
                    rep.lanes_dead(),
                ));
            }
            if let Some(edges) = shadow {
                out.checks.record(if edges == session.undirected().num_edges() {
                    Ok(())
                } else {
                    Err(format!("graph calls timed beside apply built {edges} edges"))
                });
            }
            phase.record_bytes.push(ing.record_bytes as f64);
            phase.reports.push(ing.report);
        }
        if phase.first_cycle.is_none() && phase.reports.len() == cycle_len {
            let last = phase.reports.last().expect("one cycle");
            phase.first_cycle = Some((last.phi(), last.rho()));
        }
        // What re-partitioning from scratch would cost instead of adapting
        // (the baseline of Fig. 7 and Fig. 8). A cycle ends on the graph and
        // k it started from, so a seed's partition must repeat bit for bit
        // whenever the seed comes round again.
        let cfgs = inputs::scratch_configs(svc.session().config());
        for _ in 0..SCRATCH_PER_CYCLE {
            let arm = phase.scratch.len() % cfgs.len();
            let cfg = &cfgs[arm];
            let pass = rp.run(&mut out.checks);
            let started = Instant::now();
            let scratch = partition(svc.session().undirected(), cfg);
            phase.scratch.push(ms(started.elapsed()), pass, arm);
            out.ops += 1;
            out.checks.record(checks::labels_in_range(&scratch.labels, cfg.k));
            out.checks.record(checks::rho_within(scratch.quality.rho, c, checks::RHO_SLACK));
            out.checks.record(match scratch_labels.get(arm) {
                None => {
                    scratch_labels.push(scratch.labels);
                    Ok(())
                }
                Some(first) if *first == scratch.labels => Ok(()),
                Some(_) => {
                    Err(format!("from-scratch partitions with seed {} differ", cfg.seed))
                }
            });
        }
        // A stream node restarts with the cycle's windows in its WAL, then
        // compacts; an elastic cycle compacts first, then restarts.
        if inp.kind == Kind::Elastic {
            out.op(svc.compact(tr));
        }
        window += 1;
        tr.set_window(window);
        let probe = inp.keys[0];
        let pass = rp.run(&mut out.checks);
        if let Some(resumed) = out.op(service::resume(mem, probe, tr)) {
            phase.resume.push(ms(resumed.elapsed), pass, 0);
            let live = svc.session();
            out.checks.record(checks::resume_identical(
                (live.labels(), live.placement().as_slice()),
                (&resumed.labels, &resumed.placement),
            ));
            let want_replayed = if inp.kind == Kind::Stream { cycle_len } else { 0 };
            out.checks.record(
                if resumed.first_lookup_ok && resumed.replayed_windows == want_replayed {
                    Ok(())
                } else {
                    Err(format!(
                    "resume replayed {} windows (want {want_replayed}), first lookup ok: {}",
                    resumed.replayed_windows, resumed.first_lookup_ok
                ))
                },
            );
        }
        if inp.kind == Kind::Stream {
            out.op(svc.compact(tr));
        }
        phase.cycles += 1;
    }
    rp.run(&mut out.checks);
    phase.reader = reader.stop();
    out.ops += phase.reader.lookups;
    out.failed_ops += phase.reader.failures;
    out.checks.record(checks::routing_agrees(&phase.reader.samples, &published));
    phase
}

/// Times the graph-layer calls `StreamSession::apply` makes for `delta`
/// (`apply_delta`, then the undirected rebuild) by making them on the same
/// input outside the window; returns the rebuilt graph's edge count.
fn graph_shadow(svc: &Service, delta: &GraphDelta, tr: &mut Tracer) -> u64 {
    tr.begin("shadow");
    let graph = tr.span("graph.apply_delta", || apply_delta(svc.session().graph(), delta));
    let undirected = tr.span("graph.undirected", || from_undirected_edges(&graph));
    tr.end();
    undirected.num_edges()
}

pub fn run(args: &Args, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    let seeds = Seeds::new(args.seed);
    let ((inp, mut svc, mem), setup_s) = repeated_setup(SETUP_REPS, || set_up(kind, seeds));
    let mut rp = RefPass::new(svc.session().undirected());
    if !args.trace {
        let mut tr = Tracer::new(false);
        let phase = run_phase(&inp, &mut svc, &mem, args.budget, &mut rp, &mut tr, &mut out);
        let m = &mut out.metrics;
        m.set("setup_s", setup_s, "s");
        m.set("partition_rel.p50", phase.scratch.rel_p50(&rp), "ref");
        m.set("window_rel.p50", phase.window.rel_p50(&rp), "ref");
        m.set("resume_rel", phase.resume.rel_p50(&rp), "ref");
        let (phi, rho) = phase.first_cycle.unwrap_or_default();
        let m = &mut out.metrics;
        m.set("phi", phi, "ratio");
        m.set("rho", rho, "ratio");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        crate::raw_metrics(m, [&phase.scratch, &phase.window, &phase.resume], &rp);
        return out;
    }

    // Traced run: half the budget untraced through `ServingNode`, half
    // traced through its pieces, from the state the first half reached.
    let half = args.budget / 2;
    let mut untraced_tr = Tracer::new(false);
    let untraced = run_phase(&inp, &mut svc, &mem, half, &mut rp, &mut untraced_tr, &mut out);
    let state = svc.session().state();
    drop(svc);
    let mem = MemStorage::new();
    let mut svc =
        Service::new(StreamSession::from_state(state), &mem, true).expect("in-memory store");
    let mut tr = Tracer::new(true);
    let traced = run_phase(&inp, &mut svc, &mem, half, &mut rp, &mut tr, &mut out);
    layer_metrics(&mut out, &tr, &traced, &untraced, &svc);
    crate::raw_metrics(
        &mut out.metrics,
        [&untraced.scratch, &untraced.window, &untraced.resume],
        &rp,
    );
    // Lookup latency from the untraced half: tracing adds a head load to
    // every lookup to count stale reads.
    lookup_metrics(&mut out, &untraced.reader.batch_hist);

    let cfg = svc.session().config().clone();
    let speedup = crate::pool_speedup(svc.session().undirected(), &cfg, &mut out);
    out.metrics.set("pregel.pool_speedup", speedup, "ratio");
    let ratio = if kind == Kind::Elastic {
        ring_direct_ratio(&inp, &svc, traced.cycles, &mut out)
    } else {
        0.0
    };
    out.metrics.set("transport.ring_direct_ratio", ratio, "ratio");
    if let Err(e) = tr.write_jsonl(&crate::trace_path(args)) {
        eprintln!("warning: spans not written: {e}");
    }
    out
}

fn sum_of(reports: &[WindowReport], f: impl Fn(&WindowReport) -> u64) -> f64 {
    reports.iter().map(f).sum::<u64>() as f64
}

fn mean_of(reports: &[WindowReport], f: impl Fn(&WindowReport) -> f64) -> f64 {
    mean(&reports.iter().map(f).collect::<Vec<_>>())
}

fn layer_metrics(
    out: &mut Outcome,
    tr: &Tracer,
    traced: &Phase,
    untraced: &Phase,
    svc: &Service,
) {
    let reps = &traced.reports;
    let windows = reps.len().max(1) as f64;
    let m = &mut out.metrics;
    m.set("graph.apply_delta_ms", median(&tr.durations_ms("graph.apply_delta")), "ms");
    m.set("graph.undirected_ms", median(&tr.durations_ms("graph.undirected")), "ms");
    m.set("core.apply_ms", median(&tr.durations_ms("core.apply")), "ms");
    m.set("core.reload_ms", median(&tr.self_ms("core.apply")), "ms");
    m.set("core.migration_fraction", mean_of(reps, |r| r.migration_fraction()), "ratio");
    let supersteps = sum_of(reps, |r| r.supersteps());
    let wall_ms = sum_of(reps, |r| r.wall_ns()) / 1e6;
    m.set(
        "pregel.superstep_ms",
        if supersteps > 0.0 { wall_ms / supersteps } else { 0.0 },
        "ms",
    );
    m.set("pregel.supersteps", supersteps / windows, "count");
    m.set("pregel.computed", sum_of(reps, |r| r.computed()) / windows, "count");
    m.set("pregel.active_fraction", mean_of(reps, |r| r.active_fraction()), "ratio");
    let remote_records = sum_of(reps, |r| r.sent_remote_records());
    m.set("pregel.remote_records", remote_records / windows, "count");
    m.set("pregel.local_share", mean_of(reps, |r| r.local_share()), "ratio");
    m.set("pregel.fabric_reallocs", sum_of(reps, |r| r.fabric_reallocs()), "count");
    let wire_bytes = sum_of(reps, |r| r.wire_bytes());
    m.set("wire.bytes", wire_bytes / windows, "bytes");
    m.set("wire.frames", sum_of(reps, |r| r.wire_frames()) / windows, "count");
    m.set(
        "wire.bytes_per_record",
        if wire_bytes > 0.0 { wire_bytes / remote_records.max(1.0) } else { 0.0 },
        "bytes",
    );
    m.set("wire.folded", sum_of(reps, |r| r.wire_folded()) / windows, "count");
    m.set("transport.retransmits", sum_of(reps, |r| r.retransmits()), "count");
    m.set("serving.state_capture_ms", median(&tr.per_window_ms("serving.state_capture")), "ms");
    m.set("serving.wal_diff_ms", median(&tr.durations_ms("serving.wal_diff")), "ms");
    m.set("serving.wal_append_ms", median(&tr.durations_ms("serving.wal_append")), "ms");
    m.set("serving.wal_record_bytes", mean(&traced.record_bytes), "bytes");
    m.set("routing.publish_us", median(&tr.durations_ms("routing.publish")) * 1e3, "us");
    m.set("serving.compact_ms", median(&tr.durations_ms("serving.compact")), "ms");
    m.set("serving.snapshot_bytes", svc.snapshot_bytes() as f64, "bytes");
    m.set("serving.resume_load_ms", median(&tr.durations_ms("serving.resume_load")), "ms");
    m.set(
        "serving.resume_rebuild_ms",
        median(&tr.durations_ms("serving.resume_rebuild")),
        "ms",
    );
    m.set("routing.seqlock_retries", svc.routing_retries() as f64, "count");
    m.set("routing.stale_reads", traced.reader.stale as f64, "count");
    let traced_window = traced.window.ms_p50();
    let residual = median(&tr.residual_ms("window"));
    m.set("trace.window_ms", traced_window, "ms");
    m.set("trace.residual_ms", residual, "ms");
    m.set("trace.overhead", traced_window / untraced.window.ms_p50(), "ratio");
    // The graph calls of a window are timed just before it, under `shadow`.
    layer_self_metrics(m, tr, &["window", "shadow"], windows);
    out.checks.record(checks::residual_within(residual, traced_window, checks::RESIDUAL_SHARE));
}

/// `transport.ring_direct_ratio`: the next elastic cycle replayed from the
/// same state on Ring and on Direct, arms alternating per event; total
/// Ring time over total Direct time. The arms must agree bit for bit.
fn ring_direct_ratio(inp: &Inputs, svc: &Service, cycle: u64, out: &mut Outcome) -> f64 {
    let state = svc.session().state();
    let on = |transport| {
        let mut state = state.clone();
        state.cfg.transport = transport;
        StreamSession::from_state(state)
    };
    let (mut ring, mut direct) = (on(TransportKind::Ring), on(TransportKind::Direct));
    let (mut ring_s, mut direct_s) = (0.0, 0.0);
    for event in inp.cycle(cycle) {
        let start = Instant::now();
        ring.apply(event.clone());
        ring_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        direct.apply(event);
        direct_s += start.elapsed().as_secs_f64();
        out.checks.record(if ring.labels() == direct.labels() {
            Ok(())
        } else {
            Err("Ring and Direct transports diverge on the same event".to_string())
        });
    }
    ring_s / direct_s
}
