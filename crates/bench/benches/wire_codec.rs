//! Criterion bench: the wire codec in isolation — frame encode/decode
//! throughput for both formats on a hub-skewed batch — and the transport
//! arms end-to-end on a message-heavy engine run.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use spinner_graph::generators::barabasi_albert;
use spinner_graph::DirectedGraph;
use spinner_pregel::program::Program;
use spinner_pregel::wire::{decode_frame, encode_frame, WireRecord};
use spinner_pregel::{
    Engine, EngineConfig, Placement, TransportKind, VertexContext, WireFormat,
};

/// A sorted-by-destination unicast batch with hub-skewed ids (what the
/// outbox actually hands the encoder after the sort): many records per hot
/// destination, so delta ids are mostly zero and varints mostly one byte.
fn hub_batch(records: usize) -> Vec<WireRecord<u64>> {
    let mut out = Vec::with_capacity(records);
    let mut id = 0u64;
    for i in 0..records {
        // Runs of 8 records per destination, destinations 97 ids apart.
        if i % 8 == 0 {
            id += 97;
        }
        out.push(WireRecord { broadcast: i % 16 == 0, id, msg: (i as u64) << 7 });
    }
    out
}

fn bench_codec(c: &mut Criterion) {
    let records = 100_000usize;
    let batch = hub_batch(records);
    let mut group = c.benchmark_group("wire_codec");
    group.sample_size(20);
    group.throughput(Throughput::Elements(records as u64));
    for format in [WireFormat::Raw, WireFormat::Compact] {
        group.bench_function(format!("encode_{format:?}"), |b| {
            let mut buf = Vec::new();
            b.iter(|| {
                // Recycle the buffer as the transport does: drained, with
                // its capacity kept. Without the clear every frame would
                // append to (and checksum) all the previous ones.
                buf.clear();
                buf = encode_frame(format, &batch, records as u64, std::mem::take(&mut buf));
                buf.len()
            })
        });
        let frame = encode_frame(format, &batch, records as u64, Vec::new());
        group.bench_function(format!("decode_{format:?}"), |b| {
            let mut ids = Vec::new();
            let mut out = Vec::new();
            b.iter(|| {
                decode_frame::<u64>(&frame, &mut ids, &mut out).expect("valid frame");
                out.len()
            })
        });
    }
    group.finish();
}

/// Min-label propagation with a combiner: floods the fabric with
/// same-destination messages, the regime sender-side folding targets.
struct MinLabel;

impl Program for MinLabel {
    type V = u32;
    type E = ();
    type M = u32;
    type G = ();
    type WorkerState = ();

    fn init_global(&self) {}
    fn init_worker(&self, _g: &(), _w: u16) {}

    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[u32]) {
        let mut best = *ctx.value;
        if ctx.superstep == 0 {
            best = ctx.vertex;
        }
        for &m in messages {
            best = best.min(m);
        }
        if best != *ctx.value || ctx.superstep == 0 {
            *ctx.value = best;
            for &t in ctx.edges.targets {
                ctx.mail.send(t, best);
            }
        }
        ctx.vote_to_halt();
    }

    fn combine(&self, acc: &mut u32, msg: &u32) -> bool {
        *acc = (*acc).min(*msg);
        true
    }
}

fn run_arm(g: &DirectedGraph, transport: TransportKind, format: WireFormat, fold: bool) {
    let placement = Placement::hashed(g.num_vertices(), 8, 5);
    let cfg = EngineConfig {
        num_threads: 8,
        max_supersteps: 10_000,
        seed: 1,
        broadcast_fabric: false,
        transport,
        wire_format: format,
        sender_fold: fold,
        ..EngineConfig::default()
    };
    let mut engine =
        Engine::from_directed(MinLabel, g, &placement, cfg, |_| u32::MAX, |_, _, _| ());
    engine.run();
}

fn bench_transport(c: &mut Criterion) {
    let g = barabasi_albert(30_000, 8, 11);
    let edges = g.num_edges();
    let mut group = c.benchmark_group("wire_transport");
    group.sample_size(10);
    group.throughput(Throughput::Elements(edges));
    group.bench_function("direct", |b| {
        b.iter(|| run_arm(&g, TransportKind::Direct, WireFormat::Compact, true))
    });
    group.bench_function("ring_raw", |b| {
        b.iter(|| run_arm(&g, TransportKind::Ring, WireFormat::Raw, true))
    });
    group.bench_function("ring_compact", |b| {
        b.iter(|| run_arm(&g, TransportKind::Ring, WireFormat::Compact, true))
    });
    group.bench_function("ring_compact_nofold", |b| {
        b.iter(|| run_arm(&g, TransportKind::Ring, WireFormat::Compact, false))
    });
    group.finish();
}

criterion_group!(benches, bench_codec, bench_transport);
criterion_main!(benches);
