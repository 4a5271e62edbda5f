//! The closed-loop lookup client: one thread resolving Zipf-skewed keys
//! through a `RoutingReader` while the writer publishes epochs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spinner_serving::RoutingReader;

use crate::checks::Sample;

/// Lookups per timed batch: short enough that few batches contain a timer
/// interrupt, so the p99 reflects lookups rather than the interrupt rate.
pub const BATCH: usize = 128;
/// Batch times are counted in 1 ns buckets up to this many ns; slower
/// batches land in the last bucket.
const HIST_NS: usize = 1 << 16;
/// Besides the first lookup at each new epoch, one extra lookup per this
/// many is kept for the routing check (a multiple of [`BATCH`]).
const SAMPLE_EVERY: u64 = 1 << 14;

#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    /// Highest epoch any lookup has answered from.
    seen: AtomicU64,
}

/// What the lookup thread measured.
#[derive(Debug, Default)]
pub struct ReaderReport {
    /// Count of timed batches by duration in whole ns (see [`BATCH`]).
    pub batch_hist: Vec<u64>,
    pub lookups: u64,
    /// Lookups that returned `None` or an epoch older than one already seen.
    pub failures: u64,
    /// Lookups answered from an epoch already behind the head by the time
    /// they returned (counted only when traced: it costs a head load).
    pub stale: u64,
    pub samples: Vec<Sample>,
}

pub struct Reader {
    shared: Arc<Shared>,
    handle: JoinHandle<ReaderReport>,
}

impl Reader {
    /// Starts the lookup thread over `keys` (cycled).
    pub fn spawn(reader: RoutingReader, keys: Arc<Vec<u32>>, count_stale: bool) -> Self {
        let shared = Arc::new(Shared::default());
        let thread_shared = Arc::clone(&shared);
        let handle =
            std::thread::spawn(move || run(&reader, &keys, &thread_shared, count_stale));
        Self { shared, handle }
    }

    /// Blocks until a lookup has answered from `epoch` or later. Errors
    /// after 30 s, which only a stalled reader explains.
    pub fn wait_visible(&self, epoch: u64) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut spins = 0u32;
        while self.shared.seen.load(Ordering::Acquire) < epoch {
            spins += 1;
            if spins.is_multiple_of(64) {
                if Instant::now() > deadline {
                    return Err(format!("epoch {epoch} never became visible to the reader"));
                }
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        Ok(())
    }

    pub fn stop(self) -> ReaderReport {
        self.shared.stop.store(true, Ordering::Release);
        self.handle.join().expect("reader thread panicked")
    }
}

fn run(
    reader: &RoutingReader,
    keys: &[u32],
    shared: &Shared,
    count_stale: bool,
) -> ReaderReport {
    let mut batch_hist = vec![0u64; HIST_NS];
    let mut samples = Vec::new();
    let (mut lookups, mut failures, mut stale) = (0u64, 0u64, 0u64);
    let mut last_epoch = 0u64;
    let mut checksum = 0u64;
    let mut batches = keys.chunks_exact(BATCH).cycle();
    while !shared.stop.load(Ordering::Acquire) {
        let batch = batches.next().expect("at least one batch of keys");
        let start = Instant::now();
        for &v in batch {
            match reader.lookup(v) {
                Some(hit) if hit.epoch() == last_epoch => {
                    checksum = checksum.wrapping_add(u64::from(hit.worker()));
                    if count_stale && last_epoch < reader.head() {
                        stale += 1;
                    }
                }
                // First answer from a newer epoch: keep it for the routing
                // check and tell the writer the epoch is visible.
                Some(hit) if hit.epoch() > last_epoch => {
                    last_epoch = hit.epoch();
                    samples.push(Sample { vertex: v, worker: hit.worker(), epoch: last_epoch });
                    shared.seen.store(last_epoch, Ordering::Release);
                }
                // `None`, or an epoch older than one already seen.
                _ => failures += 1,
            }
        }
        let ns = start.elapsed().as_nanos() as usize;
        batch_hist[ns.min(HIST_NS - 1)] += 1;
        lookups += BATCH as u64;
        if lookups % SAMPLE_EVERY == 0 {
            if let Some(hit) = reader.lookup(batch[0]) {
                samples.push(Sample {
                    vertex: batch[0],
                    worker: hit.worker(),
                    epoch: hit.epoch(),
                });
            }
        }
    }
    std::hint::black_box(checksum);
    ReaderReport { batch_hist, lookups, failures, stale, samples }
}
