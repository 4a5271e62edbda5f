//! Output checks. Every workload runs them on what the system returned;
//! a single violation makes the run incorrect.

use std::collections::HashMap;
use std::sync::Arc;

use spinner_pregel::WorkerId;

/// How far above the capacity bound `c` a converged partition's maximum
/// normalised load ρ may sit after a from-scratch partition or a delta
/// window. Migration is probabilistic (Eq. 14), so loads overshoot `c`
/// slightly; the workspace's own tests hold scratch partitions to the same
/// `c + 0.05`.
pub const RHO_SLACK: f64 = 0.05;

/// The slack after a resize or worker-loss window, which re-converges from
/// a globally perturbed labelling: the workspace's tests hold elastic
/// windows to ρ < 1.25 at c = 1.05.
pub const RHO_SLACK_ELASTIC: f64 = 0.20;

/// The largest share of a traced window its layer spans may leave
/// unexplained (time between spans: clock reads and span bookkeeping).
pub const RESIDUAL_SHARE: f64 = 0.02;

/// Tally of checks made and the messages of those that failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub made: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.made += 1;
        if let Err(msg) = outcome {
            if self.failures.len() < 32 {
                eprintln!("check failed: {msg}");
            }
            self.failures.push(msg);
        }
    }
}

/// Every label lies in `[0, k)`.
pub fn labels_in_range(labels: &[u32], k: u32) -> Result<(), String> {
    match labels.iter().position(|&l| l >= k) {
        None => Ok(()),
        Some(v) => Err(format!("vertex {v} has label {} outside [0, {k})", labels[v])),
    }
}

/// A converged partition respects the capacity bound: `rho <= c + slack`.
pub fn rho_within(rho: f64, c: f64, slack: f64) -> Result<(), String> {
    if rho.is_finite() && rho <= c + slack {
        Ok(())
    } else {
        Err(format!("rho {rho} exceeds c {c} + slack {slack}"))
    }
}

/// One lookup answer kept for checking: vertex, worker, epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub vertex: u32,
    pub worker: WorkerId,
    pub epoch: u64,
}

/// The placement the writer published at each epoch.
#[derive(Debug, Default)]
pub struct Published {
    by_epoch: HashMap<u64, Arc<Vec<WorkerId>>>,
    last: Arc<Vec<WorkerId>>,
}

impl Published {
    /// Records the placement published at `epoch`, sharing storage with the
    /// previous epoch's when they are equal, so memory does not grow with
    /// the number of epochs that move nothing.
    pub fn record(&mut self, epoch: u64, placement: &[WorkerId]) {
        if self.last.as_slice() != placement {
            self.last = Arc::new(placement.to_vec());
        }
        self.by_epoch.insert(epoch, Arc::clone(&self.last));
    }
}

/// Each sampled lookup names the worker the placement published at the
/// lookup's epoch assigns to its vertex, and every published epoch was
/// sampled at least once.
pub fn routing_agrees(samples: &[Sample], published: &Published) -> Result<(), String> {
    let mut seen: HashMap<u64, usize> = HashMap::new();
    for s in samples {
        let placement = published.by_epoch.get(&s.epoch).ok_or_else(|| {
            format!("lookup of {} answered from unpublished epoch {}", s.vertex, s.epoch)
        })?;
        let want = placement.get(s.vertex as usize).copied();
        if want != Some(s.worker) {
            return Err(format!(
                "stale routing entry: vertex {} at epoch {} routed to worker {}, placement says {:?}",
                s.vertex, s.epoch, s.worker, want
            ));
        }
        *seen.entry(s.epoch).or_default() += 1;
    }
    match published.by_epoch.keys().find(|e| !seen.contains_key(e)) {
        None => Ok(()),
        Some(e) => Err(format!("no lookup observed published epoch {e}")),
    }
}

/// A resumed node's labels and placement are bit-identical to the live
/// node's.
pub fn resume_identical(
    live: (&[u32], &[WorkerId]),
    resumed: (&[u32], &[WorkerId]),
) -> Result<(), String> {
    if live.0 != resumed.0 {
        let v = live.0.iter().zip(resumed.0).position(|(a, b)| a != b);
        return Err(format!(
            "resumed labels diverge (live {} vs resumed {} vertices, first difference at {v:?})",
            live.0.len(),
            resumed.0.len()
        ));
    }
    if live.1 != resumed.1 {
        let v = live.1.iter().zip(resumed.1).position(|(a, b)| a != b);
        return Err(format!("resumed placement diverges (first difference at {v:?})"));
    }
    Ok(())
}

/// A fault-free wire needs no retransmits and degrades no lane.
pub fn transport_clean(
    retransmits: u64,
    lanes_degraded: u64,
    lanes_dead: u64,
) -> Result<(), String> {
    if retransmits == 0 && lanes_degraded == 0 && lanes_dead == 0 {
        Ok(())
    } else {
        Err(format!(
            "fault-free wire saw {retransmits} retransmits, {lanes_degraded} degraded and \
             {lanes_dead} dead lanes"
        ))
    }
}

/// The spans of a traced window add up to its time within `share`.
pub fn residual_within(residual_ms: f64, window_ms: f64, share: f64) -> Result<(), String> {
    if residual_ms <= share * window_ms {
        Ok(())
    } else {
        Err(format!(
            "traced window of {window_ms} ms leaves {residual_ms} ms outside its layer spans \
             (more than {share} of it)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_check_rejects_a_corrupted_label_vector() {
        let mut labels = vec![0, 3, 15, 7];
        assert!(labels_in_range(&labels, 16).is_ok());
        labels[2] = 16;
        assert!(labels_in_range(&labels, 16).is_err());
        labels[2] = u32::MAX;
        assert!(labels_in_range(&labels, 16).is_err());
    }

    #[test]
    fn rho_check_rejects_an_unbalanced_partition() {
        assert!(rho_within(1.04, 1.05, RHO_SLACK).is_ok());
        assert!(rho_within(1.10, 1.05, RHO_SLACK).is_ok());
        assert!(rho_within(1.2, 1.05, RHO_SLACK).is_err());
        assert!(rho_within(f64::NAN, 1.05, RHO_SLACK).is_err());
    }

    fn published() -> Published {
        let mut p = Published::default();
        p.record(1, &[0, 1, 2]);
        p.record(2, &[0, 2, 2]);
        p
    }

    #[test]
    fn routing_check_rejects_a_stale_entry() {
        let p = published();
        let fresh = [
            Sample { vertex: 1, worker: 1, epoch: 1 },
            Sample { vertex: 1, worker: 2, epoch: 2 },
        ];
        assert!(routing_agrees(&fresh, &p).is_ok());
        // Epoch 2 moved vertex 1 to worker 2; an answer still naming
        // worker 1 at epoch 2 is stale.
        let stale = [fresh[0], Sample { vertex: 1, worker: 1, epoch: 2 }];
        assert!(routing_agrees(&stale, &p).is_err());
        let unpublished = [fresh[0], fresh[1], Sample { vertex: 0, worker: 0, epoch: 3 }];
        assert!(routing_agrees(&unpublished, &p).is_err());
        let out_of_range = [fresh[0], fresh[1], Sample { vertex: 9, worker: 0, epoch: 2 }];
        assert!(routing_agrees(&out_of_range, &p).is_err());
        assert!(routing_agrees(&fresh[..1], &p).is_err(), "epoch 2 never observed");
    }

    #[test]
    fn resume_check_rejects_a_diverged_resume() {
        let (labels, placement) = (vec![1, 2, 3], vec![0, 1, 1]);
        assert!(resume_identical((&labels, &placement), (&labels, &placement)).is_ok());
        let diverged = vec![1, 2, 4];
        assert!(resume_identical((&labels, &placement), (&diverged, &placement)).is_err());
        let moved = vec![0, 1, 0];
        assert!(resume_identical((&labels, &placement), (&labels, &moved)).is_err());
        assert!(resume_identical((&labels, &placement), (&labels[..2], &placement)).is_err());
    }

    #[test]
    fn residual_check_bounds_unexplained_time() {
        assert!(residual_within(0.5, 100.0, RESIDUAL_SHARE).is_ok());
        assert!(residual_within(5.0, 100.0, RESIDUAL_SHARE).is_err());
    }

    #[test]
    fn transport_check_rejects_retransmits_and_degraded_lanes() {
        assert!(transport_clean(0, 0, 0).is_ok());
        assert!(transport_clean(1, 0, 0).is_err());
        assert!(transport_clean(0, 1, 0).is_err());
        assert!(transport_clean(0, 0, 1).is_err());
    }
}
