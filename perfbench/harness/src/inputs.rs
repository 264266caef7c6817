//! Workload inputs, the pipeline spec the engine workload and the serve
//! layers' measurements share, and the reference computations the
//! output checks compare to.
//!
//! Inputs are a pure function of the seed and are generated before any
//! timer starts; the program under test only ever sees the batches.

use impatience_core::{Event, TickDuration, Timestamp};
use impatience_engine::{OpSpec, PipelineSpec, ReorderSpec};
use impatience_workloads::{generate_cloudlog, CloudLogConfig};
use std::collections::BTreeMap;

/// Events per push of the engine workload (and per frame of its durable
/// replay).
pub const BATCH: usize = 1000;
/// Events per frame of the paced socket pass.
pub const PACED_BATCH: usize = 500;
/// Tumbling-window size, ticks.
pub const WINDOW: i64 = 100;
/// Fixed reorder latency of the engine workload and the durable replay,
/// ticks.
pub const FIXED_LATENCY: i64 = 128;
/// The adaptive ladder of the paced socket pass, ticks. It spans the
/// CloudLog delay distribution: the prompt servers (a few ticks), the
/// slow path (tens to hundreds) and the failure-burst tail beyond.
pub const ADAPTIVE_LADDER: [i64; 4] = [16, 64, 256, 1024];
/// Completeness target of the adaptive controller.
pub const ADAPTIVE_QUALITY: f64 = 0.99;
/// Arrivals in the controller's sliding window.
pub const ADAPTIVE_WINDOW: usize = 4096;
/// Decisions held before the controller steps down.
pub const ADAPTIVE_HOLD: u32 = 2;
/// Checkpoint cadence of the durable replay, punctuations.
pub const CHECKPOINT_EVERY: u32 = 16;

/// Derives an independent stream seed from the run seed and an index.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    // SplitMix64 finaliser: distinct, well-mixed seeds per index.
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// CloudLog arrivals as `i64` events (payload field 0 as the value), cut
/// into batches of `batch`.
pub fn cloudlog_batches(seed: u64, events: usize, batch: usize) -> Vec<Vec<Event<i64>>> {
    let ds = generate_cloudlog(&CloudLogConfig {
        seed,
        ..CloudLogConfig::sized(events)
    });
    let events: Vec<Event<i64>> = ds
        .events
        .iter()
        .map(|e| Event::keyed(e.sync_time, e.key, i64::from(e.payload[0])))
        .collect();
    events.chunks(batch).map(<[_]>::to_vec).collect()
}

/// The reorder section of a workload's spec.
pub fn fixed_reorder() -> ReorderSpec {
    ReorderSpec::Fixed {
        latency: TickDuration::ticks(FIXED_LATENCY),
    }
}

/// The adaptive reorder section of the paced socket pass.
pub fn adaptive_reorder() -> ReorderSpec {
    ReorderSpec::Adaptive {
        ladder: ADAPTIVE_LADDER
            .iter()
            .map(|&t| TickDuration::ticks(t))
            .collect(),
        quality: ADAPTIVE_QUALITY,
        window: ADAPTIVE_WINDOW,
        hold: ADAPTIVE_HOLD,
    }
}

/// `tumbling_window` then `sum_by_key`, under `reorder`.
pub fn windowed_sum_spec(name: &str, reorder: ReorderSpec) -> PipelineSpec {
    PipelineSpec::new(name)
        .with_reorder(reorder)
        .with_op(OpSpec::TumblingWindow {
            size: TickDuration::ticks(WINDOW),
        })
        .with_op(OpSpec::SumByKey)
}

/// The service's punctuation rule, replayed: after each batch the tenant
/// punctuates at `watermark − latency`, with `latency_after` giving the
/// reorder latency in force after that batch. Events at or below the
/// previous punctuation are late and dropped by the sort. Returns the
/// kept events in arrival order.
pub fn kept_events(
    batches: &[Vec<Event<i64>>],
    mut latency_after: impl FnMut(&[Event<i64>]) -> TickDuration,
) -> Vec<Event<i64>> {
    let mut kept = Vec::new();
    let mut last = Timestamp::MIN;
    let mut wm = Timestamp::MIN;
    for b in batches {
        for e in b {
            wm = wm.max(e.sync_time);
            if e.sync_time > last {
                kept.push(*e);
            }
        }
        last = last.max(wm.saturating_sub(latency_after(b)));
    }
    kept
}

/// Reference result: stable sort by event time, then a wrapping sum per
/// (tumbling window, key).
pub fn windowed_sum_reference(kept: &[Event<i64>]) -> BTreeMap<(i64, u32), i64> {
    let mut sorted = kept.to_vec();
    sorted.sort_by_key(|e| e.sync_time);
    let mut sums = BTreeMap::new();
    for e in &sorted {
        let w = e.sync_time.align_down(TickDuration::ticks(WINDOW)).ticks();
        let s: &mut i64 = sums.entry((w, e.key)).or_insert(0);
        *s = s.wrapping_add(e.payload);
    }
    sums
}

/// Folds windowed-sum output events into a map; `None` if a
/// (window, key) is emitted twice or the output is out of order.
pub fn windowed_sum_output(events: &[Event<i64>]) -> Option<BTreeMap<(i64, u32), i64>> {
    let mut out = BTreeMap::new();
    let mut prev = Timestamp::MIN;
    for e in events {
        if e.sync_time < prev {
            return None;
        }
        prev = e.sync_time;
        if out
            .insert((e.sync_time.ticks(), e.key), e.payload)
            .is_some()
        {
            return None;
        }
    }
    Some(out)
}

/// Release-latency bookkeeping: a batch is released by the first output
/// punctuation at or beyond its largest event time (or by completion).
#[derive(Default)]
pub struct ReleaseTracker {
    pending: std::collections::VecDeque<(Timestamp, u64)>,
    /// Release latencies, nanoseconds.
    pub samples: Vec<u64>,
}

impl ReleaseTracker {
    /// Registers a batch sent (or due) at `at_ns`.
    pub fn sent(&mut self, batch: &[Event<i64>], at_ns: u64) {
        if let Some(max) = batch.iter().map(|e| e.sync_time).max() {
            self.pending.push_back((max, at_ns));
        }
    }

    /// Records output observed at `now_ns` whose release frontier (its
    /// largest punctuation, or the end of time on completion) is
    /// `frontier`.
    pub fn observed(&mut self, frontier: Option<Timestamp>, now_ns: u64) {
        let Some(frontier) = frontier else {
            return;
        };
        let samples = &mut self.samples;
        self.pending.retain(|&(max, at)| {
            let released = max <= frontier;
            if released {
                samples.push(now_ns.saturating_sub(at));
            }
            !released
        });
    }
}
