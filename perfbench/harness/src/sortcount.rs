//! Deterministic sort work counters.
//!
//! A workload's arrivals are driven through `ImpatienceSorter` as an
//! element type that counts its `event_time` reads and its clones (the
//! technique of `crates/sort/tests/optimizations.rs`). The counts are a
//! pure function of the arrivals and the punctuation rule, so they repeat
//! exactly for one seed; the benchmark checks that, and that a second
//! seed moves them, which catches a dead counter.

use crate::alloc::Layer;
use crate::span::Tracer;
use impatience_core::{
    EventTimed, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec, Timestamp,
};
use impatience_sort::{ImpatienceSorter, OnlineSorter};
use std::cell::Cell;

thread_local! {
    static TIME_READS: Cell<u64> = const { Cell::new(0) };
    static CLONES: Cell<u64> = const { Cell::new(0) };
}

/// A sort element whose time reads and clones are counted.
#[derive(Debug)]
pub struct Counted {
    t: i64,
    key: u32,
    payload: i64,
}

impl Counted {
    /// An element at event time `t`.
    pub fn new(t: i64, key: u32, payload: i64) -> Self {
        Counted { t, key, payload }
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.with(|c| c.set(c.get() + 1));
        Counted {
            t: self.t,
            key: self.key,
            payload: self.payload,
        }
    }
}

impl EventTimed for Counted {
    fn event_time(&self) -> Timestamp {
        TIME_READS.with(|c| c.set(c.get() + 1));
        Timestamp::new(self.t)
    }
}

impl StateCodec for Counted {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.t.encode(w);
        self.key.encode(w);
        self.payload.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Counted {
            t: i64::decode(r)?,
            key: u32::decode(r)?,
            payload: i64::decode(r)?,
        })
    }
}

/// What one replay counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SortCounts {
    /// Events pushed into the sorter.
    pub pushed: u64,
    /// `event_time` reads made by the sorter.
    pub time_reads: u64,
    /// Element clones made by the sorter.
    pub clones: u64,
    /// Most live runs seen after a batch of pushes.
    pub runs_peak: u64,
    /// Events at or below the last punctuation, dropped before the push.
    pub late_dropped: u64,
    /// Events emitted in order.
    pub emitted: u64,
}

/// Drives `batches` (`(event time, key, payload)` in arrival order)
/// through an `ImpatienceSorter`, punctuating after each batch at the
/// time `rule` returns. Records a `sort.push` and a `sort.punctuate`
/// span per batch on `tracer`.
pub fn replay(
    batches: &[Vec<(i64, u32, i64)>],
    mut rule: impl FnMut(&[(i64, u32, i64)]) -> Option<Timestamp>,
    tracer: &mut Tracer,
) -> SortCounts {
    let mut sorter: ImpatienceSorter<Counted> = ImpatienceSorter::new();
    let mut out: Vec<Counted> = Vec::new();
    let mut counts = SortCounts::default();
    let mut last = i64::MIN;
    TIME_READS.with(|c| c.set(0));
    CLONES.with(|c| c.set(0));
    for (i, batch) in batches.iter().enumerate() {
        let mut items = Vec::with_capacity(batch.len());
        for &(t, key, payload) in batch {
            if t > last {
                items.push(Counted::new(t, key, payload));
            } else {
                counts.late_dropped += 1;
            }
        }
        counts.pushed += items.len() as u64;
        tracer.span(Layer::SortPush, i as u64, |_| {
            for item in items {
                sorter.push(item);
            }
        });
        counts.runs_peak = counts.runs_peak.max(sorter.run_count() as u64);
        if let Some(p) = rule(batch) {
            if p.ticks() > last {
                last = p.ticks();
                tracer.span(Layer::SortPunctuate, i as u64, |_| {
                    sorter.punctuate(p, &mut out)
                });
                counts.emitted += out.len() as u64;
                out.clear();
            }
        }
    }
    sorter.drain_all(&mut out);
    counts.emitted += out.len() as u64;
    counts.time_reads = TIME_READS.with(Cell::get);
    counts.clones = CLONES.with(Cell::get);
    counts
}
