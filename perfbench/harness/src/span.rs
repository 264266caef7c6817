//! Spans recorded by the benchmark around each call into a layer.
//!
//! A span has a layer, a start and an end, its parent (the span open on
//! the same thread when it began) and the id of the batch it served;
//! spans of one batch share that id. Spans stay in memory and are
//! written out as a Chrome trace when the run ends. A layer's self time
//! is its span's duration minus its child spans' durations.

use crate::alloc::{self, Layer, LAYERS};
use impatience_core::{json, Json};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer called.
    pub layer: Layer,
    /// Index of the enclosing span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Batch (frame) id shared by every span serving that batch.
    pub batch: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder. A disabled tracer runs the closures and
/// records nothing, without reading the clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; records only when `on`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts or stops recording.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer` for `batch`.
    pub fn span<R>(&mut self, layer: Layer, batch: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            batch,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let saved = alloc::enter(layer);
        let r = f(self);
        alloc::leave(saved);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (duration minus children) of every span, by index.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Total self time per layer, indexed like [`Layer::ALL`].
    pub fn self_by_layer(&self) -> [u64; LAYERS] {
        let mut out = [0u64; LAYERS];
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            out[s.layer as usize] += own;
        }
        out
    }

    /// Durations of every span of `layer`, in recording order.
    pub fn durations(&self, layer: Layer) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::dur_ns)
            .collect()
    }

    /// Chrome trace-event records (`ph: "X"`) for thread lane `tid`.
    pub fn chrome_events(&self, tid: i64, into: &mut Vec<Json>) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            into.push(json!({
                "name": s.layer.name(),
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": s.start_ns as f64 / 1e3,
                "dur": s.dur_ns() as f64 / 1e3,
                "args": json!({"batch": s.batch as i64, "span": i as i64, "parent": parent}),
            }));
        }
    }
}
