//! Per-operator instrumentation: the [`MeteredObserver`] wrapper.
//!
//! Wrapping any operator's sink side with a [`MeteredObserver`] (in-traffic)
//! and its downstream with an [`EgressProbe`] (out-traffic) records
//! batches/events/punctuations in and out, cumulative busy time, and a
//! watermark-lag histogram — without changing a single message. The
//! [`crate::Streamable::instrument`] combinator installs both probes around
//! every named stage automatically.
//!
//! Busy time is *inclusive*: the probe times the wrapped operator's handler,
//! which itself pushes into everything downstream, so an operator's
//! exclusive time is its `busy_ns` minus the `busy_ns` of the next metered
//! operator. The watermark-lag histogram samples, per visible input event,
//! `sync_time − last punctuation` in ticks (clamped at zero for late
//! events); it shows how far ahead of the watermark an operator's input
//! runs — the slack a reorder latency must cover (Fig 5's disorder
//! quantity). Events seen before any punctuation are not sampled.

use crate::observer::Observer;
use impatience_core::metrics::{Counter, Histogram, MetricsRegistry};
use impatience_core::{EventBatch, Payload, StreamError, Timestamp};
use std::time::Instant;

/// Shared handles to one operator's instruments, registered under
/// `{op}.events_in`-style names.
#[derive(Clone, Default)]
pub struct OperatorMetrics {
    /// Batches received.
    pub batches_in: Counter,
    /// Visible events received.
    pub events_in: Counter,
    /// Punctuations received.
    pub punctuations_in: Counter,
    /// Batches emitted downstream.
    pub batches_out: Counter,
    /// Visible events emitted downstream.
    pub events_out: Counter,
    /// Punctuations emitted downstream.
    pub punctuations_out: Counter,
    /// Nanoseconds spent inside the operator's handlers (inclusive of
    /// downstream — see the module docs).
    pub busy_ns: Counter,
    /// Per-input-event `sync_time − last punctuation` in ticks.
    pub watermark_lag: Histogram,
}

impl OperatorMetrics {
    /// Fresh unregistered instruments.
    pub fn new() -> Self {
        Self::default()
    }

    /// Instruments backed by `registry` under `{op}.batches_in`,
    /// `{op}.events_in`, `{op}.punctuations_in`, `{op}.batches_out`,
    /// `{op}.events_out`, `{op}.punctuations_out`, `{op}.busy_ns`, and
    /// `{op}.watermark_lag`.
    pub fn register(registry: &MetricsRegistry, op: &str) -> Self {
        OperatorMetrics {
            batches_in: registry.counter(&format!("{op}.batches_in")),
            events_in: registry.counter(&format!("{op}.events_in")),
            punctuations_in: registry.counter(&format!("{op}.punctuations_in")),
            batches_out: registry.counter(&format!("{op}.batches_out")),
            events_out: registry.counter(&format!("{op}.events_out")),
            punctuations_out: registry.counter(&format!("{op}.punctuations_out")),
            busy_ns: registry.counter(&format!("{op}.busy_ns")),
            watermark_lag: registry.histogram(&format!("{op}.watermark_lag")),
        }
    }
}

/// Transparent observer wrapper that records an operator's *input* traffic
/// (counts, watermark lag, busy time) and forwards every message unchanged.
pub struct MeteredObserver<P: Payload, S> {
    metrics: OperatorMetrics,
    last_punctuation: Option<Timestamp>,
    inner: S,
    _p: core::marker::PhantomData<fn(P)>,
}

impl<P: Payload, S: Observer<P>> MeteredObserver<P, S> {
    /// Wraps `inner`, recording into `metrics`.
    pub fn new(metrics: OperatorMetrics, inner: S) -> Self {
        MeteredObserver {
            metrics,
            last_punctuation: None,
            inner,
            _p: core::marker::PhantomData,
        }
    }
}

impl<P: Payload, S: Observer<P>> Observer<P> for MeteredObserver<P, S> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        self.metrics.batches_in.inc();
        self.metrics.events_in.add(batch.visible_len() as u64);
        if let Some(wm) = self.last_punctuation {
            let wm = wm.ticks();
            self.metrics.watermark_lag.record_all(
                batch
                    .iter_visible()
                    .map(|e| e.sync_time.ticks().saturating_sub(wm).max(0) as u64),
            );
        }
        let start = Instant::now();
        self.inner.on_batch(batch);
        self.metrics.busy_ns.add(start.elapsed().as_nanos() as u64);
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        self.metrics.punctuations_in.inc();
        self.last_punctuation = Some(t);
        let start = Instant::now();
        self.inner.on_punctuation(t);
        self.metrics.busy_ns.add(start.elapsed().as_nanos() as u64);
    }

    fn on_completed(&mut self) {
        let start = Instant::now();
        self.inner.on_completed();
        self.metrics.busy_ns.add(start.elapsed().as_nanos() as u64);
    }

    fn on_error(&mut self, err: StreamError) {
        self.inner.on_error(err);
    }
}

/// Transparent observer wrapper that records an operator's *output* traffic
/// and forwards every message unchanged. Sits between the operator and its
/// downstream sink.
pub struct EgressProbe<P: Payload, S> {
    metrics: OperatorMetrics,
    inner: S,
    _p: core::marker::PhantomData<fn(P)>,
}

impl<P: Payload, S: Observer<P>> EgressProbe<P, S> {
    /// Wraps `inner`, recording out-traffic into `metrics`.
    pub fn new(metrics: OperatorMetrics, inner: S) -> Self {
        EgressProbe {
            metrics,
            inner,
            _p: core::marker::PhantomData,
        }
    }
}

impl<P: Payload, S: Observer<P>> Observer<P> for EgressProbe<P, S> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        self.metrics.batches_out.inc();
        self.metrics.events_out.add(batch.visible_len() as u64);
        self.inner.on_batch(batch);
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        self.metrics.punctuations_out.inc();
        self.inner.on_punctuation(t);
    }

    fn on_completed(&mut self) {
        self.inner.on_completed();
    }

    fn on_error(&mut self, err: StreamError) {
        self.inner.on_error(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::Output;
    use impatience_core::Event;

    fn batch(ts: &[i64]) -> EventBatch<u32> {
        ts.iter()
            .map(|&t| Event::point(Timestamp::new(t), t as u32))
            .collect()
    }

    #[test]
    fn metered_identity_is_transparent() {
        let registry = MetricsRegistry::new();
        let m = OperatorMetrics::register(&registry, "op");
        let (plain_out, plain_sink) = Output::<u32>::new();
        let (metered_out, metered_sink) = Output::<u32>::new();
        let mut plain: Box<dyn Observer<u32>> = Box::new(plain_sink);
        let mut metered: Box<dyn Observer<u32>> =
            Box::new(MeteredObserver::new(m.clone(), metered_sink));
        for obs in [&mut plain, &mut metered] {
            obs.on_batch(batch(&[3, 1, 2]));
            obs.on_punctuation(Timestamp::new(3));
            obs.on_batch(batch(&[9, 5]));
            obs.on_completed();
        }
        assert_eq!(plain_out.messages(), metered_out.messages());
        assert_eq!(m.batches_in.get(), 2);
        assert_eq!(m.events_in.get(), 5);
        assert_eq!(m.punctuations_in.get(), 1);
    }

    #[test]
    fn watermark_lag_sampled_after_first_punctuation() {
        let m = OperatorMetrics::new();
        let (_out, sink) = Output::<u32>::new();
        let mut obs = MeteredObserver::new(m.clone(), sink);
        obs.on_batch(batch(&[100])); // before any punctuation: not sampled
        obs.on_punctuation(Timestamp::new(10));
        obs.on_batch(batch(&[13, 10, 74])); // lags 3, 0, 64
        obs.on_completed();
        assert_eq!(m.watermark_lag.count(), 3);
        assert_eq!(m.watermark_lag.max(), 64);
        assert_eq!(m.watermark_lag.min(), 0);
        assert_eq!(m.watermark_lag.sum(), 67);
    }

    #[test]
    fn egress_probe_counts_out_traffic() {
        let m = OperatorMetrics::new();
        let (out, sink) = Output::<u32>::new();
        let mut probe = EgressProbe::new(m.clone(), sink);
        probe.on_batch(batch(&[1, 2]));
        probe.on_punctuation(Timestamp::new(2));
        probe.on_completed();
        assert_eq!(m.batches_out.get(), 1);
        assert_eq!(m.events_out.get(), 2);
        assert_eq!(m.punctuations_out.get(), 1);
        assert_eq!(m.events_in.get(), 0, "egress probe leaves in-side alone");
        assert_eq!(out.event_count(), 2);
        assert!(out.is_completed());
    }
}
