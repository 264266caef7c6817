//! `engine-cloudlog`: the durable service tenant's operators and fixed
//! latency over CloudLog batches, pushed straight into a
//! `PipelineSpec::build` pipeline — no sockets, no WAL, one thread —
//! punctuating after each batch with the service's rule (watermark −
//! latency). Its traced run also measures the serve layers (`serve.rs`).

use crate::alloc::{self, AllocCounts, Layer};
use crate::inputs::{self, ReleaseTracker, FIXED_LATENCY};
use crate::layers::{self, LayerMetrics};
use crate::report::{self, Report, PASS_RANK};
use crate::span::Tracer;
use crate::{serve, Args};
use impatience_core::{
    Event, MemoryMeter, MetricsRegistry, StreamMessage, TickDuration, Timestamp,
};
use impatience_engine::{BuiltPipeline, Output, PipelineEnv, PipelineSpec};
use std::time::{Duration, Instant};

/// CloudLog events per pass.
pub const EVENTS: usize = 200_000;

/// The engine workload's spec: the durable tenant's operators and fixed
/// latency, without its checkpoint.
pub fn spec() -> PipelineSpec {
    inputs::windowed_sum_spec("engine", inputs::fixed_reorder())
}

fn build(spec: &PipelineSpec, registry: &MetricsRegistry) -> (BuiltPipeline, Output<i64>) {
    let meter = MemoryMeter::new();
    let env = PipelineEnv::new()
        .with_registry(registry)
        .with_meter(&meter);
    let (out, sink) = Output::new();
    let built = spec.build(&env, Box::new(sink)).expect("spec builds");
    (built, out)
}

/// One pass over the batches.
#[derive(Default)]
pub struct Pass {
    /// Output messages, as taken from the pipeline inside the timer.
    messages: Vec<StreamMessage<i64>>,
    /// Output events, in emission order (after [`Pass::flatten`]).
    pub events: Vec<Event<i64>>,
    /// Output punctuations (after [`Pass::flatten`]).
    pub puncts: Vec<Timestamp>,
    /// The stream completed.
    pub completed: bool,
    /// Per-batch push latency, nanoseconds.
    pub reply: Vec<u64>,
    /// Per-batch release latency, nanoseconds.
    pub release: Vec<u64>,
    /// Timed region, nanoseconds.
    pub active_ns: u64,
    /// Pushes attempted.
    pub attempted: u64,
    /// Pushes that returned an error.
    pub failed: u64,
    /// Events the pipeline's sort dropped as late (its registry's
    /// `late_dropped` counter).
    pub late_dropped: u64,
    /// Set-up seconds per build, from the block timed before the pass.
    pub setup_s: f64,
    /// The process's high-water resident memory once the pass ended, MiB.
    pub rss_mb: f64,
    /// Spans and allocation counts were recorded.
    pub traced: bool,
}

impl Pass {
    /// Copies the output messages into events and punctuations for the
    /// output check, outside the timed region.
    fn flatten(&mut self) {
        for m in std::mem::take(&mut self.messages) {
            match m {
                StreamMessage::Batch(b) => self.events.extend(b.visible_to_vec()),
                StreamMessage::Punctuation(t) => self.puncts.push(t),
                StreamMessage::Completed => self.completed = true,
            }
        }
    }
}

/// Pushes every batch, punctuating with the service's rule, then
/// completes. Spans go to `tracer` (which records only when on).
pub fn pass(
    spec: &PipelineSpec,
    batches: &[Vec<Event<i64>>],
    registry: &MetricsRegistry,
    tracer: &mut Tracer,
) -> Pass {
    let (built, out) = build(spec, registry);
    let handle = built.handle;
    let owned = batches.to_vec();
    let mut p = Pass::default();
    let mut release = ReleaseTracker::default();
    let latency = TickDuration::ticks(FIXED_LATENCY);
    let mut wm = Timestamp::MIN;
    let mut last = Timestamp::MIN;
    let epoch = Instant::now();
    let push = |p: &mut Pass, tracer: &mut Tracer, i: usize, msg: StreamMessage<i64>| {
        p.attempted += 1;
        if tracer
            .span(Layer::EnginePush, i as u64, |_| handle.push(msg))
            .is_err()
        {
            p.failed += 1;
        }
    };
    for (i, batch) in owned.into_iter().enumerate() {
        let t0 = epoch.elapsed().as_nanos() as u64;
        release.sent(&batch, t0);
        for e in &batch {
            wm = wm.max(e.sync_time);
        }
        push(&mut p, tracer, i, StreamMessage::batch(batch));
        let target = wm.saturating_sub(latency);
        if target > last {
            last = target;
            push(&mut p, tracer, i, StreamMessage::Punctuation(target));
        }
        let t1 = epoch.elapsed().as_nanos() as u64;
        p.reply.push(t1 - t0);
        let frontier = tracer.span(Layer::Egress, i as u64, |_| take(&out, &mut p.messages));
        release.observed(frontier, t1);
    }
    push(&mut p, tracer, batches.len(), StreamMessage::Completed);
    tracer.span(Layer::Egress, batches.len() as u64, |_| {
        take(&out, &mut p.messages)
    });
    let end = epoch.elapsed().as_nanos() as u64;
    release.observed(Some(Timestamp::MAX), end);
    p.active_ns = end;
    p.release = release.samples;
    p.late_dropped = late_dropped(registry, "engine");
    p.traced = tracer.is_on();
    p
}

/// Moves the released messages out of `out` into `into`; returns the
/// release frontier they carry: their largest punctuation, or the end of
/// time once the stream completed.
fn take(out: &Output<i64>, into: &mut Vec<StreamMessage<i64>>) -> Option<Timestamp> {
    let mut frontier = None;
    for m in out.take_messages() {
        match m {
            StreamMessage::Punctuation(t) => frontier = frontier.max(Some(t)),
            StreamMessage::Completed => frontier = Some(Timestamp::MAX),
            StreamMessage::Batch(_) => {}
        }
        into.push(m);
    }
    frontier
}

/// The sort stage's `late_dropped` counter of a pipeline built under
/// `prefix`, summed over its sort stages.
pub fn late_dropped(registry: &MetricsRegistry, prefix: &str) -> u64 {
    let head = format!("{prefix}.");
    registry
        .snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with(&head) && name.ends_with(".sort.late_dropped"))
        .map(|(_, v)| *v)
        .sum()
}

/// Exclusive time of each `PipelineSpec` stage from the registry's
/// inclusive `busy_ns`: a stage's own time is its `busy_ns` minus that of
/// the next stage. Returns `(stage name, self ns)` in chain order plus the
/// `reduce_by_key` batches and events out.
pub fn stage_self_times(
    registry: &MetricsRegistry,
    prefix: &str,
) -> (Vec<(String, u64)>, u64, u64) {
    let snap = registry.snapshot();
    let head = format!("{prefix}.");
    let mut stages: Vec<(String, String, u64)> = snap
        .counters
        .iter()
        .filter_map(|(name, v)| {
            let rest = name.strip_prefix(&head)?.strip_suffix(".busy_ns")?;
            let (idx, stage) = rest.split_once('.')?;
            Some((idx.to_string(), stage.to_string(), *v))
        })
        .collect();
    stages.sort();
    let mut out = Vec::new();
    for (i, (_, stage, busy)) in stages.iter().enumerate() {
        let downstream = stages.get(i + 1).map_or(0, |s| s.2);
        out.push((stage.clone(), busy.saturating_sub(downstream)));
    }
    let counter = |stage: &str, what: &str| {
        stages
            .iter()
            .find(|s| s.1 == stage)
            .map(|s| {
                registry
                    .counter(&format!("{prefix}.{}.{stage}.{what}", s.0))
                    .get()
            })
            .unwrap_or(0)
    };
    let batches_out = counter("reduce_by_key", "batches_out");
    let events_out = counter("reduce_by_key", "events_out");
    (out, batches_out, events_out)
}

/// Reports `ops.*` from a registry one pass wrote into.
pub fn report_ops(lm: &mut LayerMetrics, registry: &MetricsRegistry, prefix: &str) {
    let (selfs, batches_out, events_out) = stage_self_times(registry, prefix);
    for (stage, metric) in [
        ("sort", "ops.sort.self_ms"),
        ("tumbling_window", "ops.tumbling_window.self_ms"),
        ("reduce_by_key", "ops.sum_by_key.self_ms"),
    ] {
        let ns = selfs.iter().find(|s| s.0 == stage).map_or(0, |s| s.1);
        lm.set(metric, ns as f64 / 1e6);
    }
    if batches_out > 0 {
        lm.set(
            "ops.sum_by_key.events_per_batch_out",
            events_out as f64 / batches_out as f64,
        );
    }
}

/// Runs passes until `budget` has elapsed (at least one), timing one
/// set-up block before each; checks the first against `check` and every
/// later one against the first. With
/// `trace`, every other pass records spans and allocation counts, so
/// traced and untraced passes interleave. Returns the passes, the spans,
/// what the traced passes allocated, and the registry of the last pass.
fn passes(
    spec: &PipelineSpec,
    batches: &[Vec<Event<i64>>],
    budget: Duration,
    trace: bool,
    report: &mut Report,
    check: impl FnOnce(&mut Report, &Pass),
) -> (Vec<Pass>, Tracer, AllocCounts, MetricsRegistry) {
    let start = Instant::now();
    let mut tracer = Tracer::new(false, start);
    let mut all: Vec<Pass> = Vec::new();
    let mut check = Some(check);
    let mut registry = MetricsRegistry::new();
    alloc::reset();
    while all.len() < 1 + usize::from(trace) || start.elapsed() < budget {
        let traced = trace && all.len() % 2 == 1;
        let setup_s = report::setup_block(|| {
            let registry = MetricsRegistry::new();
            let built = build(spec, &registry);
            (registry, built)
        });
        registry = MetricsRegistry::new();
        tracer.set_on(traced);
        alloc::set_enabled(traced);
        let mut p = pass(spec, batches, &registry, &mut tracer);
        p.setup_s = setup_s;
        p.rss_mb = report::peak_rss_mb();
        alloc::set_enabled(false);
        tracer.set_on(false);
        p.flatten();
        report.attempted += p.attempted;
        report.failed += p.failed;
        if let Some(check) = check.take() {
            check(report, &p);
        } else {
            let first = &all[0];
            let same = p.events == first.events
                && p.puncts == first.puncts
                && p.late_dropped == first.late_dropped;
            report.check(same, || {
                format!("pass {} output differs from pass 0", all.len())
            });
            // Only the first pass's output is kept.
            p.events = Vec::new();
            p.puncts = Vec::new();
        }
        all.push(p);
    }
    (all, tracer, alloc::snapshot(), registry)
}

/// The `engine-cloudlog` workload.
pub fn run(args: &Args, report: &mut Report) {
    let batches = inputs::cloudlog_batches(inputs::sub_seed(args.seed, 0), EVENTS, inputs::BATCH);
    let total: usize = batches.iter().map(Vec::len).sum();
    let kept = inputs::kept_events(&batches, |_| TickDuration::ticks(FIXED_LATENCY));
    let reference = inputs::windowed_sum_reference(&kept);
    let spec = spec();

    let check = |report: &mut Report, p: &Pass| {
        let got = inputs::windowed_sum_output(&p.events);
        report.check(p.completed, || "stream did not complete".to_string());
        report.check(got.as_ref() == Some(&reference), || {
            "engine output differs from the stable-sort windowed-sum reference".to_string()
        });
        report.check(p.late_dropped as usize == total - kept.len(), || {
            format!(
                "the sort dropped {} events as late, the punctuation rule drops {}",
                p.late_dropped,
                total - kept.len()
            )
        });
    };

    if !args.trace {
        let (all, _, _, _) = passes(&spec, &batches, args.budget(), false, report, check);
        let mut rates: Vec<f64> = all
            .iter()
            .map(|p| total as f64 / (p.active_ns as f64 / 1e9))
            .collect();
        let mut reply: Vec<Vec<u64>> = all.iter().map(|p| p.reply.clone()).collect();
        let mut release: Vec<Vec<u64>> = all.iter().map(|p| p.release.clone()).collect();
        let mut setup: Vec<f64> = all.iter().map(|p| p.setup_s).collect();
        report.metric("setup_s", report::median(&mut setup), "s");
        report.windowed_rate("throughput_eps", &mut rates, PASS_RANK);
        report.windowed_ms("reply_p50_ms", &mut reply, 0.50, PASS_RANK);
        report.windowed_note("reply_p90_ms", &mut reply, 0.90, PASS_RANK);
        report.windowed_ms("release_p50_ms", &mut release, 0.50, PASS_RANK);
        report.windowed_ms("release_p90_ms", &mut release, 0.90, PASS_RANK);
        let dropped = all[0].late_dropped as f64;
        report.metric("completeness", 1.0 - dropped / total as f64, "ratio");
        // The high-water after the first pass: later passes repeat its
        // work, and the allocator's fragmentation over them raised the
        // whole-run high-water by different amounts in runs of one seed.
        report.metric("peak_rss_mb", all[0].rss_mb, "MiB");
        report.note("passes", all.len());
        report.note("events_per_pass", total);
        return;
    }

    // Traced run: traced and untraced passes interleaved, the sort
    // work-counter replay, then the serve layers.
    let mut lm = LayerMetrics::default();
    let (all, tracer, allocs, registry) =
        passes(&spec, &batches, args.budget(), true, report, check);
    let (traced, plain): (Vec<&Pass>, Vec<&Pass>) = all.iter().partition(|p| p.traced);
    let tput = |ps: &[&Pass]| {
        (total * ps.len()) as f64 / (ps.iter().map(|p| p.active_ns).sum::<u64>() as f64 / 1e9)
    };
    lm.set("trace.overhead", tput(&plain) / tput(&traced) - 1.0);
    lm.add_allocs(&allocs, (total * traced.len()) as u64);
    lm.add_coverage(
        traced.iter().map(|p| p.active_ns).sum(),
        &tracer.self_by_layer(),
    );
    report_ops(&mut lm, &registry, "engine");
    lm.set(
        "sort.late_dropped",
        late_dropped(&registry, "engine") as f64,
    );

    let mut sort_tracer = Tracer::new(true, Instant::now());
    let other = inputs::cloudlog_batches(
        inputs::sub_seed(args.seed ^ 0x5EED, 0),
        EVENTS,
        inputs::BATCH,
    );
    layers::sort_counters(
        report,
        &mut lm,
        &mut sort_tracer,
        &tuples(&batches),
        &tuples(&other),
        fixed_rule,
    );
    report.note("passes", all.len());
    let serve_tracers = serve::measure_layers(args, &batches, &mut lm, report);
    let mut tracers = vec![&tracer, &sort_tracer];
    tracers.extend(&serve_tracers);
    let path = args.trace_path();
    if let Err(e) = layers::write_chrome_trace(&path, &tracers) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    lm.emit(report);
}

/// Batches as `(event time, key, payload)` for the sort replay.
pub fn tuples(batches: &[Vec<Event<i64>>]) -> Vec<Vec<(i64, u32, i64)>> {
    batches
        .iter()
        .map(|b| {
            b.iter()
                .map(|e| (e.sync_time.ticks(), e.key, e.payload))
                .collect()
        })
        .collect()
}

/// The fixed-latency service rule as a sort-replay punctuation rule.
pub fn fixed_rule() -> impl FnMut(&[(i64, u32, i64)]) -> Option<Timestamp> {
    let mut wm = i64::MIN;
    move |batch| {
        for &(t, _, _) in batch {
            wm = wm.max(t);
        }
        Some(Timestamp::new(wm).saturating_sub(TickDuration::ticks(FIXED_LATENCY)))
    }
}
