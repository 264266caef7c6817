//! `framework-androidlog`: the §V advanced framework over a ladder of
//! three reorder latencies, running the Q3-shaped windowed count over
//! 1000 groups on AndroidLog arrivals, in-process on one thread.

use crate::alloc::{self, AllocCounts, Layer};
use crate::engine::stage_self_times;
use crate::layers::{self, per_event, LayerMetrics};
use crate::report::{self, Report, PASS_RANK};
use crate::span::Tracer;
use crate::Args;
use impatience_core::{
    EvalPayload, Event, MemoryMeter, MetricsRegistry, StreamMessage, TickDuration, Timestamp,
};
use impatience_engine::ops::CountAgg;
use impatience_engine::{punctuate_arrivals, IngressPolicy, InputHandle, Output, Streamable};
use impatience_framework::{
    to_streamables_advanced, to_streamables_advanced_metered, DisorderedStreamable, FrameworkStats,
};
use impatience_workloads::{generate_androidlog, AndroidLogConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// AndroidLog events per pass.
pub const EVENTS: usize = 500_000;
/// Groups of the Q3-shaped count.
const GROUPS: u32 = 1_000;
/// Punctuation frequency of the ingress (the paper's 10,000).
const PUNCTUATION_FREQUENCY: usize = 10_000;
/// Events per pushed batch.
const BATCH: usize = 4_096;

/// The reorder-latency ladder: ten minutes, an hour, six hours.
pub fn ladder() -> [TickDuration; 3] {
    [
        TickDuration::minutes(10),
        TickDuration::hours(1),
        TickDuration::hours(6),
    ]
}

fn window() -> TickDuration {
    TickDuration::minutes(10)
}

type Tiers = Vec<Output<u64>>;

fn build(
    meter: &MemoryMeter,
    registry: Option<&MetricsRegistry>,
) -> (InputHandle<EvalPayload>, Tiers, FrameworkStats) {
    let (handle, raw) = DisorderedStreamable::<EvalPayload>::live();
    let prepped = raw
        .re_key(|e| e.payload[2] % GROUPS)
        .tumbling_window(window());
    let piq = |s: Streamable<EvalPayload>| s.group_aggregate(CountAgg);
    let merge = |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b);
    let mut ss = match registry {
        None => to_streamables_advanced(prepped, &ladder(), piq, merge, meter),
        Some(r) => to_streamables_advanced_metered(prepped, &ladder(), piq, merge, meter, Some(r)),
    }
    .expect("valid ladder");
    let tiers = (0..ss.len())
        .map(|i| ss.take_stream(i).expect("untaken stream").collect_output())
        .collect();
    (handle, tiers, ss.stats())
}

/// One pass over the messages.
#[derive(Default)]
struct Pass {
    /// Each tier's output messages, as taken inside the timer.
    messages: Vec<Vec<StreamMessage<u64>>>,
    /// Each tier's output events (after [`Pass::flatten`]).
    tiers: Vec<Vec<Event<u64>>>,
    completed: bool,
    reply: Vec<u64>,
    release: Vec<u64>,
    active_ns: u64,
    attempted: u64,
    failed: u64,
    routed: Vec<u64>,
    /// Events too late for every partition (the framework's count).
    dropped: u64,
    completeness: f64,
    peak_bytes: usize,
    /// Set-up seconds per build, from the block timed before the pass.
    setup_s: f64,
    /// The process's high-water resident memory once the pass ended, MiB.
    rss_mb: f64,
    traced: bool,
}

impl Pass {
    /// Copies the output messages into events for the output check,
    /// outside the timed region.
    fn flatten(&mut self) {
        let last = self.messages.len() - 1;
        for (k, msgs) in std::mem::take(&mut self.messages).into_iter().enumerate() {
            let mut events = Vec::new();
            for m in msgs {
                match m {
                    StreamMessage::Batch(b) => events.extend(b.visible_to_vec()),
                    StreamMessage::Completed if k == last => self.completed = true,
                    _ => {}
                }
            }
            self.tiers.push(events);
        }
    }
}

fn pass(
    msgs: &[StreamMessage<EvalPayload>],
    registry: Option<&MetricsRegistry>,
    tracer: &mut Tracer,
) -> Pass {
    let meter = MemoryMeter::new();
    let (handle, tiers, stats) = build(&meter, registry);
    let maxima: Vec<Option<Timestamp>> = msgs
        .iter()
        .map(|m| match m {
            StreamMessage::Batch(b) => b.iter_visible().map(|e| e.sync_time).max(),
            _ => None,
        })
        .collect();
    let msgs = msgs.to_vec();
    let mut p = Pass {
        messages: vec![Vec::new(); tiers.len()],
        ..Default::default()
    };
    let last_tier = tiers.len() - 1;
    let mut pending: Vec<(Timestamp, u64)> = Vec::new();
    let epoch = Instant::now();
    for (i, (m, batch_max)) in msgs.into_iter().zip(maxima).enumerate() {
        let t0 = epoch.elapsed().as_nanos() as u64;
        p.attempted += 1;
        if tracer
            .span(Layer::FrameworkPush, i as u64, |_| handle.push(m))
            .is_err()
        {
            p.failed += 1;
        }
        let t1 = epoch.elapsed().as_nanos() as u64;
        if let Some(max) = batch_max {
            p.reply.push(t1 - t0);
            pending.push((max, t0));
        }
        tracer.span(Layer::Egress, i as u64, |_| {
            for (k, tier) in tiers.iter().enumerate() {
                for msg in tier.take_messages() {
                    if k == last_tier {
                        if let StreamMessage::Punctuation(t) = msg {
                            let release = &mut p.release;
                            pending.retain(|&(max, at)| {
                                let done = max <= t;
                                if done {
                                    release.push(t1 - at);
                                }
                                !done
                            });
                        }
                    }
                    p.messages[k].push(msg);
                }
            }
        });
    }
    p.active_ns = epoch.elapsed().as_nanos() as u64;
    p.release
        .extend(pending.iter().map(|&(_, at)| p.active_ns - at));
    p.routed = (0..tiers.len()).map(|i| stats.routed(i)).collect();
    p.dropped = stats.dropped();
    p.completeness = stats.completeness(last_tier);
    p.peak_bytes = meter.peak();
    p.traced = tracer.is_on();
    p
}

/// Windowed grouped counts of a tier's output; duplicates add up.
fn counts(events: &[Event<u64>]) -> BTreeMap<(i64, u32), u64> {
    let mut m = BTreeMap::new();
    for e in events {
        *m.entry((e.sync_time.ticks(), e.key)).or_insert(0) += e.payload;
    }
    m
}

/// The oracle of `tests/framework_props.rs`: windowed grouped counts over
/// the events whose aligned time is within the largest latency of the
/// aligned watermark when they arrive.
fn oracle(arrivals: &[Event<EvalPayload>]) -> BTreeMap<(i64, u32), u64> {
    let max_latency = ladder()[2];
    let mut wm = Timestamp::MIN;
    let mut m = BTreeMap::new();
    for e in arrivals {
        let aligned = e.sync_time.align_down(window());
        wm = wm.max(aligned);
        if wm - aligned < max_latency {
            *m.entry((aligned.ticks(), e.payload[2] % GROUPS))
                .or_insert(0) += 1;
        }
    }
    m
}

fn check_first(report: &mut Report, p: &Pass, expect: &BTreeMap<(i64, u32), u64>) {
    report.check(p.completed, || {
        "framework stream did not complete".to_string()
    });
    for (k, tier) in p.tiers.iter().enumerate() {
        let ordered = tier.windows(2).all(|w| w[0].sync_time <= w[1].sync_time);
        report.check(ordered, || format!("tier {k} output is out of order"));
    }
    let tiers: Vec<_> = p.tiers.iter().map(|t| counts(t)).collect();
    let last = tiers.last().expect("three tiers");
    report.check(last == expect, || {
        "final tier differs from the windowed-count oracle".to_string()
    });
    for k in 0..tiers.len() - 1 {
        let monotone = tiers[k]
            .iter()
            .all(|(key, c)| tiers[k + 1].get(key).is_some_and(|n| c <= n));
        report.check(monotone, || {
            format!("tier {k} counts exceed tier {}", k + 1)
        });
    }
    let represented: u64 = expect.values().sum();
    let routed: u64 = p.routed.iter().sum();
    report.check(represented == routed, || {
        format!("oracle keeps {represented} events, the framework routed {routed}")
    });
}

/// Runs passes until `budget` has elapsed (at least one), timing one
/// set-up block before each; with `trace`,
/// every other pass records spans and allocation counts.
fn passes(
    msgs: &[StreamMessage<EvalPayload>],
    budget: Duration,
    trace: bool,
    report: &mut Report,
    expect: &BTreeMap<(i64, u32), u64>,
) -> (Vec<Pass>, Tracer, AllocCounts) {
    let start = Instant::now();
    let mut tracer = Tracer::new(false, start);
    let mut all: Vec<Pass> = Vec::new();
    alloc::reset();
    while all.len() < 1 + usize::from(trace) || start.elapsed() < budget {
        let traced = trace && all.len() % 2 == 1;
        let setup_s = report::setup_block(|| {
            let meter = MemoryMeter::new();
            let built = build(&meter, None);
            (meter, built)
        });
        tracer.set_on(traced);
        alloc::set_enabled(traced);
        let mut p = pass(msgs, None, &mut tracer);
        p.setup_s = setup_s;
        p.rss_mb = report::peak_rss_mb();
        alloc::set_enabled(false);
        tracer.set_on(false);
        p.flatten();
        report.attempted += p.attempted;
        report.failed += p.failed;
        if all.is_empty() {
            check_first(report, &p, expect);
        } else {
            let same = p.tiers == all[0].tiers;
            report.check(same, || {
                format!("pass {} output differs from pass 0", all.len())
            });
            p.tiers = Vec::new();
        }
        all.push(p);
    }
    (all, tracer, alloc::snapshot())
}

/// The `framework-androidlog` workload.
pub fn run(args: &Args, report: &mut Report) {
    let ds = generate_androidlog(&AndroidLogConfig {
        seed: crate::inputs::sub_seed(args.seed, 0),
        ..AndroidLogConfig::sized(EVENTS)
    });
    let expect = oracle(&ds.events);
    let policy = IngressPolicy {
        punctuation_frequency: PUNCTUATION_FREQUENCY,
        reorder_latency: TickDuration::ZERO,
        batch_size: BATCH,
    };
    let msgs = punctuate_arrivals(ds.events.clone(), &policy);
    let total = ds.len();

    if !args.trace {
        let (all, _, _) = passes(&msgs, args.budget(), false, report, &expect);
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
        report.metric("completeness", all[0].completeness, "ratio");
        // The high-water after the first pass: later passes repeat its
        // work, and the allocator's fragmentation over them raised the
        // whole-run high-water by different amounts in runs of one seed.
        report.metric("peak_rss_mb", all[0].rss_mb, "MiB");
        report.note("passes", all.len());
        report.note("events_per_pass", total);
        report.note("tier_completeness_routed", all[0].routed.clone());
        return;
    }

    let mut lm = LayerMetrics::default();
    let (all, tracer, allocs) = passes(&msgs, args.budget(), true, report, &expect);
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

    // One instrumented pass: the framework's own time is its push time
    // minus the partitions' stage self times.
    let registry = MetricsRegistry::new();
    let mut metered_tracer = Tracer::new(true, Instant::now());
    let mut metered = pass(&msgs, Some(&registry), &mut metered_tracer);
    metered.flatten();
    report.attempted += metered.attempted;
    report.failed += metered.failed;
    let push_ns: u64 = metered_tracer.durations(Layer::FrameworkPush).iter().sum();
    let stage_ns: u64 = (0..ladder().len())
        .map(|i| {
            let (selfs, _, _) = stage_self_times(&registry, &format!("partition{i:02}"));
            selfs.iter().map(|s| s.1).sum::<u64>()
        })
        .sum();
    lm.set(
        "framework.self_ns_per_event",
        per_event(push_ns.saturating_sub(stage_ns), total as u64),
    );
    lm.set("framework.buffered_bytes_peak", metered.peak_bytes as f64);
    lm.set("sort.late_dropped", metered.dropped as f64);
    for (i, routed) in metered.routed.iter().enumerate() {
        lm.set(&format!("framework.partition{i}.routed"), *routed as f64);
    }
    for (i, tier) in all[0].tiers.iter().enumerate() {
        lm.set(&format!("framework.tier{i}.events_out"), tier.len() as f64);
    }

    let other = generate_androidlog(&AndroidLogConfig {
        seed: crate::inputs::sub_seed(args.seed ^ 0x5EED, 0),
        ..AndroidLogConfig::sized(EVENTS)
    });
    let mut sort_tracer = Tracer::new(true, Instant::now());
    let max_latency = ladder()[2];
    layers::sort_counters(
        report,
        &mut lm,
        &mut sort_tracer,
        &tuples(&ds.events),
        &tuples(&other.events),
        || {
            let mut wm = i64::MIN;
            move |batch: &[(i64, u32, i64)]| {
                for &(t, _, _) in batch {
                    wm = wm.max(t);
                }
                Some(Timestamp::new(wm).saturating_sub(max_latency))
            }
        },
    );
    report.note("passes", all.len() + 1);
    let path = args.trace_path();
    if let Err(e) = layers::write_chrome_trace(&path, &[&tracer, &metered_tracer, &sort_tracer]) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    lm.emit(report);
}

/// Arrivals cut at the punctuation frequency, as sort-replay tuples.
fn tuples(events: &[Event<EvalPayload>]) -> Vec<Vec<(i64, u32, i64)>> {
    events
        .chunks(PUNCTUATION_FREQUENCY)
        .map(|c| {
            c.iter()
                .map(|e| (e.sync_time.ticks(), e.key, i64::from(e.payload[0])))
                .collect()
        })
        .collect()
}
