//! Property tests over the full stack: for arbitrary arrival sequences and
//! latency ladders, the Impatience framework must agree with a batch
//! oracle, the basic and advanced frameworks must agree with each other,
//! and output streams must be ordered and monotone in completeness. A
//! differential battery then checks that every [`FrameworkEnv`] layer
//! (registry, trace, durability, late policy) leaves the output streams
//! unchanged, and that a crashed durable build recovers byte-identical.
//!
//! On failure the harness prints the failing case seed; replay with
//! `IMPATIENCE_PROP_SEED=0x<seed> cargo test <test name>`.

use impatience::prelude::*;
use impatience_core::trace::{TraceClock, TraceConfig};
use impatience_core::{DeadLetter, DeadLetterQueue, LatePolicy, StreamError, TraceSink};
use impatience_engine::{punctuate_arrivals, CheckpointCtx, Streamable};
use impatience_framework::{to_streamables, FrameworkEnv};
use impatience_testkit::prop::{vec as pvec, weighted_bool, Strategy};
use impatience_testkit::props;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn window() -> TickDuration {
    TickDuration::ticks(16)
}

/// Arbitrary arrival sequence: mostly advancing with occasional big
/// regressions (late stragglers).
fn arrivals_strategy() -> impl Strategy<Value = Vec<Event<u32>>> {
    pvec((0i64..40, weighted_bool(0.15), 0u32..8), 1..400).prop_map(|steps| {
        let mut t = 0i64;
        let mut out = Vec::new();
        for (advance, late, key) in steps {
            t += advance;
            let sync = if late { (t - 100).max(0) } else { t };
            out.push(Event::keyed(Timestamp::new(sync), key, key));
        }
        out
    })
}

fn policy(freq: usize) -> IngressPolicy {
    IngressPolicy {
        punctuation_frequency: freq,
        reorder_latency: TickDuration::ZERO,
        batch_size: 32,
    }
}

/// Oracle: windowed grouped counts over events surviving the aligned
/// watermark-delay drop rule.
fn oracle(arrivals: &[Event<u32>], max_latency: TickDuration) -> BTreeMap<(i64, u32), u64> {
    let mut wm = Timestamp::MIN;
    let mut m = BTreeMap::new();
    for e in arrivals {
        let aligned = e.sync_time.align_down(window());
        wm = wm.max(aligned);
        if wm - aligned < max_latency {
            *m.entry((aligned.ticks(), e.key)).or_insert(0) += 1;
        }
    }
    m
}

/// Per-rung keyed window counts plus the measured work ratio.
type LadderOutputs = (Vec<BTreeMap<(i64, u32), u64>>, f64);

fn run_advanced(
    arrivals: Vec<Event<u32>>,
    latencies: &[TickDuration],
    freq: usize,
) -> LadderOutputs {
    let meter = MemoryMeter::new();
    let ds = DisorderedStreamable::from_arrivals(arrivals, &policy(freq)).tumbling_window(window());
    let mut ss = to_streamables_advanced(
        ds,
        latencies,
        |s: Streamable<u32>| s.group_aggregate(CountAgg),
        |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
        &meter,
    )
    .unwrap();
    let outs: Vec<BTreeMap<(i64, u32), u64>> = (0..latencies.len())
        .map(|i| {
            let o = ss
                .take_stream(i)
                .expect("take output stream")
                .collect_output();
            assert!(o.is_completed());
            assert!(impatience_core::validate_ordered_stream(&o.messages()).is_ok());
            o.events()
                .iter()
                .map(|e| ((e.sync_time.ticks(), e.key), e.payload))
                .collect()
        })
        .collect();
    let leak = meter.current() as f64;
    (outs, leak)
}

fn run_basic_with_query(
    arrivals: Vec<Event<u32>>,
    latencies: &[TickDuration],
    freq: usize,
) -> Vec<BTreeMap<(i64, u32), u64>> {
    let meter = MemoryMeter::new();
    let ds = DisorderedStreamable::from_arrivals(arrivals, &policy(freq)).tumbling_window(window());
    let mut ss = to_streamables_basic(ds, latencies, &meter).unwrap();
    (0..latencies.len())
        .map(|i| {
            let o = ss
                .take_stream(i)
                .expect("take output stream")
                .group_aggregate(CountAgg)
                .collect_output();
            o.events()
                .iter()
                .map(|e| ((e.sync_time.ticks(), e.key), e.payload))
                .collect()
        })
        .collect()
}

props! {
    cases = 64;

    fn final_stream_matches_oracle(
        arrivals in arrivals_strategy(),
        freq in 1usize..60,
    ) {
        let ls = vec![
            TickDuration::ticks(16),
            TickDuration::ticks(64),
            TickDuration::ticks(400),
        ];
        let expect = oracle(&arrivals, ls[2]);
        let (outs, leak) = run_advanced(arrivals, &ls, freq);
        assert_eq!(outs[2], expect);
        assert_eq!(leak, 0.0, "buffered state leaked");
    }

    fn basic_and_advanced_agree(
        arrivals in arrivals_strategy(),
        freq in 1usize..40,
    ) {
        let ls = vec![TickDuration::ticks(32), TickDuration::ticks(256)];
        let (adv, _) = run_advanced(arrivals.clone(), &ls, freq);
        let basic = run_basic_with_query(arrivals, &ls, freq);
        // Same query, same partitions: identical results stream by stream.
        assert_eq!(adv[0], basic[0]);
        assert_eq!(adv[1], basic[1]);
    }

    fn completeness_monotone_in_latency(
        arrivals in arrivals_strategy(),
        freq in 1usize..40,
    ) {
        let ls = vec![
            TickDuration::ticks(8),
            TickDuration::ticks(128),
            TickDuration::ticks(1024),
        ];
        let (outs, _) = run_advanced(arrivals, &ls, freq);
        for i in 0..outs.len() - 1 {
            for (wk, n) in &outs[i] {
                let later = outs[i + 1].get(wk).copied().unwrap_or(0);
                assert!(*n <= later, "stream {i} over-counted {wk:?}");
            }
        }
    }

    fn single_latency_equals_plain_buffer_and_sort(
        arrivals in arrivals_strategy(),
        freq in 1usize..40,
    ) {
        // A 1-latency framework must equal DisorderedStreamable →
        // to_streamable with the same punctuation cadence... the framework
        // punctuates from its own watermark clock, so compare against the
        // oracle instead, which models exactly that clock.
        let ls = vec![TickDuration::ticks(64)];
        let expect = oracle(&arrivals, ls[0]);
        let (outs, _) = run_advanced(arrivals, &ls, freq);
        assert_eq!(outs[0], expect);
    }
}

/// The ladder the env battery builds.
fn env_ladder() -> Vec<TickDuration> {
    vec![
        TickDuration::ticks(16),
        TickDuration::ticks(64),
        TickDuration::ticks(400),
    ]
}

/// A framework form: builds the ladder over `ds` in `env`.
type Build<Q> =
    fn(DisorderedStreamable<u32>, &FrameworkEnv<u32>) -> Result<Streamables<Q>, StreamError>;

/// The basic form: identity PIQ and merge, raw events per tier.
fn basic(
    ds: DisorderedStreamable<u32>,
    env: &FrameworkEnv<u32>,
) -> Result<Streamables<u32>, StreamError> {
    to_streamables(ds, &env_ladder(), |s| s, |s| s, env)
}

/// The advanced form: per-window `count` PIQ, `reduce_by_key` merge.
fn advanced(
    ds: DisorderedStreamable<u32>,
    env: &FrameworkEnv<u32>,
) -> Result<Streamables<u64>, StreamError> {
    to_streamables(
        ds,
        &env_ladder(),
        |s: Streamable<u32>| s.count(),
        |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
        env,
    )
}

/// One env run: every tier's messages, the message count each tier held
/// after each fed tape message, the dead letters, the checkpoint context
/// of a durable build, and the tape index the run resumed from.
struct EnvRun<Q: Payload> {
    tiers: Vec<Vec<StreamMessage<Q>>>,
    marks: Vec<Vec<usize>>,
    dead: Vec<DeadLetter<u32>>,
    ckpt: Option<CheckpointCtx>,
    resumed_at: usize,
}

/// Builds `build` in `env` over a live source, subscribes every tier
/// before any input, and feeds `tape` one message at a time — from the
/// recovered checkpoint's `messages_seen` when the build restored one.
fn drive<Q: Payload>(
    build: Build<Q>,
    env: &FrameworkEnv<u32>,
    tape: &[StreamMessage<u32>],
) -> EnvRun<Q> {
    let (handle, ds) = DisorderedStreamable::live();
    let mut ss = build(ds, env).expect("valid ladder");
    let outs: Vec<_> = (0..ss.len())
        .map(|i| {
            ss.take_stream(i)
                .expect("take output stream")
                .collect_output()
        })
        .collect();
    let resumed_at = ss
        .checkpoint()
        .and_then(CheckpointCtx::recovery)
        .map_or(0, |r| r.messages_seen as usize);
    let mut tiers = vec![Vec::new(); outs.len()];
    let mut marks = Vec::with_capacity(tape.len());
    for m in &tape[resumed_at..] {
        handle.push(m.clone()).expect("push");
        for (tier, out) in tiers.iter_mut().zip(&outs) {
            tier.extend(out.take_messages());
        }
        marks.push(tiers.iter().map(Vec::len).collect());
    }
    let dead = env
        .dead_letters
        .as_ref()
        .map(|q| q.drain())
        .unwrap_or_default();
    EnvRun {
        tiers,
        marks,
        dead,
        ckpt: ss.checkpoint().cloned(),
        resumed_at,
    }
}

/// A fresh checkpoint directory, unique across cases and threads.
fn env_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "impatience-fw-env-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An env with `late` and a fresh dead-letter queue, plus the layers
/// selected by `(registry, trace, durable)`.
fn layered_env(
    late: LatePolicy,
    (registry, trace, durable): (bool, bool, bool),
    dir: &Path,
    every_n: u32,
) -> FrameworkEnv<u32> {
    let mut env = FrameworkEnv::new()
        .with_late(late)
        .with_dead_letters(&DeadLetterQueue::new());
    if registry {
        env = env.with_registry(&MetricsRegistry::new());
    }
    if trace {
        env = env.with_trace(&TraceSink::with(
            TraceClock::logical(),
            TraceConfig::default(),
        ));
    }
    if durable {
        env = env.with_checkpoint(dir, every_n);
    }
    env
}

/// The differential battery for one form: every layer combination under
/// every late policy matches the plain build with that policy, and a
/// durable build crashed after tape message `crash` and rebuilt over the
/// same directory stitches to the uncrashed output.
fn env_battery<Q: Payload>(
    build: Build<Q>,
    tape: &[StreamMessage<u32>],
    every_n: u32,
    crash: usize,
) {
    const LAYERS: [(bool, bool, bool); 4] = [
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (false, true, true),
    ];
    for late in [
        LatePolicy::RerouteNextPartition,
        LatePolicy::Drop,
        LatePolicy::DeadLetter,
    ] {
        let plain = drive(
            build,
            &layered_env(late, (false, false, false), Path::new(""), 0),
            tape,
        );
        assert!(
            plain.ckpt.is_none(),
            "a plain build has no checkpoint context"
        );
        for layers in LAYERS {
            let dir = env_dir("layers");
            let run = drive(build, &layered_env(late, layers, &dir, every_n), tape);
            assert_eq!(
                run.tiers, plain.tiers,
                "{late:?} {layers:?} changed the output"
            );
            assert_eq!(
                run.dead, plain.dead,
                "{late:?} {layers:?} changed the dead letters"
            );
            assert_eq!(run.ckpt.is_some(), layers.2, "checkpoint() iff durable");
            let _ = std::fs::remove_dir_all(&dir);
        }

        let dir = env_dir("crash");
        let env = || layered_env(late, (false, true, true), &dir, every_n);
        let crashed = drive(build, &env(), &tape[..=crash]);
        let resumed = drive(build, &env(), tape);
        assert!(resumed.resumed_at <= crash + 1, "checkpoint past the crash");
        for (i, tier) in resumed.tiers.iter().enumerate() {
            let committed = match resumed.resumed_at {
                0 => 0,
                seen => crashed.marks[seen - 1][i],
            };
            let mut stitched = crashed.tiers[i][..committed].to_vec();
            stitched.extend_from_slice(tier);
            assert_eq!(
                stitched, plain.tiers[i],
                "{late:?} tier {i} diverged across the crash"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

props! {
    cases = 16;

    fn framework_env_layers_are_inert_and_recover(
        arrivals in arrivals_strategy(),
        freq in 8usize..60,
        every_n in 1u32..4,
        crash in 0usize..1_000,
    ) {
        let tape = punctuate_arrivals(arrivals, &policy(freq));
        let puncts: Vec<usize> = (0..tape.len())
            .filter(|&i| matches!(tape[i], StreamMessage::Punctuation(_)))
            .collect();
        // Crash right after a seeded punctuation (or, without one, after
        // the first message).
        let crash = if puncts.is_empty() { 0 } else { puncts[crash % puncts.len()] };
        env_battery(basic, &tape, every_n, crash);
        env_battery(advanced, &tape, every_n, crash);
    }
}
