//! Conformance for sort-as-needed window pushdown (§IV, Fig 9(c)).
//!
//! A [`PipelineSpec`] whose ops begin `tumbling_window → sum_by_key` is
//! lowered with the window *inside* the sort stage: events are aligned
//! before they are buffered and no `tumbling_window` stage is built. This
//! suite holds that lowering to the hand-stacked chain it replaces,
//! `sorted → tumbling_window → reduce_by_key`:
//!
//! * over ≥500 seeded disordered streams — stragglers past the watermark,
//!   repeated punctuations, negative times, wrapping sums, shard counts
//!   {1, 2, 4}, `LatePolicy::Drop` and `LatePolicy::DeadLetter` — the two
//!   produce identical [`StreamMessage`] sequences (batch boundaries and
//!   punctuations, not only events) and identical dead-letter contents;
//! * a durable fused spec crashed at a seeded point, restored from its
//!   newest checkpoint and replayed from the checkpoint's offset yields the
//!   committed prefix plus recovered output of an uncrashed run;
//! * a checkpoint from the other lowering, or from another window size,
//!   fails to restore with a typed error and emits nothing;
//! * without a budget the fused sorter buffers a subset of the unfused
//!   sorter's events, also for windows far wider than the disorder;
//! * under a tight memory budget (forced punctuation, shed-oldest, spill)
//!   the fused sort keeps its output ordered, honours the budget after
//!   every batch, accounts for every input event exactly once, never
//!   trips a sorter assertion, and over all seeds loses no more events
//!   than the unfused lowering.
//!
//! Every case is deterministic in its seed.

use impatience_core::{
    validate_ordered_stream, DeadLetter, DeadLetterQueue, Event, LatePolicy, MemoryMeter,
    MetricsRegistry, ShedPolicy, StreamError, StreamMessage, TickDuration, Timestamp,
};
use impatience_engine::ops::SortPolicy;
use impatience_engine::{
    input_stream, CheckpointCtx, InputHandle, OpSpec, Output, PipelineEnv, PipelineSpec, SortSpec,
    Streamable,
};
use impatience_sort::ImpatienceSorter;
use impatience_testkit::rng::{Rng, SeedableRng, StdRng};
use std::path::{Path, PathBuf};

/// Seeded streams in the differential suite.
const CASES: u64 = 600;
/// Dead-letter capacity, large enough never to drop.
const DLQ_CAPACITY: usize = 1 << 16;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "impatience-window-pushdown-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One generated case: the pipeline shape and its input.
#[derive(Debug, Clone)]
struct Case {
    size: TickDuration,
    shards: usize,
    late: LatePolicy,
    /// An op after `sum_by_key` (the "…" of the fused prefix).
    tail: Option<OpSpec>,
    msgs: Vec<StreamMessage<i64>>,
}

/// A disordered punctuated stream: mostly advancing times, stragglers up
/// to three windows behind (many past the watermark), non-decreasing
/// punctuations that sometimes repeat, payloads near the wrapping edge.
fn stream(rng: &mut StdRng, size: i64, len: usize) -> Vec<StreamMessage<i64>> {
    let keys = rng.gen_range(1u32..9);
    let mut t = rng.gen_range(-60i64..60);
    let mut high = i64::MIN;
    let mut last = i64::MIN;
    let mut msgs = Vec::new();
    let mut produced = 0;
    while produced < len {
        let burst = rng.gen_range(1usize..9).min(len - produced);
        let events: Vec<Event<i64>> = (0..burst)
            .map(|_| {
                t += rng.gen_range(0..4i64);
                let sync = if rng.gen_ratio(1, 5) {
                    t - rng.gen_range(0..3 * size + 10)
                } else {
                    t
                };
                high = high.max(sync);
                let payload = if rng.gen_ratio(1, 20) {
                    i64::MAX - rng.gen_range(0..1_000i64)
                } else {
                    rng.gen_range(-1_000i64..1_000)
                };
                Event::keyed(Timestamp::new(sync), rng.gen_range(0..keys), payload)
            })
            .collect();
        produced += burst;
        msgs.push(StreamMessage::batch(events));
        if rng.gen_ratio(2, 5) {
            let p = high - rng.gen_range(0..2 * size + 1);
            if p >= last {
                last = p;
                msgs.push(StreamMessage::Punctuation(Timestamp::new(p)));
                if rng.gen_ratio(1, 6) {
                    msgs.push(StreamMessage::Punctuation(Timestamp::new(p)));
                }
            }
        }
    }
    if rng.gen_ratio(1, 4) {
        msgs.push(StreamMessage::Punctuation(Timestamp::MAX));
    }
    msgs.push(StreamMessage::Completed);
    msgs
}

fn generate(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51de_5eed);
    let size = [1i64, 3, 8, 16, 50][rng.gen_range(0..5usize)];
    let len = match seed % 8 {
        0 => 0,
        1 => 1,
        _ => rng.gen_range(2usize..300),
    };
    let tail = match rng.gen_range(0..4u32) {
        0 => None,
        1 => Some(OpSpec::FilterMin { min: 0 }),
        2 => Some(OpSpec::Scale { factor: 3 }),
        _ => Some(OpSpec::TopK { k: 2 }),
    };
    Case {
        size: TickDuration::ticks(size),
        shards: [1, 2, 4][(seed % 3) as usize],
        late: if rng.gen_bool(0.5) {
            LatePolicy::DeadLetter
        } else {
            LatePolicy::Drop
        },
        tail,
        msgs: stream(&mut rng, size, len),
    }
}

fn fused_spec(case: &Case) -> PipelineSpec {
    let mut spec = PipelineSpec::new("fused")
        .with_shards(case.shards)
        .with_sort(SortSpec {
            late: case.late,
            dead_letter_capacity: Some(DLQ_CAPACITY),
            ..SortSpec::default()
        })
        .with_op(OpSpec::TumblingWindow { size: case.size })
        .with_op(OpSpec::SumByKey);
    if let Some(op) = &case.tail {
        spec = spec.with_op(op.clone());
    }
    spec
}

/// The unfused chain the spec used to lower to, stacked by hand.
fn hand_chain(
    s: Streamable<i64>,
    case: &Case,
    meter: &MemoryMeter,
    dlq: &DeadLetterQueue<i64>,
) -> Streamable<i64> {
    let policy = SortPolicy::new()
        .with_late(case.late)
        .with_dead_letters(dlq.clone());
    let s = s
        .hardened()
        .sorted(Box::new(ImpatienceSorter::new()), meter, policy)
        .expect("sort policy accepted")
        .tumbling_window(case.size)
        .reduce_by_key(|acc, p| *acc = acc.wrapping_add(p));
    match case.tail {
        None => s,
        Some(OpSpec::FilterMin { min }) => s.where_(move |e| e.payload >= min),
        Some(OpSpec::Scale { factor }) => s.select(move |p| p.wrapping_mul(factor)),
        Some(OpSpec::TopK { k }) => s.top_k(k, |p| *p),
        Some(ref op) => unreachable!("no tail {op:?}"),
    }
}

fn run_hand(case: &Case) -> (Vec<StreamMessage<i64>>, Vec<DeadLetter<i64>>) {
    let dlq = DeadLetterQueue::bounded(DLQ_CAPACITY);
    let meter = MemoryMeter::new();
    let (handle, s) = input_stream::<i64>();
    let s = s.hardened();
    let out = if case.shards > 1 {
        let (case, meter, dlq) = (case.clone(), meter.clone(), dlq.clone());
        s.sharded(case.shards, move |ss, _| {
            hand_chain(ss, &case, &meter, &dlq)
        })
    } else {
        hand_chain(s, case, &meter, &dlq)
    }
    .collect_output();
    for m in &case.msgs {
        handle.push(m.clone()).expect("push");
    }
    (out.messages(), dlq.drain())
}

fn run_fused(
    case: &Case,
    registry: &MetricsRegistry,
) -> (Vec<StreamMessage<i64>>, Vec<DeadLetter<i64>>) {
    let env = PipelineEnv::new().with_registry(registry);
    let (out, sink) = Output::new();
    let built = fused_spec(case)
        .build(&env, Box::new(sink))
        .expect("spec builds");
    for m in &case.msgs {
        built.handle.push(m.clone()).expect("push");
    }
    let dlq = built
        .dead_letters
        .expect("spec asked for a dead-letter queue");
    (out.messages(), dlq.drain())
}

/// Shards share one dead-letter queue and push to it concurrently, so
/// only its contents — not their interleaving — are deterministic.
fn canonical(mut letters: Vec<DeadLetter<i64>>) -> Vec<(i64, u32, i64, String)> {
    let mut v: Vec<_> = letters
        .drain(..)
        .map(|l| {
            let e = l.event;
            (
                e.sync_time.ticks(),
                e.key,
                e.payload,
                format!("{:?}", l.reason),
            )
        })
        .collect();
    v.sort();
    v
}

#[test]
fn fused_spec_matches_hand_stacked_chain() {
    let mut stragglers_seen = 0u64;
    let mut shard_counts = [0u64; 5];
    for seed in 0..CASES {
        let case = generate(seed);
        let registry = MetricsRegistry::new();
        let (fused, fused_dlq) = run_fused(&case, &registry);
        let (hand, hand_dlq) = run_hand(&case);
        assert_eq!(
            fused, hand,
            "seed {seed} ({} shards, window {:?}, {:?}, tail {:?}): message sequences differ",
            case.shards, case.size, case.late, case.tail
        );
        assert!(validate_ordered_stream(&fused).is_ok(), "seed {seed}");
        if case.shards == 1 {
            assert_eq!(fused_dlq, hand_dlq, "seed {seed}: dead letters differ");
        } else {
            assert_eq!(
                canonical(fused_dlq.clone()),
                canonical(hand_dlq),
                "seed {seed}"
            );
        }
        // The lowering really fused: a sort stage, no window stage.
        let names = registry.snapshot().to_json().to_string();
        assert!(!names.contains("tumbling_window"), "seed {seed}: {names}");
        assert!(names.contains(".sort.late_dropped"), "seed {seed}");
        let late: u64 = registry
            .snapshot()
            .counters
            .iter()
            .filter(|(n, _)| n.ends_with(".sort.late_dropped") || n.ends_with(".dead_lettered"))
            .map(|(_, v)| *v)
            .sum();
        stragglers_seen += late;
        shard_counts[case.shards] += 1;
    }
    assert!(
        stragglers_seen > 1_000,
        "only {stragglers_seen} late events"
    );
    assert!(shard_counts[1] > 0 && shard_counts[2] > 0 && shard_counts[4] > 0);
}

struct Durable {
    handle: InputHandle<i64>,
    ckpt: CheckpointCtx,
    out: Output<i64>,
}

fn build_fused_durable(dir: &Path, size: i64, every_n: u32) -> Durable {
    let spec = PipelineSpec::new("durable")
        .with_checkpoint(every_n)
        .with_op(OpSpec::TumblingWindow {
            size: TickDuration::ticks(size),
        })
        .with_op(OpSpec::SumByKey);
    let (out, sink) = Output::new();
    let built = spec
        .build(&PipelineEnv::new().with_checkpoint_dir(dir), Box::new(sink))
        .expect("durable spec builds");
    Durable {
        handle: built.handle,
        ckpt: built.ckpt.expect("durable spec has a checkpoint context"),
        out,
    }
}

/// The unfused durable chain: participants `engine.sort` and
/// `engine.reduce_by_key`.
fn build_hand_durable(dir: &Path, size: i64, every_n: u32) -> Durable {
    let (handle, s) = input_stream::<i64>();
    let (s, ckpt) = s.checkpointed(dir, every_n).expect("open checkpoint dir");
    let out = s
        .hardened()
        .sorted(
            Box::new(ImpatienceSorter::new()),
            &MemoryMeter::new(),
            SortPolicy::new(),
        )
        .expect("sort policy accepted")
        .tumbling_window(TickDuration::ticks(size))
        .reduce_by_key(|acc, p| *acc = acc.wrapping_add(p))
        .checkpoint_egress()
        .collect_output();
    Durable { handle, ckpt, out }
}

#[test]
fn crashed_fused_spec_recovers_byte_identical() {
    let mut restores = 0;
    for seed in 0..80u64 {
        let mut case = generate(seed);
        case.shards = 1;
        case.late = LatePolicy::Drop;
        case.tail = None;
        let size = case.size.as_ticks();
        let tape = &case.msgs;
        let every_n = 1 + (seed % 3) as u32;
        let (reference, _) = run_hand(&case);
        let reference: Vec<Event<i64>> = reference
            .iter()
            .filter_map(|m| match m {
                StreamMessage::Batch(b) => Some(b.visible_to_vec()),
                _ => None,
            })
            .flatten()
            .collect();

        let dir = scratch(&format!("crash-{seed}"));
        let crash_at = StdRng::seed_from_u64(seed).gen_range(1..=tape.len());
        let before = {
            let inc = build_fused_durable(&dir, size, every_n);
            for m in &tape[..crash_at] {
                inc.handle.push(m.clone()).expect("push");
            }
            inc.out.events()
        };
        let inc = build_fused_durable(&dir, size, every_n);
        assert!(
            inc.out.error().is_none(),
            "seed {seed}: {:?}",
            inc.out.error()
        );
        let rec = inc.ckpt.recovery();
        restores += usize::from(rec.is_some());
        let replay_from = rec.as_ref().map_or(0, |r| r.messages_seen) as usize;
        let committed = rec.as_ref().map_or(0, |r| r.egress_events) as usize;
        for m in &tape[replay_from..] {
            inc.handle.push(m.clone()).expect("push");
        }
        if crash_at < tape.len() {
            assert!(
                inc.out.is_completed(),
                "seed {seed}: recovered run completed"
            );
        }
        let combined: Vec<Event<i64>> = before[..committed]
            .iter()
            .cloned()
            .chain(inc.out.events())
            .collect();
        assert_eq!(
            combined,
            reference,
            "seed {seed}: crash at {crash_at}/{}, every_n {every_n}",
            tape.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(restores > 20, "only {restores} restores");
}

/// A durable windowed-sum pipeline: the fused spec or the hand-stacked
/// chain, with its window size.
#[derive(Debug, Clone, Copy)]
enum Lowering {
    Fused(i64),
    Hand(i64),
}

impl Lowering {
    fn build(self, dir: &Path) -> Durable {
        match self {
            Lowering::Fused(size) => build_fused_durable(dir, size, 1),
            Lowering::Hand(size) => build_hand_durable(dir, size, 1),
        }
    }
}

/// Checkpoints half a stream with `write`, then restores with `read`;
/// returns the restoring incarnation after one more punctuation.
fn restore_across(write: Lowering, read: Lowering) -> Durable {
    let dir = scratch(&format!("{write:?}-{read:?}"));
    let tape = generate(11).msgs;
    {
        let inc = write.build(&dir);
        for m in tape.iter().take(tape.len() / 2) {
            inc.handle.push(m.clone()).expect("push");
        }
        assert!(inc.out.error().is_none());
    }
    let inc = read.build(&dir);
    let _ = inc.handle.push(StreamMessage::Punctuation(Timestamp::MAX));
    let _ = std::fs::remove_dir_all(&dir);
    inc
}

#[test]
fn checkpoints_do_not_restore_across_lowerings_or_sizes() {
    use Lowering::{Fused, Hand};
    for (write, read) in [
        (Hand(16), Fused(16)),
        (Fused(16), Hand(16)),
        (Fused(16), Fused(32)),
    ] {
        let inc = restore_across(write, read);
        match inc.out.error() {
            Some(StreamError::RecoveryFailed { detail }) => assert!(
                detail.contains("engine.sort") || detail.contains("windows"),
                "{write:?} -> {read:?}: {detail}"
            ),
            other => panic!("{write:?} -> {read:?}: expected RecoveryFailed, got {other:?}"),
        }
        assert!(inc.out.events().is_empty(), "{write:?} -> {read:?} emitted");
        assert!(inc.ckpt.recovery().is_none());
    }
    // The same lowering and size restores.
    let inc = restore_across(Fused(16), Fused(16));
    assert!(inc.out.error().is_none());
    assert!(inc.ckpt.recovery().is_some());
}

/// What one budgeted run's sort stage did with its input.
#[derive(Debug)]
struct BudgetRun {
    late: u64,
    shed: u64,
    forced: u64,
}

/// Runs `msgs` through a spec with `ops` under `shed` and a `budget`-byte
/// meter, checking after every batch that the budget holds and at the end
/// that the output is ordered and every input event was released, late
/// or shed exactly once.
fn run_budgeted(
    ops: &[OpSpec],
    shed: ShedPolicy,
    budget: usize,
    msgs: &[StreamMessage<i64>],
    what: &str,
) -> BudgetRun {
    let meter = MemoryMeter::with_budget(budget);
    let registry = MetricsRegistry::new();
    let spill = scratch(&format!(
        "budget-{}-{}",
        shed.name(),
        what.replace(' ', "-")
    ));
    let env = PipelineEnv::new()
        .with_registry(&registry)
        .with_meter(&meter)
        .with_spill_dir(&spill);
    let mut spec = PipelineSpec::new("budget").with_sort(SortSpec {
        shed,
        spill: shed == ShedPolicy::SpillColdRuns,
        ..SortSpec::default()
    });
    for op in ops {
        spec = spec.with_op(op.clone());
    }
    let (out, sink) = Output::new();
    let built = spec.build(&env, Box::new(sink)).expect("spec builds");
    let mut total = 0u64;
    for m in msgs {
        if let StreamMessage::Batch(b) = m {
            total += b.visible_len() as u64;
        }
        built.handle.push(m.clone()).expect("push");
        if matches!(m, StreamMessage::Batch(_)) {
            assert!(
                meter.current() <= budget,
                "{what}: {} bytes over a {budget}-byte budget",
                meter.current()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&spill);
    assert!(out.error().is_none(), "{what}: {:?}", out.error());
    assert!(out.is_completed(), "{what}");
    assert!(validate_ordered_stream(&out.messages()).is_ok(), "{what}");
    let counter = |name: &str| registry.counter(&format!("budget.00.sort.{name}")).get();
    let (released, late, shed_events) = (
        counter("events_out"),
        counter("late_dropped"),
        counter("shed_events"),
    );
    assert_eq!(counter("events_in"), total, "{what}");
    assert_eq!(
        released + late + shed_events,
        total,
        "{what}: {released} released + {late} late + {shed_events} shed"
    );
    BudgetRun {
        late,
        shed: shed_events,
        forced: counter("forced_punctuations"),
    }
}

/// `(disorder scale, window size)` shapes for the buffering comparisons:
/// proportionate, then a window far wider than the stream's disorder,
/// where the open window holds most of what an unfused sort buffers.
const SHAPES: [(i64, i64); 2] = [(50, 50), (8, 400)];

/// The fused query and its unfused lowering: `scale(1)` between the
/// window and the sum keeps the spec from fusing without changing output.
fn lowerings(size: i64) -> [Vec<OpSpec>; 2] {
    let window = OpSpec::TumblingWindow {
        size: TickDuration::ticks(size),
    };
    [
        vec![window.clone(), OpSpec::SumByKey],
        vec![window, OpSpec::Scale { factor: 1 }, OpSpec::SumByKey],
    ]
}

/// Without a budget the fused sorter holds a subset of the unfused one's
/// events: only events above the raw watermark, and none of the open
/// window's. Checked on the sorter's buffered-events gauge, which syncs
/// just before (high-water mark) and just after every flush.
#[test]
fn fused_sort_buffers_a_subset_of_the_unfused_sort() {
    let mut open_window_relief = 0;
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ab5e7);
        let len = rng.gen_range(50usize..300);
        for (disorder, size) in SHAPES {
            let msgs = stream(&mut rng, disorder, len);
            let runs = lowerings(size).map(|ops| {
                let registry = MetricsRegistry::new();
                let mut spec = PipelineSpec::new("subset");
                for op in ops {
                    spec = spec.with_op(op);
                }
                let (out, sink) = Output::new();
                let built = spec
                    .build(&PipelineEnv::new().with_registry(&registry), Box::new(sink))
                    .expect("spec builds");
                let buffered = registry.gauge("subset.00.sorter.buffered_events");
                (built.handle, buffered, out)
            });
            let [(fused, fused_buf, fused_out), (unfused, unfused_buf, unfused_out)] = runs;
            for (i, m) in msgs.iter().enumerate() {
                fused.push(m.clone()).expect("push");
                unfused.push(m.clone()).expect("push");
                assert!(
                    fused_buf.get() <= unfused_buf.get(),
                    "seed {seed} window {size} message {i}: fused buffers {}, unfused {}",
                    fused_buf.get(),
                    unfused_buf.get()
                );
            }
            assert!(fused_buf.high_water() <= unfused_buf.high_water());
            if fused_buf.high_water() < unfused_buf.high_water() {
                open_window_relief += 1;
            }
            assert_eq!(fused_out.messages(), unfused_out.messages(), "seed {seed}");
        }
    }
    assert!(open_window_relief > 100, "only {open_window_relief} runs");
}

/// Under a tight budget the fused spec keeps every invariant, and over
/// all seeds of each policy and shape it loses no more events (late or
/// shed) than the unfused lowering. (Per stream either side can lose a
/// few more: forced cuts land at other moments, at other highs.)
#[test]
fn fused_sort_honours_tight_budgets() {
    let event_bytes = core::mem::size_of::<Event<i64>>();
    for shed in [
        ShedPolicy::ForcePunctuation,
        ShedPolicy::ShedOldestRuns,
        ShedPolicy::SpillColdRuns,
    ] {
        for (disorder, size) in SHAPES {
            let mut lost = [0u64; 2];
            let mut bit = 0;
            for seed in 0..60u64 {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xb0d6e7);
                let len = rng.gen_range(50usize..300);
                let msgs = stream(&mut rng, disorder, len);
                let budget = event_bytes * (16 + (seed % 48) as usize);
                for (i, ops) in lowerings(size).iter().enumerate() {
                    let what = format!("{shed:?} seed {seed} window {size} lowering {i}");
                    let run = run_budgeted(ops, shed, budget, &msgs, &what);
                    lost[i] += run.late + run.shed;
                    if i == 0 {
                        bit += run.forced + run.shed;
                    }
                }
            }
            assert!(bit > 0, "{shed:?} window {size}: the budget never bit");
            assert!(
                lost[0] <= lost[1],
                "{shed:?} window {size}: fused lost {}, unfused {}",
                lost[0],
                lost[1]
            );
        }
    }
}
