//! Micro-benchmarks for the engine operators and the sort-as-needed plans
//! of Fig 9 at small scale, on the in-tree timer
//! (`impatience_testkit::bench`).

use impatience_core::{EvalPayload, MemoryMeter, TickDuration};
use impatience_engine::{BlackHoleSink, IngressPolicy, Streamable};
use impatience_framework::DisorderedStreamable;
use impatience_testkit::bench::Harness;
use impatience_workloads::{generate_synthetic, Dataset, SyntheticConfig};

const N: usize = 100_000;

fn dataset() -> Dataset {
    generate_synthetic(&SyntheticConfig {
        events: N,
        ..Default::default()
    })
}

fn policy() -> IngressPolicy {
    IngressPolicy::new(10_000, TickDuration::ticks(2_000))
}

fn drive<P: impatience_core::Payload>(s: Streamable<P>) {
    s.subscribe_observer(Box::new(BlackHoleSink::new()));
}

fn bench_plans(h: &Harness) {
    let ds = dataset();
    let mut g = h.group("sort_as_needed_plans");
    g.throughput_elements(N as u64);

    g.bench_function("sort_only", || {
        let meter = MemoryMeter::new();
        drive(
            DisorderedStreamable::from_arrivals(ds.events.clone(), &policy()).to_streamable(&meter),
        );
    });
    g.bench_function("filter_below_sort_sel10", || {
        let meter = MemoryMeter::new();
        drive(
            DisorderedStreamable::from_arrivals(ds.events.clone(), &policy())
                .where_(|e| e.payload[1] % 100 < 10)
                .to_streamable(&meter),
        );
    });
    g.bench_function("filter_above_sort_sel10", || {
        let meter = MemoryMeter::new();
        drive(
            DisorderedStreamable::from_arrivals(ds.events.clone(), &policy())
                .to_streamable(&meter)
                .where_(|e| e.payload[1] % 100 < 10),
        );
    });
    g.bench_function("window_below_sort", || {
        let meter = MemoryMeter::new();
        drive(
            DisorderedStreamable::from_arrivals(ds.events.clone(), &policy())
                .tumbling_window(TickDuration::ticks(10_000))
                .to_streamable(&meter),
        );
    });
    g.bench_function("windowed_count_full_query", || {
        let meter = MemoryMeter::new();
        drive(
            DisorderedStreamable::from_arrivals(ds.events.clone(), &policy())
                .tumbling_window(TickDuration::ticks(10_000))
                .to_streamable(&meter)
                .count(),
        );
    });
    g.bench_function("grouped_count_100_groups", || {
        let meter = MemoryMeter::new();
        drive(
            DisorderedStreamable::from_arrivals(ds.events.clone(), &policy())
                .re_key(|e| e.payload[2] % 100)
                .tumbling_window(TickDuration::ticks(10_000))
                .to_streamable(&meter)
                .group_aggregate(impatience_engine::ops::CountAgg),
        );
    });
    g.finish();
}

fn bench_projection_cost(h: &Harness) {
    let ds = dataset();
    let mut g = h.group("projection_width");
    g.throughput_elements(N as u64);
    g.bench_function("project_1_of_4_below_sort", || {
        let meter = MemoryMeter::new();
        drive(
            DisorderedStreamable::from_arrivals(ds.events.clone(), &policy())
                .select(|p: &EvalPayload| [p[0]])
                .to_streamable(&meter),
        );
    });
    g.bench_function("project_4_of_4_below_sort", || {
        let meter = MemoryMeter::new();
        drive(
            DisorderedStreamable::from_arrivals(ds.events.clone(), &policy())
                .select(|p: &EvalPayload| *p)
                .to_streamable(&meter),
        );
    });
    g.finish();
}

fn main() {
    let h = Harness::new();
    bench_plans(&h);
    bench_projection_cost(&h);
}
