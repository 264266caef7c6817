//! The per-layer metrics of a traced run, and the pieces every workload's
//! traced run shares: allocation tallies, the sort work counters, the
//! trace self-check and the Chrome trace file.

use crate::alloc::{self, AllocCounts, Layer, GROUPS, LAYERS};
use crate::report::Report;
use crate::sortcount::{self, SortCounts};
use crate::span::Tracer;
use impatience_core::{Json, Timestamp};
use std::collections::BTreeMap;
use std::path::Path;

/// Every per-layer metric, with its unit, in report order. A traced run
/// reports all of them; a layer a workload does not cross reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.binary.encode_client_ns_per_event", "ns"),
    ("wire.binary.decode_client_ns_per_event", "ns"),
    ("wire.binary.encode_server_ns_per_event", "ns"),
    ("wire.binary.decode_server_ns_per_event", "ns"),
    ("wire.binary.bytes_per_event", "bytes"),
    ("wire.ndjson.encode_client_ns_per_event", "ns"),
    ("wire.ndjson.decode_client_ns_per_event", "ns"),
    ("wire.ndjson.encode_server_ns_per_event", "ns"),
    ("wire.ndjson.decode_server_ns_per_event", "ns"),
    ("wire.ndjson.bytes_per_event", "bytes"),
    ("tenant.ingest_ns_per_event", "ns"),
    ("tenant.drain_ns_per_event", "ns"),
    ("tenant.punctuations_per_batch", "count"),
    ("wal.append_ns_per_event", "ns"),
    ("wal.sync_us_p50", "us"),
    ("wal.bytes_per_event", "bytes"),
    ("checkpoint.written", "count"),
    ("checkpoint.bytes", "bytes"),
    ("ops.sort.self_ms", "ms"),
    ("ops.tumbling_window.self_ms", "ms"),
    ("ops.sum_by_key.self_ms", "ms"),
    ("ops.sum_by_key.events_per_batch_out", "count"),
    ("sort.push_ns_per_event", "ns"),
    ("sort.punctuate_ns_per_event", "ns"),
    ("sort.time_reads_per_event", "count"),
    ("sort.clones_per_event", "count"),
    ("sort.runs_peak", "count"),
    ("sort.late_dropped", "count"),
    ("framework.self_ns_per_event", "ns"),
    ("framework.buffered_bytes_peak", "bytes"),
    ("framework.partition0.routed", "count"),
    ("framework.partition1.routed", "count"),
    ("framework.partition2.routed", "count"),
    ("framework.tier0.events_out", "count"),
    ("framework.tier1.events_out", "count"),
    ("framework.tier2.events_out", "count"),
    ("adaptive.observe_ns_per_event", "ns"),
    ("adaptive.switches", "count"),
    ("adaptive.final_rung", "count"),
    ("socket.unattributed_ms_p50", "ms"),
    ("generator.lag_p99_ms", "ms"),
    ("alloc.count_per_event", "count"),
    ("alloc.bytes_per_event", "bytes"),
    ("alloc.wire.count_per_event", "count"),
    ("alloc.wire.bytes_per_event", "bytes"),
    ("alloc.tenant.count_per_event", "count"),
    ("alloc.tenant.bytes_per_event", "bytes"),
    ("alloc.wal.count_per_event", "count"),
    ("alloc.wal.bytes_per_event", "bytes"),
    ("alloc.engine.count_per_event", "count"),
    ("alloc.engine.bytes_per_event", "bytes"),
    ("alloc.sort.count_per_event", "count"),
    ("alloc.sort.bytes_per_event", "bytes"),
    ("alloc.framework.count_per_event", "count"),
    ("alloc.framework.bytes_per_event", "bytes"),
    ("alloc.adaptive.count_per_event", "count"),
    ("alloc.adaptive.bytes_per_event", "bytes"),
    ("alloc.client.count_per_event", "count"),
    ("alloc.client.bytes_per_event", "bytes"),
    ("alloc.harness.count_per_event", "count"),
    ("alloc.harness.bytes_per_event", "bytes"),
    ("alloc.unattributed.count_per_event", "count"),
    ("alloc.unattributed.bytes_per_event", "bytes"),
    ("trace.coverage", "ratio"),
    ("trace.coverage_within_10pct", "bool"),
    ("trace.overhead", "ratio"),
];

/// Per-layer values gathered by a traced run.
#[derive(Default)]
pub struct LayerMetrics {
    values: BTreeMap<&'static str, f64>,
    alloc: [(u64, u64, u64); GROUPS.len()],
    traced_wall_ns: u64,
    self_ns: u64,
}

impl LayerMetrics {
    /// Sets one metric; `name` must be listed in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let key = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .0;
        self.values.insert(key, value);
    }

    /// Adds one counted section that processed `events` events: each
    /// allocation group it touched is charged per event of the section.
    pub fn add_allocs(&mut self, counts: &AllocCounts, events: u64) {
        let mut per_group = [(0u64, 0u64); GROUPS.len()];
        for (i, layer) in Layer::ALL.iter().enumerate() {
            let g = GROUPS
                .iter()
                .position(|g| *g == layer.group())
                .expect("every layer has a group");
            per_group[g].0 += counts.count[i];
            per_group[g].1 += counts.bytes[i];
        }
        for (g, (count, bytes)) in per_group.into_iter().enumerate() {
            if count > 0 {
                self.alloc[g].0 += count;
                self.alloc[g].1 += bytes;
                self.alloc[g].2 += events;
            }
        }
    }

    /// Adds one traced section to the coverage self-check: its wall time
    /// and the self times of the spans recorded during it.
    pub fn add_coverage(&mut self, wall_ns: u64, self_by_layer: &[u64; LAYERS]) {
        self.traced_wall_ns += wall_ns;
        self.self_ns += self_by_layer.iter().sum::<u64>();
    }

    /// Writes every per-layer metric into `report`.
    pub fn emit(mut self, report: &mut Report) {
        let mut total = (0.0, 0.0);
        for (g, name) in GROUPS.iter().enumerate() {
            let (count, bytes, events) = self.alloc[g];
            let per = |v: u64| {
                if events == 0 {
                    0.0
                } else {
                    v as f64 / events as f64
                }
            };
            total.0 += per(count);
            total.1 += per(bytes);
            self.set(&format!("alloc.{name}.count_per_event"), per(count));
            self.set(&format!("alloc.{name}.bytes_per_event"), per(bytes));
        }
        self.set("alloc.count_per_event", total.0);
        self.set("alloc.bytes_per_event", total.1);
        if self.traced_wall_ns > 0 {
            let coverage = self.self_ns as f64 / self.traced_wall_ns as f64;
            self.set("trace.coverage", coverage);
            let ok = (coverage - 1.0).abs() <= 0.10;
            self.set("trace.coverage_within_10pct", f64::from(u8::from(ok)));
        }
        for (name, unit) in PER_LAYER {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            report.metric(*name, v, unit);
        }
    }
}

/// Nanoseconds per event of `total_ns`.
pub fn per_event(total_ns: u64, events: u64) -> f64 {
    if events == 0 {
        0.0
    } else {
        total_ns as f64 / events as f64
    }
}

/// Runs the sort work-counter replay three times — twice on the run's
/// arrivals, once on another seed's — and reports the `sort.*` metrics.
/// Fails the run if the counts differ between the two same-seed replays
/// or fail to move across seeds.
pub fn sort_counters<R>(
    report: &mut Report,
    lm: &mut LayerMetrics,
    tracer: &mut Tracer,
    same: &[Vec<(i64, u32, i64)>],
    other: &[Vec<(i64, u32, i64)>],
    make_rule: impl Fn() -> R,
) where
    R: FnMut(&[(i64, u32, i64)]) -> Option<Timestamp>,
{
    let first_span = tracer.spans().len();
    let start = std::time::Instant::now();
    let (a, allocs) = alloc::counted(|| sortcount::replay(same, make_rule(), tracer));
    let wall = start.elapsed().as_nanos() as u64;
    lm.add_allocs(&allocs, a.pushed);
    let mut own = [0u64; LAYERS];
    let selfs = tracer.self_times();
    for (s, t) in tracer.spans()[first_span..]
        .iter()
        .zip(&selfs[first_span..])
    {
        own[s.layer as usize] += t;
    }
    lm.add_coverage(wall, &own);
    let push_ns: u64 = tracer.spans()[first_span..]
        .iter()
        .filter(|s| s.layer == Layer::SortPush)
        .map(|s| s.dur_ns())
        .sum();
    let punct_ns: u64 = tracer.spans()[first_span..]
        .iter()
        .filter(|s| s.layer == Layer::SortPunctuate)
        .map(|s| s.dur_ns())
        .sum();

    let mut quiet = Tracer::new(false, std::time::Instant::now());
    let again = sortcount::replay(same, make_rule(), &mut quiet);
    let moved = sortcount::replay(other, make_rule(), &mut quiet);
    report.check(a == again, || {
        format!("sort counters differ across two replays of one seed: {a:?} vs {again:?}")
    });
    report.check(
        a.time_reads != moved.time_reads && a.clones != moved.clones,
        || format!("sort counters did not move across seeds: {a:?} vs {moved:?}"),
    );
    report.check(a.emitted == a.pushed, || {
        format!("sorter emitted {} of {} pushed events", a.emitted, a.pushed)
    });
    note_counts(report, "sort.replay", &a);
    note_counts(report, "sort.replay_other_seed", &moved);

    lm.set("sort.push_ns_per_event", per_event(push_ns, a.pushed));
    lm.set("sort.punctuate_ns_per_event", per_event(punct_ns, a.pushed));
    lm.set(
        "sort.time_reads_per_event",
        a.time_reads as f64 / a.pushed.max(1) as f64,
    );
    lm.set(
        "sort.clones_per_event",
        a.clones as f64 / a.pushed.max(1) as f64,
    );
    lm.set("sort.runs_peak", a.runs_peak as f64);
}

fn note_counts(report: &mut Report, name: &str, c: &SortCounts) {
    report.note(
        name,
        impatience_core::json!({
            "pushed": c.pushed,
            "time_reads": c.time_reads,
            "clones": c.clones,
            "runs_peak": c.runs_peak,
            "late_dropped": c.late_dropped,
        }),
    );
}

/// Writes the run's spans as a Chrome trace (`chrome://tracing`), one
/// lane per recording thread.
pub fn write_chrome_trace(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut events = Vec::new();
    for (tid, t) in tracers.iter().enumerate() {
        t.chrome_events(tid as i64, &mut events);
    }
    let doc = Json::Object(vec![("traceEvents".to_string(), Json::Array(events))]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.to_string())
}
