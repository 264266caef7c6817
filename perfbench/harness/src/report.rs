//! Metrics, failure accounting and the result line.

use impatience_core::Json;

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations (frames, pushes) attempted.
    pub attempted: u64,
    /// Operations that returned a typed error.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Sample counts and other context, printed before the result line.
    pub detail: Vec<(String, Json)>,
    /// Output-check failures, printed to stderr.
    pub mismatches: Vec<String>,
}

impl Report {
    /// A report that has passed every check so far.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Default::default()
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds context for the detail line.
    pub fn note(&mut self, name: impl Into<String>, value: impl Into<Json>) {
        self.detail.push((name.into(), value.into()));
    }

    /// Fails the output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.mismatches.push(what());
        }
    }

    /// A latency percentile in milliseconds, taken in each window and
    /// reported at `rank` over the windows (0.5: the median window; lower:
    /// the better windows). The sample and window counts and the median
    /// window's value go to the detail line.
    pub fn windowed_ms(&mut self, name: &str, windows: &mut [Vec<u64>], q: f64, rank: f64) {
        let mut per: Vec<f64> = windows
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, q) as f64 / 1e6)
            .collect();
        let n = per.len();
        self.metric(name, quantile(&mut per, rank), "ms");
        self.note(format!("{name}.median_window"), median(&mut per));
        let samples: usize = windows.iter().map(Vec::len).sum();
        self.note(format!("{name}.samples"), samples);
        self.note(format!("{name}.windows"), n);
    }

    /// A windowed latency percentile, as [`Report::windowed_ms`] would
    /// report it, written to the detail line only: context, not a gated
    /// metric.
    pub fn windowed_note(&mut self, name: &str, windows: &mut [Vec<u64>], q: f64, rank: f64) {
        let mut per: Vec<f64> = windows
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, q) as f64 / 1e6)
            .collect();
        self.note(name, quantile(&mut per, rank));
    }

    /// A rate per window, reported at `rank` over the windows counted from
    /// the fastest (0.5: the median window).
    pub fn windowed_rate(&mut self, name: &str, rates: &mut [f64], rank: f64) {
        self.metric(name, quantile(rates, 1.0 - rank), "1/s");
        self.note(format!("{name}.median_window"), median(rates));
        self.note(format!("{name}.windows"), rates.len());
    }

    /// The result line: the exact shape the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The detail line: sample counts, per-seed context.
    pub fn detail_line(&self) -> String {
        Json::Object(self.detail.clone()).to_string()
    }
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// In-process workloads report each timing for the median pass: with
/// hundreds of short passes per run, the median repeated from run to run
/// best on a two-core host shared with other machines.
pub const PASS_RANK: f64 = 0.5;

/// Builds per set-up timing block.
const SETUP_BLOCK: usize = 100;

/// One set-up timing block: `build` runs [`SETUP_BLOCK`] times under one
/// timer (its results are dropped after the timer stops); returns the
/// seconds per build. One build takes microseconds, so timing it alone
/// measures the clock and the scheduler more than the build. An untimed
/// block runs first, so the timed one reuses memory the allocator already
/// holds: page faults on fresh memory made up about a third of a cold
/// framework build, a cost the kernel sets more than the program does.
/// Workloads time one block before every pass and report the median
/// block, so set-up is sampled across the whole run like the pass
/// timings.
pub fn setup_block<T>(mut build: impl FnMut() -> T) -> f64 {
    let mut built = Vec::with_capacity(SETUP_BLOCK);
    for _ in 0..SETUP_BLOCK {
        built.push(build());
    }
    built.clear();
    let t = std::time::Instant::now();
    for _ in 0..SETUP_BLOCK {
        built.push(build());
    }
    let secs = t.elapsed().as_secs_f64();
    drop(built);
    secs / SETUP_BLOCK as f64
}

/// Nearest-rank quantile of floating-point samples (`q` in `[0, 1]`).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Nearest-rank percentile (`q` in `[0, 1]`); sorts `samples` in place.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of floating-point samples.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// High-water resident memory of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
