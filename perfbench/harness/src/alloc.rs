//! Counting global allocator.
//!
//! Every allocation (and reallocation) is charged to the innermost
//! benchmark span open on the calling thread; benchmark threads outside
//! any span charge [`Layer::Harness`]. Threads the benchmark does not run
//! — the server's connection threads — charge [`Layer::Unattributed`], so
//! nothing is dropped. Counting is off unless a traced section turns it
//! on, which keeps the untraced runs at one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A layer a span (and so an allocation) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// No benchmark span open on the allocating thread.
    Unattributed,
    /// A socket request through `Client` (the serve client layer).
    Client,
    /// `wire::write_client_frame`.
    WireEncodeClient,
    /// `wire::read_client_frame`.
    WireDecodeClient,
    /// `wire::write_server_frame`.
    WireEncodeServer,
    /// `wire::read_server_frame`.
    WireDecodeServer,
    /// `TenantRuntime::ingest`.
    TenantIngest,
    /// `TenantRuntime::drain`.
    TenantDrain,
    /// `TenantRuntime::complete`.
    TenantComplete,
    /// `WalIngress::append`.
    WalAppend,
    /// `WalIngress::sync`.
    WalSync,
    /// `InputHandle::push` into a `PipelineSpec`-built pipeline.
    EnginePush,
    /// `ImpatienceSorter::push`.
    SortPush,
    /// `ImpatienceSorter::punctuate`.
    SortPunctuate,
    /// `InputHandle::push` into the advanced framework.
    FrameworkPush,
    /// `Output::take_messages`: consuming a pipeline's released output.
    Egress,
    /// `AdaptiveLatency::observe`.
    AdaptiveObserve,
    /// The benchmark's own work outside any layer call.
    Harness,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 18;

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Unattributed,
        Layer::Client,
        Layer::WireEncodeClient,
        Layer::WireDecodeClient,
        Layer::WireEncodeServer,
        Layer::WireDecodeServer,
        Layer::TenantIngest,
        Layer::TenantDrain,
        Layer::TenantComplete,
        Layer::WalAppend,
        Layer::WalSync,
        Layer::EnginePush,
        Layer::SortPush,
        Layer::SortPunctuate,
        Layer::FrameworkPush,
        Layer::Egress,
        Layer::AdaptiveObserve,
        Layer::Harness,
    ];

    /// The span name, as written to the Chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Unattributed => "unattributed",
            Layer::Client => "serve.client.request",
            Layer::WireEncodeClient => "serve.wire.write_client_frame",
            Layer::WireDecodeClient => "serve.wire.read_client_frame",
            Layer::WireEncodeServer => "serve.wire.write_server_frame",
            Layer::WireDecodeServer => "serve.wire.read_server_frame",
            Layer::TenantIngest => "serve.tenant.ingest",
            Layer::TenantDrain => "serve.tenant.drain",
            Layer::TenantComplete => "serve.tenant.complete",
            Layer::WalAppend => "engine.ingress.wal_append",
            Layer::WalSync => "engine.ingress.wal_sync",
            Layer::EnginePush => "engine.push",
            Layer::SortPush => "sort.push",
            Layer::SortPunctuate => "sort.punctuate",
            Layer::FrameworkPush => "framework.push",
            Layer::Egress => "engine.output.take_messages",
            Layer::AdaptiveObserve => "disorder.adaptive.observe",
            Layer::Harness => "harness",
        }
    }

    /// The allocation group the layer reports under
    /// (`alloc.<group>.count_per_event`).
    pub fn group(self) -> &'static str {
        match self {
            Layer::Unattributed => "unattributed",
            Layer::Client => "client",
            Layer::WireEncodeClient
            | Layer::WireDecodeClient
            | Layer::WireEncodeServer
            | Layer::WireDecodeServer => "wire",
            Layer::TenantIngest | Layer::TenantDrain | Layer::TenantComplete => "tenant",
            Layer::WalAppend | Layer::WalSync => "wal",
            Layer::EnginePush | Layer::Egress => "engine",
            Layer::SortPush | Layer::SortPunctuate => "sort",
            Layer::FrameworkPush => "framework",
            Layer::AdaptiveObserve => "adaptive",
            Layer::Harness => "harness",
        }
    }
}

/// Allocation groups, in report order.
pub const GROUPS: [&str; 10] = [
    "wire",
    "tenant",
    "wal",
    "engine",
    "sort",
    "framework",
    "adaptive",
    "client",
    "harness",
    "unattributed",
];

static ENABLED: AtomicBool = AtomicBool::new(false);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTS: [AtomicU64; LAYERS] = [ZERO; LAYERS];
static BYTES: [AtomicU64; LAYERS] = [ZERO; LAYERS];

thread_local! {
    static CURRENT: Cell<u8> = const { Cell::new(0) };
}

/// The benchmark binary's allocator: the system allocator plus counters.
pub struct Counting;

fn record(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        // `try_with` fails only during thread teardown; charge those
        // allocations to the unattributed bucket rather than losing them.
        let layer = CURRENT.try_with(Cell::get).unwrap_or(0) as usize;
        COUNTS[layer].fetch_add(1, Ordering::Relaxed);
        BYTES[layer].fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Makes `layer` the calling thread's current attribution; returns the
/// previous one for [`leave`].
pub fn enter(layer: Layer) -> u8 {
    CURRENT.with(|c| c.replace(layer as u8))
}

/// Restores the attribution saved by [`enter`].
pub fn leave(previous: u8) {
    CURRENT.with(|c| c.set(previous));
}

/// Allocation counts and bytes per layer, over one counted section.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCounts {
    /// Allocations per layer, indexed like [`Layer::ALL`].
    pub count: [u64; LAYERS],
    /// Bytes requested per layer.
    pub bytes: [u64; LAYERS],
}

/// Zeroes every counter.
pub fn reset() {
    for i in 0..LAYERS {
        COUNTS[i].store(0, Ordering::Relaxed);
        BYTES[i].store(0, Ordering::Relaxed);
    }
}

/// Turns counting on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// The counters' current values.
pub fn snapshot() -> AllocCounts {
    let mut out = AllocCounts::default();
    for i in 0..LAYERS {
        out.count[i] = COUNTS[i].load(Ordering::Relaxed);
        out.bytes[i] = BYTES[i].load(Ordering::Relaxed);
    }
    out
}

/// Runs `f` with counting on, from zeroed counters; returns what it
/// allocated per layer.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCounts) {
    reset();
    set_enabled(true);
    let r = f();
    set_enabled(false);
    (r, snapshot())
}
