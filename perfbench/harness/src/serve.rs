//! The serve layers, measured inside `engine-cloudlog`'s traced run.
//!
//! No gated workload crosses a socket: on a shared two-core host the
//! socket round trips did not repeat from run to run (see
//! `perfbench/README.md`). The traced run still measures every layer a
//! service frame crosses, in three parts:
//!
//! * a paced socket pass: two connections, one client thread each, send
//!   500-event NDJSON frames on a fixed schedule (100k events/s offered
//!   in all) to in-memory tenants with an adaptive reorder latency on an
//!   in-process `Server`. Every connection's output is checked against a
//!   solo `TenantRuntime` and the windowed-sum reference.
//! * a paced replay: connection 0's frames in-process through the same
//!   tenant config and the NDJSON codec, so the socket's own share of
//!   each round trip can be isolated.
//! * a durable replay: the engine workload's batches through the durable
//!   tenant's work — `ReorderSpec::Fixed` with checkpoints every
//!   [`CHECKPOINT_EVERY`] punctuations, every message journaled through a
//!   `WalIngress` the way a durable tenant journals it (tagged append,
//!   then sync) — with every frame and reply encoded and decoded in both
//!   framings.

use crate::alloc::{self, Layer};
use crate::inputs::{self, CHECKPOINT_EVERY, PACED_BATCH};
use crate::layers::{per_event, LayerMetrics};
use crate::report::{self, percentile, Report};
use crate::span::Tracer;
use crate::Args;
use impatience_core::{Event, StreamMessage, TickDuration, Timestamp};
use impatience_disorder::{AdaptiveConfig, AdaptiveLatency};
use impatience_engine::WalIngress;
use impatience_serve::{
    read_client_frame, read_server_frame, write_client_frame, write_server_frame, Client,
    ClientFrame, ClientMsg, Released, Server, ServerConfig, ServerFrame, ServerMsg, TenantConfig,
    TenantRuntime, WireMode,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Client threads and connections (the host has two cores).
const CLIENTS: usize = 2;
/// Offered rate of the paced socket pass, events per second over both
/// connections: 100 frames a second per connection.
const PACED_RATE: u64 = 100_000;

/// The paced pass's tenant: in memory, adaptive reorder latency.
fn paced_config(name: &str) -> TenantConfig {
    TenantConfig::new(inputs::windowed_sum_spec(name, inputs::adaptive_reorder()))
}

/// The durable tenant's pipeline: fixed reorder latency plus checkpoints.
/// The replay runs it in memory and journals beside it, so the tenant
/// and the WAL each get their own spans.
fn durable_replay_config(name: &str) -> TenantConfig {
    TenantConfig::new(
        inputs::windowed_sum_spec(name, inputs::fixed_reorder()).with_checkpoint(CHECKPOINT_EVERY),
    )
}

fn adaptive() -> AdaptiveLatency {
    AdaptiveLatency::new(
        AdaptiveConfig::new()
            .with_ladder(
                inputs::ADAPTIVE_LADDER
                    .iter()
                    .map(|&t| TickDuration::ticks(t))
                    .collect(),
            )
            .with_quality(inputs::ADAPTIVE_QUALITY)
            .with_window(inputs::ADAPTIVE_WINDOW)
            .with_hold(inputs::ADAPTIVE_HOLD),
    )
    .expect("valid adaptive config")
}

/// The paced tenant's reorder latency after each batch, replayed.
fn adaptive_rule() -> impl FnMut(&[Event<i64>]) -> TickDuration {
    let mut a = adaptive();
    move |batch| {
        for e in batch {
            a.observe(e.sync_time);
        }
        a.current()
    }
}

/// One client thread's view of the socket pass.
struct ClientRun {
    /// Replies per frame (batches, then complete).
    frames: Vec<Released>,
    /// Round trip of each batch frame from its actual send, nanoseconds.
    rtt: Vec<u64>,
    /// How late each send was, nanoseconds.
    lag: Vec<u64>,
    events: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    tracer: Tracer,
}

/// Sends batch `i` at `first + i × interval`, then completes the stream.
fn client_thread(
    mut client: Client,
    batches: &[Vec<Event<i64>>],
    first: Instant,
    interval: Duration,
    epoch: Instant,
) -> ClientRun {
    let saved = alloc::enter(Layer::Harness);
    let mut run = ClientRun {
        frames: Vec::with_capacity(batches.len() + 1),
        rtt: Vec::with_capacity(batches.len()),
        lag: Vec::with_capacity(batches.len()),
        events: 0,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        tracer: Tracer::new(true, epoch),
    };
    for (i, b) in batches.iter().enumerate() {
        let batch = b.clone();
        let due = first + interval * i as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        run.lag
            .push(sent.saturating_duration_since(due).as_nanos() as u64);
        let n = batch.len() as u64;
        run.attempted += 1;
        let reply = run
            .tracer
            .span(Layer::Client, i as u64, |_| client.send(batch));
        match reply {
            Ok(rel) => {
                run.rtt.push(sent.elapsed().as_nanos() as u64);
                run.events += n;
                run.frames.push(rel);
            }
            Err(e) => {
                run.failed += 1;
                run.errors.push(format!("send: {e}"));
                alloc::leave(saved);
                return run;
            }
        }
    }
    run.attempted += 1;
    let done = run
        .tracer
        .span(Layer::Client, batches.len() as u64, |_| client.complete());
    match done {
        Ok(rel) => run.frames.push(rel),
        Err(e) => {
            run.failed += 1;
            run.errors.push(format!("complete: {e}"));
        }
    }
    alloc::leave(saved);
    run
}

/// Starts a server under `root`, connects every client, opens one paced
/// tenant per client and runs every client thread on its schedule.
fn socket_pass(
    root: &Path,
    data: &[Vec<Vec<Event<i64>>>],
    report: &mut Report,
) -> Result<Vec<ClientRun>, String> {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
    report.attempted += 1 + 2 * CLIENTS as u64;
    let mut server = Server::start(ServerConfig::new(root)).map_err(|e| format!("server: {e}"))?;
    let mut clients = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let mut client = Client::connect(server.addr(), WireMode::Ndjson)
            .map_err(|e| format!("connect: {e}"))?;
        client
            .open(&paced_config(&format!("c{c}")))
            .map_err(|e| format!("open: {e}"))?;
        clients.push(client);
    }
    let epoch = Instant::now();
    let start = epoch + Duration::from_millis(20);
    let interval = Duration::from_secs_f64(PACED_BATCH as f64 * CLIENTS as f64 / PACED_RATE as f64);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let batches = &data[c];
                let first = start + interval * c as u32 / CLIENTS as u32;
                scope.spawn(move || client_thread(client, batches, first, interval, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
    for run in &runs {
        report.attempted += run.attempted;
        report.failed += run.failed;
        for e in &run.errors {
            eprintln!("perfbench: {e}");
        }
    }
    Ok(runs)
}

/// A solo in-process tenant fed the same batches: its per-frame output.
fn solo(batches: &[Vec<Event<i64>>], root: &Path) -> Result<Vec<Released>, String> {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).map_err(|e| e.to_string())?;
    let mut rt = TenantRuntime::start(paced_config("solo"), root).map_err(|e| e.to_string())?;
    let mut frames = Vec::with_capacity(batches.len() + 1);
    for b in batches {
        rt.ingest(b.clone()).map_err(|e| e.to_string())?;
        frames.push(rt.drain());
    }
    rt.complete().map_err(|e| e.to_string())?;
    frames.push(rt.drain());
    drop(rt);
    let _ = std::fs::remove_dir_all(root);
    Ok(frames)
}

/// Checks every connection's output against a solo tenant and the
/// windowed-sum reference.
fn check_outputs(
    args: &Args,
    data: &[Vec<Vec<Event<i64>>>],
    runs: &[ClientRun],
    report: &mut Report,
) {
    for (c, run) in runs.iter().enumerate() {
        match solo(&data[c], &args.scratch(&format!("solo{c}"))) {
            Ok(frames) => report.check(frames == run.frames, || {
                format!("client {c}: socket output differs from a solo in-process tenant")
            }),
            Err(e) => report.check(false, || format!("solo tenant {c} failed: {e}")),
        }
        let kept = inputs::kept_events(&data[c], adaptive_rule());
        let events: Vec<Event<i64>> = run.frames.iter().flat_map(|f| f.events.clone()).collect();
        let expect = inputs::windowed_sum_reference(&kept);
        report.check(
            inputs::windowed_sum_output(&events).as_ref() == Some(&expect),
            || format!("client {c}: output differs from the windowed-sum reference"),
        );
    }
}

/// Every serve-only per-layer metric, into `lm`; returns the tracers the
/// Chrome trace should hold. `batches` are the engine workload's.
pub fn measure_layers(
    args: &Args,
    batches: &[Vec<Event<i64>>],
    lm: &mut LayerMetrics,
    report: &mut Report,
) -> Vec<Tracer> {
    let per_client =
        (PACED_RATE as f64 / CLIENTS as f64 * args.budget().as_secs_f64() / 2.0) as usize;
    let data: Vec<Vec<Vec<Event<i64>>>> = (0..CLIENTS)
        .map(|c| {
            inputs::cloudlog_batches(
                inputs::sub_seed(args.seed, 1 + c as u64),
                per_client,
                PACED_BATCH,
            )
        })
        .collect();
    let mut tracers = Vec::new();

    let root = args.scratch("sock");
    let (runs, allocs) = alloc::counted(|| socket_pass(&root, &data, report));
    let runs = match runs {
        Ok(runs) => runs,
        Err(e) => {
            report.failed += 1;
            eprintln!("perfbench: socket pass failed: {e}");
            return tracers;
        }
    };
    lm.add_allocs(&allocs, runs.iter().map(|r| r.events).sum());
    check_outputs(args, &data, &runs, report);
    let mut lag: Vec<u64> = runs.iter().flat_map(|r| r.lag.iter().copied()).collect();
    lm.set(
        "generator.lag_p99_ms",
        percentile(&mut lag, 0.99) as f64 / 1e6,
    );

    // The socket's share: each of connection 0's round trips minus the
    // in-process layer calls its frame makes in the server and client.
    let mut paced = Tracer::new(true, Instant::now());
    let root = args.scratch("paced");
    let (r, allocs) = alloc::counted(|| {
        replay(
            paced_config("paced"),
            &data[0],
            None,
            &root,
            &mut paced,
            report,
        )
    });
    lm.add_allocs(&allocs, r.events);
    let mut codec = Tracer::new(true, Instant::now());
    let (c, allocs) =
        alloc::counted(|| wire_codec(WireMode::Ndjson, &r.frames, &mut codec, report));
    lm.add_allocs(&allocs, r.events);
    let mut frame_ns = c.per_frame;
    for s in paced.spans() {
        if let Some(slot) = frame_ns.get_mut(s.batch as usize) {
            *slot += s.dur_ns();
        }
    }
    let mut unattributed: Vec<f64> = runs[0]
        .rtt
        .iter()
        .zip(&frame_ns)
        .map(|(&rtt, &layers)| (rtt as f64 - layers as f64) / 1e6)
        .collect();
    lm.set(
        "socket.unattributed_ms_p50",
        report::median(&mut unattributed),
    );
    tracers.extend(runs.into_iter().map(|r| r.tracer));
    tracers.extend([paced, codec]);

    // The disorder controller alone, over connection 0's arrivals.
    let mut observe = Tracer::new(true, Instant::now());
    let events0: u64 = data[0].iter().map(|b| b.len() as u64).sum();
    let (_, allocs) = alloc::counted(|| {
        let saved = alloc::enter(Layer::Harness);
        let mut a = adaptive();
        for (i, b) in data[0].iter().enumerate() {
            observe.span(Layer::AdaptiveObserve, i as u64, |_| {
                for e in b {
                    a.observe(e.sync_time);
                }
            });
        }
        let ns: u64 = observe.durations(Layer::AdaptiveObserve).iter().sum();
        lm.set("adaptive.observe_ns_per_event", per_event(ns, events0));
        lm.set("adaptive.switches", a.switches() as f64);
        lm.set("adaptive.final_rung", a.rung() as f64);
        alloc::leave(saved);
    });
    lm.add_allocs(&allocs, events0);
    tracers.push(observe);

    // The durable tenant's work on the engine workload's batches.
    let mut durable = Tracer::new(true, Instant::now());
    let root = args.scratch("durable");
    let (r, allocs) = alloc::counted(|| {
        replay(
            durable_replay_config("durable"),
            batches,
            Some(&root.join("wal")),
            &root,
            &mut durable,
            report,
        )
    });
    lm.add_allocs(&allocs, r.events);
    let total = |layer: Layer| -> u64 { durable.durations(layer).iter().sum() };
    lm.set(
        "tenant.ingest_ns_per_event",
        per_event(total(Layer::TenantIngest), r.events),
    );
    lm.set(
        "tenant.drain_ns_per_event",
        per_event(total(Layer::TenantDrain), r.events),
    );
    lm.set(
        "tenant.punctuations_per_batch",
        r.punctuations as f64 / batches.len().max(1) as f64,
    );
    lm.set(
        "wal.append_ns_per_event",
        per_event(total(Layer::WalAppend), r.events),
    );
    let mut syncs = durable.durations(Layer::WalSync);
    lm.set("wal.sync_us_p50", percentile(&mut syncs, 0.5) as f64 / 1e3);
    lm.set(
        "wal.bytes_per_event",
        r.wal_bytes as f64 / r.events.max(1) as f64,
    );
    lm.set("checkpoint.written", r.checkpoints as f64);
    lm.set("checkpoint.bytes", r.checkpoint_bytes as f64);
    tracers.push(durable);
    for (wire, name) in [(WireMode::Binary, "binary"), (WireMode::Ndjson, "ndjson")] {
        let mut codec = Tracer::new(true, Instant::now());
        let (c, allocs) = alloc::counted(|| wire_codec(wire, &r.frames, &mut codec, report));
        lm.add_allocs(&allocs, r.events);
        let metric = |what: &str| format!("wire.{name}.{what}");
        for (what, ns) in [
            "encode_client",
            "decode_client",
            "encode_server",
            "decode_server",
        ]
        .iter()
        .zip(c.ns)
        {
            lm.set(
                &metric(&format!("{what}_ns_per_event")),
                per_event(ns, r.events),
            );
        }
        lm.set(
            &metric("bytes_per_event"),
            c.bytes as f64 / r.events.max(1) as f64,
        );
        tracers.push(codec);
    }
    tracers
}

/// What one in-process replay did.
struct Replay {
    /// Each batch frame with the reply it got, then the complete frame
    /// with its reply.
    frames: Vec<(ClientFrame, ServerFrame)>,
    events: u64,
    punctuations: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    wal_bytes: u64,
}

/// Feeds `batches` one frame at a time to a tenant started from `config`
/// under `root` (removed afterwards), recording `tenant.*` spans. With
/// `wal`, every message the tenant applied is journaled through a
/// `WalIngress` there, as a durable tenant does, under `wal.*` spans.
/// Spans carry the frame index as their batch id.
fn replay(
    config: TenantConfig,
    batches: &[Vec<Event<i64>>],
    wal: Option<&Path>,
    root: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Replay {
    let saved = alloc::enter(Layer::Harness);
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).expect("replay root");
    let name = config.name().to_string();
    let mut rt = TenantRuntime::start(config, root).expect("replay tenant starts");
    let mut journal = wal.map(|dir| WalIngress::<i64>::open(dir).expect("replay wal opens"));
    let punctuations = rt.registry().counter("serve.punctuations");
    let mut out = Replay {
        frames: Vec::with_capacity(batches.len() + 1),
        events: 0,
        punctuations: 0,
        checkpoints: 0,
        checkpoint_bytes: 0,
        wal_bytes: 0,
    };
    let mut record =
        |tracer: &mut Tracer, msg: StreamMessage<i64>, seq: u64, report: &mut Report| {
            if let Some(w) = &mut journal {
                let appended =
                    tracer.span(Layer::WalAppend, seq - 1, |_| w.append_tagged(&msg, seq));
                let synced = tracer.span(Layer::WalSync, seq - 1, |_| w.sync());
                if appended.is_err() || synced.is_err() {
                    report.failed += 1;
                }
            }
        };
    let mut wm = Timestamp::MIN;
    for (i, b) in batches.iter().enumerate() {
        let seq = i as u64 + 1;
        report.attempted += 1;
        out.events += b.len() as u64;
        for e in b {
            wm = wm.max(e.sync_time);
        }
        let before = punctuations.get();
        record(tracer, StreamMessage::batch(b.clone()), seq, report);
        if tracer
            .span(Layer::TenantIngest, seq - 1, |_| rt.ingest(b.clone()))
            .is_err()
        {
            report.failed += 1;
        }
        if punctuations.get() > before {
            let p = StreamMessage::Punctuation(wm.saturating_sub(rt.current_latency()));
            record(tracer, p, seq, report);
        }
        let rel = tracer.span(Layer::TenantDrain, seq - 1, |_| rt.drain());
        out.frames
            .push(frame_pair(seq, ClientMsg::Events { batch: b.clone() }, rel));
    }
    let seq = batches.len() as u64 + 1;
    report.attempted += 1;
    record(tracer, StreamMessage::Completed, seq, report);
    if tracer
        .span(Layer::TenantComplete, seq - 1, |_| rt.complete())
        .is_err()
    {
        report.failed += 1;
    }
    let rel = tracer.span(Layer::TenantDrain, seq - 1, |_| rt.drain());
    out.frames.push(frame_pair(seq, ClientMsg::Complete, rel));
    out.punctuations = punctuations.get();
    let counter = |what: &str| {
        rt.registry()
            .counter(&format!("{name}.checkpoint.{what}"))
            .get()
    };
    out.checkpoints = counter("written");
    out.checkpoint_bytes = counter("bytes");
    drop(rt);
    if let Some(dir) = wal {
        out.wal_bytes = std::fs::read_dir(dir)
            .map(|d| {
                d.flatten()
                    .filter_map(|f| f.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
    }
    let _ = std::fs::remove_dir_all(root);
    alloc::leave(saved);
    out
}

fn frame_pair(seq: u64, msg: ClientMsg, rel: Released) -> (ClientFrame, ServerFrame) {
    let request = ClientFrame {
        seq,
        ack: seq - 1,
        msg,
    };
    let reply = ServerFrame {
        seq,
        msg: ServerMsg::Out {
            batch: rel.events,
            puncts: rel.puncts,
            completed: rel.completed,
        },
    };
    (request, reply)
}

/// What one framing's codec cost over a replay's frames.
struct Codec {
    /// Encode client, decode client, encode server, decode server, ns.
    ns: [u64; 4],
    /// Bytes of every frame and reply.
    bytes: u64,
    /// Codec time of each frame and its reply, ns.
    per_frame: Vec<u64>,
}

/// Encodes and decodes every frame and reply in `wire`, under `wire.*`
/// spans; a frame that does not survive the round trip fails the check.
fn wire_codec(
    wire: WireMode,
    frames: &[(ClientFrame, ServerFrame)],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Codec {
    let saved = alloc::enter(Layer::Harness);
    let mut bytes = 0u64;
    let mut buf = Vec::new();
    for (i, (request, reply)) in frames.iter().enumerate() {
        let id = i as u64;
        buf.clear();
        let wrote = tracer.span(Layer::WireEncodeClient, id, |_| {
            write_client_frame(&mut buf, wire, request)
        });
        let read = tracer.span(Layer::WireDecodeClient, id, |_| {
            read_client_frame(&mut &buf[..], wire)
        });
        report.check(
            wrote.is_ok() && matches!(read, Ok(Some(ref r)) if r == request),
            || format!("{wire:?} frame {i} did not survive the wire codec"),
        );
        bytes += buf.len() as u64;
        buf.clear();
        let wrote = tracer.span(Layer::WireEncodeServer, id, |_| {
            write_server_frame(&mut buf, wire, reply)
        });
        let read = tracer.span(Layer::WireDecodeServer, id, |_| {
            read_server_frame(&mut &buf[..], wire)
        });
        report.check(
            wrote.is_ok() && matches!(read, Ok(Some(ref r)) if r == reply),
            || format!("{wire:?} reply {i} did not survive the wire codec"),
        );
        bytes += buf.len() as u64;
    }
    let mut ns = [0u64; 4];
    let mut per_frame = vec![0u64; frames.len()];
    for s in tracer.spans() {
        let k = match s.layer {
            Layer::WireEncodeClient => 0,
            Layer::WireDecodeClient => 1,
            Layer::WireEncodeServer => 2,
            _ => 3,
        };
        ns[k] += s.dur_ns();
        per_frame[s.batch as usize] += s.dur_ns();
    }
    alloc::leave(saved);
    Codec {
        ns,
        bytes,
        per_frame,
    }
}
