#!/usr/bin/env bash
# Tier-1 gate for the workspace. Everything runs --offline: the build has
# no external dependencies (see README.md "Zero external dependencies"),
# so CI must never touch the network or a registry cache.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets --offline -- -D warnings

echo "== cargo doc (warnings are errors) =="
# Every intra-doc link must resolve, so a deleted or renamed item cannot
# leave a dangling reference in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline (root crate: conformance + e2e) =="
cargo test -q --offline

echo "== cargo test -q --offline --workspace (all member crates) =="
cargo test -q --offline --workspace

echo "== chaos suite (pinned seed, >=1000 fault-injected pipelines) =="
# The failure-model gate: seeded fault injection (duplicates, stragglers,
# punctuation regressions, corruption, operator panics) must never abort
# the process — only typed errors or contract-valid output. Case seeds are
# derived deterministically from each property's name, so runs replay
# bit-for-bit; a reported failure replays with IMPATIENCE_PROP_SEED=<seed>.
cargo test -q --offline --test chaos

echo "== spill conformance (external sorter vs oracle, disk faults, crashes) =="
# The external-sort gate: 1000 seeded streams with mid-stream budget trips
# and snapshot/restore cycles must stay byte-identical to the stable-sort
# oracle, and 500+ seeded disk-fault/crash cycles must each end in either
# byte-identical output or one typed error — never an abort.
cargo test -q --offline --test sorter_conformance --test spill_faults

echo "== bench metrics smoke (fig5 --json, validated by snapshot_check) =="
# A small fig5 run must emit JSON lines that parse with the in-tree JSON
# parser and include a metrics snapshot with per-operator counters, the
# failure-model counters, sorter gauges, and a watermark-lag histogram.
tmp_json="$(mktemp)"
trap 'rm -f "$tmp_json"' EXIT
cargo run --release --offline -q -p impatience-bench --bin fig5 -- \
    --events 60000 --json "$tmp_json" > /dev/null
cargo run --release --offline -q -p impatience-bench --bin snapshot_check -- "$tmp_json"

echo "== bounded-memory degradation (fig5 --memory-budget, fault activity) =="
# A budgeted fig5 run must (a) keep the sorter's state-bytes high water
# under the budget (asserted inside pipeline_metrics_with) and (b) report
# nonzero dead-letter and shed counters in its snapshot.
tmp_budget_json="$(mktemp)"
trap 'rm -f "$tmp_json" "$tmp_budget_json"' EXIT
cargo run --release --offline -q -p impatience-bench --bin fig5 -- \
    --events 60000 --json "$tmp_budget_json" --memory-budget 65536 > /dev/null
cargo run --release --offline -q -p impatience-bench --bin snapshot_check -- \
    "$tmp_budget_json" --require-fault-activity

echo "== lossless spill degradation (fig5 --memory-budget --spill-dir) =="
# The same budget walked down the lossless ladder: with a spill directory
# the sorter seals cold runs to disk instead of dead-lettering or shedding.
# snapshot_check demands nonzero spill traffic (runs spilled, on-disk high
# water) and zero dead-lettered / zero shed events anywhere in the file.
# Spill files live under target/ and are kept on failure for post-mortem
# (set -e aborts before the rm); a passing gate removes them.
tmp_spill_json="$(mktemp)"
trap 'rm -f "$tmp_json" "$tmp_budget_json" "$tmp_spill_json"' EXIT
spill_dir="target/ci-spill/fig5"
rm -rf "$spill_dir"
cargo run --release --offline -q -p impatience-bench --bin fig5 -- \
    --events 60000 --json "$tmp_spill_json" --memory-budget 262144 \
    --spill-dir "$spill_dir" > /dev/null
cargo run --release --offline -q -p impatience-bench --bin snapshot_check -- \
    "$tmp_spill_json" --require-spill-activity
rm -rf "$spill_dir"

echo "== shard conformance (byte-identical output across shard counts) =="
# The determinism gate for multi-core execution: ~500 seeded streams, each
# run at shard counts {1, 2, 4, 8}, must produce byte-identical message
# sequences, and their canonical traces must match the unsharded pipeline.
cargo test -q --offline --test shard_conformance

echo "== window pushdown (fused sort+window spec vs hand-stacked chain) =="
# The sort-as-needed lowering gate: 600 seeded disordered streams through
# a spec whose tumbling window runs inside the sort must produce message
# sequences and dead letters identical to sorted -> tumbling_window ->
# reduce_by_key at shard counts {1, 2, 4}; durable fused specs must
# recover byte-identical after seeded crashes and refuse checkpoints of
# the other lowering or another window size with a typed error; tight
# memory budgets must hold under every shed policy.
cargo test -q --offline --test window_pushdown

echo "== sharded scale smoke (scale --check -> BENCH_scale.json) =="
# A small sharded run must (a) produce byte-identical output across shard
# counts (asserted inside the binary), (b) pass the 4-vs-1-shard speedup
# shape check when the machine has >= 4 cores, and (c) emit a snapshot
# whose shard.* counters show real ingress/merge traffic.
# Three repetitions per identity: the perf gate below medians them, so
# one load spike on this shared machine cannot wedge CI.
rm -f BENCH_scale.json
for _ in 1 2 3; do
    cargo run --release --offline -q -p impatience-bench --bin scale -- \
        --check --events 60000 --json BENCH_scale.json > /dev/null
done
cargo run --release --offline -q -p impatience-bench --bin snapshot_check -- \
    BENCH_scale.json --require-shard-activity

echo "== crash-recovery gate (recovery --check -> BENCH_recovery.json) =="
# The durability gate: checkpointing every 16 punctuations must cost <= 10%
# wall-clock over the plain fig5 pipeline, and a run crashed at a seeded
# point must — after restoring the newest checkpoint and replaying the WAL
# suffix — produce output byte-identical to an uncrashed run. The JSON
# artifact keeps both measurements plus the recovered incarnation's metrics
# snapshot, whose nonzero recovery.restores counter snapshot_check demands.
rm -f BENCH_recovery.json
cargo run --release --offline -q -p impatience-bench --bin recovery -- \
    --check --json BENCH_recovery.json
cargo run --release --offline -q -p impatience-bench --bin snapshot_check -- \
    BENCH_recovery.json --require-recovery-activity

echo "== trace conformance (traced pipelines byte-identical, spans laminar) =="
# The observability determinism gate: traced runs must produce output
# byte-identical to untraced ones across shard counts, spans must nest,
# and sampled provenance must survive a crash -> restore -> replay cycle.
cargo test -q --offline --test trace_conformance

echo "== tracing gate (trace --check -> BENCH_trace.json) =="
# The observability budget gate: the fully traced canonical CloudLog
# pipeline (spans + default 1/1024 provenance sampling) must keep >= 95%
# of untraced throughput on the cleanest interleaved run pair, tracing
# must not change one output byte, and one combined export must cover
# every span kind and round-trip the in-tree JSON parser. The snapshot
# must then show real trace activity: nonzero spans, zero ring drops.
rm -f BENCH_trace.json BENCH_trace.chrome.json BENCH_trace.folded
for _ in 1 2 3; do
    cargo run --release --offline -q -p impatience-bench --bin trace -- \
        --check --json BENCH_trace.json > /dev/null
done
cargo run --release --offline -q -p impatience-bench --bin snapshot_check -- \
    BENCH_trace.json --require-trace-activity

echo "== external-sort gate (external --check -> BENCH_external.json) =="
# The spill-to-disk robustness gate: sort a dataset >= 4x the memory budget
# losslessly — zero dead-letters, zero sheds, zero forced punctuations,
# output identical to the all-in-memory reference (hard assertions inside
# the binary) — and record spill write amplification. The spilling run's
# throughput joins the perf-gated history below.
rm -f BENCH_external.json
spill_dir="target/ci-spill/external"
for _ in 1 2 3; do
    rm -rf "$spill_dir"
    cargo run --release --offline -q -p impatience-bench --bin external -- \
        --check --events 60000 --json BENCH_external.json \
        --spill-dir "$spill_dir" > /dev/null
done
cargo run --release --offline -q -p impatience-bench --bin snapshot_check -- \
    BENCH_external.json --require-spill-activity
rm -rf "$spill_dir"

echo "== tenant isolation (seeded chaos across the service boundary) =="
# The multi-tenant gate: 60 seeded runs each boot a real server, connect
# four socket tenants, and inject one fault (unhardened operator panic,
# admission budget breach, disk fault). The faulted tenant must fail with
# a typed error on its own connection only; every healthy tenant must be
# byte-identical to a solo in-process run; the server must keep accepting.
cargo test -q --offline --test tenant_isolation

echo "== network chaos (seeded kill/reset/stall/dup faults, exactly-once resume) =="
# The session-survivability gate: 200+ seeded kill→reconnect→resume cycles
# across both framings and both durability modes, each run's output
# byte-identical to an unbroken run of the same workload (zero duplicated,
# zero lost events), with the server's serve.session.* counters accounting
# for every resume. A failing cell replays with IMPATIENCE_PROP_SEED=<seed>.
cargo test -q --offline --test session_resume

echo "== wire fuzz (seeded malformed frames against a live server) =="
# The protocol-robustness gate: nine seeded attack classes (bad magic,
# truncated/oversize/zero length prefixes, mid-frame EOF, garbage JSON,
# unknown tags, noise) against a live server. Every hostile connection must
# end in a typed error frame or a clean close within a bounded window —
# never a hang or panic — while a healthy tenant streams unperturbed on
# the same server.
cargo test -q --offline --test wire_fuzz

echo "== service smoke (serve --smoke: socket fleet + one chaos seed per class) =="
# A seconds-fast pass of the serving path: 8 concurrent socket tenants
# (NDJSON + binary framing) against their solo baselines, plus one chaos
# seed per fault class.
cargo run --release --offline -q -p impatience-bench --bin serve -- --smoke > /dev/null

echo "== service gate (serve --check -> BENCH_serve.json) =="
# The full serving exhibit: 8 concurrent durable adaptive socket tenants
# measured end-to-end, one full-contract metrics snapshot per tenant, a
# session-resilience pass (kill→reconnect cycles through the fault proxy,
# perf-gated as mode "session-resume", plus deterministic triggers for
# every serve.session.* counter), and 210 seeded chaos-isolation runs
# (hard assertions inside the binary). snapshot_check then demands real
# socket traffic (serve.events_in/out), visible adaptive convergence
# (latency gauge below its high water), and session activity: nonzero
# resumes, retries, duplicate drops, heartbeats, and slow-client
# evictions in the {"kind": "session"} counter lines.
rm -f BENCH_serve.json
cargo run --release --offline -q -p impatience-bench --bin serve -- \
    --check --events 200000 --json BENCH_serve.json > /dev/null
cargo run --release --offline -q -p impatience-bench --bin snapshot_check -- \
    BENCH_serve.json --require-service-activity --require-session-activity

echo "== perf-regression gate (this run vs bench_results.jsonl history) =="
# Every throughput measurement of this CI run is compared against the
# recorded history: per measurement identity (exhibit + mode / shards /
# dataset / events), the median of this run must stay within 15% of the
# median of the last three recorded runs. On a clean pass the run is
# appended to the history, so the baseline tracks the recent past; new
# identities seed it. The budgeted fig5 run is deliberately excluded —
# degradation under a memory budget is not a performance reference.
tmp_run_jsonl="$(mktemp)"
trap 'rm -f "$tmp_json" "$tmp_budget_json" "$tmp_spill_json" "$tmp_run_jsonl"' EXIT
cat "$tmp_json" BENCH_scale.json BENCH_recovery.json BENCH_trace.json \
    BENCH_external.json BENCH_serve.json > "$tmp_run_jsonl"
cargo run --release --offline -q -p impatience-bench --bin perf_gate -- \
    bench_results.jsonl "$tmp_run_jsonl" --max-drop-pct 15
cat "$tmp_run_jsonl" >> bench_results.jsonl

echo "CI OK"
