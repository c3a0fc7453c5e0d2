#!/usr/bin/env sh
# Full CI gate, in dependency order, failing fast:
#   1. formatting        (cheap, catches accidental diffs)
#   2. release build     (also builds the xtask binary)
#   3. invariant audit   (lint + manifest + static shape checks; the
#                         lint includes `deadline-add`, which rejects a
#                         bare `now() + timeout` — it panics on overflow)
#   4. concurrency audit (lock order, determinism taint, protocol
#                         exhaustiveness, narrowing casts — symbol/
#                         call-graph analysis; the taint pass's
#                         `det-sleep` rule rejects `thread::sleep(`
#                         reachable from a determinism root, so a
#                         protocol path waits on a deadline, never a
#                         sleep)
#   4b. model checking   (cargo xtask mc: bounded exhaustive exploration
#                         of the recovery-transfer and session-gather
#                         FSMs under a drop/dup/reorder/crash/deadline
#                         adversary, with a compiled-in protocol mutant
#                         as negative control and a seeded cross-check of
#                         the fault model against ChaosTransport; fails
#                         loudly if a budget truncates exploration —
#                         acknowledging that requires --allow-truncation)
#   5. resource certs    (cargo xtask cost --check: the static per-expert
#                         resource certification of the paper model grid
#                         must match the checked-in COST.json; the
#                         allocation-honesty test in stage 6 asserts the
#                         certified peaks against instrumented forwards)
#   6. test suite        (unit + property + integration), run twice:
#                         TEAMNET_THREADS=1 pins the sequential kernels,
#                         TEAMNET_THREADS=4 forces the parallel paths —
#                         the pool determinism contract says both runs
#                         must see bit-identical numerics
#   6b. baseline ISA     (x86_64 hosts only: the tensor and net crates'
#                         tests, the cross-ISA pin test `isa_bit_identity`
#                         and `parallel_determinism` again, built for
#                         baseline x86-64 in a target dir of its own. The
#                         default build targets x86-64-v3
#                         (.cargo/config.toml), so the tile kernel runs 8
#                         lanes wide there and 4 wide here; the pin test's
#                         digests are equal on both or this stage or stage
#                         6 fails. The net crate's CRC-32 lanes and
#                         vectorised f32 encode also compile differently
#                         per ISA, and their tests check every byte
#                         against the scalar oracles on both)
#   7. kernel-bench smoke (parallel-vs-sequential bit-identity on every
#                         kernel — the matmul rows are the shapes traffic
#                         runs, 10- and 4-column tails included, the conv
#                         rows include an out-channel block tail, a
#                         tile-column tail, and the forward's one-phase
#                         (1x1 stride 2) and multi-phase (3x3 stride 2,
#                         5x5 stride 3 pad 2) lowerings — plus the JSON artifact
#                         plumbing and one host-independent timing guard:
#                         a lone 1x784x128 row may cost at most 2.5 rows
#                         of 64x784x128; on x86_64 the artifact's
#                         `vector_lanes` must be 8, which catches the
#                         x86-64-v3 entry of .cargo/config.toml going
#                         missing or being overridden)
#   7c. strategy parity  (baseline_showdown --smoke: TeamNet, MPI-Matrix /
#                         -Kernel / -Branch and SG-MoE each run a real
#                         2-node inference on the one round; fails on an
#                         output that is not its local reference bit for
#                         bit, or when any strategy's time per remote
#                         exchange exceeds 4 x the TeamNet K=2 round — a
#                         ratio, so it trips on a private loop's poll
#                         floor coming back (9-12 x before PR 18) and not
#                         on a slow host)
#   8. chaos soak        (50 seeded fault-injected inference rounds)
#   8b. recovery soak    (seeded session that permanently black-holes one
#                         worker mid-run: its expert must migrate to a
#                         survivor with certified spare memory and the
#                         whole recovery must replay byte-for-byte)
#   8c. serve soak       (seeded multi-tenant serving run on a ManualClock
#                         with chaos transports and a mid-run worker
#                         blackhole: quarantine must shrink the admission
#                         window, and two identical seeds must emit
#                         byte-identical trace + metrics + prediction
#                         transcripts)
#   9. traced smoke      (chaos_inference with TEAMNET_TRACE -> JsonlSink,
#                         piped through `cargo xtask trace-report`, which
#                         exits non-zero on a parse error or an empty span
#                         table; the workspace tests in stage 6 cover the
#                         default NullSink path)
#   9b. cross-node trace (trace_soak example: every node of a 3-node
#                         cluster records its own JSONL sink; the three
#                         files go through `cargo xtask trace-assemble`,
#                         which exits non-zero on orphan spans — the
#                         stage additionally asserts zero warnings on
#                         stderr and a non-empty critical-path table)
#   10. load_bench       (the measured end-to-end benchmark, as a
#                         correctness gate: its own unit tests;
#                         `--self-test`, which corrupts one oracle
#                         reference and must see the run fail; and one 3 s
#                         run of each of the four workloads, which must
#                         exit 0 with every reply checked bit for bit
#                         against the oracle — mlp_tcp_trickle (a lone
#                         request through an idle engine), mlp_open_3200
#                         (the in-process front), mlp_tcp_bulk (cap-sized
#                         batches over the real TCP front) and cnn_round
#                         (SS-14 experts, so the conv tile kernel is
#                         checked through a real round). One timing gate
#                         per workload, each about 7 x off its measured
#                         value so it trips on a mechanism coming back and
#                         on nothing a noisy host does: trickle and
#                         open-loop latency_p50_ms (an idle wait on the
#                         request path; a queue that stops draining), bulk
#                         throughput_rows_s (coalescing or the byte path
#                         lost) and cnn_round latency_p50_ms (the forward
#                         off the tile kernel). load_bench
#                         is a package of its own, so nothing above builds
#                         or tests it)
#
# Opt-in stage (not part of the default gate):
#   ./ci.sh tsan         runs the fault-tolerance, chaos-soak, recovery-soak,
#                        serve-soak and concurrent-sessions suites under
#                        ThreadSanitizer (the last covers two sessions
#                        waiting on one master endpoint). Requires a
#                        nightly toolchain with the rust-src component;
#                        exits 0 with a notice when none is installed so
#                        the default gate never depends on nightly.
set -eu
cd "$(dirname "$0")"

if [ "${1:-}" = "tsan" ]; then
    # ThreadSanitizer needs -Zbuild-std so std itself is instrumented;
    # `xtask audit` covers the lock-order and lock-across-io classes
    # statically, this stage covers the dynamic interleavings the static
    # pass documents as out of scope (DESIGN.md §10).
    if ! rustup toolchain list 2>/dev/null | grep -q nightly ||
        ! rustup component list --toolchain nightly 2>/dev/null |
        grep -q 'rust-src.*(installed)'; then
        echo "ci.sh tsan: nightly toolchain with rust-src not installed; skipping (static audit still covers lock order)"
        exit 0
    fi
    host="$(rustc -vV | sed -n 's/^host: //p')"
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$host" \
        --test fault_tolerance --test chaos_soak --test recovery_soak \
        --test serve_soak --test concurrent_sessions
    exit 0
fi

cargo fmt --check
cargo build --release
cargo xtask check
cargo xtask audit
cargo xtask mc
cargo xtask cost --check
TEAMNET_THREADS=1 cargo test -q --workspace
TEAMNET_THREADS=4 cargo test -q --workspace
if [ "$(uname -m)" = x86_64 ]; then
    # A RUSTFLAGS in the environment replaces the config's rustflags.
    RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/baseline-isa \
        cargo test -q --release -p teamnet-tensor -p teamnet-net
    RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/baseline-isa \
        cargo test -q --release --test isa_bit_identity --test parallel_determinism
fi
cargo run -q --release -p teamnet-bench --bin kernel_bench -- --smoke --out /tmp/BENCH_kernels_smoke.json
if [ "$(uname -m)" = x86_64 ] &&
    ! grep -q '"vector_lanes": 8,' /tmp/BENCH_kernels_smoke.json; then
    echo "kernel_bench reports $(grep '"vector_lanes"' /tmp/BENCH_kernels_smoke.json)" \
        "on x86_64: the build is not targeting x86-64-v3 (.cargo/config.toml)" >&2
    exit 1
fi
cargo run -q --release --example baseline_showdown -- --smoke
cargo test -q --release --test chaos_soak
cargo test -q --release --test recovery_soak
cargo test -q --release --test serve_soak
TEAMNET_TRACE=/tmp/ci_trace.jsonl cargo run -q --release --example chaos_inference >/dev/null
cargo xtask trace-report /tmp/ci_trace.jsonl
cargo run -q --release --example trace_soak >/dev/null
# trace-assemble hard-fails on orphan spans; unmatched send/recv events
# (possible only if a worker's file were truncated) surface as warnings
# on stderr, which this stage also treats as fatal.
assemble_out="$(cargo xtask trace-assemble \
    0=target/trace-soak/node0.jsonl \
    1=target/trace-soak/node1.jsonl \
    2=target/trace-soak/node2.jsonl 2>/tmp/ci_assemble_warnings.txt)"
if [ -s /tmp/ci_assemble_warnings.txt ]; then
    echo "trace-assemble produced warnings:" >&2
    cat /tmp/ci_assemble_warnings.txt >&2
    exit 1
fi
echo "$assemble_out" | grep -q '^  all' || {
    echo "trace-assemble critical-path table is empty:" >&2
    echo "$assemble_out" >&2
    exit 1
}
cargo test -q --release --offline --manifest-path load_bench/Cargo.toml
# The self-test's inner run is *meant* to fail: its `error: failed_share`
# line on stderr is followed by the verdict line on stdout.
cargo run -q --release --offline --manifest-path load_bench/Cargo.toml -- --self-test
for workload in mlp_tcp_trickle mlp_open_3200 mlp_tcp_bulk cnn_round; do
    cargo run -q --release --offline --manifest-path load_bench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 3 --trace 0 >"/tmp/ci_load_$workload.out"
done
# The last stdout line of a run is its result JSON. One timing gate per
# workload, each about 7 x away from the value measured at PR 16 on the
# 2-core host (EXPERIMENTS.md): far enough that host drift (up to 2 x) does
# not trip it, close enough that the mechanism named beside it does.
gate() { # workload metric '<'|'>' bound what-tripping-means
    value="$(tail -n 1 "/tmp/ci_load_$1.out" |
        sed -n "s/.*\"$2\":{\"value\":\([0-9.eE+-]*\).*/\1/p")"
    awk -v v="$value" -v b="$4" "BEGIN { exit !(v != \"\" && v + 0 $3 b) }" || {
        echo "$1 $2 is '$value', gate is $3 $4: $5" >&2
        exit 1
    }
}
# 0.29 ms measured. An idle wait on the request path: the fixed 8 ms
# coalesce hold the engine had before PR 15, or a millisecond poll floor
# under two of the request's thread hand-offs.
gate mlp_tcp_trickle latency_p50_ms '<' 2.0 \
    "a 1-row request is waiting on something other than its round"
# 0.44 ms measured. The 8 ms coalesce hold (this row read 8.2 ms with
# it), or capacity falling under the 3 200 req/s schedule: the open
# loop's queue then grows for the whole run and the median reads tens of
# milliseconds.
gate mlp_open_3200 latency_p50_ms '<' 3.0 \
    "the open-loop queue is not draining at 3 200 req/s"
# 23 k rows/s measured. Rows leaving one per round (the 64-row size
# trigger lost, so 64 round overheads where there was one), or a per-byte
# path an order slower than the table-driven CRC and copy-once framing.
gate mlp_tcp_bulk throughput_rows_s '>' 3300 \
    "cap-sized batches are not being coalesced, or the byte path is per-byte again"
# 5.0 ms measured. The conv forward off the register tile and back on a
# per-element scalar loop (1-2 GFLOP/s against 20-25), or a thread scope
# opened per out-channel block.
gate cnn_round latency_p50_ms '<' 35 \
    "an SS-14 forward is running far off the tile kernel's speed"
