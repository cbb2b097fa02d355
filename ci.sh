#!/usr/bin/env bash
# Repository CI gate. Run before every push:
#
#   ./ci.sh
#
# (`./ci.sh --loc` only prints the non-test line counts; `./ci.sh --repeat
# N [--debug] FILTER` only re-runs one test N times under load.)
#
# Fourteen stages, all required:
#   1. formatting      (cargo fmt --check)
#   2. lints           (cargo clippy, warnings are errors)
#   3. tier-1 tests    (release build + full test suite)
#   4. simtest         (seeded simulation corpus + oracle mutation smoke:
#                       help-skip and stale-skip on the simulator, relay-drop
#                       on the simulator and the threaded fabric,
#                       ack-before-handle on the fabric's armed-shutdown
#                       probe)
#   5. chaos-crash     (fixed-seed simtest sweep with forced permanent
#                       faults — 20% message loss plus a rep crash with
#                       restart/failover — on both runtimes)
#   6. stress          (concurrency stress sweep: every program at the
#                       process ceiling, zero compute skew, fault-free — the
#                       executor and the control plane under maximum
#                       pressure)
#   7. bench smoke     (tiny-size DES report — Figure 4 panels, ablation
#                       points, Figure 7/8 tallies — schema-validated and
#                       gated against baselines/BENCH_baseline_smoke.json:
#                       counters exact, virtual times within 5%; plus a
#                       negative test proving the gate catches an injected
#                       8x memcpy slowdown. It times no isolated layer:
#                       `bench e2e`'s layer replay is the one stopwatch)
#   8. scale smoke     (threaded weak/strong scaling sweep with a
#                       per-iteration wall-clock budget; plus a negative
#                       test proving the throughput gate catches an
#                       injected stall. The same sweep gates hand-offs from
#                       counters: under one cross-worker steal per import
#                       and at least half of all task polls chained on the
#                       thread that woke the task; chaining cannot be
#                       switched off, so that gate's negative control is a
#                       unit test over a fabricated snapshot, run by
#                       stage 3)
#   9. scale ranks     (hierarchical collective sweep at 32/64/128 ranks
#                       per program on the threaded fabric: rep-origin
#                       control messages per import must stay within the
#                       k*ceil(log_k N) + 2k O(log N) budget and the tree
#                       conservation laws must hold exactly; plus a
#                       negative test proving the gate rejects the flat
#                       O(N) fan-out)
#  10. multi-session   (16 sessions multiplexed on the pooled executor
#                       under the same wall budget, scheduled fairly; the
#                       drivers are a closed loop, one step of credit per
#                       exporter, so every import goes through the pool;
#                       the starvation check's negative control is a unit
#                       test over fabricated per-session walls, run by
#                       stage 3. The workload runs once; executor
#                       throughput is gated by `bench e2e` ctrl_small /
#                       multirate_cycle)
#  11. socket           (fixed-seed corpus on the socket runtime: every
#                       program its own OS process on loopback UDS, all
#                       three runtimes must agree on matches and protocol
#                       counters; a forced-fault chaos sweep; one TCP
#                       smoke seed; plus a negative test proving the
#                       liveness oracle catches a codec that silently
#                       drops collective-answer frames)
#  12. durable          (kill-and-restart chaos over loopback UDS: even
#                       seeds SIGKILL a node mid-run and restart it from
#                       its write-ahead journal, odd seeds sever a mesh
#                       link and demand re-dial + unacked-frame replay;
#                       every run must recover with the fault metered;
#                       plus a negative test proving a bit-flipped journal
#                       is refused at restart, never silently replayed)
#  13. net smoke        (socket data-plane sweep over loopback UDS + TCP
#                       through the real couplink-node mesh: payload
#                       throughput, writev coalescing and tx/rx frame
#                       conservation, gated against
#                       baselines/BENCH_baseline_net.json and the
#                       syscalls-per-frame coalescing budget; the gate's
#                       negative control is a unit test feeding it a
#                       1.0-syscalls-per-frame report, run by stage 3)
#  14. bench e2e        (the end-to-end benchmark package lives outside the
#                       root workspace: build it and run its own tests
#                       against the workspace crates, so a runtime refactor
#                       that breaks the benchmark adapter's view of the
#                       public API fails here, not at benchmark time; and
#                       the frozen package and BENCHMARK.json must be
#                       unmodified in the working tree)
#
# Nightly-only extras (run when CI_NIGHTLY=1, skipped gracefully otherwise):
#   - deep simtest sweep and a deeper DES-vs-threaded property sweep
#   - ThreadSanitizer pass over the threaded runtime (needs a nightly
#     toolchain with rust-src; skipped with a notice if unavailable)
set -euo pipefail
cd "$(dirname "$0")"

# `./ci.sh --loc`: the one definition of "non-test lines" — each file under
# crates/*/src (outside the frozen e2e package) and shims/ up to its first
# `#[cfg(test)]`, per file, per crate and in total.
loc() {
    find crates/*/src shims -name '*.rs' -not -path 'crates/bench/src/bin/e2e/*' |
        sort | xargs awk '
            FNR == 1 { file[++files] = FILENAME; test = 0 }
            /#\[cfg\(test\)\]/ { test = 1 }
            !test { n[FILENAME]++ }
            END {
                for (i = 1; i <= files; i++) {
                    f = file[i]; split(f, p, "/"); c = p[1] "/" p[2] "/"
                    if (!(c in sum)) crate[++crates] = c
                    sum[c] += n[f]; total += n[f]
                    printf "%7d  %s\n", n[f], f
                }
                for (i = 1; i <= crates; i++) printf "%7d  %s\n", sum[crate[i]], crate[i]
                printf "%7d  total\n", total
            }'
}
if [[ "${1:-}" == "--loc" ]]; then
    loc
    exit
fi

# `./ci.sh --repeat N [--debug] FILTER`: runs the tests FILTER names N times
# (release build unless --debug) while `simtest --stress` loads the box,
# prints `k/N failed`, and exits non-zero if k > 0. The rule for any
# wall-clock-bounded test: N >= 100 before calling it green.
if [[ "${1:-}" == "--repeat" ]]; then
    n=$2 mode=--release
    shift 2
    if [[ "${1:-}" == "--debug" ]]; then mode= && shift; fi
    filter=$1 bins=() failed=0 stop=$(mktemp -u)
    for exe in $(cargo test $mode -q --workspace --lib --bins --tests --no-run \
        --message-format=json | grep -o '"executable":"[^"]*"' | cut -d'"' -f4); do
        if "$exe" --list 2>/dev/null | grep -q "$filter.*: test"; then bins+=("$exe"); fi
    done
    [[ ${#bins[@]} -gt 0 ]] || { echo "no test matches $filter" >&2; exit 2; }
    cargo build --release -q -p couplink-simtest
    (until [[ -e $stop ]]; do
        target/release/couplink-simtest --stress --seeds 1 >/dev/null 2>&1 || true
    done) &
    for ((i = 0; i < n; i++)); do
        for exe in "${bins[@]}"; do
            "$exe" -q "$filter" >/dev/null 2>&1 || { failed=$((failed + 1)) && break; }
        done
    done
    touch "$stop" && wait && rm -f "$stop"
    echo "$failed/$n failed"
    exit $((failed > 0))
fi

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== advisory: non-test lines per crate (./ci.sh --loc lists every file)"
loc | grep -v '\.rs$'

echo "== simtest: seed corpus + mutation smoke (~30s budget)"
cargo run --release -q -p couplink-simtest -- --seeds 60
cargo run --release -q -p couplink-simtest -- --mutate

echo "== chaos-crash: forced loss + rep crash/failover on both runtimes"
cargo run --release -q -p couplink-simtest -- --faults --seeds 12

echo "== stress: process-ceiling concurrency sweep, fault-free"
cargo run --release -q -p couplink-simtest -- --stress --seeds 12

echo "== bench smoke: report gate against committed baseline"
cargo run --release -q -p couplink-bench --bin report -- \
    --smoke --out results/BENCH_smoke.json \
    --check baselines/BENCH_baseline_smoke.json

echo "== bench smoke: injected slowdown must FAIL the gate"
if cargo run --release -q -p couplink-bench --bin report -- \
    --smoke --mutate --out results/BENCH_smoke_mutated.json \
    --check baselines/BENCH_baseline_smoke.json >/dev/null 2>&1; then
    echo "ERROR: regression gate passed a mutated (8x slower memcpy) run" >&2
    exit 1
fi
echo "   (gate correctly rejected the mutated run)"

echo "== scale smoke: threaded scaling sweep under the throughput budget"
cargo run --release -q -p couplink-bench --bin scale -- \
    --out results/BENCH_scale_smoke.json

echo "== scale smoke: injected stall must FAIL the throughput gate"
if cargo run --release -q -p couplink-bench --bin scale -- \
    --mutate --out results/BENCH_scale_smoke_mutated.json >/dev/null 2>&1; then
    echo "ERROR: throughput gate passed a mutated (stalled-importer) run" >&2
    exit 1
fi
echo "   (gate correctly rejected the stalled run)"

echo "== scale ranks: hierarchical collectives under the O(log N) ctrl gate"
cargo run --release -q -p couplink-bench --bin scale -- \
    --ranks 32,64,128 --out results/BENCH_scale_ranks.json

echo "== scale ranks: flat fan-out must FAIL the control-scaling gate"
if cargo run --release -q -p couplink-bench --bin scale -- \
    --ranks 32,64 --mutate \
    --out results/BENCH_scale_ranks_mutated.json >/dev/null 2>&1; then
    echo "ERROR: control-scaling gate passed a flat O(N) rep fan-out" >&2
    exit 1
fi
echo "   (gate correctly rejected the flat fan-out)"

echo "== multi-session smoke: 16 sessions on the pooled executor"
cargo run --release -q -p couplink-bench --bin scale -- \
    --sessions 16 --out results/BENCH_scale_sessions.json

echo "== socket: fixed-seed UDS corpus across all three runtimes"
COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-simtest -- --socket uds --seeds 8

echo "== socket: forced-fault chaos sweep over loopback UDS"
COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-simtest -- --socket uds --faults --seeds 4

echo "== socket: TCP loopback smoke seed"
COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-simtest -- --socket tcp --seeds 1

echo "== socket: dropped collective answers must trip the liveness oracle"
COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-simtest -- --socket uds --drop-answers

echo "== durable: kill-restart-from-journal / link-sever chaos over UDS"
COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-simtest -- --socket uds --net-faults --seeds 4

echo "== durable: corrupted journal must be refused at restart"
COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-simtest -- --socket uds --corrupt-wal

echo "== net smoke: socket data-plane sweep under the coalescing gate"
COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-bench --bin net -- \
    --smoke --out results/BENCH_net_smoke.json \
    --check baselines/BENCH_baseline_net.json

echo "== bench e2e: the out-of-workspace benchmark builds and passes its tests"
cargo build --release --offline --manifest-path crates/bench/src/bin/e2e/Cargo.toml
cargo test -q --offline --manifest-path crates/bench/src/bin/e2e/Cargo.toml
git diff --quiet HEAD -- BENCHMARK.json crates/bench/src/bin/e2e

if [[ "${CI_NIGHTLY:-0}" == "1" ]]; then
    echo "== nightly: deep simtest sweep"
    cargo run --release -q -p couplink-simtest -- --seeds 500
    echo "== nightly: deep chaos-crash sweep"
    cargo run --release -q -p couplink-simtest -- --faults --seeds 100
    echo "== nightly: deep cross-runtime property sweep"
    SIMTEST_CASES=100 cargo test -q -p couplink-runtime --test prop_des

    echo "== nightly: ThreadSanitizer over the threaded runtime"
    # TSan needs a nightly toolchain with the rust-src component (for
    # -Zbuild-std); skip with a notice rather than fail when absent.
    if rustup run nightly rustc --version >/dev/null 2>&1 \
        && rustup component list --toolchain nightly 2>/dev/null \
           | grep -q 'rust-src.*(installed)'; then
        host="$(rustc -vV | sed -n 's/^host: //p')"
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -q -Zbuild-std --target "$host" \
            -p couplink-runtime --lib threaded
    else
        echo "   (skipped: no nightly toolchain with rust-src installed)"
    fi
fi

echo "CI OK"
