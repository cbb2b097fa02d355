#!/usr/bin/env bash
# Repository CI gate. Run before every push:
#
#   ./ci.sh
#
# (`./ci.sh --loc` only prints the line counts; `./ci.sh --repeat
# N [--debug] FILTER` only re-runs one test N times under load.)
#
# Ten stages, all required:
#   1. formatting      (cargo fmt --check)
#   2. lints           (cargo clippy and cargo doc, warnings are errors:
#                       a doc link to a deleted or private item fails;
#                       the engine and the executor read no clock: the
#                       non-test part of crates/runtime/src/engine/*.rs
#                       and crates/runtime/src/threaded/executor.rs,
#                       split as `--loc` splits it, may not name
#                       `Instant`, `SystemTime` or `thread::sleep`; the
#                       runtime's one foreign function is the direct
#                       write's `sendmsg`: `extern "C"` appears in
#                       crates/runtime/src only in net/link.rs, once; and the facade
#                       stays a facade: `TopologyConfig`, `NodePlan`,
#                       `ExportSpec` and `ImportSpec` are built by struct
#                       literal only in crates/runtime/src/facade.rs, the
#                       test part of net/codec.rs, tests/tests/wire_golden.rs
#                       and the frozen e2e package; all other code builds a
#                       `RunSpec` and converts)
#   3. tier-1 tests    (release build + full test suite; among them the
#                       counter gates: the O(log N) tree budget at
#                       32/64/128 ranks, chained hand-offs, writev
#                       coalescing, the simulator's allocation budget
#                       of 7 600 per Figure-4 panel-(d) run and the
#                       socket payload's byte budget, payload_alloc_budget.rs:
#                       a decoded 256 KiB piece is one allocation, through
#                       decode_payload or the fused checking decode, a
#                       by-reference head at most 256 B; and the fused
#                       checking decode's gates: wire_props.rs's
#                       checked_decode_* and shape-mismatch properties
#                       (equal to decode_payload, any flipped bit a
#                       BadChecksum, never Malformed, any chunking) and the
#                       node fault tests in net/node.rs (a flipped bit in
#                       a payload's prefix, values or header CRC is one
#                       metered reject over a real UDS pair, never a
#                       delivery or a link failure); and the socket write
#                       path's gates: over a UDS pair on socket_ctrl's
#                       shape at most 0.1 writer-thread wake-ups and 2.0
#                       exporter syscalls per import (net/node.rs), no
#                       push blocks on a full link and every frame lands
#                       once in push order, a cut-short direct write and a
#                       sever inside a cork lose no byte (net/link.rs), and
#                       the e2e adapter's 64 x 2 MiB link replay and
#                       4 MiB-piece session (tests/socket_transport.rs))
#   4. simtest         (seeded simulation corpus + oracle mutation smoke,
#                       every rule armed through `Faults`: help-skip and
#                       stale-skip fire on the simulator, relay-drop on both
#                       in-process runtimes, ack-before-handle in the
#                       fabric's armed-shutdown probe)
#   5. chaos-crash     (fixed-seed simtest sweep with forced permanent
#                       faults — 20% of sends break their link, plus a rep
#                       crash with restart/failover — on both runtimes)
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
#   8. socket          (fixed-seed corpus on the socket runtime: every
#                       program its own OS process on loopback UDS, all
#                       three runtimes must agree on matches and protocol
#                       counters, and every healthy run must receive the
#                       frames and bytes it sent; a forced-fault chaos
#                       sweep; one TCP smoke seed; plus a negative test
#                       proving the liveness oracle catches a codec that
#                       silently drops collective-answer frames)
#   9. durable         (kill-and-restart chaos over loopback UDS: even
#                       seeds SIGKILL a node mid-run and restart it from
#                       its write-ahead journal, odd seeds sever a mesh
#                       link and demand re-dial + unacked-frame replay;
#                       every run must recover with the fault metered;
#                       plus a negative test proving a bit-flipped journal
#                       is refused at restart, never silently replayed)
#  10. bench e2e       (the end-to-end benchmark package lives outside the
#                       root workspace: build it and run its own tests
#                       against the workspace crates, so a runtime refactor
#                       that breaks the benchmark adapter's view of the
#                       public API fails here, not at benchmark time; both
#                       with --locked, so a workspace crate that gains or
#                       loses a dependency cannot silently rewrite the
#                       frozen Cargo.lock; and the frozen package and
#                       BENCHMARK.json must be unmodified in the working
#                       tree, with `--stat` naming any file that is not;
#                       then every BENCHMARK.json workload runs one 1 s
#                       pass of the built `e2e` binary, untraced and then
#                       traced (`--trace 1`, which also replays the
#                       adapter's single-layer entries), and each result
#                       line must read `"correct": true` and `"failed": 0`)
#
# Nightly-only extras (run when CI_NIGHTLY=1, skipped gracefully otherwise):
#   - deep simtest sweep and a deeper DES-vs-threaded property sweep
#   - ThreadSanitizer pass over the threaded runtime (needs a nightly
#     toolchain with rust-src; skipped with a notice if unavailable)
set -euo pipefail
cd "$(dirname "$0")"

# The one definition of "non-test lines", for awk: a file's lines up to its
# first `#[cfg(test)]` at the start of a line are its non-test part (`test`
# is 0 there); an indented one gates a single item, not the rest of the
# file.
split='FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }'

# `./ci.sh --loc`: each file under crates/*/src (outside the frozen e2e
# package) and shims/, split as above, counted per file, per crate and in
# total. A last line counts the test lines, kept out of the total: the
# rest of each of those files, plus every .rs under crates/*/tests/ and
# tests/tests/.
loc() {
    local integration
    integration=$(find crates/*/tests tests/tests -name '*.rs' -exec cat {} + | wc -l)
    find crates/*/src shims -name '*.rs' -not -path 'crates/bench/src/bin/e2e/*' |
        sort | xargs awk -v integration="$integration" "$split"'
            FNR == 1 { file[++files] = FILENAME }
            test { tests++ }
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
                printf "%7d  test lines (not in total)\n", tests + integration
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
echo "== cargo doc --no-deps --workspace, warnings are errors"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
echo "== the engine and the executor read no clock"
if awk "$split"' !test { print FILENAME ":" FNR ": " $0 }' crates/runtime/src/engine/*.rs \
    crates/runtime/src/threaded/executor.rs | grep -E '\b(Instant|SystemTime)\b|thread::sleep'; then
    echo "the engine's or the executor's non-test code names a clock or a sleep (above)" >&2
    exit 1
fi
echo "== the runtime's one foreign function lives in net/link.rs"
if grep -rn 'extern "C"' crates/runtime/src | grep -v '^crates/runtime/src/net/link\.rs:'; then
    echo "the runtime declares a foreign function outside net/link.rs (above)" >&2
    exit 1
fi
if [[ $(grep -c 'extern "C"' crates/runtime/src/net/link.rs) -gt 1 ]]; then
    echo "net/link.rs declares more than one extern \"C\" block" >&2
    exit 1
fi
echo "== the facade stays a facade"
if find crates tests examples -name '*.rs' -not -path 'crates/bench/src/bin/e2e/*' | sort |
    xargs awk "$split"' { print FILENAME ":" FNR ":" test ": " $0 }' |
    grep -E '\b(TopologyConfig|NodePlan|ExportSpec|ImportSpec) \{' |
    grep -vE '^(crates/runtime/src/facade\.rs|tests/tests/wire_golden\.rs):' |
    grep -vE '^crates/runtime/src/net/codec\.rs:[0-9]+:1: ' |
    grep -vE ':[0-9]+:[01]: .*(struct|impl|wire_struct!\(|-> )[^{]*\{'; then
    echo "a facade type is built by struct literal (above): build a RunSpec and convert" >&2
    exit 1
fi

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== advisory: non-test lines per crate (./ci.sh --loc lists every file)"
loc | grep -v '\.rs$'

echo "== simtest: seed corpus + mutation smoke (~30s budget)"
cargo run --release -q -p couplink-simtest -- --seeds 60
cargo run --release -q -p couplink-simtest -- --mutate

echo "== chaos-crash: forced link breaks + rep crash/failover on both runtimes"
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

echo "== bench e2e: the out-of-workspace benchmark builds and passes its tests"
cargo build --release --offline --locked --manifest-path crates/bench/src/bin/e2e/Cargo.toml
cargo test -q --offline --locked --manifest-path crates/bench/src/bin/e2e/Cargo.toml
git diff --exit-code --stat HEAD -- BENCHMARK.json crates/bench/src/bin/e2e

echo "== bench e2e: every workload runs one short pass, untraced and traced, correct and with 0 failed"
e2e="${CARGO_TARGET_DIR:-crates/bench/src/bin/e2e/target}/release/e2e"
for trace in 0 1; do
    for w in $(sed -n '/"workloads"/,/"end_to_end"/p' BENCHMARK.json |
        grep -o '"name": "[^"]*"' | cut -d'"' -f4); do
        out=$(COUPLINK_NODE_BIN=target/release/couplink-node \
            "$e2e" --workload "$w" --seed 1 --seconds 1 --trace "$trace" 2>&1) || {
            echo "$out" >&2
            echo "ERROR: e2e workload $w (--trace $trace) exited non-zero" >&2 && exit 1
        }
        results=$(grep '^{"correct"' <<<"$out" || true)
        if [[ -z $results ]] ||
            grep -qv '^{"correct": true, "attempted": [0-9]*, "failed": 0,' <<<"$results"; then
            echo "$out" >&2
            echo "ERROR: e2e workload $w (--trace $trace): a result line is not correct with 0 failed" >&2
            exit 1
        fi
        echo "   $w --trace $trace: correct, 0 failed"
    done
done

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
