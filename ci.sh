#!/usr/bin/env bash
# Tier-1 verification plus lint, in one command, fully offline.
#
#   ./ci.sh          # build + test + clippy + benchmark type-check + knob
#                    # docs + rustdoc + smokes + artefact digests
#   ./ci.sh bench    # additionally run the perfbench/ benchmark (fast
#                    # knobs)
#
# The workspace has zero external dependencies by design (see README.md), so
# everything runs with --offline; if any step needs the network, that is a
# regression.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> cargo clippy --all-targets --offline -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

# The benchmark (perfbench/, a package of its own) builds public types of
# the workspace as struct literals, so a changed public field breaks it.
# --locked fails the step instead of rewriting perfbench/Cargo.lock.
echo "==> cargo check --offline --locked --manifest-path perfbench/Cargo.toml --all-targets"
cargo check --offline --locked --manifest-path perfbench/Cargo.toml --all-targets

# Knob docs: the MBFI_* variables that the non-test bodies of
# HarnessConfig::from_vars and ServerConfig::from_vars read must be exactly
# the ones README.md names, so a deleted knob cannot linger in the docs and
# a new one cannot go undocumented.
echo "==> knob docs: MBFI_* read by HarnessConfig/ServerConfig::from_vars == MBFI_* in README.md"
knobs_read() {
    awk '/^    pub fn from_vars\(/ { on = 1 } on { print } on && /^    }$/ { on = 0 }' "$@" \
        | grep -o '"MBFI_[A-Z0-9_]*"' | tr -d '"' | sort -u
}
diff <(knobs_read crates/bench/src/harness.rs crates/serve/src/server.rs) \
    <(grep -o 'MBFI_[A-Z0-9_]*' README.md | sort -u) \
    || { echo "knobs read (<) and knobs in README.md (>) differ"; exit 1; }

# Knob docs in code: every complete MBFI_* name on a `///` or `//!` doc line
# under crates/, src/ and examples/ must be a knob those from_vars bodies
# read, so a deleted knob cannot linger in rustdoc either.  Names ending in
# `_` are prefixes (MBFI_SERVE_*) and exempt.
echo "==> knob docs: MBFI_* on doc lines under crates/ src/ examples/ are all read by from_vars"
stray="$(comm -23 \
    <(grep -rhE '^[[:space:]]*//[/!]' --include='*.rs' crates src examples \
        | grep -o 'MBFI_[A-Z0-9_]*' | grep -v '_$' | sort -u) \
    <(knobs_read crates/bench/src/harness.rs crates/serve/src/server.rs))"
[[ -z "$stray" ]] || { echo "documented but not read by from_vars: $stray"; exit 1; }

# Rustdoc must stay clean, so a deleted or renamed item cannot leave a stale
# intra-doc link behind.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --offline --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Telemetry smoke: a tiny full-telemetry grid run writes a JSONL event
# stream, and `mbfi-monitor --headless` replays it — its verify() step
# exits non-zero unless the accumulated per-cell totals exactly equal the
# authoritative cell_finished / sweep_finished tallies (i.e. the monitor
# agrees with the SweepReport).
echo "==> telemetry smoke: fig1 (MBFI_TELEMETRY=full) | mbfi-monitor --headless"
TELEM_DIR="$(mktemp -d)"
trap 'rm -rf "$TELEM_DIR"' EXIT
MBFI_TELEMETRY=full MBFI_TELEMETRY_OUT="$TELEM_DIR/events.jsonl" \
    MBFI_EXPERIMENTS=10 MBFI_WORKLOADS=qsort cargo run --release --offline -q \
    -p mbfi-bench --bin fig1 -- --out-dir "$TELEM_DIR"
cargo run --release --offline -q -p mbfi-bench --bin mbfi-monitor -- \
    --headless "$TELEM_DIR/events.jsonl" | tee "$TELEM_DIR/monitor.txt"
grep -q "verify: ok" "$TELEM_DIR/monitor.txt"
grep -q "20 experiments" "$TELEM_DIR/monitor.txt"

# Campaign-service smoke: start the daemon on an ephemeral port, submit a
# tiny grid with --compare (exits non-zero unless the served report is
# byte-identical to the in-process Sweep::run of the same cells), then the
# shutdown verb must drain in-flight work and let the daemon exit cleanly.
# The grid goes in twice: one-experiment cells run store-less, and the
# ten-experiment cells make the daemon capture each program's checkpoint
# store, so the comparison covers both sides of that transition.  A
# `mbfi-monitor --headless --connect` watcher follows the daemon's global
# event log throughout and must verify it clean once the daemon drains;
# its header must report the copy-on-write traffic of the stored runs.
echo "==> serve smoke: mbfi-serve daemon / monitor --connect / submit --compare / shutdown"
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "$TELEM_DIR" "$SERVE_DIR"' EXIT
MBFI_SERVE_PORT=0 cargo run --release --offline -q -p mbfi-serve \
    --bin mbfi-serve -- daemon --addr-file "$SERVE_DIR/addr" \
    > "$SERVE_DIR/daemon.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 100); do [[ -s "$SERVE_DIR/addr" ]] && break; sleep 0.1; done
[[ -s "$SERVE_DIR/addr" ]] || { echo "daemon never wrote its address"; exit 1; }
SERVE_ADDR="$(cat "$SERVE_DIR/addr")"
target/release/mbfi-monitor --headless --connect "$SERVE_ADDR" \
    > "$SERVE_DIR/monitor.txt" 2>&1 &
MONITOR_PID=$!
for experiments in 1 10; do
    cargo run --release --offline -q -p mbfi-serve \
        --bin mbfi-serve -- submit --connect "$SERVE_ADDR" \
        --workloads qsort,CRC32 --experiments "$experiments" --compare --quiet \
        | tee "$SERVE_DIR/submit-$experiments.txt"
    grep -q "byte-identical" "$SERVE_DIR/submit-$experiments.txt"
done
cargo run --release --offline -q -p mbfi-serve \
    --bin mbfi-serve -- shutdown --connect "$SERVE_ADDR"
wait "$SERVE_PID"
grep -q "drained and stopped" "$SERVE_DIR/daemon.log"
wait "$MONITOR_PID" || { cat "$SERVE_DIR/monitor.txt"; exit 1; }
grep -q "verify: ok" "$SERVE_DIR/monitor.txt"
grep -q "| cow " "$SERVE_DIR/monitor.txt"

# run_all determinism smoke: every table and figure, Table IV's location
# pairs included, must be byte-identical on one thread, on three, on three
# without checkpoint replay, and on three with a 1 MiB store budget.  That
# budget truncates the qsort and stringsearch stores, so experiments that
# rejoin the golden run are checked where the store ends before the run.
echo "==> run_all determinism smoke: MBFI_THREADS=1 / 3 / 3 with MBFI_REPLAY=off / 3 with MBFI_REPLAY_BUDGET_MB=1"
RUN_ALL_DIR="$(mktemp -d)"
trap 'rm -rf "$TELEM_DIR" "$SERVE_DIR" "$RUN_ALL_DIR"' EXIT
for variant in "t1:1:on:64" "t3:3:on:64" "t3off:3:off:64" "t3trunc:3:on:1"; do
    IFS=: read -r name threads replay budget <<< "$variant"
    mkdir -p "$RUN_ALL_DIR/$name"
    MBFI_WORKLOADS=qsort,CRC32,stringsearch MBFI_EXPERIMENTS=12 \
        MBFI_THREADS="$threads" MBFI_REPLAY="$replay" \
        MBFI_REPLAY_BUDGET_MB="$budget" \
        cargo run --release --offline -q -p mbfi-bench --bin run_all -- \
        --out-dir "$RUN_ALL_DIR/$name" > /dev/null
done
cmp "$RUN_ALL_DIR/t1/run_all.txt" "$RUN_ALL_DIR/t3/run_all.txt"
cmp "$RUN_ALL_DIR/t1/run_all.txt" "$RUN_ALL_DIR/t3off/run_all.txt"
cmp "$RUN_ALL_DIR/t1/run_all.txt" "$RUN_ALL_DIR/t3trunc/run_all.txt"

# Hang-threshold neutrality smoke: on the programs that hang at tiny input,
# every table and figure must be byte-identical at the two ends of the
# paper's 10-100x hang threshold, and the counters-level summary must count
# at least one hang, so the comparison cannot pass without one.
echo "==> hang-threshold smoke: MBFI_HANG_FACTOR=10 / 100"
for factor in 10 100; do
    mkdir -p "$RUN_ALL_DIR/hang$factor"
    MBFI_WORKLOADS=CRC32,stringsearch,basicmath,FFT,IFFT MBFI_EXPERIMENTS=12 \
        MBFI_HANG_FACTOR="$factor" MBFI_TELEMETRY=counters \
        cargo run --release --offline -q -p mbfi-bench --bin run_all -- \
        --out-dir "$RUN_ALL_DIR/hang$factor" > /dev/null \
        2> "$RUN_ALL_DIR/hang$factor/stderr.txt"
    grep -Eq ", [1-9][0-9]* hangs executing" "$RUN_ALL_DIR/hang$factor/stderr.txt" \
        || { cat "$RUN_ALL_DIR/hang$factor/stderr.txt"; echo "no hang at factor $factor"; exit 1; }
done
cmp "$RUN_ALL_DIR/hang10/run_all.txt" "$RUN_ALL_DIR/hang100/run_all.txt"

# Artefact digests: run_all at default knobs must render, for the harness
# seed (2839) and for seeds 1 and 2, the run_all.txt whose FNV-1a 64 digest
# perfbench/digests.txt records (read here, never written), so a change
# that alters a default-knob artefact fails here and not only under
# `ci.sh bench`.  The reduced runs above only compare with each other.
echo "==> artefact digests: run_all at default knobs, seeds 2839 / 1 / 2 vs perfbench/digests.txt"
fnv1a64() {
    python3 -c 'import sys
h = 0xCBF29CE484222325
for b in open(sys.argv[1], "rb").read():
    h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
print(f"{h:016x}")' "$1"
}
for seed in 2839 1 2; do
    mkdir -p "$RUN_ALL_DIR/seed$seed"
    (
        for var in $(compgen -e | grep '^MBFI_' || true); do unset "$var"; done
        MBFI_SEED="$seed" cargo run --release --offline -q -p mbfi-bench --bin run_all -- \
            --out-dir "$RUN_ALL_DIR/seed$seed" > /dev/null
    )
    want="$(awk -v s="$seed" '$1 == s { print $2 }' perfbench/digests.txt)"
    got="$(fnv1a64 "$RUN_ALL_DIR/seed$seed/run_all.txt")"
    [[ -n "$want" && "$got" == "$want" ]] \
        || { echo "seed $seed: run_all.txt digest $got, perfbench/digests.txt has '${want}'"; exit 1; }
done

if [[ "${1:-}" == "bench" ]]; then
    # The repository benchmark (perfbench/, a package of its own): its
    # self-tests, then a short run of each workload.  The last line of a run
    # is a JSON object; it must report no failed operation (on `artifacts`
    # that includes the rendered run_all artefact matching its recorded
    # digest, i.e. byte-identical output).
    echo "==> cargo test --manifest-path perfbench/Cargo.toml"
    cargo test --offline -q --manifest-path perfbench/Cargo.toml
    PERF_DIR="$(mktemp -d)"
    trap 'rm -rf "$TELEM_DIR" "$SERVE_DIR" "$RUN_ALL_DIR" "$PERF_DIR"' EXIT
    for workload in artifacts late_injection served; do
        echo "==> perfbench --workload $workload --seconds 2"
        cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 2 --trace 0 \
            | tee "$PERF_DIR/$workload.txt"
        tail -n 1 "$PERF_DIR/$workload.txt" | grep -Eq '"failed": ?0[,}]' \
            || { echo "perfbench $workload reported failed operations"; exit 1; }
    done
fi

echo "==> OK"
