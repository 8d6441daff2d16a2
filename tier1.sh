#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, lint-clean
# workspace. CI and pre-merge checks run exactly this script.
set -euo pipefail
cd "$(dirname "$0")"

# The bare root build only covers the facade lib; the smoke below runs
# the release binary, so build frac-cli explicitly too.
cargo build --release -p frac -p frac-cli
cargo test -q
cargo clippy --workspace -- -D warnings
# frac-core and frac-learn deny unwrap/expect in non-test code via
# crate-root cfg_attr (flags passed here would leak into dependency
# builds); this run enforces those lints.
cargo clippy -p frac-core -p frac-learn --lib
# The workspace's only unsafe code is the SIMD kernel module
# (#![deny(unsafe_op_in_unsafe_fn)] at its root) and the serve daemon's
# signal hookup in frac-cli; keep the hosting crates lint-clean on their
# own, independent of workspace-wide runs.
cargo clippy -p frac-dataset --lib -- -D warnings
cargo clippy -p frac-cli -- -D warnings
# The documented surface is part of the gate: every public item has docs
# (frac-core/frac-learn deny missing_docs) and no doc link is broken.
# Library crates only — the vendored stubs are workspace members but not
# ours to lint, and the `frac` bin would collide with the facade's docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p frac -p frac-dataset -p frac-learn -p frac-projection -p frac-synth \
  -p frac-core -p frac-baselines -p frac-eval
# Fault-isolation guarantee: fit + score must survive injected faults.
cargo test -q -p frac-core --test fault_injection
# Crash-safety guarantee: resume after a kill at any journal byte must be
# bitwise identical to an uninterrupted run.
cargo test -q -p frac-core --test crash_resume
# Shard-supervision guarantee: crash-looping and mid-run-killed workers
# must not lose or double-count a target, and the merged model must be
# bitwise identical to a single-process run (DESIGN.md §14).
cargo test -q -p frac-core --test shard_supervision
# Telemetry guarantee: well-nested span trees under injected faults, and
# traced runs bit-identical to untraced ones.
cargo test -q -p frac-core --test telemetry
# SIMD-tier guarantee: the fast/strict equivalence suites must also pass
# with vectorization force-disabled — the portable unrolled tier is a
# first-class execution path, not just a fallback (DESIGN.md §12).
FRAC_KERNEL_TIER=unrolled cargo test -q -p frac-dataset --test kernel_equivalence
FRAC_KERNEL_TIER=unrolled cargo test -q -p frac-learn --test solver_equivalence
FRAC_KERNEL_TIER=unrolled cargo test -q -p frac-core --test pool_equivalence
# Gram-strategy guarantee: the Gram dual loop must match the primal fast
# path (objective ≤ 1e-8 relative) under the default tier and with
# vectorization force-disabled (DESIGN.md §13).
cargo test -q -p frac-learn --test gram_equivalence
FRAC_KERNEL_TIER=unrolled cargo test -q -p frac-learn --test gram_equivalence
# Serving guarantee: daemon replies bit-identical to `frac score`,
# malformed lines quarantined per-record, overload shed with `busy`,
# hot reload validated off-path with rollback, drain on shutdown — plus
# wire-protocol fuzzing (byte soup, oversized lines, disconnects).
cargo test -q -p frac-core --test serve
cargo test -q -p frac-core --test serve_fuzz
# Out-of-core guarantee: FCB round trips are bit-exact and any corruption
# (truncation, bit flips, foreign bytes) is rejected without a panic
# (FORMATS.md §2); models fitted from a memory-mapped FCB file score
# bit-identically to TSV-fitted ones at any thread count.
cargo test -q -p frac-dataset --test fcb_corruption
cargo test -q -p frac-core --test fcb_equivalence
# Benchmark guarantee: fracbench is its own workspace, so the runs above
# never build it. Its tests keep BENCHMARK.json in step with the metrics
# the benchmark reports, and check its statistics and input generation.
cargo test --release --offline --manifest-path fracbench/Cargo.toml

# Deadline smoke: a 2s wall-clock budget on the SNP surrogate must exit 0
# within the budget plus slack, save a scored model, print a health
# summary that accounts for every planned target, and write an
# inspectable telemetry trace.
smoke_dir="$(mktemp -d)"
# Also reaps the serve-smoke daemon if a later assertion aborts the gate.
trap '[ -z "${serve_pid:-}" ] || kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
run_smoke() {
  ./target/release/frac generate --dataset autism --out "$smoke_dir"
  timeout 60 ./target/release/frac train \
    --train "$smoke_dir/autism.train.tsv" \
    --out "$smoke_dir/autism.frac" \
    --snp --deadline 2s --journal "$smoke_dir/autism.frj" \
    --telemetry "$smoke_dir/autism.trace.tsv" \
    2> "$smoke_dir/train.log"
  test -f "$smoke_dir/autism.frac"
  grep -q "health: " "$smoke_dir/train.log"
  test -f "$smoke_dir/autism.trace.tsv"
  ./target/release/frac inspect-telemetry \
    --file "$smoke_dir/autism.trace.tsv" > "$smoke_dir/inspect.log"
  grep -q "^wall" "$smoke_dir/inspect.log"
}
run_smoke

# Shard smoke: a 2-shard run whose second worker crash-loops must still
# exit 0 — the supervisor burns the retry budget, reclaims the dead
# shard in-process, and the merged model scores.
timeout 120 ./target/release/frac train \
  --train "$smoke_dir/autism.train.tsv" \
  --out "$smoke_dir/autism-sharded.frac" \
  --snp --shards 2 --shard-fault crashloop:1 \
  --shard-retries 1 --shard-backoff 50ms --shard-heartbeat 30s \
  --journal "$smoke_dir/autism-sharded.frj" \
  2> "$smoke_dir/shard.log"
test -f "$smoke_dir/autism-sharded.frac"
grep -q "shards merged" "$smoke_dir/shard.log"
./target/release/frac score \
  --model "$smoke_dir/autism-sharded.frac" \
  --test "$smoke_dir/autism.test.tsv" \
  > "$smoke_dir/shard-score.tsv" 2> "$smoke_dir/shard-score.log"
grep -q "sharded run (2 shards)" "$smoke_dir/shard-score.log"
grep -q "^sample" "$smoke_dir/shard-score.tsv"

# FCB smoke: pack the surrogate to the binary column format, inspect it,
# train from the .fcb, and check the scores are byte-identical to a
# TSV-trained model's — out-of-core storage must not change a single bit.
./target/release/frac pack --data "$smoke_dir/autism.train.tsv" \
  --out "$smoke_dir/autism.train.fcb" --chunk-rows 64
./target/release/frac info --data "$smoke_dir/autism.train.fcb" \
  > "$smoke_dir/fcb-info.log"
grep -q "^format	fcb v1" "$smoke_dir/fcb-info.log"
timeout 120 ./target/release/frac train \
  --train "$smoke_dir/autism.train.fcb" \
  --out "$smoke_dir/autism-fcb.frac" --snp 2> "$smoke_dir/fcb-train.log"
timeout 120 ./target/release/frac train \
  --train "$smoke_dir/autism.train.tsv" \
  --out "$smoke_dir/autism-tsv.frac" --snp 2> /dev/null
./target/release/frac score --model "$smoke_dir/autism-fcb.frac" \
  --test "$smoke_dir/autism.test.tsv" \
  > "$smoke_dir/score-fcb.tsv" 2> /dev/null
./target/release/frac score --model "$smoke_dir/autism-tsv.frac" \
  --test "$smoke_dir/autism.test.tsv" \
  > "$smoke_dir/score-tsv.tsv" 2> /dev/null
cmp "$smoke_dir/score-fcb.tsv" "$smoke_dir/score-tsv.tsv"

# The telemetry-off build must compile every probe away and still pass
# the same smoke (its trace degenerates to wall clock + solver delta).
cargo build --release -p frac-cli --features telemetry-off
rm -rf "$smoke_dir"/*
run_smoke
# Leave the default binary in place for anything run after the gate.
cargo build --release -p frac-cli

# Serve smoke: a release daemon on a loopback socket must score a piped
# TSV record, quarantine a malformed line without dropping the
# connection, hot-reload on SIGHUP, reject a corrupt reload candidate
# and keep serving the old model, and exit 0 on SIGTERM with its
# counters accounting for both reload outcomes. Uses the model the
# telemetry-off smoke just trained (the default binary serves it).
./target/release/frac serve \
  --model "$smoke_dir/autism.frac" \
  --schema "$smoke_dir/autism.train.tsv" \
  --listen 127.0.0.1:0 --drain-timeout 5s 2> "$smoke_dir/serve.log" &
serve_pid=$!
for _ in $(seq 50); do
  grep -q "listening on" "$smoke_dir/serve.log" && break
  sleep 0.1
done
port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$smoke_dir/serve.log")
exec 3<>"/dev/tcp/127.0.0.1/$port"
# A real record scores (seq 1)…
sed -n '2p' "$smoke_dir/autism.test.tsv" >&3
read -t 10 -r reply <&3
case "$reply" in "ns 1 "*) ;; *) echo "serve smoke: bad score reply: $reply"; exit 1;; esac
# …a malformed line is quarantined (seq 2) and the connection survives
# to answer a ping (seq 3).
printf 'definitely\tnot\ta\trecord\n' >&3
read -t 10 -r reply <&3
case "$reply" in "err 2 "*) ;; *) echo "serve smoke: malformed line not quarantined: $reply"; exit 1;; esac
printf 'cmd ping\n' >&3
read -t 10 -r reply <&3
case "$reply" in "ok 3 pong") ;; *) echo "serve smoke: daemon died after quarantine: $reply"; exit 1;; esac
# SIGHUP hot reload (same path on disk is a valid candidate); the daemon
# must log the reload and keep scoring.
kill -HUP "$serve_pid"
for _ in $(seq 50); do
  grep -q "SIGHUP: reloading" "$smoke_dir/serve.log" && break
  sleep 0.1
done
grep -q "SIGHUP: reloading" "$smoke_dir/serve.log"
sleep 0.3
sed -n '2p' "$smoke_dir/autism.test.tsv" >&3
read -t 10 -r reply <&3
case "$reply" in "ns 4 "*) ;; *) echo "serve smoke: no score after SIGHUP reload: $reply"; exit 1;; esac
# A truncated candidate must be rejected off-path and rolled back; the
# serving model keeps answering.
head -c "$(( $(wc -c < "$smoke_dir/autism.frac") / 2 ))" \
  "$smoke_dir/autism.frac" > "$smoke_dir/corrupt.frac"
printf 'cmd reload %s\n' "$smoke_dir/corrupt.frac" >&3
read -t 10 -r reply <&3
case "$reply" in "err 5 reload failed"*) ;; *) echo "serve smoke: corrupt reload not rejected: $reply"; exit 1;; esac
sed -n '2p' "$smoke_dir/autism.test.tsv" >&3
read -t 10 -r reply <&3
case "$reply" in "ns 6 "*) ;; *) echo "serve smoke: daemon lost the model after rollback: $reply"; exit 1;; esac
# SIGTERM drains and exits 0; the exit summary accounts for the one
# successful reload and the one rejected candidate.
kill -TERM "$serve_pid"
wait "$serve_pid"
grep -q "reloads=1" "$smoke_dir/serve.log"
grep -q "reload_failures=1" "$smoke_dir/serve.log"
