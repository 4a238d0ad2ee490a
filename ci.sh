#!/usr/bin/env bash
# Tier-1 gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --release --offline

# Pin property-test case counts so the gate's coverage is the same on
# every machine (the vendored proptest reads PROPTEST_CASES).
export PROPTEST_CASES="${PROPTEST_CASES:-64}"

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# The repo benchmark (BENCHMARK.json) is its own package with an empty
# [workspace], so the workspace steps above and below never reach it.
echo "==> cargo test --offline --manifest-path benchmark/Cargo.toml"
cargo test --offline --manifest-path benchmark/Cargo.toml

# The bench crate drives every substrate through the parallel
# replication engine; its parity and panic-isolation guarantees must
# hold at any worker count, so run its tests single-threaded and at a
# fixed multi-thread count too (the workspace run above used the
# machine default).
echo "==> cargo test -q --offline -p sas-bench -p simkernel (SAS_THREADS=1)"
SAS_THREADS=1 cargo test -q --offline -p sas-bench -p simkernel

echo "==> cargo test -q --offline -p sas-bench -p simkernel (SAS_THREADS=4)"
SAS_THREADS=4 cargo test -q --offline -p sas-bench -p simkernel

# F8 smoke: drive the lossy-comms sweep end-to-end at reduced length
# so a channel / retry-protocol regression surfaces here without the
# cost of the full-length bench.
echo "==> cargo bench -p sas-bench --bench f8_comms_loss (F8_STEPS=600)"
F8_STEPS=600 cargo bench --offline -p sas-bench --bench f8_comms_loss

# F9 smoke: the composed smart-city cascade end-to-end at reduced
# length, observability on, and schema-validate its emitted run trace
# — the composition layer's cross-substrate wiring and the F9 trace
# are both gated here. The table itself must match the committed
# golden byte for byte (crates/bench/golden/): a change that moves
# any composed-city output fails here, not in a manual diff.
echo "==> SAS_OBS=1 cargo bench -p sas-bench --bench f9_smart_city (F9_STEPS=300) vs golden"
rm -rf target/obs
SAS_OBS=1 F9_STEPS=300 cargo bench --offline -p sas-bench --bench f9_smart_city \
    | diff -u crates/bench/golden/f9_300.txt -

echo "==> cargo run -p sas-bench --bin obs_validate (F9 trace)"
cargo run --offline -p sas-bench --bin obs_validate
rm -rf target/obs

# F10 smoke: counterfactual replay end-to-end at reduced length. The
# bench binary exits non-zero if the intervention-regression gate
# fails (an intervention class with negative measured benefit on its
# canonical campaign), the emitted trace — including the typed
# `counterfactual` records — is schema-validated, and the table must
# match its committed golden byte for byte.
echo "==> SAS_OBS=1 cargo bench -p sas-bench --bench f10_counterfactual (F10_STEPS=600) vs golden"
rm -rf target/obs
SAS_OBS=1 F10_STEPS=600 cargo bench --offline -p sas-bench --bench f10_counterfactual \
    | diff -u crates/bench/golden/f10_600.txt -

echo "==> cargo run -p sas-bench --bin obs_validate (F10 trace)"
cargo run --offline -p sas-bench --bin obs_validate
rm -rf target/obs

# F11 smoke: the wall-clock live-traffic server end-to-end — seeded
# chaos replayed against an ephemeral-port TCP server, governed by the
# supervised autoscaler. The bench binary asserts the robustness gates
# (clean shutdown, zero leaked threads, a shed→recover cycle, the
# poisoned arrival model noticed); F11_SMOKE=1 skips only the
# statistical CI-separation gates, which need full-length runs. The
# emitted trace (including live:* transitions) is schema-validated.
echo "==> SAS_OBS=1 F11_SMOKE=1 cargo bench -p sas-bench --bench f11_live_traffic (F11_TICKS=250, F11_REPS=1)"
rm -rf target/obs
SAS_OBS=1 F11_SMOKE=1 F11_TICKS=250 F11_REPS=1 cargo bench --offline -p sas-bench --bench f11_live_traffic

echo "==> cargo run -p sas-bench --bin obs_validate (F11 trace)"
cargo run --offline -p sas-bench --bin obs_validate
rm -rf target/obs

# F12 smoke: the discrete-event substrates end-to-end at reduced
# scale. The bench binary exits non-zero if any non-timing gate fails
# (dense-vs-sparse bit-identity, seq-vs-parallel bit-identity);
# F12_SMOKE=1 skips only the full-scale floors and the wall-clock
# speedup gate, which need full-scale runs. The emitted trace is
# schema-validated.
echo "==> SAS_OBS=1 F12_SMOKE=1 cargo bench -p sas-bench --bench f12_des_scale"
rm -rf target/obs
SAS_OBS=1 F12_SMOKE=1 cargo bench --offline -p sas-bench --bench f12_des_scale

echo "==> cargo run -p sas-bench --bin obs_validate (F12 trace)"
cargo run --offline -p sas-bench --bin obs_validate
rm -rf target/obs

# Observability smoke: one real experiment under SAS_OBS=1 must emit
# a parseable JSONL run trace with the expected schema (provenance,
# arm aggregates + phase profile, per-replicate records). target/obs
# is cleaned on both sides so stale artifacts can't mask a regression.
echo "==> SAS_OBS=1 cargo bench -p sas-bench --bench f5_camnet_outage (F5_STEPS=900, F5_REPS=2)"
rm -rf target/obs
SAS_OBS=1 F5_STEPS=900 F5_REPS=2 cargo bench --offline -p sas-bench --bench f5_camnet_outage

echo "==> cargo run -p sas-bench --bin obs_validate"
cargo run --offline -p sas-bench --bin obs_validate
rm -rf target/obs

# Perf-trajectory smoke: regenerate the macro-bench document at
# reduced steps/reps and schema-check it, then schema-check EVERY
# committed BENCH_<n>.json and print the cross-PR wall-clock delta
# table. This gates on SCHEMA DRIFT only — a renamed arm, missing
# field, malformed histogram, or a deleted historical document fails
# here; machine-local timing differences never do.
echo "==> cargo run -p sas-bench --bin perfbench -- --smoke"
PERF_SMOKE_OUT="$(mktemp -t perfbench_smoke.XXXXXX.json)"
trap 'rm -f "$PERF_SMOKE_OUT"' EXIT
cargo run --offline --release -p sas-bench --bin perfbench -- --smoke --out "$PERF_SMOKE_OUT"
cargo run --offline --release -p sas-bench --bin perfbench -- --validate "$PERF_SMOKE_OUT"
echo "==> perfbench --validate-all (committed trajectory)"
cargo run --offline --release -p sas-bench --bin perfbench -- --validate-all

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo fmt --check --manifest-path benchmark/Cargo.toml"
cargo fmt --check --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings"
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

# No panic paths in shipped library code: every first-party lib carries
# #![warn(clippy::unwrap_used, clippy::panic)], promoted to errors here
# (tests are exempted via clippy.toml allow-*-in-tests).
FIRST_PARTY="-p simkernel -p selfaware -p workloads -p camnet -p cloudsim -p multicore -p cpn -p compose -p liveserve -p sas-bench"
echo "==> cargo clippy --offline \$FIRST_PARTY --lib -- -D warnings"
# shellcheck disable=SC2086
cargo clippy --offline $FIRST_PARTY --lib -- -D warnings

echo "==> ci.sh: all green"
