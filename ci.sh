#!/usr/bin/env bash
# Tier-1 gate: build, test, format, lint. Run from the repo root.
#
# Every cargo build, test, run, clippy and doc call passes --locked:
# a change that adds or drops a crate dependency must update
# Cargo.lock and benchmark/Cargo.lock itself, and fails here instead
# of rewriting them.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --locked --release --offline"
cargo build --locked --release --offline

# The examples: `cargo test` only compiles them, so run each one once
# (well under a second together); a panic or non-zero exit fails here.
echo "==> cargo build --locked --release --offline --examples"
cargo build --locked --release --offline --examples
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "==> example $name"
    "${CARGO_TARGET_DIR:-target}/release/examples/$name" > /dev/null
done

# Pin property-test case counts so the gate's coverage is the same on
# every machine (the vendored proptest reads PROPTEST_CASES).
export PROPTEST_CASES="${PROPTEST_CASES:-64}"

echo "==> cargo test --locked -q --offline --workspace"
cargo test --locked -q --offline --workspace

# The DES kernels in the build that the benchmark and F12 run: the
# scheduler's release path, where an overflowing same-tick budget sheds
# instead of panicking (the tests of that path compile only without
# debug assertions), the grid query, the camera world's unit tests
# (one seeded sparse world pinned), and both worlds' dense-vs-sparse
# parity proptests. The check that each camera visit's tally counts
# the objects it sees is a debug assertion, so only the workspace run
# above makes it. The packet plane, the command plane and the city run
# in that build too, so their crates' tests (the plane's and the comms
# network's reference models among them) run optimised as well.
echo "==> cargo test --locked --release -q --offline -p simkernel -p camnet -p cloudsim -p cpn -p selfaware -p compose"
cargo test --locked --release -q --offline -p simkernel -p camnet -p cloudsim -p cpn -p selfaware -p compose

# The scheduler's model test is the oracle for its due FIFOs, its pop
# fast path and its wheel, and the runs above give it the gate's case
# count; run it once more in release at 512 cases (about 5 s).
echo "==> PROPTEST_CASES=512 cargo test --locked --release -q --offline -p simkernel --test sched_model"
PROPTEST_CASES=512 cargo test --locked --release -q --offline -p simkernel --test sched_model

# The allocation bounds (crates/bench/tests/zero_alloc.rs) in the build
# the benchmark runs, too: the workspace run above counts a debug
# build's allocations, and an optimised build can allocate differently.
echo "==> cargo test --locked --release -q --offline -p sas-bench --test zero_alloc"
cargo test --locked --release -q --offline -p sas-bench --test zero_alloc

# The city's mask property (factual-mask identity, parity of every
# single-flip mask, the replay skip) in release too, at the gate's
# case count: release is the build the benchmark's `audit` replays
# masks in.
echo "==> cargo test --locked --release -q --offline -p sas-bench --test fault_proptest any_single_flip_mask_is_parity_clean_and_factual_mask_is_identity"
cargo test --locked --release -q --offline -p sas-bench --test fault_proptest \
    any_single_flip_mask_is_parity_clean_and_factual_mask_is_identity

# The repo benchmark (BENCHMARK.json) is its own package with an empty
# [workspace], so the workspace steps above and below never reach it.
echo "==> cargo test --locked --offline --manifest-path benchmark/Cargo.toml"
cargo test --locked --offline --manifest-path benchmark/Cargo.toml

# The benchmark's own output checks: the canary digests in
# benchmark/expected.txt, city's panic check, and live's response
# format and clean shutdown. A failed check exits 1. One short run per
# workload; its timings are not compared with anything.
echo "==> cargo build --locked --release --offline --manifest-path benchmark/Cargo.toml"
cargo build --locked --release --offline --manifest-path benchmark/Cargo.toml
benchmark="${CARGO_TARGET_DIR:-benchmark/target}/release/sas-benchmark"
for workload in city audit des live; do
    echo "==> sas-benchmark --workload $workload --seed 1 --seconds 1 --trace 0"
    "$benchmark" --workload "$workload" --seed 1 --seconds 1 --trace 0
done
# The traced path, which every per-layer metric comes from: the span
# and replicate sinks, under the same output checks.
for workload in city audit; do
    echo "==> sas-benchmark --workload $workload --seed 1 --seconds 1 --trace 1"
    "$benchmark" --workload "$workload" --seed 1 --seconds 1 --trace 1
done

# The bench crate drives every substrate through the parallel
# replication engine; its parity and panic-isolation guarantees must
# hold at any worker count, so run its tests single-threaded and at a
# fixed multi-thread count too (the workspace run above used the
# machine default).
echo "==> cargo test --locked -q --offline -p sas-bench -p simkernel (SAS_THREADS=1)"
SAS_THREADS=1 cargo test --locked -q --offline -p sas-bench -p simkernel

echo "==> cargo test --locked -q --offline -p sas-bench -p simkernel (SAS_THREADS=4)"
SAS_THREADS=4 cargo test --locked -q --offline -p sas-bench -p simkernel

# Experiments: every deterministic table of EXPERIMENTS.md, at the
# scale EXPERIMENTS.md reports, must match its golden
# (crates/bench/golden/<id>.txt) byte for byte at one and at four
# workers, run traces on. The registry test keeps golden/ and the
# registry in step, so this loop covers every experiment without a
# --smoke scale. f10 exits non-zero if its intervention-regression
# gate fails. The two wall-clock experiments run at their smoke scale,
# which keeps every gate a short run can judge and exits non-zero if
# one fails. Then one schema check covers every run trace emitted.
# The release build above built the binary; calling it directly skips
# cargo's start-up on every run.
experiments="${CARGO_TARGET_DIR:-target}/release/experiments"
rm -rf target/obs
for threads in 1 4; do
    for golden in crates/bench/golden/*.txt; do
        id=$(basename "$golden" .txt)
        echo "==> SAS_OBS=1 SAS_THREADS=$threads experiments $id vs golden"
        SAS_OBS=1 SAS_THREADS=$threads "$experiments" "$id" | diff -u "$golden" -
    done
done

echo "==> SAS_OBS=1 experiments --smoke f11 f12"
SAS_OBS=1 "$experiments" --smoke f11 f12

echo "==> cargo run --locked -p sas-bench --bin obs_validate (every run trace)"
cargo run --locked --offline -p sas-bench --bin obs_validate
rm -rf target/obs

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo fmt --check --manifest-path benchmark/Cargo.toml"
cargo fmt --check --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --locked --offline --workspace --all-targets -- -D warnings"
cargo clippy --locked --offline --workspace --all-targets -- -D warnings

echo "==> cargo clippy --locked --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings"
cargo clippy --locked --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

# API docs build clean: a broken or redundant intra-doc link (one the
# compiler does not check, such as the replay closure contract's link
# to the explanation ledger) fails the gate.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --locked --no-deps --workspace --offline"
RUSTDOCFLAGS="-D warnings" cargo doc --locked --no-deps --workspace --offline

# No panic paths in shipped library code: every first-party lib carries
# #![warn(clippy::unwrap_used, clippy::panic)], promoted to errors here
# (tests are exempted via clippy.toml allow-*-in-tests).
FIRST_PARTY="-p simkernel -p selfaware -p workloads -p camnet -p cloudsim -p multicore -p cpn -p compose -p liveserve -p sas-bench"
echo "==> cargo clippy --locked --offline \$FIRST_PARTY --lib -- -D warnings"
# shellcheck disable=SC2086
cargo clippy --locked --offline $FIRST_PARTY --lib -- -D warnings

echo "==> ci.sh: all green"
