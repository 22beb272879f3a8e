#!/usr/bin/env bash
# Tier-1 verification: the workspace must build and test fully offline —
# no registry, no network, no vendored crates. See README.md ("Hermetic
# build") for the policy this enforces.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace

# Serving-layer smoke: the demo stands up a live duo-serve service
# (concurrent clients, micro-batching, budget + rate-limit rejections)
# and must exit cleanly.
cargo run --release --offline --example serve_demo

# Chaos smoke: the full steal + attack pipeline through the service under
# a seeded fault schedule. The binary itself asserts determinism and
# exact query-budget accounting (charged == served + failed) and exits
# nonzero on any drift.
DUO_SCALE=smoke cargo run --release --offline -p duo-experiments --bin chaos_serve

# Mutation smoke: a live service absorbing inserts, deletes, and a
# mid-flap rebalance while the fault schedule rages. The binary asserts
# same-seed bit-identical replay of the whole mutate+query+fault trace
# and zero budget drift (charged == served + failed, refunds exact).
DUO_SCALE=smoke cargo run --release --offline -p duo-experiments --bin mutate_serve

# Documentation gate: every public item documented, every doc-example
# compiles. Warnings are errors so rustdoc regressions fail tier-1.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Index smoke: the shard-index bench at tiny scale — exercises the seed
# scan vs SoA vs IVF vs compressed (PQ ADC, SQ8) paths end to end,
# asserts the audited recall floor on the compressed entries, and writes
# BENCH_index.json (timed rows plus bytes-per-vector and recall-loss
# pseudo-metric rows) for the threshold gate below.
DUO_SCALE=smoke cargo bench --offline -p duo-bench --bench index

# Index sweep smoke: asserts the equivalence contracts (IVF full probe
# == exact; PQ/SQ8 full probe + full-depth rerank bit-identical to
# exact), that recall audits fire on live IVF traffic, and that the
# per-mode breakdown attributes PQ audits to the pq bucket with live
# code-byte counters.
DUO_SCALE=smoke cargo run --release --offline -p duo-experiments --bin index_sweep

# Kernel + serving + epoch bench smokes: the GEMM bench asserts the
# packed kernel and the fused-bias path bit-identical to the oracle loop
# before timing the three interleaved, the mutate bench asserts the
# epoch path ranks identically to the frozen-snapshot baseline, and all
# three write their BENCH_*.json artifacts at the repo root.
DUO_SCALE=smoke cargo bench --offline -p duo-bench --bench gemm
DUO_SCALE=smoke cargo bench --offline -p duo-bench --bench serve
DUO_SCALE=smoke cargo bench --offline -p duo-bench --bench mutate

# Campaign smoke: the full attacker zoo (DUO, Vanilla, TIMI, HEU-Nes,
# HEU-Sim, sparse-RL, feature-map) as 8 concurrent metered clients
# against a live duo-serve instance. The binary asserts fleet-wide exact
# budget accounting and bit-identical seeded replay of the leaderboard,
# and writes BENCH_campaign.json for the gate below.
DUO_SCALE=smoke cargo run --release --offline -p duo-experiments --bin campaign

# Red-vs-blue smoke: the attacker zoo against the *defended* service —
# streaming detection at admission, squeeze purification on the
# inference path, benign control lanes, and a fault-injected accounting
# phase. The binary itself asserts two same-seed defended runs produce a
# byte-identical artifact before writing BENCH_defense.json; running it
# twice here proves the whole experiment (not just the in-process
# replay) is deterministic end to end.
DUO_SCALE=smoke cargo run --release --offline -p duo-experiments --bin red_vs_blue
cp BENCH_defense.json BENCH_defense.json.replay
DUO_SCALE=smoke cargo run --release --offline -p duo-experiments --bin red_vs_blue
cmp BENCH_defense.json BENCH_defense.json.replay \
  || { echo "red_vs_blue: same-seed reruns diverged" >&2; exit 1; }
rm -f BENCH_defense.json.replay

# End-to-end benchmark: its own tests (workload specs, output checks,
# shape tables), then one short served-query run. The run exits 1 on a
# failed output check; its last stdout line must also report
# `"correct": true`.
cargo test --release --offline --manifest-path e2ebench/Cargo.toml
e2e_last=$(cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
  --workload serve_mixed --seed 3 --seconds 4 --trace 0 | tail -n 1)
case "$e2e_last" in
  *'"correct": true'*) ;;
  *) echo "e2ebench serve_mixed smoke: output check failed: $e2e_last" >&2; exit 1 ;;
esac

# Artifact + threshold gate: every emitted file (gemm, serve, campaign,
# mutate, index, defense) must parse and carry every required field (name,
# samples, min/median/p95/mean/trimmed_mean/max), and the smoke-scale
# rules in BENCH_thresholds.txt must hold on the trimmed means — a
# kernel perf regression, a broken attack contract (zero-query family
# charging queries, sparse family going dense), or a compressed-index
# contract break (PQ/SQ8 slower than the wall, code footprint above the
# ratio, audited recall loss over 0.05) fails tier-1 here, not just a
# schema break. (Full-scale rules are skipped at smoke scale; they gate
# the committed BENCH_*.json artifacts instead.)
cargo run --release --offline -p duo-bench --bin bench_check
