#!/usr/bin/env bash
# Local CI gate — the same checks the GitHub workflow runs.
#
# Usage:
#   ./ci.sh [FLAGS]        flags combine freely, e.g. `./ci.sh --bench --vet`
#
# Without flags, the default gate runs: fmt, clippy, vh-vet, tests
# (debug + release) and rustdoc.
# Flags are additive on top of the gate:
#   --bench         run the quick bench profile and compare against
#                   crates/bench/baselines/
#   --bench-against <rev>
#                   back-to-back bench gate on this machine: build <rev> in
#                   a git worktree under target/bench-against/, run the
#                   quick profile of both sides alternately (one
#                   experiment at a time, order flipping each time), then
#                   gate with `bench_diff <rev-dir> <head-dir>` — for hosts
#                   whose speed drifts too far from the committed baselines
#                   for `--bench` to tell a regression
#   --miri          run the Miri leg (vh-core exec/cache + the interleaving
#                   stress test + vh-pbn arena and key walkers + the
#                   vh-storage WAL frame codec) — needs the nightly `miri`
#                   component; skipped with a notice when it is missing
#   --recovery      run the fault-injected recovery matrix (crash-point
#                   truncations + bit flips) over the widened CI seed set
#   --serve         run the query-server leg: the vh-serve protocol fuzz
#                   + end-to-end suites in release mode (real loopback
#                   sockets, 8-client mixed traffic, crash-mid-frame
#                   serviceability) and the linearizable-reads history
#                   check (1/2/8 readers beside one writer on a tenant)
#   --perfbench     build the repository benchmark (perfbench/), run its
#                   op-stream generator tests, then a 3 s untraced smoke
#                   run of each BENCHMARK.json workload; a wrong answer or
#                   a failed durability check exits nonzero and fails
#   --tsan          run the ThreadSanitizer leg over the partition/merge,
#                   cache, virtual-document and linearizable-reads tests —
#                   needs nightly + `rust-src` (std must be rebuilt
#                   instrumented); skipped with a notice otherwise
#   --vet           run vh-vet (already part of the gate; useful with
#                   --no-gate for a lint-only run)
#   --bench-history run the quick bench profile, append this commit's
#                   machine-normalized medians to
#                   target/bench-history/BENCH_history.jsonl and print the
#                   trend report (JSON + markdown land next to the history;
#                   gated rows drifting >10% across the window fail)
#   --no-gate       skip the default gate and run only the selected legs
#   --bench-rebase  regenerate the committed bench baselines
#                   (run on the reference machine, then commit)
set -euo pipefail
cd "$(dirname "$0")"

RUN_GATE=1
RUN_BENCH=0
RUN_MIRI=0
RUN_TSAN=0
RUN_VET=0
RUN_REBASE=0
RUN_RECOVERY=0
RUN_HISTORY=0
RUN_SERVE=0
RUN_PERFBENCH=0
BENCH_AGAINST=""

while [ $# -gt 0 ]; do
  arg="$1"
  case "$arg" in
    --bench-against)
      if [ $# -lt 2 ]; then
        echo "ci.sh: --bench-against needs a revision (see --help)" >&2
        exit 2
      fi
      BENCH_AGAINST="$2"
      shift ;;
    --bench-against=*) BENCH_AGAINST="${arg#*=}" ;;
    --bench)        RUN_BENCH=1 ;;
    --bench-history) RUN_HISTORY=1 ;;
    --miri)         RUN_MIRI=1 ;;
    --tsan)         RUN_TSAN=1 ;;
    --vet)          RUN_VET=1 ;;
    --recovery)     RUN_RECOVERY=1 ;;
    --serve)        RUN_SERVE=1 ;;
    --perfbench)    RUN_PERFBENCH=1 ;;
    --no-gate)      RUN_GATE=0 ;;
    --bench-rebase) RUN_REBASE=1 ;;
    -h|--help)      grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "ci.sh: unknown flag '$arg' (see --help)" >&2; exit 2 ;;
  esac
  shift
done

# Quick profile, sequential, JSON into a scratch dir — exactly what the
# GitHub bench-gate job runs. Gated rows are the axis/twig hot paths, the
# observability layer's end-to-end query cost (exp_obs also enforces its
# own ≤2% disabled-mode overhead budget and exits nonzero past it) and the
# edit subsystem's throughput (exp_update likewise enforces its ≤1.25x
# post-edit slowdown and ≤2x arena-growth acceptance bounds itself) and
# the query server's loopback throughput/tail (exp_serve self-enforces
# zero sheds and zero dropped connections under the default quota, and
# that a tight quota sheds with the distinct wire status).
BENCH_FLAGS=(--quick --threads 1)
BASELINE_DIR=crates/bench/baselines

BENCH_EXPS=(exp_axes exp_twig exp_sjoin exp_space exp_obs exp_update exp_serve)

run_bench() {
  local out="$1"
  cargo build --release -p vh-bench --bins
  for exp in "${BENCH_EXPS[@]}"; do
    "./target/release/$exp" "${BENCH_FLAGS[@]}" --json "$out" >/dev/null
  done
}

# Back-to-back gate against another revision's own binaries, built from a
# detached worktree into a target dir of its own (kept, so a rerun is
# incremental). The experiments alternate sides one at a time, flipping
# which side goes first, so host-speed drift lands on both. A head-side
# experiment that fails its own acceptance bound fails the run, as in
# `--bench`; a base-side one only warns — its JSON is still written.
run_bench_against() {
  local rev="$1"
  local root=target/bench-against
  local wt="$root/worktree"
  local base_out="$root/base" head_out="$root/head"
  echo "==> back-to-back bench gate: $rev vs the working tree"
  git worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
  git worktree prune
  git worktree add --detach --quiet "$wt" "$rev"
  (cd "$wt" && CARGO_TARGET_DIR="$PWD/../target" cargo build --release -p vh-bench --bins)
  cargo build --release -p vh-bench --bins
  rm -rf "$base_out" "$head_out"
  mkdir -p "$base_out" "$head_out"
  local i=0 exp
  for exp in "${BENCH_EXPS[@]}"; do
    local base_bin="$root/target/release/$exp"
    if [ ! -x "$base_bin" ]; then
      echo "    $exp: not built at $rev, skipped" >&2
      continue
    fi
    local sides=(base head)
    [ $((i % 2)) = 1 ] && sides=(head base)
    for side in "${sides[@]}"; do
      if [ "$side" = base ]; then
        "$base_bin" "${BENCH_FLAGS[@]}" --json "$base_out" >/dev/null \
          || echo "    $exp at $rev failed its own bound (rows kept)" >&2
      else
        "./target/release/$exp" "${BENCH_FLAGS[@]}" --json "$head_out" >/dev/null
      fi
    done
    i=$((i + 1))
  done
  git worktree remove --force "$wt"
  ./target/release/bench_diff "$base_out" "$head_out"
}

run_vet() {
  echo "==> vh-vet (workspace invariants; reports in target/vet-findings.{json,sarif})"
  cargo build --release -p vh-vet --quiet
  ./target/release/vh-vet --json target/vet-findings.json \
    --sarif target/vet-findings.sarif
}

# Miri and TSan want the nightly toolchain plus specific components; on
# machines without them the legs skip loudly instead of failing, so the
# default developer loop never needs nightly. CI installs the real thing.
nightly_has() {
  rustup component list --installed --toolchain nightly 2>/dev/null | grep -q "^$1"
}

run_miri() {
  echo "==> miri leg (vh-core exec/cache, interleaving stress, vh-pbn arena + key walkers, WAL codec)"
  if ! nightly_has miri; then
    echo "    SKIPPED: nightly 'miri' component not installed" >&2
    echo "    (rustup component add --toolchain nightly miri)" >&2
    return 0
  fi
  cargo +nightly miri test -q -p vh-core --lib -- exec:: cache::
  cargo +nightly miri test -q -p vh-core --test stress_interleave
  cargo +nightly miri test -q -p vh-pbn --lib -- arena::
  cargo +nightly miri test -q -p vh-pbn --lib -- keys::
  cargo +nightly miri test -q -p vh-storage --lib -- wal::
}

# The same matrix `cargo test` runs on its three default seeds, widened to
# the CI seed set. Failures drop RecoveryReport JSON into
# target/recovery-reports/ — the GitHub job uploads that as an artifact.
run_recovery() {
  echo "==> recovery matrix (crash-point truncations + bit flips, CI seeds)"
  VPBN_RECOVERY_SEEDS="11,42,2026,7,1914" \
    cargo test --release --test recovery -q
}

# Release mode so the loopback timing-sensitive tests (stall timeouts,
# 8-client mixed traffic) run at realistic speed.
run_serve() {
  echo "==> serve leg (VHRPC protocol fuzz + end-to-end over loopback sockets)"
  cargo test --release -p vh-serve -q
}

# The repository benchmark is its own cargo workspace; its answer and
# durability oracles make every workload's exit status a correctness
# check, so a short run of each gates the change without timing it.
run_perfbench() {
  echo "==> perfbench leg (generator tests + 3 s smoke of every workload, traced view-query, edit-stream and served-mix)"
  local manifest=perfbench/Cargo.toml
  cargo build --release --offline --manifest-path "$manifest" --bin perfbench
  cargo test --release --offline --manifest-path "$manifest" -q
  for workload in served-mix view-query edit-stream; do
    echo "    smoke: $workload"
    cargo run --release --quiet --offline --manifest-path "$manifest" \
      --bin perfbench -- --workload "$workload" --seed 7 --seconds 3 \
      --trace 0 >/dev/null
  done
  # The traced ledger re-runs each physical twin on a PhysicalDoc and
  # derives query.virt_phys_x; only --trace 1 reaches that code.
  echo "    smoke: view-query --trace 1"
  cargo run --release --quiet --offline --manifest-path "$manifest" \
    --bin perfbench -- --workload view-query --seed 7 --seconds 3 \
    --trace 1 >/dev/null
  # The traced edit stream is the only run that drives
  # Engine::apply_traced(…, true); its probe suite then runs the plain
  # and the counted joins on an engine whose edits the view has not
  # caught up with yet, so the first open catches it up and the first
  # join rebuilds its order column.
  echo "    smoke: edit-stream --trace 1"
  cargo run --release --quiet --offline --manifest-path "$manifest" \
    --bin perfbench -- --workload edit-stream --seed 7 --seconds 3 \
    --trace 1 >/dev/null
  # The traced served mix is the only run whose probe suite joins an
  # edited 100-book view, so it runs the catch-up and the column
  # rebuild after edits.
  echo "    smoke: served-mix --trace 1"
  cargo run --release --quiet --offline --manifest-path "$manifest" \
    --bin perfbench -- --workload served-mix --seed 7 --seconds 3 \
    --trace 1 >/dev/null
}

run_tsan() {
  echo "==> tsan leg (partition/merge, cache, batched axis scans and tenant reads under ThreadSanitizer)"
  if ! nightly_has rust-src; then
    echo "    SKIPPED: nightly 'rust-src' component not installed" >&2
    echo "    (TSan needs std rebuilt with instrumentation via -Zbuild-std;" >&2
    echo "     an uninstrumented std reports phantom races on every futex)" >&2
    return 0
  fi
  local host
  host="$(rustc -vV | sed -n 's/^host: //p')"
  RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
    cargo +nightly test -q -Zbuild-std --target "$host" \
    -p vh-core --lib -- exec:: cache:: vdoc::
  RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
    cargo +nightly test -q -Zbuild-std --target "$host" \
    -p vh-core --test stress_interleave
  RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
    cargo +nightly test -q -Zbuild-std --target "$host" \
    -p vh-serve --test linearizable_reads
}

if [ "$RUN_REBASE" = 1 ]; then
  echo "==> regenerating bench baselines in $BASELINE_DIR"
  run_bench "$BASELINE_DIR"
  ls -l "$BASELINE_DIR"
  echo "==> OK (commit the updated baselines)"
  exit 0
fi

if [ "$RUN_GATE" = 1 ]; then
  echo "==> cargo fmt --check"
  cargo fmt --all -- --check

  echo "==> cargo clippy (warnings are errors; panic-freedom and SAFETY comments via the workspace lint table)"
  cargo clippy --workspace --all-targets -- -D warnings -D clippy::dbg_macro

  run_vet

  echo "==> cargo test"
  cargo test --workspace -q

  echo "==> cargo test --release (optimized build exercises the byte-scan fast paths)"
  cargo test --workspace --release -q

  echo "==> cargo doc (no deps, warnings are errors)"
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
elif [ "$RUN_VET" = 1 ]; then
  run_vet
fi

if [ "$RUN_MIRI" = 1 ]; then
  run_miri
fi

if [ "$RUN_TSAN" = 1 ]; then
  run_tsan
fi

if [ "$RUN_RECOVERY" = 1 ]; then
  run_recovery
fi

if [ "$RUN_SERVE" = 1 ]; then
  run_serve
fi

if [ "$RUN_PERFBENCH" = 1 ]; then
  run_perfbench
fi

if [ -n "$BENCH_AGAINST" ]; then
  run_bench_against "$BENCH_AGAINST"
fi

if [ "$RUN_BENCH" = 1 ] || [ "$RUN_HISTORY" = 1 ]; then
  OUT=target/bench-current
  rm -rf "$OUT"
  run_bench "$OUT"
  if [ "$RUN_BENCH" = 1 ]; then
    echo "==> bench gate (quick profile vs $BASELINE_DIR)"
    ./target/release/bench_diff "$BASELINE_DIR" "$OUT"
  fi
  if [ "$RUN_HISTORY" = 1 ]; then
    HIST=target/bench-history
    mkdir -p "$HIST"
    COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo local)"
    echo "==> bench history (appending commit $COMMIT, trend over the last runs)"
    ./target/release/bench_history append "$OUT" "$HIST/BENCH_history.jsonl" \
      --commit "$COMMIT"
    ./target/release/bench_history report "$HIST/BENCH_history.jsonl" \
      --json "$HIST/trend.json" --markdown "$HIST/trend.md"
  fi
fi

echo "==> OK"
