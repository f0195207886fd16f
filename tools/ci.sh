#!/usr/bin/env bash
# CI entry point: build and test the plain, ASan+UBSan, and TSan variants.
#
#   tools/ci.sh              # all variants
#   tools/ci.sh plain        # RelWithDebInfo only
#   tools/ci.sh sanitize     # ASan+UBSan only
#   tools/ci.sh tsan         # ThreadSanitizer (executor, pipeline, report and obs tests)
#   tools/ci.sh bench-smoke  # fast bench-harness run, validates BENCH JSON and
#                            # gates sharded_aggregation against its committed
#                            # trajectory (--update-baseline blesses a new one)
#   tools/ci.sh shard        # sharded aggregation engine, ASan then TSan
#   tools/ci.sh snapshot     # snapshot readers + position index under ASan,
#                            # query source and table join under TSan
#   tools/ci.sh stream-chaos # streaming chaos harness under ASan and TSan
#   tools/ci.sh query        # columnar query engine tests under ASan
#   tools/ci.sh lpm          # flat LPM + routing table differentials, consumers and
#                            # RIB builders/readers, ASan then TSan
#   tools/ci.sh lint         # cellspot-audit (rules + layering, baseline-gated)
#                            # + header self-containment + -Werror build
#   tools/ci.sh audit        # lint, then the audit/layering fixture suites and
#                            # the OrderedMutex lock-order tests, ASan then TSan
#   tools/ci.sh perfbench    # perfbench/ still builds against src/ and runs
#                            # every workload at Tiny (perfbench/smoke_test.py)
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)
variant="${1:-all}"

# Skipped sub-steps are never silent: each prints a SKIPPED:<reason>
# line where it happens, and `all` repeats them in its final summary.
CI_SKIPS=()
skip() {
  echo "SKIPPED:$1"
  CI_SKIPS+=("$1")
}
summarize_skips() {
  if [[ ${#CI_SKIPS[@]} -eq 0 ]]; then
    echo "ci.sh: all steps ran (0 skipped)"
  else
    echo "ci.sh: ${#CI_SKIPS[@]} step(s) skipped:"
    printf '  SKIPPED:%s\n' "${CI_SKIPS[@]}"
  fi
}

run() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

# The TSan variant concentrates on the threaded surface: the executor's
# own tests, the pipeline determinism suite and the report differential
# (the reports run ParallelFor bodies over shared containers), driven
# with a forced multi-worker pool so the work-stealing paths actually
# interleave.
# tools/tsan.supp silences the one known-benign report (lgamma's
# POSIX-mandated signgam store, see the comment there).
run_tsan() {
  local dir="build-tsan"
  cmake -B "$dir" -S . -DCELLSPOT_SANITIZE=thread
  cmake --build "$dir" -j "$jobs" --target exec_test pipeline_determinism_test obs_metrics_test \
    analysis_report_differential_test
  local tsan_opts="suppressions=$PWD/tools/tsan.supp halt_on_error=1"
  TSAN_OPTIONS="$tsan_opts" CELLSPOT_THREADS=4 "$dir/tests/exec_test"
  TSAN_OPTIONS="$tsan_opts" CELLSPOT_THREADS=4 "$dir/tests/pipeline_determinism_test"
  TSAN_OPTIONS="$tsan_opts" CELLSPOT_THREADS=4 "$dir/tests/analysis_report_differential_test"
  TSAN_OPTIONS="$tsan_opts" CELLSPOT_THREADS=8 "$dir/tests/obs_metrics_test"
}

# Exercises the bench regression harness end to end at a tiny world
# scale: two fast benches, 3 reps each, into a throwaway trajectory
# directory; every JSON document is schema-validated by bench_json.
# Then the perf regression gate proper: one smoke run of the sharded
# aggregation bench at the pinned smoke configuration (scale 0.01,
# 4 threads), held against the committed trajectory in bench/results.
# `tools/ci.sh bench-smoke --update-baseline` appends the fresh run
# instead of gating — the escape hatch for blessing an intentional
# regression (commit the updated BENCH_*.json alongside the change).
run_bench_smoke() {
  local update_baseline="${1:-}"
  local dir="build"
  cmake -B "$dir" -S .
  cmake --build "$dir" -j "$jobs" --target \
    bench_table2_datasets bench_fig2_ratio_cdf bench_sharded_aggregation bench_json
  local smoke_tmp
  smoke_tmp=$(mktemp -d)
  # Expand now: $smoke_tmp is a function-local and would be out of scope
  # (unbound under set -u) by the time the EXIT trap fires.
  # shellcheck disable=SC2064
  trap "rm -rf '$smoke_tmp'" EXIT
  CELLSPOT_SCALE=0.01 BENCH_DIR="$smoke_tmp/results" REPS=3 WARMUP=1 \
    tools/bench.sh table2_datasets fig2_ratio_cdf
  for f in "$smoke_tmp/results"/BENCH_*.json; do
    "$dir/tools/bench_json" validate "$f"
  done

  # bench.sh must clean its scratch files even when a run record fails
  # validation: stub a bench binary that emits invalid JSON, then
  # require a non-zero exit AND an empty TMPDIR afterwards.
  mkdir -p "$smoke_tmp/stub/build/bench" "$smoke_tmp/stub/build/tools" \
    "$smoke_tmp/stub/tmp" "$smoke_tmp/stub/results"
  cat > "$smoke_tmp/stub/build/bench/bench_stub" <<'EOF'
#!/usr/bin/env bash
out=""
while [[ $# -gt 0 ]]; do
  [[ "$1" == "--json-out" && $# -ge 2 ]] && out="$2"
  shift
done
[[ -n "$out" ]] && echo '{not json' > "$out"
EOF
  chmod +x "$smoke_tmp/stub/build/bench/bench_stub"
  ln -s "$PWD/$dir/tools/bench_json" "$smoke_tmp/stub/build/tools/bench_json"
  local rc=0
  TMPDIR="$smoke_tmp/stub/tmp" BUILD_DIR="$smoke_tmp/stub/build" \
    BENCH_DIR="$smoke_tmp/stub/results" \
    tools/bench.sh stub >/dev/null 2>&1 || rc=$?
  [[ "$rc" != 0 ]] || { echo "ci.sh: bench.sh accepted an invalid run record" >&2; exit 1; }
  if [[ -n "$(ls -A "$smoke_tmp/stub/tmp")" ]]; then
    echo "ci.sh: bench.sh leaked temp files: $(ls "$smoke_tmp/stub/tmp")" >&2
    exit 1
  fi

  # The gate. THREADS is pinned so the fresh run is comparable to the
  # committed baseline rows (GateBenchRun only compares runs with
  # identical threads/scale/cache temperature).
  CELLSPOT_SCALE=0.01 "$dir/bench/bench_sharded_aggregation" \
    --threads 4 --reps 3 --warmup 1 --json-out "$smoke_tmp/run.json" >/dev/null
  "$dir/tools/bench_json" validate-run "$smoke_tmp/run.json"
  if [[ "$update_baseline" == "--update-baseline" ]]; then
    "$dir/tools/bench_json" append bench/results/BENCH_sharded_aggregation.json \
      "$smoke_tmp/run.json"
    "$dir/tools/bench_json" validate bench/results/BENCH_sharded_aggregation.json
    echo "ci.sh: new sharded_aggregation baseline appended; commit bench/results/BENCH_sharded_aggregation.json"
  else
    "$dir/tools/bench_json" gate bench/results/BENCH_sharded_aggregation.json \
      "$smoke_tmp/run.json"
  fi
}

# The aggregation engine under both sanitizers: the shard x thread
# byte-identity matrix, the differential against the sequential
# reference, and the per-shard snapshot sections (roundtrip + corruption
# quarantine) under ASan+UBSan; then the same matrix and the pipeline
# determinism suite under TSan with a forced multi-worker pool, so shard
# bodies really interleave.
run_shard() {
  local dir="build-asan"
  cmake -B "$dir" -S . -DCELLSPOT_SANITIZE=address
  cmake --build "$dir" -j "$jobs" --target \
    sharded_aggregation_test core_aggregation_test \
    snapshot_roundtrip_test snapshot_cache_test
  "$dir/tests/sharded_aggregation_test"
  "$dir/tests/core_aggregation_test"
  "$dir/tests/snapshot_roundtrip_test"
  "$dir/tests/snapshot_cache_test"

  dir="build-tsan"
  cmake -B "$dir" -S . -DCELLSPOT_SANITIZE=thread
  cmake --build "$dir" -j "$jobs" --target \
    sharded_aggregation_test pipeline_determinism_test
  local tsan_opts="suppressions=$PWD/tools/tsan.supp halt_on_error=1"
  TSAN_OPTIONS="$tsan_opts" CELLSPOT_THREADS=4 "$dir/tests/sharded_aggregation_test"
  TSAN_OPTIONS="$tsan_opts" CELLSPOT_THREADS=4 "$dir/tests/pipeline_determinism_test"
}

# The columnar query engine under ASan+UBSan: expression parsers fed
# hostile text, preset goldens at several thread counts, the corrupt
# snapshot matrix, and the checkpoint-as-source path, plus CLI rounds
# over the prefix-typed block column and proving the subcommand's
# exit-code contract (exit 5 on bad input).
run_query() {
  local dir="build-asan"
  cmake -B "$dir" -S . -DCELLSPOT_SANITIZE=address
  cmake --build "$dir" -j "$jobs" --target \
    query_plan_test query_table_test query_engine_test cellspot_cli
  "$dir/tests/query_plan_test"
  "$dir/tests/query_table_test"
  "$dir/tests/query_engine_test"
  local snaps
  snaps=$(mktemp -d)
  local cli=("$dir/tools/cellspot" query --snapshot-dir "$snaps")
  "$dir/tools/cellspot" generate --tiny --snapshot-dir "$snaps" --out "$snaps"
  "${cli[@]}" --preset table2 >/dev/null
  "${cli[@]}" --where 'country=DE' \
    --group-by asn --agg 'sum(du),count()' --top 5 --format json >/dev/null
  local first rows
  first=$("${cli[@]}" --select block --limit 1 --format csv | sed -n 2p)
  rows=$("${cli[@]}" --where "block=$first" --format csv | tail -n +2 | wc -l)
  [[ "$rows" == 1 ]] || { echo "ci.sh: block=$first matched $rows rows, want 1" >&2; exit 1; }
  "${cli[@]}" --order-by block --limit 5 >/dev/null
  local expr rc
  for expr in 'nope=1' 'block=banana' 'block<1.0.0.0/24'; do
    rc=0
    "${cli[@]}" --where "$expr" >/dev/null 2>&1 || rc=$?
    [[ "$rc" == 5 ]] || { echo "ci.sh: expected exit 5 on --where '$expr', got $rc" >&2; exit 1; }
  done
  rm -rf "$snaps"
}

# The flat LPM engine end to end: the differential suite (FlatLpm and
# the sorted RoutingTable vs the reference trie on seeded random sets
# and announcement sequences, the mmap-served snapshot section, the
# corruption matrix), every lookup-path consumer, every builder and
# reader of the routing table (world generation, the RIB CSV and the
# world snapshot with its corruption matrix) and the netaddr suites
# under ASan+UBSan (UBSan checks each prefix-mask shift at /0, /32 and
# /128), then the same differential suite and the pipeline determinism
# matrix under TSan with a forced multi-worker pool, so batch lookups
# inside executor chunks and the RoutingTable's lazily published engine
# are exercised with real interleavings.
run_lpm() {
  local targets="lpm_differential_test netaddr_prefix_trie_test netaddr_prefix_test \
netaddr_property_test netaddr_ip_address_test core_cellular_map_test asdb_test \
snapshot_cache_test asdb_serialization_test simnet_world_test snapshot_roundtrip_test \
snapshot_corruption_test"
  local dir="build-asan"
  cmake -B "$dir" -S . -DCELLSPOT_SANITIZE=address
  # shellcheck disable=SC2086
  cmake --build "$dir" -j "$jobs" --target $targets
  for t in $targets; do "$dir/tests/$t"; done

  dir="build-tsan"
  cmake -B "$dir" -S . -DCELLSPOT_SANITIZE=thread
  cmake --build "$dir" -j "$jobs" --target \
    lpm_differential_test pipeline_determinism_test
  local tsan_opts="suppressions=$PWD/tools/tsan.supp halt_on_error=1"
  TSAN_OPTIONS="$tsan_opts" CELLSPOT_THREADS=4 "$dir/tests/lpm_differential_test"
  TSAN_OPTIONS="$tsan_opts" CELLSPOT_THREADS=4 "$dir/tests/pipeline_determinism_test"
}

# Static analysis gate: the project's own invariants first, then the
# generic ones. cellspot-audit enforces the determinism/parse-safety and
# concurrency rules plus the layering DAG (L001-L011, see DESIGN.md §10
# and §15), held against the committed tools/lint/baseline.json so only
# new findings gate; the lint-headers target proves every public header
# compiles standalone; the -Werror build keeps the tree -Wall -Wextra
# clean. clang-tidy runs over compile_commands.json when the binary
# exists — the reference container ships only gcc, so its absence is a
# skip, not a failure.
run_lint() {
  local dir="build-lint"
  cmake -B "$dir" -S . -DCELLSPOT_WERROR=ON
  cmake --build "$dir" -j "$jobs"
  cmake --build "$dir" -j "$jobs" --target lint-headers
  "$dir/tools/lint/cellspot-audit" --root . \
    --baseline tools/lint/baseline.json \
    --json "$dir/audit-findings.json" --sarif "$dir/audit-findings.sarif"
  if command -v clang-tidy >/dev/null 2>&1; then
    git ls-files 'src/*.cpp' 'tools/*.cpp' |
      xargs clang-tidy -p "$dir" --quiet
  else
    skip "lint/clang-tidy: binary not installed (cellspot-audit already ran)"
  fi
}

# The audit surface end to end: the lint gate above, then the audit and
# layering fixture suites plus the OrderedMutex lock-order tests under
# ASan+UBSan, then the lock-order checker again under TSan — the
# deliberate-inversion death tests prove OrderedMutex aborts with the
# cycle where TSan alone would need the losing interleaving.
run_audit() {
  run_lint
  local targets="util_ordered_mutex_test lint_test audit_test lint_tree_test \
stream_queue_test"
  local dir="build-asan"
  cmake -B "$dir" -S . -DCELLSPOT_SANITIZE=address
  # shellcheck disable=SC2086
  cmake --build "$dir" -j "$jobs" --target $targets
  for t in $targets; do "$dir/tests/$t"; done

  dir="build-tsan"
  cmake -B "$dir" -S . -DCELLSPOT_SANITIZE=thread
  cmake --build "$dir" -j "$jobs" --target util_ordered_mutex_test stream_queue_test
  local tsan_opts="suppressions=$PWD/tools/tsan.supp halt_on_error=1"
  TSAN_OPTIONS="$tsan_opts" "$dir/tests/util_ordered_mutex_test"
  TSAN_OPTIONS="$tsan_opts" "$dir/tests/stream_queue_test"
}

# The snapshot format and stage cache under ASan+UBSan: binary
# roundtrips, the corruption-fallback matrix, the warm-cache pipeline
# path, and the other readers of the mapped image (stream checkpoints
# and the daemon state they carry, the query source) — the code most
# exposed to hostile bytes — plus the position index every decoded map
# and world index is built on, where an off-by-one in the probe loop or
# the position arithmetic shows up as an out-of-bounds read. Then the
# query source and table join under TSan with a forced multi-worker
# pool, since the source decodes classified shards on its executor and
# the join writes every column from executor workers.
run_snapshot() {
  local targets="snapshot_roundtrip_test snapshot_corruption_test snapshot_cache_test \
util_parse_test util_stable_map_test stream_checkpoint_test stream_daemon_test \
query_engine_test"
  local dir="build-asan"
  cmake -B "$dir" -S . -DCELLSPOT_SANITIZE=address
  # shellcheck disable=SC2086
  cmake --build "$dir" -j "$jobs" --target $targets
  for t in $targets; do "$dir/tests/$t"; done

  dir="build-tsan"
  local tsan_targets="query_engine_test query_table_test query_join_differential_test"
  cmake -B "$dir" -S . -DCELLSPOT_SANITIZE=thread
  # shellcheck disable=SC2086
  cmake --build "$dir" -j "$jobs" --target $tsan_targets
  local tsan_opts="suppressions=$PWD/tools/tsan.supp halt_on_error=1"
  for t in $tsan_targets; do TSAN_OPTIONS="$tsan_opts" CELLSPOT_THREADS=4 "$dir/tests/$t"; done
}

# The streaming daemon's chaos harness under both sanitizers. The gtest
# chaos/determinism suites carry their own fixed seed matrix (1/7/42
# plus the kill/recover seeds), so each sanitizer sees the identical
# fault streams; the CLI round on top drives the full producer-thread +
# backpressure + checkpoint path end to end.
run_stream_chaos() {
  local targets="stream_chaos_test stream_determinism_test stream_daemon_test \
stream_queue_test stream_checkpoint_test stream_event_test"
  local dir="build-asan"
  cmake -B "$dir" -S . -DCELLSPOT_SANITIZE=address
  # shellcheck disable=SC2086
  cmake --build "$dir" -j "$jobs" --target $targets cellspot_cli
  for t in $targets; do "$dir/tests/$t"; done
  for seed in 1 7 42; do
    "$dir/tools/cellspot" stream --tiny --chaos 0.2 --chaos-seed "$seed" \
      --backpressure shed-oldest --queue-capacity 64 --verify
  done

  dir="build-tsan"
  cmake -B "$dir" -S . -DCELLSPOT_SANITIZE=thread
  # shellcheck disable=SC2086
  cmake --build "$dir" -j "$jobs" --target $targets cellspot_cli
  local tsan_opts="suppressions=$PWD/tools/tsan.supp halt_on_error=1"
  for t in $targets; do TSAN_OPTIONS="$tsan_opts" "$dir/tests/$t"; done
  for seed in 1 7 42; do
    TSAN_OPTIONS="$tsan_opts" "$dir/tools/cellspot" stream --tiny \
      --chaos 0.2 --chaos-seed "$seed" --queue-capacity 64 --verify
  done
}

# The end-to-end benchmark's smoke test: builds perfbench/ (its own
# CMake project over src/) so a library API change that breaks the
# benchmark fails here, runs all four workloads at Tiny in both modes,
# and checks that an injected mismatch counts as a failed op.
run_perfbench() {
  python3 perfbench/smoke_test.py
}

case "$variant" in
  plain)       run build ;;
  sanitize)    run build-asan -DCELLSPOT_SANITIZE=address ;;
  tsan)        run_tsan ;;
  bench-smoke) run_bench_smoke "${2:-}" ;;
  shard)       run_shard ;;
  snapshot)    run_snapshot ;;
  stream-chaos) run_stream_chaos ;;
  query)       run_query ;;
  lpm)         run_lpm ;;
  lint)        run_lint ;;
  audit)       run_audit ;;
  perfbench)   run_perfbench ;;
  all)         run_audit
               run build
               run build-asan -DCELLSPOT_SANITIZE=address
               run_tsan
               run_bench_smoke
               run_perfbench
               summarize_skips ;;
  *) echo "usage: tools/ci.sh [plain|sanitize|tsan|bench-smoke [--update-baseline]|shard|snapshot|stream-chaos|query|lpm|lint|audit|perfbench|all]" >&2; exit 2 ;;
esac
