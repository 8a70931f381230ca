#!/usr/bin/env bash
# Runs the serving benches and assembles bench-out/BENCH_serve.json (the
# gitignored bench-artifact directory — nothing is written to the repo
# root) for the perf trajectory: the git SHA, the serial-vs-batched throughput
# numbers (serve_throughput), the multi-model priority/admission ablation
# numbers (ablation_multimodel), the replica-scaling numbers
# (ablation_replicas), the heterogeneous-device scaling + routing numbers
# (ablation_hetero), the shared-PU cross-model batching numbers
# (ablation_shared_pu), the capacity-analyzer soundness numbers
# (ablation_capacity), the tracing-overhead + layer-profile
# reconciliation numbers (ablation_trace_overhead), and the deploy-time
# compiler numbers (ablation_compile: rps_reference = the reference run()
# throughput, speedup_compiled / speedup_specialize_off over it). See
# docs/benchmarks.md for every bench's enforced thresholds.
#
# Failure discipline: every bench must exit 0 AND write a non-empty JSON
# fragment, or this script fails loudly with a nonzero exit. The stamp is
# assembled and validated in a temp dir and only then moved into place —
# a failing run never leaves a partial or stale-looking BENCH_serve.json.
#
# Usage: scripts/run_bench.sh [build-dir]   (default: build)
# Respects MFDFP_QUICK=1 for a ~4x faster run.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

benches=(serve_throughput ablation_multimodel ablation_replicas
         ablation_hetero ablation_shared_pu ablation_capacity
         ablation_trace_overhead ablation_compile)

for target in "${benches[@]}"; do
  if [[ ! -x "$build_dir/$target" ]]; then
    echo "building $target in $build_dir..."
    cmake -B "$build_dir" -S "$repo_root"
    cmake --build "$build_dir" -j "$(nproc)" --target "$target"
  fi
done

tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

# Runs one bench and insists on both a zero exit and a non-empty JSON
# fragment; anything else aborts the whole stamp.
run_bench() {
  local name="$1" out="$2"
  echo "=== $name ==="
  if ! "$build_dir/$name" "$out"; then
    echo "FAIL: $name exited nonzero; refusing to stamp BENCH_serve.json" >&2
    exit 1
  fi
  if [[ ! -s "$out" ]]; then
    echo "FAIL: $name exited 0 but wrote no JSON fragment to $out;" \
         "refusing to stamp BENCH_serve.json" >&2
    exit 1
  fi
}

run_bench serve_throughput "$tmp_dir/serve.json"
run_bench ablation_multimodel "$tmp_dir/multimodel.json"
run_bench ablation_replicas "$tmp_dir/replicas.json"
run_bench ablation_hetero "$tmp_dir/hetero.json"
run_bench ablation_shared_pu "$tmp_dir/shared_pu.json"
run_bench ablation_capacity "$tmp_dir/capacity.json"
run_bench ablation_trace_overhead "$tmp_dir/trace_overhead.json"
run_bench ablation_compile "$tmp_dir/compile.json"

git_sha="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
stamp="$tmp_dir/BENCH_serve.json"
{
  echo "{"
  echo "  \"git_sha\": \"$git_sha\","
  echo "  \"serve_throughput\":"
  sed 's/^/  /' "$tmp_dir/serve.json"
  echo "  ,"
  echo "  \"multimodel\":"
  sed 's/^/  /' "$tmp_dir/multimodel.json"
  echo "  ,"
  echo "  \"replicas\":"
  sed 's/^/  /' "$tmp_dir/replicas.json"
  echo "  ,"
  echo "  \"hetero\":"
  sed 's/^/  /' "$tmp_dir/hetero.json"
  echo "  ,"
  echo "  \"shared_pu\":"
  sed 's/^/  /' "$tmp_dir/shared_pu.json"
  echo "  ,"
  echo "  \"capacity\":"
  sed 's/^/  /' "$tmp_dir/capacity.json"
  echo "  ,"
  echo "  \"trace_overhead\":"
  sed 's/^/  /' "$tmp_dir/trace_overhead.json"
  echo "  ,"
  echo "  \"compile\":"
  sed 's/^/  /' "$tmp_dir/compile.json"
  echo "}"
} > "$stamp"

# Validate the assembled stamp parses before it replaces the previous one.
if command -v python3 >/dev/null 2>&1; then
  if ! python3 -m json.tool "$stamp" >/dev/null; then
    echo "FAIL: assembled stamp is not valid JSON; refusing to overwrite" \
         "BENCH_serve.json" >&2
    exit 1
  fi
fi

out_dir="$repo_root/bench-out"
mkdir -p "$out_dir"
mv "$stamp" "$out_dir/BENCH_serve.json"

echo "---"
cat "$out_dir/BENCH_serve.json"
