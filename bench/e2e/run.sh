#!/usr/bin/env bash
# Builds the txcache library (Release, lock statistics off) and the end-to-end benchmark,
# then runs one workload, or all four in turn, each in its own process.
#
#   bench/e2e/run.sh [--workload W] [--seed N] [--trace [0|1]] [--smoke]
#
# Build output goes to stderr. Each workload prints `workload metric value unit` lines and,
# last, its result as one JSON object, also written to build-e2e/e2e_<workload>.json; a
# traced run writes build-e2e/e2e_<workload>.layers.json and the Chrome trace
# build-e2e/trace_<workload>.json. --smoke runs every workload at 1% of its budgets.
#
# `--seconds S` is accepted, because BENCHMARK.json's run_seconds is passed that way, and
# has no effect: each workload measures a fixed op count, which takes 10-25 s on a 4-vCPU VM.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build-e2e"
workloads=(rubis_browse_warm sql_adhoc_hit rubis_bidding_socket rubis_bidding_fresh_small)

workload="" seed=1 trace=0 smoke=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) shift 2 ;;
    --trace)
      if [[ $# -gt 1 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

# The library's own build; the benchmark is compiled here because CMakeLists.txt globs only
# the top level of bench/.
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release -DTXCACHE_LOCK_STATS=OFF
  fi
  cmake --build "$build" --target txcache -j "$(nproc)"
} >&2

# Same compiler and flags as the library: inline code in the headers must match it.
cache_value() { sed -n "s/^$1:[A-Z]*=//p" "$build/CMakeCache.txt"; }
cxx="$(cache_value CMAKE_CXX_COMPILER)"
read -r -a flags <<< "$(cache_value CMAKE_CXX_FLAGS) $(cache_value CMAKE_CXX_FLAGS_RELEASE)"
bin="$build/e2e_bench"
stale="$(find "$root"/bench/e2e/*.cc "$root"/bench/e2e/*.h "$build/libtxcache.a" \
  -newer "$bin" 2>/dev/null || echo missing)"
if [[ ! -x "$bin" || -n "$stale" ]]; then
  echo "compiling $bin" >&2
  "$cxx" -std=c++20 "${flags[@]}" -DTXCACHE_LOCK_STATS=0 -Wall -Wextra -I"$root" \
    "$root"/bench/e2e/*.cc "$build/libtxcache.a" -lpthread -o "$bin.tmp" >&2
  mv "$bin.tmp" "$bin"
fi

# glibc's malloc backs the heap with transparent huge pages. Without them, the page walks of
# this memory-bound load follow the neighbours' cache traffic on a shared VM, and run-to-run
# spread was several times wider (README.md, "Huge pages").
run_one() {
  GLIBC_TUNABLES=glibc.malloc.hugetlb=1 "$bin" --workload "$1" --seed "$seed" --trace "$trace" \
    ${smoke[@]+"${smoke[@]}"} --out-dir "$build"
}
if [[ -n "$workload" ]]; then
  run_one "$workload"
else
  for w in "${workloads[@]}"; do
    run_one "$w"
  done
fi
