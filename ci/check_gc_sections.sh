#!/usr/bin/env bash
# Dead-code ratchet for the nose CLI.
#
# Configures a separate build of the `nose` target with one section per
# function and data object and no inlining (a function inlined into every
# caller would leave an unreferenced copy that is not dead code), and
# links it with --gc-sections, so the linker drops every section nothing
# reachable from main() refers to and --print-gc-sections names each one.
# The number of distinct dropped functions in namespace nose (demangled)
# is compared against the checked-in budget (ci/gc_sections_budget.txt):
# the build fails when the count EXCEEDS the budget — code no caller
# reaches cannot land unnoticed — and prints a reminder to lower the
# budget when the count drops, so the ceiling only ever moves down. Only
# compiler and linker flags are set (CMAKE_*_FLAGS); the project gains no
# option. Functions that only tests, benchmarks or perfbench call count
# too (perfbench compiles the sources itself), so the budget is a
# ceiling, not a goal of zero.
#
# Usage: ci/check_gc_sections.sh [build-dir]   (default: build-gc)
set -euo pipefail

build_dir=${1:-build-gc}
root="$(cd "$(dirname "$0")/.." && pwd)"
budget_file="$root/ci/gc_sections_budget.txt"
budget=$(tr -d '[:space:]' < "$budget_file")

cmake -B "$build_dir" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections -fno-inline" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections,--print-gc-sections" \
  > /dev/null
# Relink every time: the linker reports dropped sections only when it runs.
rm -f "$build_dir/src/cli/nose"
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cmake --build "$build_dir" --target nose -j "$(nproc)" > "$log" 2>&1 || {
  tail -n 40 "$log" >&2
  exit 2
}

# "removing unused section '.text.<mangled>' in file '<object>'": keep the
# function sections, demangle, keep namespace nose, one line per function.
# A COMDAT section (an inline or template function, printed with its
# group as '.text.<mangled>[<group>]') is a per-object copy, and a
# compiler clone ('[clone .isra.0]') or a lambda is part of a function
# counted on its own, so neither is dead source and both are skipped.
dropped=$(grep -oE "removing unused section '\.text\.[^'[]+'" "$log" |
  sed -E "s/^removing unused section '\.text\.//; s/'$//" |
  c++filt | grep -E '^nose::' | grep -vE '\[clone |\{lambda' |
  sort -u || true)
count=$(printf '%s' "$dropped" | grep -c '' || true)

echo "gc-sections: $count unreachable nose:: function(s), budget $budget"
if (( count > budget )); then
  echo "FAIL: unreachable function count exceeds the ratchet budget." >&2
  echo "Delete the dead code (never raise $budget_file):" >&2
  printf '%s\n' "$dropped" | tail -n 40 >&2
  exit 1
fi
if (( count < budget )); then
  echo "NOTE: count is below budget; ratchet it down in $budget_file."
fi
