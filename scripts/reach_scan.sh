#!/usr/bin/env bash
# Reachability scan: lists the qcgen:: functions that the qcgen libraries
# define but that no shipped binary links.
#
# The shipped binaries are the bench_* programs, the examples and
# qcgen_perfbench. Everything is built at -O0 with one section per
# function, so nothing is inlined away, and linked with --gc-sections, so
# a binary keeps only the functions it can reach. A qcgen:: text symbol
# (T or W) defined in a libqcgen_*.a archive under src/ but present in
# none of those binaries is reached only from tests, or from nothing.
#
# Usage: scripts/reach_scan.sh
#   Builds into build-reach/ (re-used on later runs) and prints the
#   unreached symbols grouped by the object file that defines them, then
#   the total. JOBS=<n> sets the build parallelism (default 4).

set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."

OUT=build-reach
JOBS="${JOBS:-4}"
CONFIG=(
  -DCMAKE_BUILD_TYPE=Debug
  -DCMAKE_CXX_FLAGS_DEBUG=-O0
  "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

for tool in cmake nm c++filt; do
  command -v "$tool" >/dev/null 2>&1 || {
    echo "reach_scan.sh: required tool '$tool' not found on PATH" >&2
    exit 2
  }
done

echo "==> building libraries, benches and examples into $OUT/main" >&2
cmake -S . -B "$OUT/main" "${CONFIG[@]}" -DQCGEN_BUILD_TESTS=OFF >/dev/null
cmake --build "$OUT/main" -j "$JOBS" >/dev/null
echo "==> building qcgen_perfbench into $OUT/perfbench" >&2
cmake -S perfbench -B "$OUT/perfbench" "${CONFIG[@]}" >/dev/null
cmake --build "$OUT/perfbench" --target qcgen_perfbench -j "$JOBS" >/dev/null

mapfile -t libs < <(find "$OUT/main/src" -name 'libqcgen_*.a' | sort)
mapfile -t bins < <({
  find "$OUT/main/bench" "$OUT/main/examples" -maxdepth 1 -type f -executable
  echo "$OUT/perfbench/qcgen_perfbench"
} | sort)
echo "==> ${#libs[@]} archives, ${#bins[@]} binaries" >&2

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Mangled names of every function linked into some shipped binary.
nm --defined-only "${bins[@]}" 2>/dev/null |
  awk 'NF == 3 && $2 ~ /^[TtWw]$/ { print $3 }' | sort -u >"$tmp/linked"

# "<mangled> <object>" for every qcgen:: function an archive defines,
# keeping the first object when an inline or template one is emitted by
# several. nm -A prefixes each line with "<archive>:<object>:<address>".
nm -A --defined-only "${libs[@]}" |
  awk '$2 ~ /^[TW]$/ && $3 ~ /^_ZN[KVRO]*5qcgen/ {
         n = split($1, part, ":")
         archive = part[1]; sub(/.*\//, "", archive)
         print $3, part[n - 1] " (" archive ")"
       }' | sort -k1,1 -u >"$tmp/defined"

# Unreached = defined minus linked, demangled and grouped by object.
join -v 1 "$tmp/defined" "$tmp/linked" >"$tmp/unreached"
cut -d' ' -f1 "$tmp/unreached" | c++filt >"$tmp/names"
cut -d' ' -f2- "$tmp/unreached" | paste -d'\t' - "$tmp/names" |
  sort -t$'\t' -k1,1 -k2,2 |
  awk -F'\t' '$1 != last { print (NR > 1 ? "\n" : "") $1; last = $1 }
              { print "  " $2 }'
echo
echo "total unreached: $(wc -l <"$tmp/unreached")"
