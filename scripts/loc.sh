#!/usr/bin/env bash
# Non-test code lines per crate: for each crates/*/src/**/*.rs, the lines
# before the first `#[cfg(test)]` that are neither blank nor comments
# (`//`, `///`, `//!`). ROADMAP item 4 tracks the sum over
# core + serve + storage + store + sql, item 3 the sum over every crate;
# `--max <tracked> <all>` fails when either sum exceeds its bound (CI passes
# the last merged totals, so growth shows in a diff).
set -euo pipefail
cd "$(dirname "$0")/.."

max_tracked=
max_all=
case "${1-}" in
    "") ;;
    --max)
        max_tracked=${2:?--max needs two numbers}
        max_all=${3:?--max needs two numbers}
        ;;
    *) echo "usage: $0 [--max <tracked> <all>]" >&2; exit 2 ;;
esac

total=0
tracked=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=$(find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
    case "$crate" in
        core | serve | storage | store | sql) tracked=$((tracked + n)) ;;
    esac
done
printf '%-10s %6d\n' "all" "$total"
printf '%-10s %6d  (core + serve + storage + store + sql)\n' "tracked" "$tracked"
if [ -n "$max_tracked" ] && { [ "$tracked" -gt "$max_tracked" ] || [ "$total" -gt "$max_all" ]; }; then
    echo "tracked $tracked / all $total lines exceed --max $max_tracked $max_all" >&2
    exit 1
fi
