#!/usr/bin/env bash
# Non-test code lines and panic sites per crate: for each
# crates/*/src/**/*.rs, the lines before the first `#[cfg(test)]` that are
# neither blank nor comments (`//`, `///`, `//!`), and the `unwrap()`,
# `expect(`, `panic!` and `unreachable!` calls on those lines. ROADMAP
# item 4 tracks the line sum over core + serve + storage + store + sql,
# item 3 the sum over every crate, item 11(h) the panic sites of every
# crate; `--max <tracked> <all> <panics>` fails when any sum exceeds its
# bound (CI passes the last merged totals, so growth shows in a diff).
set -euo pipefail
cd "$(dirname "$0")/.."

max_tracked=
max_all=
max_panics=
case "${1-}" in
    "") ;;
    --max)
        max_tracked=${2:?--max needs three numbers}
        max_all=${3:?--max needs three numbers}
        max_panics=${4:?--max needs three numbers}
        ;;
    *) echo "usage: $0 [--max <tracked> <all> <panics>]" >&2; exit 2 ;;
esac

total=0
tracked=0
panics=0
printf '%-10s %6s %6s\n' "crate" "lines" "panics"
for dir in crates/*/; do
    crate=$(basename "$dir")
    read -r n p < <(find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        {
            n++
            line = $0
            p += gsub(/unwrap\(\)|expect\(|panic!|unreachable!/, "", line)
        }
        END { print n + 0, p + 0 }')
    printf '%-10s %6d %6d\n' "$crate" "$n" "$p"
    total=$((total + n))
    panics=$((panics + p))
    case "$crate" in
        core | serve | storage | store | sql) tracked=$((tracked + n)) ;;
    esac
done
printf '%-10s %6d %6d\n' "all" "$total" "$panics"
printf '%-10s %6d  (core + serve + storage + store + sql)\n' "tracked" "$tracked"
if [ -n "$max_tracked" ] &&
    { [ "$tracked" -gt "$max_tracked" ] || [ "$total" -gt "$max_all" ] ||
        [ "$panics" -gt "$max_panics" ]; }; then
    echo "tracked $tracked / all $total lines / $panics panic sites exceed" \
        "--max $max_tracked $max_all $max_panics" >&2
    exit 1
fi
