#!/usr/bin/env bash
# Non-blank Rust lines under crates/ (crates/stubs excluded) at a revision
# and in the working tree, split into non-test and test lines, and the
# difference. A deletion change states its net line count with this.
#
#   tools/loc.sh [REV]      (REV defaults to HEAD)
#
# Test lines are every line of a file under a `tests/` directory and every
# `#[cfg(test)]` item: the attribute line through the item's end, which in
# rustfmt-formatted code is the first later line at the attribute's indent
# that is a lone `}` or ends with `;`. REV is exported with `git archive`;
# the working tree counts its tracked and unignored files.
set -euo pipefail

rev=${1:-HEAD}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/rev" "$tmp/tree"
git -C "$root" archive "$rev" crates | tar -x -C "$tmp/rev"
(cd "$root" && git ls-files -z --cached --others --exclude-standard -- crates \
    | tar -c --null --ignore-failed-read -T -) | tar -x -C "$tmp/tree"

# prints "<non-test> <test>" for the crates/ tree under $1
count() {
    (cd "$1" && find crates -path crates/stubs -prune -o -name '*.rs' -type f -print0 \
        | sort -z | xargs -0 -r awk '
            FNR == 1 { in_tests = (FILENAME ~ /(^|\/)tests\//); item = 0 }
            {
                opens = 0
                if (!item && /^[[:space:]]*#\[cfg\(test\)\]/) {
                    item = 1; opens = 1
                    indent = substr($0, 1, index($0, "#") - 1)
                    rest = substr($0, index($0, "]") + 1)
                }
                if (/[^[:space:]]/) { if (in_tests || item) t++; else n++ }
                if (opens) {
                    if (rest ~ /(;|})[[:space:]]*$/) item = 0
                } else if (item && ($0 == indent "}" || \
                        (substr($0, 1, length(indent)) == indent && \
                         substr($0, length(indent) + 1) ~ /^[^[:space:]].*;[[:space:]]*$/))) {
                    item = 0
                }
            }
            END { printf "%d %d\n", n, t }')
}

read -r rev_n rev_t < <(count "$tmp/rev")
read -r tree_n tree_t < <(count "$tmp/tree")
printf '%-14s %10s %10s %10s\n' "" non-test test total
printf '%-14s %10d %10d %10d\n' "$rev" "$rev_n" "$rev_t" $((rev_n + rev_t))
printf '%-14s %10d %10d %10d\n' "working tree" "$tree_n" "$tree_t" $((tree_n + tree_t))
printf '%-14s %+10d %+10d %+10d\n' "net" $((tree_n - rev_n)) $((tree_t - rev_t)) \
    $((tree_n + tree_t - rev_n - rev_t))
