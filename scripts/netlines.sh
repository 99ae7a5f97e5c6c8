#!/usr/bin/env bash
# netlines.sh [base] — Go lines added, removed and net between base
# (default HEAD~1) and the working tree, from `git diff --numstat`.
#
#   non-test Go  every *.go outside benchmark/ that is not a test
#   tests        *_test.go and anything under a testdata/ directory
#   benchmark    Go files under benchmark/ (its own module)
#
# New files count once they are staged (git add -A, or git add -N).
set -euo pipefail

base=${1:-HEAD~1}
cd "$(git rev-parse --show-toplevel)"

git diff --numstat --no-renames "$base" -- | awk -F'\t' '
$1 == "-" { next }  # binary file: no line counts
{
  path = $3
  if (path ~ /^benchmark\//) {
    if (path !~ /\.go$/) next
    k = "benchmark"
  } else if (path ~ /_test\.go$/ || path ~ /(^|\/)testdata\//) {
    k = "tests"
  } else if (path ~ /\.go$/) {
    k = "non-test Go"
  } else {
    next
  }
  add[k] += $1
  del[k] += $2
}
END {
  n = split("non-test Go,tests,benchmark", order, ",")
  for (i = 1; i <= n; i++) {
    k = order[i]
    printf "%-12s +%d -%d net %d\n", k ":", add[k], del[k], add[k] - del[k]
  }
}'
