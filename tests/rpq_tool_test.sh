#!/usr/bin/env bash
# End-to-end pin for rpq_tool's backend flags: on a small deterministic
# fixture, `search` and `serve-bench --threads 1` must report the same
# recall@10 for every backend configuration (both commands build their
# backend through one builder and replay the queries serially through the
# same SearchService), and flag conflicts the builder cannot honour must
# exit non-zero instead of serving something else.
#
# Usage: tests/rpq_tool_test.sh <path/to/rpq_tool>
# (registered with ctest as rpq_tool_test).
set -euo pipefail

TOOL="${1:?usage: $0 <path/to/rpq_tool>}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$TOOL" gen --name sift --n 2000 --queries 50 --seed 7 --out "$WORK" >/dev/null
"$TOOL" build-graph --base "$WORK/base.fvecs" --type vamana \
  --out "$WORK/g.bin" >/dev/null
"$TOOL" train --base "$WORK/base.fvecs" --method pq --m 16 \
  --out "$WORK/pq8.rpqq" >/dev/null
"$TOOL" train --base "$WORK/base.fvecs" --method pq --m 16 --nbits 4 \
  --out "$WORK/pq4.rpqq" >/dev/null

COMMON=(--base "$WORK/base.fvecs" --queries "$WORK/queries.fvecs"
        --k 10 --beam 32)
GRAPH8=(--graph "$WORK/g.bin" --model "$WORK/pq8.rpqq")
GRAPH4=(--graph "$WORK/g.bin" --model "$WORK/pq4.rpqq")

failures=0

# search prints "queries: N  recall@10: R  QPS: ..."; serve-bench prints
# "recall@10 = R (beam ..., S shards)".
search_recall() {
  "$TOOL" search "${COMMON[@]}" "$@" | awk '/^queries:/ { print $4 }'
}
serve_recall() {
  "$TOOL" serve-bench "${COMMON[@]}" --threads 1 --total 50 "$@" |
    awk '/^recall@10 = / { print $3 }'
}

# Same recall@10 from both commands for one backend configuration.
check_same_recall() {
  local name="$1"; shift
  local a b
  a="$(search_recall "$@")"
  b="$(serve_recall "$@")"
  if [[ -z "$a" || "$a" != "$b" ]]; then
    echo "FAIL $name: search recall@10 '$a' != serve-bench '$b'"
    failures=$((failures + 1))
  else
    echo "ok   $name: recall@10 $a"
  fi
}

# The command must exit non-zero and say why on stderr.
check_rejected() {
  local name="$1" pattern="$2"; shift 2
  local err
  if err="$("$TOOL" "$@" 2>&1 >/dev/null)"; then
    echo "FAIL $name: exited 0"
    failures=$((failures + 1))
  elif ! grep -q -- "$pattern" <<<"$err"; then
    echo "FAIL $name: error '$err' does not mention '$pattern'"
    failures=$((failures + 1))
  else
    echo "ok   $name: rejected ($err)"
  fi
}

check_same_recall adc "${GRAPH8[@]}" --mode adc
check_same_recall sdc "${GRAPH8[@]}" --mode sdc
check_same_recall fastscan "${GRAPH4[@]}" --mode fastscan
check_same_recall fastscan-exact "${GRAPH4[@]}" --mode fastscan \
  --rerank-mode exact
check_same_recall disk "${GRAPH8[@]}" --index disk
check_same_recall ivf --model "$WORK/pq4.rpqq" --index ivf --nlist 16
check_same_recall ivf-residual --index ivf --residual --nlist 16 --m 16

check_rejected ivf-shards "shards" serve-bench "${COMMON[@]}" \
  --model "$WORK/pq4.rpqq" --index ivf --nlist 16 --shards 4 \
  --threads 1 --total 50
check_rejected hybrid-ivf "hybrid" search "${COMMON[@]}" \
  --model "$WORK/pq4.rpqq" --index ivf --nlist 16 --hybrid
check_rejected hybrid-ivf-serve "hybrid" serve-bench "${COMMON[@]}" \
  --model "$WORK/pq4.rpqq" --index ivf --nlist 16 --hybrid \
  --threads 1 --total 50

if [[ "$failures" -ne 0 ]]; then
  echo "$failures check(s) failed"
  exit 1
fi
echo "all checks passed"
