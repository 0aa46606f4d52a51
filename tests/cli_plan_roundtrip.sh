#!/bin/sh
# Rewrites one graph per shipped example rule set from five sources of the
# same rules and requires byte-identical outputs:
#   - the textual .pypm source,
#   - its `pypmc compile` .pypmbin,
#   - its `pypmc compile-plan` .pypmplan,
#   - a `--plan-cache-dir=` run against an empty directory (it compiles and
#     writes the cache entry: stderr "plan cache: compiled"),
#   - a second run against that directory (served from the entry on disk:
#     stderr "plan cache: disk-hit").
# The graphs are the ones tools/ci.sh rewrites with the same rule sets.
#
# usage: cli_plan_roundtrip.sh <pypmc> <source dir> <work dir>
set -eu
PYPMC=$1
RULESETS=$2/examples/rulesets
W=$3
rm -rf "$W"
mkdir -p "$W"

printf 'z = Zero() : f32[]\nx = Input[uid=1]() : f32[]\nn = Neg(x) : f32[]\nnn = Neg(n) : f32[]\na = Add(nn, z) : f32[]\nb = Add(z, a) : f32[]\noutput b\n' \
  > "$W/algebra.pypmg"
printf 'x = Input[uid=1]() : f32[8x4]\ny = Input[uid=2]() : f32[4x8]\ntx = Trans(x) : f32[4x8]\nty = Trans(y) : f32[8x4]\nm = MatMul(tx, ty) : f32[4x4]\nt = Trans(m) : f32[4x4]\ntt = Trans(t) : f32[4x4]\noutput tt\n' \
  > "$W/transpose.pypmg"
printf 'a = Input[uid=1]() : f32[8x8]\nb = Input[uid=2]() : f32[8x8]\nc = Input[uid=3]() : f32[8x8]\nm = MatMul(a, b) : f32[8x8]\nr = Relu(m) : f32[8x8]\nm2 = MatMul(r, c) : f32[8x8]\ns = Sigmoid(m2) : f32[8x8]\noutput s\n' \
  > "$W/epilog_fusion.pypmg"

for RS in algebra transpose epilog_fusion; do
  SRC="$RULESETS/$RS.pypm"
  G="$W/$RS.pypmg"
  "$PYPMC" compile "$SRC" -o "$W/$RS.pypmbin" > /dev/null
  "$PYPMC" compile-plan "$SRC" -o "$W/$RS.pypmplan" > /dev/null
  "$PYPMC" rewrite "$SRC" "$G" -o "$W/$RS.source.out" 2> /dev/null
  "$PYPMC" rewrite "$W/$RS.pypmbin" "$G" -o "$W/$RS.pypmbin.out" 2> /dev/null
  "$PYPMC" rewrite "$W/$RS.pypmplan" "$G" -o "$W/$RS.pypmplan.out" \
    2> /dev/null
  for RUN in cold warm; do
    "$PYPMC" rewrite "$SRC" "$G" -o "$W/$RS.$RUN.out" \
      --plan-cache-dir="$W/cache.$RS" 2> "$W/$RS.$RUN.err"
  done
  grep -q '^plan cache: compiled$' "$W/$RS.cold.err"
  grep -q '^plan cache: disk-hit$' "$W/$RS.warm.err"
  test -s "$W/$RS.source.out"
  for K in pypmbin pypmplan cold warm; do
    cmp "$W/$RS.source.out" "$W/$RS.$K.out"
  done
done
