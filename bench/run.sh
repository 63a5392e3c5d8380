#!/bin/sh
# One command for the pipeline and CI: build once, run, trace, and hold
# both against the committed baseline. Writes only under bench/out/.
#
#   bench/run.sh            seed 1, the baseline's and the goldens' seed
#   SEED=7 bench/run.sh     another seed: digests are not compared
#   COUNT=5 bench/run.sh    as many runs per workload as the baseline has;
#                           the default 3 is the fewest that show compare a
#                           run-to-run spread, so that a slow stretch of the
#                           sandbox reads unresolved, not REGRESSED
set -eu
cd "$(dirname "$0")/.."
out=bench/out
mkdir -p "$out"
go build -o "$out/bench" ./bench
"$out/bench" run -seed "${SEED:-1}" -count "${COUNT:-3}" -out "$out/run.json"
"$out/bench" trace -seed "${SEED:-1}" -spans "$out" -out "$out/trace.json"
"$out/bench" compare bench/baseline/seed1.json "$out/run.json"
"$out/bench" compare bench/baseline/seed1-trace.json "$out/trace.json"
