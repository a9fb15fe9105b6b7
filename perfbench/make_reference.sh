#!/bin/sh
# Regenerates perfbench/reference.txt from the current code. Run from the
# repository root, and only for a change meant to alter simulated
# behaviour: a speed-only change must leave the file as it is.
set -e
dune build --root . --profile release --build-dir .bench_build \
  --cache=disabled perfbench/main.exe
exe=.bench_build/default/perfbench/main.exe
{
  echo '# perfbench correctness reference: "<scenario> <seed> <md5>", the md5'
  echo '# of the simulated statistics (figures/*: of the masked output).'
  echo '# Regenerate with perfbench/make_reference.sh.'
  "$exe" reference --scene figures --seed 0
  # Benchmark seeds 0-31: sim workloads simulate scene seeds 8s..8s+7,
  # traced runs the paper6 scenes at seed s.
  for seed in $(seq 0 255); do
    for scene in overload_n100 churn_n1000; do
      "$exe" reference --scene "$scene" --seed "$seed"
    done
  done
  for seed in $(seq 0 31); do
    for scene in paper6_lf paper6_lb; do
      "$exe" reference --scene "$scene" --seed "$seed"
    done
  done
} > perfbench/reference.txt
