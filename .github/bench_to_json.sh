#!/usr/bin/env sh
# Convert `go test -bench` output (stdin) to a JSON benchmark report
# (stdout). With -benchmem the per-op allocation columns are captured
# alongside wall time, so CI tracks allocs/op regressions like time
# regressions. Used by CI to produce BENCH_ci.json and to (re)generate
# the committed baseline:
#
#   go test -run xxx -bench 'SteadyState|Transient|Sweep|Fig|RunTick|SimulatedSecond|SolvePanel|CholeskyFactorGrid|SnapshotFork|MPCDecision|PowerComputeInto|StreamDamage' \
#     -benchtime 1x -benchmem -count 1 . ./internal/sim ./internal/linalg ./internal/power ./internal/reliability \
#     | sh .github/bench_to_json.sh > .github/bench_baseline.json
#
# (./internal/sim carries BenchmarkRunTick, ./internal/linalg
# BenchmarkSolvePanel, ./internal/power BenchmarkPowerComputeInto and
# ./internal/reliability BenchmarkStreamDamage; omitting them
# regenerates a baseline without their allocation-free gates.)
awk '
BEGIN { printf "{\n  \"benchmarks\": [" ; n = 0 }
$1 ~ /^Benchmark/ && $4 == "ns/op" {
  name = $1
  sub(/-[0-9]+$/, "", name)
  bytes = "" ; allocs = ""
  for (i = 4; i < NF; i++) {
    if ($(i+1) == "B/op") bytes = $i
    if ($(i+1) == "allocs/op") allocs = $i
  }
  if (n++) printf ","
  printf "\n    {\"name\": \"%s\", \"ns_per_op\": %s", name, $3
  if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
  if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
  printf "}"
}
END { printf "\n  ]\n}\n" }
'
