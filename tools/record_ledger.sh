#!/bin/sh
# Record one perf-history sample per fixed workload into a ledger.
#
# This is the only way a sample enters a ledger: the committed
# BENCH_sim.json and CI's perf-gate ledgers alike. Each workload runs
# `pes_fleet run` over all 18 paper apps, 3 replicates at each of 1, 2
# and 4 threads (counts above nproc are skipped), then appends one
# `pes_perf record` sample labeled sim_<workload>: the replicates'
# speed series plus the report's quality series.
#
# One workload per scheduler, so every number names the scheduler it
# measures; each is sized so a t1 replicate executes for at least 1 s
# on a 4-vCPU x86-64 host. A t1 replicate whose execute stage (telemetry
# stage_ms.execute) is shorter is named on stderr, and its sample is
# still recorded: a faster host must not fail the recording.
# sim_reactive_store persists every run into a fresh result store and
# shares traces across its three schedulers, so it carries the
# trace-cache and store series.
#
# Usage: tools/record_ledger.sh HISTORY [WORK_DIR]
#   HISTORY    ledger to append to (created when absent)
#   WORK_DIR   keeps <workload>.json reports and
#              <workload>-t<T>-r<R>.json telemetry replicates
#              [a temporary directory, removed on exit]
#   PES_FLEET=path/to/pes_fleet   binary to use [build/pes_fleet];
#                                 pes_perf is taken from beside it
#   PES_GIT_REV=REV               revision stamped on every sample
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 HISTORY [WORK_DIR]" >&2
    exit 1
fi
history="$1"
fleet="${PES_FLEET:-build/pes_fleet}"
perf="$(dirname "$fleet")/pes_perf"
if [ $# -eq 2 ]; then
    work="$2"
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
cpus=$(nproc)

while read -r workload schedulers users; do
    telemetry=""
    for t in 1 2 4; do
        [ "$t" -le "$cpus" ] || continue
        for r in 1 2 3; do
            run="$work/$workload-t$t-r$r"
            set --
            if [ "$workload" = reactive_store ]; then
                rm -rf "$run.store"
                set -- --results-dir="$run.store"
            fi
            "$fleet" run --schedulers="$schedulers" --apps=all \
                --users="$users" --threads="$t" --seed=1 "$@" \
                --telemetry-out="$run.json" --out="$work/$workload.json" \
                --quiet </dev/null >/dev/null
            telemetry="$telemetry${telemetry:+,}$run.json"
            [ "$t" -eq 1 ] || continue
            ms=$(sed -n 's/.*"stage_ms": {[^}]*"execute": \([^,}]*\).*/\1/p' \
                "$run.json")
            if awk -v ms="$ms" 'BEGIN { exit !(ms < 1000) }'; then
                echo "$0: sim_$workload t1 replicate $r executed for" \
                    "$ms ms, under 1 s: resize it" >&2
            fi
        done
    done
    "$perf" record --history="$history" --label="sim_$workload" \
        --telemetry="$telemetry" --report="$work/$workload.json" </dev/null
done <<EOF
pes pes 600
oracle oracle 6
ebs ebs 1500
interactive interactive 950
ondemand ondemand 1200
reactive_store ebs,interactive,ondemand 400
EOF
