#!/bin/sh
# Regenerate (or reproduce) the golden mini-sweep baselines.
#
# The golden baselines are the committed reports of small, fully
# deterministic sweeps: the reactive schedulers (EBS, Interactive) and
# the paper's own (PES, Oracle). tests/test_diff.cc and the CI
# regression gate compare freshly produced reports against them with
# `pes_fleet diff --exact`. This script is the single CLI definition of
# those sweeps — tests/test_diff.cc (GoldenBaseline.*) replicates the
# same parameters in-process, so keep the two in sync.
#
# Usage: tools/regen_golden.sh [OUT_JSON [OUT_CSV [OUT_TRACE
#                                [OUT_PES_JSON [OUT_PES_CSV]]]]]
#   PES_FLEET=path/to/pes_fleet   binary to use [build/pes_fleet]
#
# Run with no arguments (e.g. `cmake --build build --target
# regen-golden`) to overwrite the committed baseline after an
# INTENTIONAL result change; commit the new files with the change that
# caused them.
set -eu

out_json="${1:-tests/data/golden/mini_sweep.json}"
out_csv="${2:-tests/data/golden/mini_sweep.csv}"
out_trace="${3:-tests/data/golden/mini_sweep.trace.json}"
out_pes_json="${4:-tests/data/golden/mini_sweep_pes.json}"
out_pes_csv="${5:-tests/data/golden/mini_sweep_pes.csv}"
fleet="${PES_FLEET:-build/pes_fleet}"

"$fleet" \
    --schedulers=ebs,interactive \
    --apps=cnn,social_feed \
    --users=3 \
    --threads=4 \
    --seed=0xf1ee7 \
    --out="$out_json" \
    --csv="$out_csv" \
    --quiet >/dev/null

# The logical-clock trace golden: same mini sweep at --threads=1 (one
# worker drains the queue in canonical order, so every virtual tick is
# fully determined). tests/test_telemetry.cc
# (TraceSink.LogicalClockMatchesCommittedGolden) replicates this
# in-process — keep the two in sync.
"$fleet" run \
    --schedulers=ebs,interactive \
    --apps=cnn,social_feed \
    --users=3 \
    --threads=1 \
    --seed=0xf1ee7 \
    --logical-clock \
    --trace-out="$out_trace" \
    --quiet >/dev/null

# The PES + Oracle golden: the same apps, users and seed under the
# paper's scheduler and the oracle. Its bytes are defined because the
# schedule solver breaks every tie by a fixed order.
"$fleet" \
    --schedulers=pes,oracle \
    --apps=cnn,social_feed \
    --users=3 \
    --threads=4 \
    --seed=0xf1ee7 \
    --out="$out_pes_json" \
    --csv="$out_pes_csv" \
    --quiet >/dev/null
