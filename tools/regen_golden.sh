#!/bin/sh
# Regenerate (or reproduce) the golden mini-sweep baselines and the
# figure-bench CSVs.
#
# The golden baselines are the committed reports of small, fully
# deterministic sweeps: the reactive schedulers (EBS, Interactive) and
# the paper's own (PES, Oracle). tests/test_diff.cc and the CI
# regression gate compare freshly produced reports against them with
# `pes_fleet diff --exact`. This script is the single CLI definition of
# those sweeps — tests/test_diff.cc (GoldenBaseline.*) replicates the
# same parameters in-process, so keep the two in sync.
#
# The figure goldens are the CSVs of the 12 deterministic figure/table
# benches (every bench except sec63_overheads; the figure-benches CMake
# target builds them). The CI
# regression gate writes fresh ones into OUT_FIGURE_DIR and compares the
# two directories with `diff -r`.
#
# Usage: tools/regen_golden.sh [OUT_JSON [OUT_CSV [OUT_TRACE
#                                [OUT_PES_JSON [OUT_PES_CSV
#                                [OUT_FIGURE_DIR]]]]]]
#   PES_FLEET=path/to/pes_fleet   binary to use [build/pes_fleet];
#                                 the figure benches are built beside it
#
# Run with no arguments (e.g. `cmake --build build --target
# regen-golden`) to overwrite every committed golden after an
# INTENTIONAL result change; commit the new files with the change that
# caused them. With arguments, the figure CSVs are written only when
# OUT_FIGURE_DIR is given.
set -eu

# Figures run when refreshing everything (no arguments) or when a
# figure directory is named.
figure_dir=""
if [ $# -eq 0 ] || [ $# -ge 6 ]; then
    figure_dir="${6:-tests/data/golden/figures}"
fi

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

# The figure benches write <name>.csv into the current directory, so
# each runs in its own scratch directory.
if [ -n "$figure_dir" ]; then
    bench_dir=$(cd "$(dirname "$fleet")" && pwd)
    mkdir -p "$figure_dir"
    scratch=$(mktemp -d)
    trap 'rm -rf "$scratch"' EXIT
    for bench in fig02_case_study fig03_event_types \
        fig08_prediction_accuracy fig09_pfb_dynamics fig10_mispred_waste \
        fig11_energy fig12_qos_violation fig13_pareto fig14_sensitivity \
        sec65_ablation sec65_other_devices tab01_features; do
        mkdir "$scratch/$bench"
        (cd "$scratch/$bench" && "$bench_dir/$bench" >/dev/null)
        cp "$scratch/$bench/$bench.csv" "$figure_dir/$bench.csv"
    done
fi
