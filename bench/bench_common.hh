/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Every bench prints the paper-figure data as an aligned table on stdout
 * and mirrors it to a CSV next to the binary (./<bench>.csv) for
 * plotting. All benches are deterministic: same build, same numbers.
 */

#ifndef PES_BENCH_BENCH_COMMON_HH
#define PES_BENCH_BENCH_COMMON_HH

#include <iostream>
#include <string>
#include <vector>

#include "core/device_context.hh"
#include "runner/fleet_runner.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace pes {

/** Print a bench header. */
inline void
benchHeader(const std::string &title, const std::string &paper_ref)
{
    std::cout << "\n=== " << title << " ===\n"
              << "Reproduces: " << paper_ref << "\n\n";
}

/** Emit the table to stdout and CSV. */
inline void
emitTable(const Table &table, const std::string &csv_name)
{
    table.print(std::cout);
    table.writeCsvFile(csv_name);
    std::cout << "\n[csv: " << csv_name << "]\n";
}

/** Names of all apps in a profile list. */
inline std::vector<std::string>
namesOf(const std::vector<AppProfile> &profiles)
{
    std::vector<std::string> out;
    for (const AppProfile &p : profiles)
        out.push_back(p.name);
    return out;
}

} // namespace pes

#endif // PES_BENCH_BENCH_COMMON_HH
