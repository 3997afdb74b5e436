/**
 * @file
 * Declarative command-line flags: the one parser of the five tools.
 *
 * A verb declares each flag once — name, value kind, bounds, help line
 * and the variable it sets. Parsing (`--name=value`, bare `--switch`,
 * `-h`/`--help`), unknown-flag and bad-value errors, and the verb's
 * help text all derive from that table, so help cannot disagree with
 * what is parsed. There is no `--name value` form and no other short
 * flag. Every tool exits 0 on success or --help and 1 on a usage error
 * or fatal(); 2, 3 and 4 keep per-verb meanings (DESIGN.md "CLI").
 */

#ifndef PES_UTIL_FLAGS_HH
#define PES_UTIL_FLAGS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "util/integrity.hh"
#include "util/strings.hh"

namespace pes {

/** One declared command-line flag. */
struct Flag
{
    /** Spelled `--name`. */
    std::string name;
    /** Value placeholder ("N", "FILE"); empty for a switch. */
    std::string meta;
    /** Help text; '\n' starts an indented continuation line. */
    std::string help;
    /** What a good value looks like, for bad-value errors. */
    std::string expect;
    /** Apply a value (a switch gets ""); false rejects it. */
    std::function<bool(const std::string &value)> set;
};

/** A flag table: one verb's own flags, or a group several verbs share. */
using Flags = std::vector<Flag>;

/** The smallest positive double: a lower bound meaning "> 0". */
constexpr double kPositive = std::numeric_limits<double>::denorm_min();
/** No upper bound on a double flag. */
constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/** Bare `--name` sets @p target; `--name=anything` is rejected. */
Flag switchFlag(std::string name, bool &target, std::string help);
/** `--name=VALUE`, stored verbatim. */
Flag stringFlag(std::string name, std::string meta, std::string &target,
                std::string help);
/** `--name=S`: an unsigned 64-bit integer (decimal, 0x-hex, 0-octal). */
Flag seedFlag(std::string name, std::string meta, uint64_t &target,
              std::string help);
/** `--name=X`: a finite number in [@p lo, @p hi]. */
Flag doubleFlag(std::string name, std::string meta, double &target,
                double lo, double hi, std::string help);
/** `--name=A,B,...`: appends each trimmed, non-empty item. */
Flag listFlag(std::string name, std::string meta,
              std::vector<std::string> &target, std::string help);
/** `--name=K/N`: part K (0-based) of N, 0 <= K < N <= @p max_count. */
Flag partFlag(std::string name, int &index, int &count, int max_count,
              std::string help);
/**
 * `--name=VALUE` applied by @p set, which returns false to reject it;
 * an empty @p meta declares a switch, whose @p set gets "".
 */
Flag customFlag(std::string name, std::string meta,
                std::function<bool(const std::string &)> set,
                std::string help, std::string expect = "");

/**
 * `--name=N`: an integer in [@p lo, @p hi] parsed into @p target's own
 * type. A value that does not fit T is rejected, never truncated.
 */
template <typename T>
Flag
intFlag(std::string name, std::string meta, T &target, long long lo,
        long long hi, std::string help)
{
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    const auto set = [&target, lo, hi](const std::string &value) {
        long long v = 0;
        if (!parseInt64(value, v) || v < lo || v > hi ||
            (std::is_unsigned_v<T> && v < 0) ||
            static_cast<long long>(static_cast<T>(v)) != v)
            return false;
        target = static_cast<T>(v);
        return true;
    };
    return customFlag(name, meta, set, help,
                      "an integer in [" + std::to_string(lo) + ", " +
                          std::to_string(hi) + "]");
}

/** The operands (non-flag arguments) a verb takes. */
struct Operands
{
    /** Synopsis for help and errors ("BASE TEST"); empty takes none. */
    const char *synopsis = "";
    size_t min = 0;
    size_t max = 0;
};

/** What a parse found besides the flags it applied. */
struct FlagParse
{
    /** -h or --help was given; nothing else was applied. */
    bool help = false;
    /** The first usage error; empty on success. */
    std::string error;
    /** Non-flag arguments, in order. */
    std::vector<std::string> operands;
    /** Names of the flags given, in order. */
    std::vector<std::string> given;
};

/**
 * Apply @p args to @p flags, stopping at the first usage error: an
 * unknown flag, a switch given a value, a valued flag given none, a
 * rejected value (the message names the flag), or an operand count
 * outside @p operands. -h/--help anywhere wins over everything else.
 */
FlagParse parseFlags(const Flags &flags,
                     const std::vector<std::string> &args,
                     const Operands &operands = {});

/** Render @p flags as aligned help lines, plus the -h/--help line. */
void printFlags(const Flags &flags, std::ostream &os);

struct Command;

/** One verb of a tool. */
struct Verb
{
    const char *name;
    int (*run)(const Command &cmd);
    /** One line for the tool's verb list. */
    const char *summary;
    /** Prose the flag table cannot express: workflow, exit codes. */
    const char *notes = "";
    Operands operands = {};
};

/** A command-line tool: its verbs, and the one run when none is named. */
struct Tool
{
    const char *name;
    const char *summary;
    std::vector<Verb> verbs;
    /** Verb run when argv[1] names none; nullptr requires a verb. */
    const char *defaultVerb = nullptr;
};

/** One invocation of a verb. */
struct Command
{
    const Tool &tool;
    const Verb &verb;
    std::vector<std::string> args;

    /**
     * Apply args to the concatenation of @p tables. On --help, print
     * the verb's help to stdout and exit 0; on a usage error, print it
     * to stderr and exit 1.
     */
    FlagParse parse(std::initializer_list<Flags> tables) const;
};

/**
 * Print each problem as a "FAIL" line on stderr and return its exit
 * code: 3 when only files are missing, 4 otherwise.
 */
int failProblems(const std::vector<IntegrityProblem> &problems);

/**
 * A tool's main(): dispatch argv[1] to its verb. `TOOL --help` (or
 * `TOOL help`) lists the verbs and exits 0; a missing or unknown verb
 * is a usage error (exit 1).
 */
int runTool(const Tool &tool, int argc, char **argv);

} // namespace pes

#endif // PES_UTIL_FLAGS_HH
