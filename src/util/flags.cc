#include "util/flags.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace pes {

namespace {

/** One help line: @p spelling padded to the help column. */
void
helpLine(std::ostream &os, const std::string &spelling,
         const std::string &help)
{
    constexpr size_t kColumn = 26;
    os << "  " << spelling;
    if (spelling.size() + 3 > kColumn)
        os << "\n" << std::string(kColumn, ' ');
    else
        os << std::string(kColumn - 2 - spelling.size(), ' ');
    for (const char c : help)
        os << c << (c == '\n' ? std::string(kColumn, ' ') : "");
    os << "\n";
}

const Verb *
findVerb(const Tool &tool, const std::string &name)
{
    for (const Verb &verb : tool.verbs) {
        if (name == verb.name)
            return &verb;
    }
    return nullptr;
}

bool
isDefault(const Tool &tool, const Verb &verb)
{
    return tool.defaultVerb && verb.name == std::string(tool.defaultVerb);
}

void
printToolHelp(const Tool &tool, std::ostream &os)
{
    os << tool.name << " - " << tool.summary << "\n\nusage: " << tool.name
       << (tool.defaultVerb ? " [VERB]" : " VERB") << " [FLAGS]\n\nverbs:\n";
    for (const Verb &verb : tool.verbs) {
        helpLine(os, verb.name,
                 verb.summary +
                     std::string(isDefault(tool, verb) ? " (default)" : ""));
    }
    os << "\n`" << tool.name << " VERB --help` lists the flags of a verb.\n";
}

std::string
formatBound(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace

Flag
switchFlag(std::string name, bool &target, std::string help)
{
    return {name, "", help, "", [&target](const std::string &) {
                target = true;
                return true;
            }};
}

Flag
stringFlag(std::string name, std::string meta, std::string &target,
           std::string help)
{
    return {name, meta, help, "", [&target](const std::string &value) {
                target = value;
                return true;
            }};
}

Flag
seedFlag(std::string name, std::string meta, uint64_t &target,
         std::string help)
{
    return {name, meta, help, "an unsigned 64-bit integer",
            [&target](const std::string &value) {
                return parseUint64(value, target);
            }};
}

Flag
doubleFlag(std::string name, std::string meta, double &target, double lo,
           double hi, std::string help)
{
    const std::string low = lo == kPositive ? "(0" : "[" + formatBound(lo);
    return {name, meta, help,
            "a number in " + low + ", " + formatBound(hi) + "]",
            [&target, lo, hi](const std::string &value) {
                double v = 0.0;
                if (!parseDouble(value, v) || v < lo || v > hi)
                    return false;
                target = v;
                return true;
            }};
}

Flag
listFlag(std::string name, std::string meta,
         std::vector<std::string> &target, std::string help)
{
    return {name, meta, help, "", [&target](const std::string &value) {
                for (const std::string &raw : split(value, ',')) {
                    if (!trim(raw).empty())
                        target.push_back(trim(raw));
                }
                return true;
            }};
}

Flag
partFlag(std::string name, int &index, int &count, int max_count,
         std::string help)
{
    return {name, "K/N", help,
            "K/N with 0 <= K < N <= " + std::to_string(max_count),
            [&index, &count, max_count](const std::string &value) {
                const size_t slash = value.find('/');
                long long k = 0, n = 0;
                if (slash == std::string::npos ||
                    !parseInt64(value.substr(0, slash), k) ||
                    !parseInt64(value.substr(slash + 1), n) || k < 0 ||
                    k >= n || n > max_count)
                    return false;
                index = static_cast<int>(k);
                count = static_cast<int>(n);
                return true;
            }};
}

Flag
customFlag(std::string name, std::string meta,
           std::function<bool(const std::string &)> set, std::string help,
           std::string expect)
{
    return {name, meta, help, expect, set};
}

FlagParse
parseFlags(const Flags &flags, const std::vector<std::string> &args,
           const Operands &operands)
{
    FlagParse out;
    out.help = std::any_of(args.begin(), args.end(), [](const auto &arg) {
        return arg == "-h" || arg == "--help";
    });
    if (out.help)
        return out;
    for (const std::string &arg : args) {
        if (!startsWith(arg, "--")) {
            out.operands.push_back(arg);
            continue;
        }
        const size_t eq = arg.find('=');
        const std::string name = arg.substr(2, eq == arg.npos ? eq : eq - 2);
        const auto flag =
            std::find_if(flags.begin(), flags.end(),
                         [&name](const Flag &f) { return f.name == name; });
        const std::string value =
            eq == arg.npos ? std::string() : arg.substr(eq + 1);
        if (flag == flags.end())
            out.error = "unknown flag '--" + name + "'";
        else if (flag->meta.empty() && eq != arg.npos)
            out.error = "--" + name + " is a switch and takes no value";
        else if (!flag->meta.empty() && eq == arg.npos)
            out.error = "--" + name + " needs a value (--" + name + "=" +
                flag->meta + ")";
        else if (!flag->set(value))
            out.error = "bad value '" + value + "' for --" + name +
                (flag->expect.empty() ? "" : " (expected " + flag->expect +
                                                 ")");
        if (!out.error.empty())
            return out;
        out.given.push_back(name);
    }
    const size_t n = out.operands.size();
    if (operands.max == 0 && n > 0)
        out.error = "unexpected argument '" + out.operands.front() + "'";
    else if (n < operands.min || n > operands.max)
        out.error = "expected " + std::string(operands.synopsis) + ", got " +
            std::to_string(n) + " argument(s)";
    return out;
}

void
printFlags(const Flags &flags, std::ostream &os)
{
    for (const Flag &flag : flags) {
        helpLine(os, "--" + flag.name +
                         (flag.meta.empty() ? "" : "=" + flag.meta),
                 flag.help);
    }
    helpLine(os, "-h, --help", "print this help and exit");
}

FlagParse
Command::parse(std::initializer_list<Flags> tables) const
{
    Flags flags;
    for (const Flags &table : tables)
        flags.insert(flags.end(), table.begin(), table.end());
    const std::string command = std::string(tool.name) + " " + verb.name;
    const FlagParse parsed = parseFlags(flags, args, verb.operands);
    if (parsed.help) {
        if (isDefault(tool, verb)) {
            printToolHelp(tool, std::cout);
            std::cout << "\n";
        }
        std::cout << "usage: " << command << " [FLAGS]"
                  << (*verb.operands.synopsis ? " " : "")
                  << verb.operands.synopsis << "\n\n" << verb.summary << "\n";
        if (*verb.notes)
            std::cout << "\n" << verb.notes << "\n";
        std::cout << "\nflags:\n";
        printFlags(flags, std::cout);
        std::exit(0);
    }
    if (!parsed.error.empty()) {
        std::cerr << command << ": " << parsed.error << "\n(`" << command
                  << " --help` lists its flags)\n";
        std::exit(1);
    }
    return parsed;
}

int
failProblems(const std::vector<IntegrityProblem> &problems)
{
    for (const IntegrityProblem &p : problems)
        std::cerr << "FAIL " << p.message << "\n";
    return integrityExitCode(problems);
}

int
runTool(const Tool &tool, int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    const Verb *verb = args.empty() ? nullptr : findVerb(tool, args[0]);
    if (verb)
        args.erase(args.begin());
    else if (tool.defaultVerb && (args.empty() || startsWith(args[0], "-")))
        verb = findVerb(tool, tool.defaultVerb);
    if (verb)
        return verb->run(Command{tool, *verb, std::move(args)});

    const bool help = !args.empty() &&
        (args[0] == "--help" || args[0] == "-h" || args[0] == "help");
    if (!help && !args.empty())
        std::cerr << tool.name << ": unknown verb '" << args[0] << "'\n\n";
    printToolHelp(tool, help ? std::cout : std::cerr);
    return help ? 0 : 1;
}

} // namespace pes
