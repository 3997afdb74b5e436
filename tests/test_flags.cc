/**
 * @file
 * Unit tests for the declarative flag parser (util/flags) and the
 * shared sweep-flag table (runner/fleet_config).
 */

#include <gtest/gtest.h>

#include <climits>
#include <sstream>

#include "runner/fleet_config.hh"
#include "util/flags.hh"

namespace pes {
namespace {

std::string
errorOf(const Flags &flags, const std::vector<std::string> &args)
{
    return parseFlags(flags, args).error;
}

bool
contains(const std::string &text, const std::string &part)
{
    return text.find(part) != std::string::npos;
}

TEST(Flags, EveryValueKindParses)
{
    std::string name;
    bool on = false, called = false;
    int count = 0, k = 0, n = 1;
    size_t cap = 0;
    uint64_t seed = 0;
    double rate = 0.0;
    std::vector<std::string> items{"a"};
    const Flags flags = {
        stringFlag("name", "S", name, ""),
        switchFlag("on", on, ""),
        customFlag("call", "",
                   [&](const std::string &v) {
                       called = v.empty();
                       return true;
                   },
                   ""),
        intFlag("count", "N", count, -5, 100, ""),
        intFlag("cap", "N", cap, 0, LLONG_MAX, ""),
        seedFlag("seed", "S", seed, ""),
        doubleFlag("rate", "R", rate, 0.0, 1.0, ""),
        listFlag("items", "LIST", items, ""),
        partFlag("part", k, n, 8, ""),
        customFlag("odd", "N", [](const std::string &v) { return v == "1"; },
                   "", "an odd digit"),
    };
    const FlagParse p = parseFlags(
        flags, {"--name=a=b", "--on", "--call", "--count=-5", "--cap=0x10",
                "--seed=18446744073709551615", "--rate=0.5",
                "--items= b , ,c", "--items=d", "--part=3/8", "--odd=1"});
    ASSERT_EQ(p.error, "");
    EXPECT_EQ(name, "a=b");
    EXPECT_TRUE(on && called);
    EXPECT_EQ(count, -5);
    EXPECT_EQ(cap, 16u);
    EXPECT_EQ(seed, UINT64_MAX);
    EXPECT_EQ(rate, 0.5);
    EXPECT_EQ(items, (std::vector<std::string>{"a", "b", "c", "d"}));
    EXPECT_EQ(k, 3);
    EXPECT_EQ(n, 8);
    EXPECT_EQ(p.given.size(), 11u);
    EXPECT_EQ(errorOf(flags, {"--odd=2"}),
              "bad value '2' for --odd (expected an odd digit)");
}

TEST(Flags, SwitchesRejectValuesAndValuedFlagsNeedOne)
{
    bool warm = false;
    std::string out;
    const Flags flags = {switchFlag("warm", warm, ""),
                         stringFlag("out", "FILE", out, "")};
    for (const char *arg : {"--warm=0", "--warm=1", "--warm="})
        EXPECT_EQ(errorOf(flags, {arg}),
                  "--warm is a switch and takes no value");
    EXPECT_FALSE(warm);
    EXPECT_EQ(errorOf(flags, {"--out"}), "--out needs a value (--out=FILE)");
    EXPECT_EQ(errorOf(flags, {"--out=", "--warm"}), "");
    EXPECT_TRUE(warm);
}

TEST(Flags, BadNumbersAreRejectedByName)
{
    int calibrate = 0, k = 0, n = 1;
    long ms = 7;
    uint32_t small = 0;
    double sigmas = 3.0;
    uint64_t seed = 0;
    const Flags flags = {
        intFlag("calibrate", "N", calibrate, 2, INT_MAX, ""),
        intFlag("max-wall-ms", "MS", ms, 0, LONG_MAX, ""),
        intFlag("small", "N", small, 0, LLONG_MAX, ""),
        doubleFlag("sigmas", "K", sigmas, kPositive, kUnbounded, ""),
        seedFlag("seed", "S", seed, ""),
        partFlag("shard", k, n, 4, ""),
    };
    EXPECT_EQ(errorOf(flags, {"--calibrate=4294967298"}),
              "bad value '4294967298' for --calibrate (expected an integer "
              "in [2, 2147483647])");
    EXPECT_EQ(errorOf(flags, {"--sigmas=0"}),
              "bad value '0' for --sigmas (expected a number in (0, inf])");
    // Overflow, negatives, out-of-range values, garbage; bounds wider
    // than the target type still never truncate.
    for (const char *bad :
         {"--calibrate=1", "--calibrate=12abc",
          "--calibrate=9223372036854775808", "--max-wall-ms=-1",
          "--small=4294967296", "--sigmas=nan", "--seed=-1", "--shard=2/2",
          "--shard=-1/2", "--shard=0/5", "--shard=1", "--shard=a/b"}) {
        const std::string arg = bad;
        EXPECT_TRUE(contains(errorOf(flags, {arg}),
                             "for " + arg.substr(0, arg.find('='))))
            << arg;
    }
    EXPECT_EQ(calibrate, 0);
    EXPECT_EQ(ms, 7);
    EXPECT_EQ(small, 0u);
    EXPECT_EQ(n, 1);
    EXPECT_EQ(errorOf(flags, {"--calibrate=2147483647"}), "");
    EXPECT_EQ(calibrate, INT_MAX);
}

TEST(Flags, UnknownFlagsOperandsAndHelp)
{
    bool quiet = false;
    const Flags flags = {switchFlag("quiet", quiet, "")};
    EXPECT_EQ(errorOf(flags, {"--bogus=3"}), "unknown flag '--bogus'");
    EXPECT_EQ(errorOf(flags, {"--quie"}), "unknown flag '--quie'");
    EXPECT_EQ(errorOf(flags, {"a.json"}), "unexpected argument 'a.json'");
    const Operands two{"BASE TEST", 2, 2};
    EXPECT_EQ(parseFlags(flags, {"a.json", "--quiet", "b.json"}, two)
                  .operands,
              (std::vector<std::string>{"a.json", "b.json"}));
    EXPECT_EQ(parseFlags(flags, {"a.json"}, two).error,
              "expected BASE TEST, got 1 argument(s)");
    // -h/--help anywhere wins and applies nothing.
    quiet = false;
    const FlagParse help = parseFlags(flags, {"--quiet", "--bogus", "-h"});
    EXPECT_TRUE(help.help && help.error.empty() && !quiet);
    EXPECT_TRUE(parseFlags(flags, {"--help"}).help);
}

TEST(SweepFlags, DefaultsSubsetsAndHelp)
{
    FleetConfig config;
    const Flags all = sweepFlags(config);
    EXPECT_EQ(all.size(), 11u);
    ASSERT_EQ(errorOf(all, {}), "");
    EXPECT_EQ(config.schedulers,
              (std::vector<SchedulerKind>{SchedulerKind::Pes,
                                          SchedulerKind::Ebs}));
    ASSERT_EQ(config.apps.size(), 3u);
    EXPECT_EQ(config.apps[0].name, "cnn");
    EXPECT_EQ(config.apps[1].name, "amazon");
    EXPECT_EQ(config.apps[2].name, "social_feed");
    EXPECT_TRUE(config.devices.empty());
    EXPECT_EQ(config.users, 100);
    EXPECT_EQ(config.threads, defaultSweepThreads());
    EXPECT_EQ(config.baseSeed, FleetConfig::kDefaultBaseSeed);
    EXPECT_EQ(config.checkpointEvery, 1024);

    std::ostringstream help;
    printFlags(all, help);
    for (const Flag &flag : all) {
        EXPECT_TRUE(contains(help.str(), "  --" + flag.name +
                                             (flag.meta.empty() ? " " : "=")))
            << flag.name;
    }
    EXPECT_TRUE(contains(help.str(), "-h, --help"));
    EXPECT_TRUE(contains(help.str(), "[pes,ebs]"));

    const Flags record = sweepFlags(config, {"apps", "users"});
    EXPECT_EQ(record.size(), 2u);
    EXPECT_EQ(errorOf(record, {"--threads=2"}), "unknown flag '--threads'");
    ASSERT_EQ(errorOf(record, {"--apps=cnn", "--users=3"}), "");
    EXPECT_EQ(config.apps.size(), 1u);
    EXPECT_EQ(config.users, 3);
    ASSERT_EQ(errorOf(all, {"--eval-population", "--warm", "--shard=1/3",
                            "--trace-cache-cap=64", "--seed=7"}),
              "");
    EXPECT_EQ(config.seedMode, SeedMode::Evaluation);
    EXPECT_TRUE(config.warmDrivers);
    EXPECT_EQ(config.shardIndex, 1);
    EXPECT_EQ(config.shardCount, 3);
    EXPECT_EQ(config.traceCacheCap, 64u);
    EXPECT_EQ(config.baseSeed, 7u);
}

} // namespace
} // namespace pes
