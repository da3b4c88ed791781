#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace am {
namespace {

Cli make(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  static std::vector<char*> argv;
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesEqualsForm) {
  auto cli = make({"--scale=8", "--name=foo"});
  EXPECT_EQ(cli.get_int("scale", 0), 8);
  EXPECT_EQ(cli.get("name", ""), "foo");
}

TEST(Cli, ParsesSpaceForm) {
  auto cli = make({"--scale", "16"});
  EXPECT_EQ(cli.get_int("scale", 0), 16);
}

TEST(Cli, BooleanFlag) {
  auto cli = make({"--full"});
  EXPECT_TRUE(cli.has("full"));
  EXPECT_TRUE(cli.get_bool("full", false));
  EXPECT_FALSE(cli.get_bool("absent", false));
}

TEST(Cli, Defaults) {
  auto cli = make({});
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 2.5), 2.5);
  EXPECT_EQ(cli.get("s", "d"), "d");
}

TEST(Cli, Positional) {
  auto cli = make({"input.txt", "--flag", "output.txt"});
  // "--flag output.txt" consumes output.txt as the flag value.
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.get("flag", ""), "output.txt");
}

TEST(Cli, UnusedReportsUnqueriedFlags) {
  auto cli = make({"--used=1", "--typo=2"});
  (void)cli.get_int("used", 0);
  const auto unused = cli.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, DoubleParsing) {
  auto cli = make({"--x=3.25"});
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 3.25);
}

TEST(Cli, IntRejectsMalformedValues) {
  // Silent 0 here once meant a typo'd --reps ran a 0-rep sweep.
  for (const char* bad :
       {"--reps=abc", "--reps=12abc", "--reps=1.5", "--reps=0x10",
        "--reps=99999999999999999999999999"})
    EXPECT_THROW(make({bad}).get_int("reps", 3), std::invalid_argument)
        << bad;
  // A value-less "--reps" parses as boolean "true" — also not an integer.
  EXPECT_THROW(make({"--reps"}).get_int("reps", 3), std::invalid_argument);
  // Valid forms still parse, including signs.
  EXPECT_EQ(make({"--reps=-7"}).get_int("reps", 3), -7);
  EXPECT_EQ(make({"--reps=+7"}).get_int("reps", 3), 7);
}

TEST(Cli, DoubleRejectsMalformedValues) {
  for (const char* bad :
       {"--x=abc", "--x=1.5garbage", "--x=1e999", "--x=.", "--x"})
    EXPECT_THROW(make({bad}).get_double("x", 2.5), std::invalid_argument)
        << bad;
  EXPECT_DOUBLE_EQ(make({"--x=-1e3"}).get_double("x", 0.0), -1000.0);
  EXPECT_DOUBLE_EQ(make({"--x=2e-3"}).get_double("x", 0.0), 0.002);
  // Underflow to a subnormal sets ERANGE but is a legitimate value.
  EXPECT_GT(make({"--x=1e-320"}).get_double("x", 0.0), 0.0);
}

TEST(Cli, SecondsAcceptFiniteNonNegativeValues) {
  EXPECT_EQ(make({"--poll-seconds", "0.02"}).get_seconds("poll-seconds", 1.0),
            0.02);
  EXPECT_EQ(make({"--stall-timeout=0"}).get_seconds("stall-timeout", 1.0), 0.0);
  EXPECT_EQ(make({}).get_seconds("idle-timeout", 600.0), 600.0);
}

TEST(Cli, SecondsRejectNegativeNanAndInfinity) {
  // strtod parses all of these; none may reach a sleep or a timeout.
  for (const char* bad : {"-1", "-0.5", "nan", "NAN", "inf", "-inf",
                          "infinity", "1e400"})
    EXPECT_THROW(make({"--poll-seconds", bad}).get_seconds("poll-seconds",
                                                          0.02),
                 std::invalid_argument)
        << bad;
  EXPECT_THROW(make({"--poll-seconds"}).get_seconds("poll-seconds", 0.02),
               std::invalid_argument);  // value-less -> "true"
}

TEST(Cli, PathFlagsLikeLeaseParseBothForms) {
  // The scheduler worker flags (--lease FILE, --emit-plan FILE) are
  // plain string flags; both spellings must carry the path through
  // verbatim, including paths that contain '='.
  EXPECT_EQ(make({"--lease", "/tmp/drv.lease0"}).get("lease", ""),
            "/tmp/drv.lease0");
  EXPECT_EQ(make({"--lease=/tmp/a=b.lease"}).get("lease", ""),
            "/tmp/a=b.lease");
  EXPECT_EQ(make({"--emit-plan", "plan.tsv"}).get("emit-plan", ""),
            "plan.tsv");
  // A value-less occurrence degrades to the boolean sentinel "true" —
  // the one value the drivers reject as a missing path (a file named
  // "true" would be indistinguishable from the typo).
  EXPECT_EQ(make({"--lease"}).get("lease", ""), "true");
  EXPECT_EQ(make({"--lease", "--worker"}).get("lease", ""), "true");
}

TEST(Cli, CostModelOverridesParseStrictly) {
  // amsweep's --batches is get_int-validated: trailing junk or empty
  // values must throw, never quietly become 0 batches.
  EXPECT_EQ(make({"--batches", "12"}).get_int("batches", 0), 12);
  EXPECT_THROW(make({"--batches", "12x"}).get_int("batches", 0),
               std::invalid_argument);
  EXPECT_THROW(make({"--batches"}).get_int("batches", 0),
               std::invalid_argument);  // value-less -> "true"
  // --cost-model is a plain string here; the binary rejects unknown
  // values (covered end to end by smoke_amsweep).
  EXPECT_EQ(make({"--cost-model=uniform"}).get("cost-model", "measured"),
            "uniform");
  EXPECT_EQ(make({}).get("cost-model", "measured"), "measured");
}

}  // namespace
}  // namespace am
