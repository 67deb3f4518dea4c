#include "util/flags.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace pinocchio {
namespace {

TEST(FlagParserTest, EqualsSyntax) {
  const FlagParser flags({"--name=value", "--count=5"});
  EXPECT_TRUE(flags.Has("name"));
  EXPECT_EQ(flags.GetString("name", ""), "value");
  EXPECT_EQ(flags.GetInt("count", 0), 5);
}

TEST(FlagParserTest, SpaceSyntax) {
  const FlagParser flags({"--name", "value", "--count", "7"});
  EXPECT_EQ(flags.GetString("name", ""), "value");
  EXPECT_EQ(flags.GetInt("count", 0), 7);
  EXPECT_TRUE(flags.positional().empty());
}

TEST(FlagParserTest, BareBooleanFlag) {
  const FlagParser flags({"--verbose", "--out=x"});
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetString("verbose").has_value());
}

TEST(FlagParserTest, BooleanValues) {
  const FlagParser flags({"--a=true", "--b=false", "--c=1", "--d=0",
                          "--e=yes", "--f=no", "--g=maybe"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_TRUE(flags.GetBool("e", false));
  EXPECT_FALSE(flags.GetBool("f", true));
  EXPECT_TRUE(flags.GetBool("g", true));  // malformed -> default
  EXPECT_FALSE(flags.GetBool("missing", false));
}

TEST(FlagParserTest, ValueSwallowedByNextFlagIsDetectable) {
  // `--out --legacy-name` turns --out into a bare boolean; a caller that
  // expects a value must be able to tell this apart from an absent flag.
  const FlagParser flags({"--out", "--legacy-name"});
  EXPECT_TRUE(flags.Has("out"));
  EXPECT_FALSE(flags.GetString("out").has_value());
  EXPECT_TRUE(flags.IsValueless("out"));
  EXPECT_TRUE(flags.IsValueless("legacy-name"));
  EXPECT_FALSE(flags.IsValueless("missing"));
  // A flag with an actual value is not valueless, under either syntax.
  const FlagParser valued({"--out", "x", "--k=3"});
  EXPECT_FALSE(valued.IsValueless("out"));
  EXPECT_FALSE(valued.IsValueless("k"));
}

TEST(FlagParserTest, InconsistentRedefinitionIsAnError) {
  const FlagParser bare_then_valued({"--x", "--x=1"});
  ASSERT_EQ(bare_then_valued.errors().size(), 1u);
  EXPECT_NE(bare_then_valued.errors()[0].find("--x"), std::string::npos);
  EXPECT_NE(bare_then_valued.errors()[0].find("inconsistently"),
            std::string::npos);

  const FlagParser valued_then_bare({"--x=1", "--x"});
  EXPECT_EQ(valued_then_bare.errors().size(), 1u);
  // Last occurrence still wins for the stored state.
  EXPECT_TRUE(valued_then_bare.IsValueless("x"));
  EXPECT_FALSE(valued_then_bare.GetString("x").has_value());
}

TEST(FlagParserTest, ConsistentDuplicatesAreNotErrors) {
  EXPECT_TRUE(FlagParser({"--x=1", "--x=2"}).errors().empty());
  EXPECT_TRUE(FlagParser({"--v", "--v"}).errors().empty());
  EXPECT_TRUE(FlagParser({"--x=1", "--x", "2"}).errors().empty());
  EXPECT_TRUE(FlagParser({"--a=1", "--b"}).errors().empty());
}

TEST(FlagParserTest, Positional) {
  const FlagParser flags({"input.csv", "--k=3", "more"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "more");
}

TEST(FlagParserTest, DoubleDashStopsFlagParsing) {
  const FlagParser flags({"--a=1", "--", "--b=2"});
  EXPECT_TRUE(flags.Has("a"));
  EXPECT_FALSE(flags.Has("b"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "--b=2");
}

TEST(FlagParserTest, TypedDefaultsOnMissingOrMalformed) {
  const FlagParser flags({"--num=abc", "--pi=3.5"});
  EXPECT_EQ(flags.GetInt("num", 42), 42);
  EXPECT_EQ(flags.GetInt("missing", 9), 9);
  EXPECT_DOUBLE_EQ(flags.GetDouble("pi", 0.0), 3.5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("num", 2.0), 2.0);
}

TEST(FlagParserTest, EmptyValueViaEquals) {
  const FlagParser flags({"--name="});
  EXPECT_TRUE(flags.Has("name"));
  ASSERT_TRUE(flags.GetString("name").has_value());
  EXPECT_EQ(*flags.GetString("name"), "");
}

TEST(FlagParserTest, LastOccurrenceWins) {
  const FlagParser flags({"--x=1", "--x=2"});
  EXPECT_EQ(flags.GetInt("x", 0), 2);
}

TEST(FlagParserTest, ArgcArgvConstructorSkipsProgramName) {
  const char* argv[] = {"prog", "--a=1", "pos"};
  const FlagParser flags(3, argv);
  EXPECT_TRUE(flags.Has("a"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos");
}

TEST(FlagParserTest, UnknownFlags) {
  const FlagParser flags({"--good=1", "--typo=2"});
  const auto unknown = flags.UnknownFlags({"good", "other"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
  EXPECT_TRUE(FlagParser({"--good=1"}).UnknownFlags({"good"}).empty());
}

TEST(FlagParserTest, FlagNamesSorted) {
  const FlagParser flags({"--b=1", "--a=2"});
  const auto names = flags.FlagNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
}

TEST(GetCountFlagTest, ReadsTheValueOrTheFallback) {
  const FlagParser flags({"--count=5"});
  std::ostringstream err;
  size_t value = 0;
  ASSERT_TRUE(GetCountFlag(flags, "count", 9, 1, &value, err));
  EXPECT_EQ(value, 5u);
  ASSERT_TRUE(GetCountFlag(flags, "missing", 9, 1, &value, err));
  EXPECT_EQ(value, 9u);
  EXPECT_TRUE(err.str().empty());
}

TEST(GetCountFlagTest, RefusesBelowTheMinimumNamingTheFlag) {
  const FlagParser flags({"--workers=-1"});
  std::ostringstream err;
  size_t value = 7;
  EXPECT_FALSE(GetCountFlag(flags, "workers", 0, 0, &value, err));
  EXPECT_EQ(value, 7u);
  EXPECT_EQ(err.str(), "--workers must be >= 0\n");
}

TEST(GetCountFlagTest, RefusesAboveTheMaximumNamingTheFlag) {
  const FlagParser flags({"--port=70000"});
  std::ostringstream err;
  size_t value = 7;
  EXPECT_FALSE(GetCountFlag(flags, "port", 0, 0, &value, err, 65535));
  EXPECT_EQ(value, 7u);
  EXPECT_EQ(err.str(), "--port must be <= 65535\n");
}

TEST(GetCountFlagTest, RefusesAMalformedValueNamingTheFlag) {
  const FlagParser flags({"--candidates=abc"});
  std::ostringstream err;
  size_t value = 7;
  EXPECT_FALSE(GetCountFlag(flags, "candidates", 600, 1, &value, err));
  EXPECT_EQ(value, 7u);
  EXPECT_EQ(err.str(), "--candidates must be an integer\n");
}

TEST(GetNumberFlagTest, ReadsTheValueOrTheFallback) {
  const FlagParser flags({"--tau=0.25"});
  std::ostringstream err;
  double value = 0.0;
  ASSERT_TRUE(GetNumberFlag(flags, "tau", 0.7, &value, err));
  EXPECT_DOUBLE_EQ(value, 0.25);
  ASSERT_TRUE(GetNumberFlag(flags, "missing", 0.7, &value, err));
  EXPECT_DOUBLE_EQ(value, 0.7);
  EXPECT_TRUE(err.str().empty());
}

TEST(GetNumberFlagTest, RefusesGarbageNanAndInfinityNamingTheFlag) {
  for (const char* text : {"abc", "nan", "NAN", "-nan", "inf", "-infinity",
                           "0.5x", ""}) {
    const FlagParser flags({std::string("--tau=") + text});
    std::ostringstream err;
    double value = 3.0;
    EXPECT_FALSE(GetNumberFlag(flags, "tau", 0.7, &value, err)) << text;
    EXPECT_DOUBLE_EQ(value, 3.0) << text;
    EXPECT_EQ(err.str(), "--tau must be a finite number\n") << text;
  }
}

TEST(GetCountFlagTest, BoundsAreInclusive) {
  std::ostringstream err;
  size_t value = 0;
  ASSERT_TRUE(GetCountFlag(FlagParser({"--port=65535"}), "port", 0, 0, &value,
                           err, 65535));
  EXPECT_EQ(value, 65535u);
  ASSERT_TRUE(GetCountFlag(FlagParser({"--k=1"}), "k", 3, 1, &value, err));
  EXPECT_EQ(value, 1u);
  EXPECT_TRUE(err.str().empty());
}

}  // namespace
}  // namespace pinocchio
