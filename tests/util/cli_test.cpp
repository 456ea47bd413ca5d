#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.hpp"

namespace hlock {
namespace {

bool parse(CliParser& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return cli.parse(static_cast<int>(args.size()), args.data());
}

CliParser make_parser() {
  CliParser cli{"prog", "test parser"};
  cli.add_option("nodes", "16", "node count");
  cli.add_option("name", "default", "a string");
  cli.add_option("scale", "1.5", "a double");
  cli.add_flag("verbose", "a flag");
  return cli;
}

TEST(Cli, DefaultsApply) {
  CliParser cli = make_parser();
  EXPECT_TRUE(parse(cli, {}));
  EXPECT_EQ(cli.get_int("nodes", 1, 100), 16);
  EXPECT_EQ(cli.get_string("name"), "default");
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 0, 10), 1.5);
  EXPECT_FALSE(cli.get_flag("verbose"));
  EXPECT_FALSE(cli.was_set("nodes"));
}

TEST(Cli, SpaceSeparatedValues) {
  CliParser cli = make_parser();
  EXPECT_TRUE(parse(cli, {"--nodes", "42", "--name", "hello"}));
  EXPECT_EQ(cli.get_int("nodes", 1, 100), 42);
  EXPECT_EQ(cli.get_string("name"), "hello");
  EXPECT_TRUE(cli.was_set("nodes"));
}

TEST(Cli, EqualsSyntax) {
  CliParser cli = make_parser();
  EXPECT_TRUE(parse(cli, {"--nodes=7", "--scale=2.25", "--verbose=true"}));
  EXPECT_EQ(cli.get_int("nodes", 1, 100), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 0, 10), 2.25);
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, BareFlagIsTrue) {
  CliParser cli = make_parser();
  EXPECT_TRUE(parse(cli, {"--verbose"}));
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, FlagFalseExplicit) {
  CliParser cli = make_parser();
  EXPECT_TRUE(parse(cli, {"--verbose=false"}));
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(Cli, HelpShortCircuits) {
  CliParser cli = make_parser();
  EXPECT_FALSE(parse(cli, {"--help"}));
  CliParser cli2 = make_parser();
  EXPECT_FALSE(parse(cli2, {"-h"}));
  const std::string help = cli.help_text();
  EXPECT_NE(help.find("--nodes"), std::string::npos);
  EXPECT_NE(help.find("default: 16"), std::string::npos);
  EXPECT_NE(help.find("test parser"), std::string::npos);
}

TEST(Cli, UnknownOptionRejected) {
  CliParser cli = make_parser();
  EXPECT_THROW(parse(cli, {"--bogus", "1"}), UsageError);
}

TEST(Cli, MissingValueRejected) {
  CliParser cli = make_parser();
  EXPECT_THROW(parse(cli, {"--nodes"}), UsageError);
}

TEST(Cli, NonOptionArgumentRejected) {
  CliParser cli = make_parser();
  EXPECT_THROW(parse(cli, {"positional"}), UsageError);
}

TEST(Cli, IntValidation) {
  CliParser cli = make_parser();
  EXPECT_TRUE(parse(cli, {"--nodes", "200"}));
  EXPECT_THROW(cli.get_int("nodes", 1, 100), UsageError);  // out of range
  CliParser cli2 = make_parser();
  EXPECT_TRUE(parse(cli2, {"--nodes", "abc"}));
  EXPECT_THROW(cli2.get_int("nodes", 1, 100), UsageError);  // not a number
  CliParser cli3 = make_parser();
  EXPECT_TRUE(parse(cli3, {"--nodes", "12x"}));
  EXPECT_THROW(cli3.get_int("nodes", 1, 100), UsageError);  // trailing junk
}

TEST(Cli, DoubleValidation) {
  CliParser cli = make_parser();
  EXPECT_TRUE(parse(cli, {"--scale", "nope"}));
  EXPECT_THROW(cli.get_double("scale", 0, 10), UsageError);
  CliParser cli2 = make_parser();
  EXPECT_TRUE(parse(cli2, {"--scale", "99"}));
  EXPECT_THROW(cli2.get_double("scale", 0, 10), UsageError);
}

TEST(Cli, FlagValidation) {
  CliParser cli = make_parser();
  EXPECT_TRUE(parse(cli, {"--verbose=maybe"}));
  EXPECT_THROW(cli.get_flag("verbose"), UsageError);
  EXPECT_THROW(cli.get_flag("nodes"), UsageError);  // not a flag
}

TEST(Cli, QueryingUndeclaredOptionRejected) {
  CliParser cli = make_parser();
  EXPECT_TRUE(parse(cli, {}));
  EXPECT_THROW(cli.get_string("nonexistent"), UsageError);
}

TEST(Cli, DuplicateDeclarationRejected) {
  CliParser cli{"prog", "x"};
  cli.add_option("a", "1", "first");
  EXPECT_THROW(cli.add_option("a", "2", "again"), UsageError);
  EXPECT_THROW(cli.add_flag("a", "again"), UsageError);
}

TEST(Cli, GivenOptionsThatNoGetterReadAreRejected) {
  CliParser cli = make_parser();
  EXPECT_TRUE(parse(cli, {"--nodes", "4", "--name", "x", "--verbose"}));
  EXPECT_EQ(cli.get_int("nodes", 1, 100), 4);
  EXPECT_FALSE(cli.was_set("scale"));
  EXPECT_TRUE(cli.was_set("name"));  // a presence query is not a read
  try {
    cli.reject_unread();
    FAIL() << "unread --name and --verbose were accepted";
  } catch (const UsageError& error) {
    EXPECT_EQ(std::string(error.what()),
              "not used by this run: --name, --verbose");
  }
  EXPECT_EQ(cli.get_string("name"), "x");
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_NO_THROW(cli.reject_unread());
}

TEST(Cli, DefaultedOptionsNeedNoRead) {
  CliParser cli = make_parser();
  EXPECT_TRUE(parse(cli, {}));
  EXPECT_NO_THROW(cli.reject_unread());
}

TEST(Cli, LastValueWins) {
  CliParser cli = make_parser();
  EXPECT_TRUE(parse(cli, {"--nodes", "1", "--nodes", "2"}));
  EXPECT_EQ(cli.get_int("nodes", 1, 100), 2);
}

}  // namespace
}  // namespace hlock
