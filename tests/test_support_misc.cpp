// Tests for the table/CSV formatter and the CLI flag parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "support/cli.hpp"
#include "support/table.hpp"

namespace beepkit::support {
namespace {

TEST(TableTest, RendersAlignedColumns) {
  table t({"name", "rounds"});
  t.add_row({"path", "120"});
  t.add_row({"clique", "7"});
  const std::string text = t.to_string();
  EXPECT_NE(text.find("| name   | rounds |"), std::string::npos);
  EXPECT_NE(text.find("| path   | 120    |"), std::string::npos);
  EXPECT_NE(text.find("| clique | 7      |"), std::string::npos);
}

TEST(TableTest, TitleAndShortRows) {
  table t({"a", "b", "c"});
  t.set_title("My Table");
  t.add_row({"1"});
  const std::string text = t.to_string();
  EXPECT_EQ(text.rfind("My Table\n", 0), 0U);
  EXPECT_EQ(t.row_count(), 1U);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(table::num(3.14159, 2), "3.14");
  EXPECT_EQ(table::num(3.14159, 4), "3.1416");
  EXPECT_EQ(table::num(static_cast<long long>(-42)), "-42");
}

TEST(TableTest, CsvEscaping) {
  table t({"x", "note"});
  t.add_row({"1", "has,comma"});
  t.add_row({"2", "has\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
  EXPECT_EQ(csv.rfind("x,note\n", 0), 0U);
}

TEST(TableTest, WriteTextFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "beepkit_table_test.txt";
  ASSERT_TRUE(write_text_file(path, "hello\n"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "hello\n");
  std::remove(path.c_str());
}

TEST(TableTest, WriteTextFileBadPath) {
  EXPECT_FALSE(write_text_file("/nonexistent-dir-xyz/file.txt", "x"));
}

TEST(CliTest, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--n=128", "--trials", "30", "--verbose"};
  const cli args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 128);
  EXPECT_EQ(args.get_int("trials", 0), 30);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("missing", -7), -7);
}

TEST(CliTest, ParseShardAcceptsValidSlices) {
  const auto whole = cli::parse_shard("0/1");
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->index, 0U);
  EXPECT_EQ(whole->count, 1U);
  EXPECT_TRUE(whole->whole());

  const auto slice = cli::parse_shard("2/8");
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->index, 2U);
  EXPECT_EQ(slice->count, 8U);
  EXPECT_FALSE(slice->whole());
  EXPECT_TRUE(slice->owns(2));
  EXPECT_TRUE(slice->owns(10));
  EXPECT_FALSE(slice->owns(3));
}

TEST(CliTest, ParseShardRejectsInvalidSlices) {
  EXPECT_FALSE(cli::parse_shard("8/8").has_value());   // i >= N
  EXPECT_FALSE(cli::parse_shard("9/8").has_value());   // i >= N
  EXPECT_FALSE(cli::parse_shard("3/0").has_value());   // N == 0
  EXPECT_FALSE(cli::parse_shard("0/0").has_value());   // N == 0
  EXPECT_FALSE(cli::parse_shard("").has_value());
  EXPECT_FALSE(cli::parse_shard("3").has_value());     // no slash
  EXPECT_FALSE(cli::parse_shard("/8").has_value());    // empty index
  EXPECT_FALSE(cli::parse_shard("3/").has_value());    // empty count
  EXPECT_FALSE(cli::parse_shard("-1/8").has_value());  // sign
  EXPECT_FALSE(cli::parse_shard("1/2/3").has_value()); // extra slash
  EXPECT_FALSE(cli::parse_shard("a/8").has_value());
  EXPECT_FALSE(cli::parse_shard("1/8x").has_value());
  EXPECT_FALSE(cli::parse_shard("1 /8").has_value());
}

TEST(CliTest, GetShardDefaultsToWholeSweep) {
  const char* argv[] = {"prog"};
  const cli args(1, argv);
  const auto shard = args.get_shard();
  EXPECT_EQ(shard.index, 0U);
  EXPECT_EQ(shard.count, 1U);
}

TEST(CliTest, GetShardParsesFlag) {
  const char* argv[] = {"prog", "--shard", "1/3"};
  const cli args(3, argv);
  const auto shard = args.get_shard();
  EXPECT_EQ(shard.index, 1U);
  EXPECT_EQ(shard.count, 3U);
}

TEST(CliTest, CollectsPositionalArguments) {
  const char* argv[] = {"prog", "a.jsonl", "b.jsonl", "--json=out.json",
                        "c.jsonl"};
  const cli args(5, argv);
  EXPECT_EQ(args.positionals(),
            (std::vector<std::string>{"a.jsonl", "b.jsonl", "c.jsonl"}));
  EXPECT_EQ(args.get_string("json", ""), "out.json");
}

TEST(CliTest, DeclaredSwitchesNeverConsumePositionals) {
  const char* argv[] = {"prog", "--quiet", "a.jsonl", "--resume",
                        "b.jsonl"};
  const cli args(5, argv, {"quiet", "resume"});
  EXPECT_TRUE(args.get_bool("quiet", false));
  EXPECT_TRUE(args.get_bool("resume", false));
  EXPECT_EQ(args.positionals(),
            (std::vector<std::string>{"a.jsonl", "b.jsonl"}));
  // Undeclared flags keep the usual --name value form.
  const char* argv2[] = {"prog", "--json", "out.json"};
  const cli args2(3, argv2, {"quiet"});
  EXPECT_EQ(args2.get_string("json", ""), "out.json");
  // And `--switch=value` still works for declared switches.
  const char* argv3[] = {"prog", "--quiet=false", "x.jsonl"};
  const cli args3(3, argv3, {"quiet"});
  EXPECT_FALSE(args3.get_bool("quiet", true));
  EXPECT_EQ(args3.positionals(), (std::vector<std::string>{"x.jsonl"}));
}

TEST(CliTest, TypedGetters) {
  const char* argv[] = {"prog", "--p=0.25", "--csv=/tmp/x.csv", "--flag=no"};
  const cli args(4, argv);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.5), 0.25);
  EXPECT_EQ(args.get_string("csv", ""), "/tmp/x.csv");
  EXPECT_FALSE(args.get_bool("flag", true));
  EXPECT_TRUE(args.has("p"));
  EXPECT_FALSE(args.has("q"));
}

TEST(CliTest, UnusedFlagsReported) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  const cli args(3, argv);
  (void)args.get_int("used", 0);
  const auto leftover = args.unused();
  ASSERT_EQ(leftover.size(), 1U);
  EXPECT_EQ(leftover[0], "typo");
}

TEST(CliTest, ParseInt) {
  EXPECT_EQ(cli::parse_int("42"), 42);
  EXPECT_EQ(cli::parse_int("-7"), -7);
  EXPECT_EQ(cli::parse_int("0"), 0);
  EXPECT_FALSE(cli::parse_int("abc").has_value());
  EXPECT_FALSE(cli::parse_int("").has_value());
  EXPECT_FALSE(cli::parse_int("12x").has_value());
  EXPECT_FALSE(cli::parse_int("1.5").has_value());
  EXPECT_FALSE(cli::parse_int(" 3").has_value());
  EXPECT_FALSE(cli::parse_int("+3").has_value());
  EXPECT_FALSE(cli::parse_int("0x10").has_value());
  EXPECT_FALSE(cli::parse_int("99999999999999999999").has_value());
}

TEST(CliTest, ParseDouble) {
  EXPECT_EQ(cli::parse_double("0.25"), 0.25);
  EXPECT_EQ(cli::parse_double("1e-3"), 1e-3);
  EXPECT_EQ(cli::parse_double("-2"), -2.0);
  EXPECT_FALSE(cli::parse_double("abc").has_value());
  EXPECT_FALSE(cli::parse_double("0.5x").has_value());
  EXPECT_FALSE(cli::parse_double("").has_value());
  EXPECT_FALSE(cli::parse_double("nan").has_value());
  EXPECT_FALSE(cli::parse_double("inf").has_value());
  EXPECT_FALSE(cli::parse_double("1e999").has_value());
}

TEST(CliTest, BadFlagsExit) {
  const char* argv[] = {"prog", "--threads", "abc", "--p=0.5q", "--typo=1"};
  const cli args(5, argv);
  EXPECT_EXIT((void)args.get_int("threads", 0),
              ::testing::ExitedWithCode(2), "invalid --threads 'abc'");
  EXPECT_EXIT((void)args.get_double("p", 0.5), ::testing::ExitedWithCode(2),
              "invalid --p '0.5q'");
  EXPECT_EXIT(args.reject_unused(), ::testing::ExitedWithCode(2),
              "unknown flags: --p --threads --typo");
  const char* known[] = {"prog", "--n=4"};
  const cli ok(2, known);
  EXPECT_EQ(ok.get_int("n", 0), 4);
  ok.reject_unused();  // every flag was read: returns
}

TEST(CliTest, BooleanSwitchBeforeFlag) {
  const char* argv[] = {"prog", "--dry-run", "--n=4"};
  const cli args(3, argv);
  EXPECT_TRUE(args.get_bool("dry-run", false));
  EXPECT_EQ(args.get_int("n", 0), 4);
}

}  // namespace
}  // namespace beepkit::support
