// Tests for the fourth extension wave: the argument parser and MiniSpark's
// filter/union/count_by_key operators (the ring allreduce tests live with
// MapCombiner's ring in test_wave5.cpp).
#include <gtest/gtest.h>

#include "common/arg_parser.h"
#include "minispark/rdd.h"

namespace smart {
namespace {

// --- arg parser ------------------------------------------------------------------

ArgParser make_parser() {
  ArgParser args;
  args.option("sim", "simulation name", "heat3d")
      .option("steps", "step count", "3")
      .option("rate", "a floating option", "0.5")
      .flag("verbose", "chatty output");
  return args;
}

TEST(ArgParser, DefaultsApplyWhenAbsent) {
  ArgParser args = make_parser();
  const char* argv[] = {"prog"};
  args.parse(1, argv);
  EXPECT_EQ(args.get("sim"), "heat3d");
  EXPECT_EQ(args.get_long("steps"), 3);
  EXPECT_DOUBLE_EQ(args.get_double("rate"), 0.5);
  EXPECT_FALSE(args.get_flag("verbose"));
  EXPECT_FALSE(args.has("sim"));
}

TEST(ArgParser, ParsesSeparateAndInlineValues) {
  ArgParser args = make_parser();
  const char* argv[] = {"prog", "--sim", "lulesh", "--steps=7", "--verbose"};
  args.parse(5, argv);
  EXPECT_EQ(args.get("sim"), "lulesh");
  EXPECT_EQ(args.get_long("steps"), 7);
  EXPECT_TRUE(args.get_flag("verbose"));
  EXPECT_TRUE(args.has("sim"));
}

TEST(ArgParser, RejectsMalformedInput) {
  {
    ArgParser args = make_parser();
    const char* argv[] = {"prog", "--nope", "x"};
    EXPECT_THROW(args.parse(3, argv), std::invalid_argument);
  }
  {
    ArgParser args = make_parser();
    const char* argv[] = {"prog", "--steps"};
    EXPECT_THROW(args.parse(2, argv), std::invalid_argument);
  }
  {
    ArgParser args = make_parser();
    const char* argv[] = {"prog", "stray"};
    EXPECT_THROW(args.parse(2, argv), std::invalid_argument);
  }
  {
    ArgParser args = make_parser();
    const char* argv[] = {"prog", "--verbose=yes"};
    EXPECT_THROW(args.parse(2, argv), std::invalid_argument);
  }
}

TEST(ArgParser, TypedGettersValidate) {
  ArgParser args = make_parser();
  const char* argv[] = {"prog", "--steps", "12abc"};
  args.parse(3, argv);
  EXPECT_THROW(args.get_long("steps"), std::invalid_argument);
  EXPECT_THROW(args.get("undeclared"), std::logic_error);
}

TEST(ArgParser, UsageListsEverything) {
  const std::string u = make_parser().usage("prog");
  EXPECT_NE(u.find("--sim"), std::string::npos);
  EXPECT_NE(u.find("--verbose"), std::string::npos);
  EXPECT_NE(u.find("default: heat3d"), std::string::npos);
}

// --- minispark operators -------------------------------------------------------------

minispark::SparkContext::Config quiet() {
  minispark::SparkContext::Config cfg;
  cfg.worker_threads = 2;
  cfg.service_threads = 0;
  return cfg;
}

TEST(MiniSparkOps, FilterKeepsMatching) {
  minispark::SparkContext ctx(quiet());
  std::vector<int> data;
  for (int i = 0; i < 100; ++i) data.push_back(i);
  const auto rdd = minispark::RDD<int>::parallelize(ctx, data);
  const auto evens = rdd.filter([](const int& x) { return x % 2 == 0; });
  EXPECT_EQ(evens.count(), 50u);
  for (int x : evens.collect()) EXPECT_EQ(x % 2, 0);
}

TEST(MiniSparkOps, UnionConcatenates) {
  minispark::SparkContext ctx(quiet());
  const auto a = minispark::RDD<int>::parallelize(ctx, {1, 2, 3});
  const auto b = minispark::RDD<int>::parallelize(ctx, {4, 5});
  const auto u = a.union_with(b);
  EXPECT_EQ(u.count(), 5u);
  auto all = u.collect();
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(MiniSparkOps, UnionAcrossContextsThrows) {
  minispark::SparkContext ctx_a(quiet());
  minispark::SparkContext ctx_b(quiet());
  const auto a = minispark::RDD<int>::parallelize(ctx_a, {1});
  const auto b = minispark::RDD<int>::parallelize(ctx_b, {2});
  EXPECT_THROW((void)a.union_with(b), std::invalid_argument);
}

TEST(MiniSparkOps, CountByKey) {
  minispark::SparkContext ctx(quiet());
  std::vector<int> data;
  for (int i = 0; i < 90; ++i) data.push_back(i);
  const auto pairs = minispark::RDD<int>::parallelize(ctx, data)
                         .map_to_pair<int, int>([](const int& x) {
                           return std::pair<int, int>{x % 3, x};
                         });
  const auto counts = pairs.count_by_key();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts.at(0), 30u);
  EXPECT_EQ(counts.at(1), 30u);
  EXPECT_EQ(counts.at(2), 30u);
}

}  // namespace
}  // namespace smart
