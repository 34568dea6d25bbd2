// Unit tests for the util substrate: blob serialization, prefix sums,
// RNG determinism, argparse, table rendering, stats, and the cost model.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "tricount/util/argparse.hpp"
#include "tricount/util/blob.hpp"
#include "tricount/util/cost_model.hpp"
#include "tricount/util/prefix.hpp"
#include "tricount/util/rng.hpp"
#include "tricount/util/stats.hpp"
#include "tricount/util/table.hpp"
#include "tricount/util/time.hpp"

namespace tricount::util {
namespace {

// --- blob ------------------------------------------------------------------

TEST(Blob, RoundTripsTypedSections) {
  BlobWriter writer;
  const std::vector<std::uint64_t> xadj = {0, 2, 5, 9};
  const std::vector<std::uint32_t> adj = {1, 2, 0, 3, 4};
  writer.add_scalar<std::uint32_t>(7);
  writer.add_section(xadj);
  writer.add_section(adj);
  const auto blob = writer.take();

  BlobReader reader(blob);
  EXPECT_EQ(reader.section_count(), 3u);
  EXPECT_EQ(reader.next_scalar<std::uint32_t>(), 7u);
  const auto got_xadj = reader.next_section<std::uint64_t>();
  ASSERT_EQ(got_xadj.size(), xadj.size());
  EXPECT_TRUE(std::equal(xadj.begin(), xadj.end(), got_xadj.begin()));
  const auto got_adj = reader.next_section<std::uint32_t>();
  EXPECT_TRUE(std::equal(adj.begin(), adj.end(), got_adj.begin()));
  EXPECT_EQ(reader.sections_remaining(), 0u);
}

TEST(Blob, EmptySectionsSurvive) {
  BlobWriter writer;
  writer.add_section(std::vector<std::uint32_t>{});
  writer.add_section(std::vector<std::uint64_t>{42});
  const auto blob = writer.take();
  BlobReader reader(blob);
  EXPECT_TRUE(reader.next_section<std::uint32_t>().empty());
  EXPECT_EQ(reader.next_section<std::uint64_t>()[0], 42u);
}

TEST(Blob, TypeMismatchThrows) {
  BlobWriter writer;
  writer.add_section(std::vector<std::uint32_t>{1, 2, 3});
  const auto blob = writer.take();
  BlobReader reader(blob);
  EXPECT_THROW(reader.next_section<std::uint64_t>(), std::runtime_error);
}

TEST(Blob, ExhaustedSectionsThrow) {
  BlobWriter writer;
  writer.add_scalar<int>(1);
  const auto blob = writer.take();
  BlobReader reader(blob);
  (void)reader.next_scalar<int>();
  EXPECT_THROW(reader.next_scalar<int>(), std::runtime_error);
}

TEST(Blob, CorruptHeaderThrows) {
  std::vector<std::byte> garbage(64, std::byte{0x5a});
  EXPECT_THROW(BlobReader{garbage}, std::runtime_error);
  std::vector<std::byte> tiny(4, std::byte{0});
  EXPECT_THROW(BlobReader{tiny}, std::runtime_error);
}

TEST(Blob, WriterResetsAfterTake) {
  BlobWriter writer;
  writer.add_scalar<int>(1);
  (void)writer.take();
  EXPECT_EQ(writer.section_count(), 0u);
  writer.add_scalar<int>(2);
  BlobReader reader_bytes(writer.take());
  EXPECT_EQ(reader_bytes.section_count(), 1u);
}

// --- prefix sums -------------------------------------------------------------

TEST(Prefix, ExclusiveSum) {
  std::vector<int> v = {3, 1, 4, 1, 5};
  EXPECT_EQ(exclusive_prefix_sum(v), 14);
  EXPECT_EQ(v, (std::vector<int>{0, 3, 4, 8, 9}));
}

TEST(Prefix, InclusiveSum) {
  std::vector<int> v = {3, 1, 4};
  EXPECT_EQ(inclusive_prefix_sum(v), 8);
  EXPECT_EQ(v, (std::vector<int>{3, 4, 8}));
}

TEST(Prefix, EmptyVectors) {
  std::vector<int> v;
  EXPECT_EQ(exclusive_prefix_sum(v), 0);
  EXPECT_EQ(inclusive_prefix_sum(v), 0);
}

TEST(Prefix, ShiftRightFillZero) {
  std::vector<int> v = {5, 7, 9};
  shift_right_fill_zero(v);
  EXPECT_EQ(v, (std::vector<int>{0, 5, 7}));
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BoundedStaysInBounds) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.bounded(37), 37u);
  }
}

TEST(Rng, BoundedCoversRange) {
  Xoshiro256 rng(17);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 4000; ++i) ++seen[rng.bounded(8)];
  for (const int count : seen) EXPECT_GT(count, 300);
}

TEST(Rng, StreamSeedsIndependent) {
  EXPECT_NE(stream_seed(1, 0), stream_seed(1, 1));
  EXPECT_NE(stream_seed(1, 0), stream_seed(2, 0));
  EXPECT_EQ(stream_seed(1, 0), stream_seed(1, 0));
}

// --- argparse ------------------------------------------------------------------

TEST(ArgParse, ParsesOptionsAndFlags) {
  ArgParser parser("prog", "test");
  parser.add_option("scale", "14", "rmat scale");
  parser.add_flag("verbose", false, "chatty");
  parser.add_option("ranks", "16,25", "rank list");
  const char* argv[] = {"prog", "--scale", "10", "--verbose",
                        "--ranks=1,4,9"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.get_int("scale"), 10);
  EXPECT_TRUE(parser.get_bool("verbose"));
  EXPECT_EQ(parser.get_int_list("ranks"),
            (std::vector<std::int64_t>{1, 4, 9}));
}

TEST(ArgParse, DefaultsApply) {
  ArgParser parser("prog", "test");
  parser.add_option("scale", "14", "rmat scale");
  parser.add_flag("quiet", true, "quiet");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get_int("scale"), 14);
  EXPECT_TRUE(parser.get_bool("quiet"));
}

TEST(ArgParse, NegatedFlag) {
  ArgParser parser("prog", "test");
  parser.add_flag("blob", true, "blob comm");
  const char* argv[] = {"prog", "--no-blob"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_FALSE(parser.get_bool("blob"));
}

TEST(ArgParse, UnknownOptionFails) {
  ArgParser parser("prog", "test");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(parser.parse(3, argv));
  EXPECT_TRUE(parser.parse_failed());
  EXPECT_FALSE(parser.help_requested());
}

TEST(ArgParse, HelpIsNotAFailure) {
  ArgParser parser("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(parser.parse(2, argv));
  EXPECT_TRUE(parser.help_requested());
  EXPECT_FALSE(parser.parse_failed());

  ArgParser short_form("prog", "test");
  const char* argv_h[] = {"prog", "-h"};
  EXPECT_FALSE(short_form.parse(2, argv_h));
  EXPECT_TRUE(short_form.help_requested());
  EXPECT_FALSE(short_form.parse_failed());
}

TEST(ArgParse, UnregisteredGetThrows) {
  ArgParser parser("prog", "test");
  EXPECT_THROW(parser.get("nope"), std::invalid_argument);
}

// --- table ---------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.row().cell("alpha").cell(std::int64_t{42});
  table.row().cell("b").cell(3.14159, 2);
  table.row().cell("c").dash();
  const std::string out = table.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find('-'), std::string::npos);
  EXPECT_EQ(table.row_count(), 3u);
}

TEST(Table, WritesCsvWithQuoting) {
  Table table({"name", "note"});
  table.row().cell("plain").cell("with, comma");
  table.row().cell("quote\"inside").cell(std::int64_t{5});
  const std::string path = "/tmp/tricount_table_test.csv";
  table.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,note");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,\"with, comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"quote\"\"inside\",5");
  // Append mode adds rows without re-emitting the header.
  table.write_csv(path, /*append=*/true);
  std::ifstream again(path);
  int lines = 0;
  while (std::getline(again, line)) ++lines;
  EXPECT_EQ(lines, 5);
  std::remove(path.c_str());
}

TEST(Table, CsvBadPathThrows) {
  Table table({"a"});
  EXPECT_THROW(table.write_csv("/nonexistent_dir_xyz/out.csv"),
               std::runtime_error);
}

// --- stats ----------------------------------------------------------------------

TEST(Stats, LoadImbalance) {
  const std::vector<double> even = {1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(load_imbalance<double>(even), 1.0);
  const std::vector<double> skew = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(load_imbalance<double>(skew), 1.5);
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(load_imbalance<double>(empty), 1.0);
}

TEST(Stats, MeanMaxMin) {
  const std::vector<int> v = {4, 7, 1};
  EXPECT_DOUBLE_EQ(mean<int>(v), 4.0);
  EXPECT_EQ(max_value<int>(v), 7);
  EXPECT_EQ(min_value<int>(v), 1);
}

// --- cost model ------------------------------------------------------------------

TEST(CostModel, LinearInMessagesAndBytes) {
  AlphaBetaModel model;
  model.alpha_seconds = 1e-6;
  model.beta_seconds_per_byte = 1e-9;
  EXPECT_DOUBLE_EQ(model.cost(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(model.cost(10, 0), 1e-5);
  EXPECT_DOUBLE_EQ(model.cost(0, 1000), 1e-6);
  EXPECT_DOUBLE_EQ(model.cost(10, 1000), 1.1e-5);
}

TEST(CostModel, ParsesSpecString) {
  const AlphaBetaModel model = AlphaBetaModel::from_string("2e-6,4e-10");
  EXPECT_DOUBLE_EQ(model.alpha_seconds, 2e-6);
  EXPECT_DOUBLE_EQ(model.beta_seconds_per_byte, 4e-10);
  // Null spec (option not given) keeps the defaults.
  const AlphaBetaModel defaults = AlphaBetaModel::from_string(nullptr);
  EXPECT_GT(defaults.alpha_seconds, 0.0);
}

TEST(CostModel, RejectsMalformedSpec) {
  EXPECT_THROW(AlphaBetaModel::from_string("garbage"), std::invalid_argument);
  // sscanf would happily stop at the trailing junk; we must not.
  EXPECT_THROW(AlphaBetaModel::from_string("1e-6,2e-10junk"),
               std::invalid_argument);
  EXPECT_THROW(AlphaBetaModel::from_string("1e-6"), std::invalid_argument);
  EXPECT_THROW(AlphaBetaModel::from_string("-1e-6,2e-10"),
               std::invalid_argument);
  EXPECT_THROW(AlphaBetaModel::from_string(""), std::invalid_argument);
}

// --- time ------------------------------------------------------------------------

TEST(Time, StopwatchAccumulates) {
  Stopwatch watch(Stopwatch::Clock::kThreadCpu);
  watch.start();
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + 1.0;
  const double interval = watch.stop();
  EXPECT_GT(interval, 0.0);
  EXPECT_GE(watch.seconds(), interval * 0.99);
  watch.reset();
  EXPECT_DOUBLE_EQ(watch.seconds(), 0.0);
}

TEST(Time, ThreadCpuClockIsPerThread) {
  // A sleeping sibling thread must accumulate (almost) no CPU time.
  double sibling_cpu = 1.0;
  std::thread t([&] {
    const double before = thread_cpu_seconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    sibling_cpu = thread_cpu_seconds() - before;
  });
  t.join();
  EXPECT_LT(sibling_cpu, 0.02);
}

TEST(Time, FormatSeconds) {
  EXPECT_NE(format_seconds(2.5).find("s"), std::string::npos);
  EXPECT_NE(format_seconds(0.002).find("ms"), std::string::npos);
  EXPECT_NE(format_seconds(2e-6).find("us"), std::string::npos);
  EXPECT_NE(format_seconds(2e-9).find("ns"), std::string::npos);
}

}  // namespace
}  // namespace tricount::util
