// Graph file I/O round-trip and error-handling tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "tricount/graph/generators.hpp"
#include "tricount/graph/io.hpp"
#include "tricount/graph/serial_count.hpp"

namespace tricount::graph {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tricount_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Writes `text` to the file `name` and returns its path.
  std::string write(const std::string& name, const std::string& text) const {
    std::ofstream(path(name)) << text;
    return path(name);
  }

  /// Writes `g` as a binary graph file whose header then claims `n`
  /// vertices and `m` edges, and returns its path.
  std::string write_binary_claiming(const std::string& name, const EdgeList& g,
                                    std::uint64_t n, std::uint64_t m) const {
    write_binary(g, path(name));
    std::fstream f(path(name), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);  // past the magic word
    f.write(reinterpret_cast<const char*>(&n), sizeof n);
    f.write(reinterpret_cast<const char*>(&m), sizeof m);
    return path(name);
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, EdgeListRoundTrip) {
  const EdgeList g = simplify(rmat([] {
    RmatParams p;
    p.scale = 7;
    p.edge_factor = 4;
    p.seed = 1;
    return p;
  }()));
  write_edge_list(g, path("g.txt"));
  const EdgeList r = read_edge_list(path("g.txt"));
  EXPECT_EQ(r.num_vertices, g.num_vertices);
  EXPECT_EQ(simplify(r).edges, g.edges);
}

TEST_F(IoTest, EdgeListCommentsAndHeader) {
  {
    std::ofstream out(path("c.txt"));
    out << "# a comment\n#n 10\n% another comment\n0 3\n\n3 7\n";
  }
  const EdgeList g = read_edge_list(path("c.txt"));
  EXPECT_EQ(g.num_vertices, 10u);
  ASSERT_EQ(g.edges.size(), 2u);
  EXPECT_EQ(g.edges[0], (Edge{0, 3}));
}

TEST_F(IoTest, EdgeListWithoutHeaderInfersVertexCount) {
  {
    std::ofstream out(path("nh.txt"));
    out << "0 5\n2 3\n";
  }
  EXPECT_EQ(read_edge_list(path("nh.txt")).num_vertices, 6u);
}

TEST_F(IoTest, EdgeListMalformedThrows) {
  {
    std::ofstream out(path("bad.txt"));
    out << "0 not_a_number\n";
  }
  EXPECT_THROW(read_edge_list(path("bad.txt")), std::runtime_error);
  EXPECT_THROW(read_edge_list(path("missing.txt")), std::runtime_error);
}

TEST_F(IoTest, MatrixMarketRoundTrip) {
  const EdgeList g = simplify(watts_strogatz(50, 4, 0.3, 2));
  write_matrix_market(g, path("g.mtx"));
  const EdgeList r = simplify(read_matrix_market(path("g.mtx")));
  EXPECT_EQ(r.edges, g.edges);
  // Triangle counts survive the round trip.
  EXPECT_EQ(count_triangles_serial(Csr::from_edges(r)),
            count_triangles_serial(Csr::from_edges(g)));
}

TEST_F(IoTest, MatrixMarketRejectsMissingBanner) {
  {
    std::ofstream out(path("nob.mtx"));
    out << "3 3 1\n1 2\n";
  }
  EXPECT_THROW(read_matrix_market(path("nob.mtx")), std::runtime_error);
}

TEST_F(IoTest, MatrixMarketRejectsZeroBasedIndices) {
  {
    std::ofstream out(path("zero.mtx"));
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n0 1\n";
  }
  EXPECT_THROW(read_matrix_market(path("zero.mtx")), std::runtime_error);
}

TEST_F(IoTest, BinaryRoundTrip) {
  const EdgeList g = simplify(erdos_renyi(80, 300, 6));
  write_binary(g, path("g.bin"));
  const EdgeList r = read_binary(path("g.bin"));
  EXPECT_EQ(r.num_vertices, g.num_vertices);
  EXPECT_EQ(r.edges, g.edges);
}

TEST_F(IoTest, BinaryRejectsCorruptHeader) {
  {
    std::ofstream out(path("junk.bin"), std::ios::binary);
    out << "definitely not a graph";
  }
  EXPECT_THROW(read_binary(path("junk.bin")), std::runtime_error);
}

TEST_F(IoTest, BinaryRejectsTruncation) {
  const EdgeList g = simplify(complete_graph(10));
  write_binary(g, path("t.bin"));
  std::filesystem::resize_file(path("t.bin"), 40);
  EXPECT_THROW(read_binary(path("t.bin")), std::runtime_error);
}

// Counts and ids past what a 32-bit VertexId holds must be refused, not
// wrapped; header counts must not size anything the file does not hold.
constexpr std::uint64_t kPast32Bits = (std::uint64_t{1} << 32) + 4;

TEST_F(IoTest, EdgeListRejectsAnIdPast32Bits) {
  EXPECT_THROW(read_edge_list(write("id.txt", "#n 5\n4294967297 2\n")),
               std::runtime_error);
  // The largest id below kInvalidVertex still loads.
  EXPECT_EQ(read_edge_list(write("max.txt", "4294967294 0\n")).num_vertices,
            kInvalidVertex);
}

TEST_F(IoTest, EdgeListRejectsAVertexCountPast32Bits) {
  EXPECT_THROW(read_edge_list(write("n.txt", "#n 4294967300\n1 2\n")),
               std::runtime_error);
}

TEST_F(IoTest, MatrixMarketRejectsAnIndexPast32Bits) {
  EXPECT_THROW(
      read_matrix_market(write(
          "id.mtx",
          "%%MatrixMarket matrix coordinate pattern general\n5 5 1\n"
          "4294967299 2\n")),
      std::runtime_error);
}

TEST_F(IoTest, MatrixMarketRejectsASizePast32Bits) {
  EXPECT_THROW(
      read_matrix_market(write(
          "rows.mtx",
          "%%MatrixMarket matrix coordinate pattern general\n"
          "4294967300 4294967300 1\n3 2\n")),
      std::runtime_error);
}

TEST_F(IoTest, MatrixMarketRejectsAnEntryCountTheFileDoesNotHold) {
  EXPECT_THROW(
      read_matrix_market(write(
          "nnz.mtx",
          "%%MatrixMarket matrix coordinate pattern general\n"
          "3 3 4611686018427387904\n2 1\n")),
      std::runtime_error);
}

TEST_F(IoTest, BinaryRejectsAVertexCountPast32Bits) {
  const EdgeList g{4, {{1, 2}}};
  EXPECT_THROW(read_binary(write_binary_claiming("n.bin", g, kPast32Bits, 1)),
               std::runtime_error);
}

TEST_F(IoTest, BinaryRejectsAnEdgeCountTheFileDoesNotHold) {
  // A 24-byte file (header only) that claims 2^62 edges.
  const std::string file =
      write_binary_claiming("m.bin", EdgeList{4, {}}, 4, std::uint64_t{1} << 62);
  ASSERT_EQ(std::filesystem::file_size(file), 24u);
  EXPECT_THROW(read_binary(file), std::runtime_error);
  // One edge more than the file holds.
  EXPECT_THROW(read_binary(write_binary_claiming(
                   "m1.bin", EdgeList{4, {{1, 2}}}, 4, 2)),
               std::runtime_error);
}

TEST_F(IoTest, ReadGraphDispatchesOnTheSuffix) {
  const EdgeList g = simplify(complete_graph(5));
  write_matrix_market(g, path("g.mtx"));
  write_binary(g, path("g.bin"));
  write_edge_list(g, path("g.txt"));
  for (const char* name : {"g.mtx", "g.bin", "g.txt"}) {
    const EdgeList r = simplify(read_graph(path(name)));
    EXPECT_EQ(r.num_vertices, 5u) << name;
    EXPECT_EQ(r.edges, g.edges) << name;
  }
}

TEST_F(IoTest, EmptyGraphRoundTripsEverywhere) {
  EdgeList g;
  g.num_vertices = 4;
  write_edge_list(g, path("e.txt"));
  EXPECT_EQ(read_edge_list(path("e.txt")).num_vertices, 4u);
  write_matrix_market(g, path("e.mtx"));
  EXPECT_EQ(read_matrix_market(path("e.mtx")).edges.size(), 0u);
  write_binary(g, path("e.bin"));
  EXPECT_EQ(read_binary(path("e.bin")).num_vertices, 4u);
}

}  // namespace
}  // namespace tricount::graph
