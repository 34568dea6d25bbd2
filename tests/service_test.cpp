// Resident-service suite (`ctest -L service`): wire protocol, typed
// bad_params answers for mistyped or unreadable parameters, hardened
// JSON parsing (seeded fuzz), admission/backpressure, the versioned LRU
// result cache, batched-vs-unbatched byte equivalence, the
// served-equals-library equivalence corpus (every verb, before and after
// graph.apply), once-per-version resident builds, self-healing after a
// failed rank (with a seeded failure campaign), the warm-vs-cold
// speedup acceptance gate, graceful-shutdown signal handling, and the
// session trace's lint.
//
// Services here run with manual_dispatch: submit() parses and admits,
// the test thread drives dispatch_once()/drain(), and every response
// lands in a plain vector — no dispatcher thread, fully deterministic.
// The exception, ServiceConcurrency, runs a real dispatcher thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "test_corpus.hpp"
#include "test_seed.hpp"
#include "tricount/cetric/cetric.hpp"
#include "tricount/core/dist_truss.hpp"
#include "tricount/core/per_vertex.hpp"
#include "tricount/core/summa2d.hpp"
#include "tricount/graph/approx.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/graph/io.hpp"
#include "tricount/graph/ktruss.hpp"
#include "tricount/obs/graceful.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/obs/trace.hpp"
#include "tricount/service/service.hpp"
#include "tricount/util/rng.hpp"
#include "tricount/util/time.hpp"

namespace tricount {
namespace {

using obs::json::ParseError;
using obs::json::ParseLimits;
using obs::json::Value;

/// A service plus a response log, for driving sessions in tests.
struct Harness {
  explicit Harness(service::ServiceOptions options = {})
      : svc(
            [&options] {
              options.manual_dispatch = true;
              return options;
            }(),
            [this](const std::string& line) { responses.push_back(line); }) {}

  /// Submits one request line and drains the queue.
  const std::string& ask(const std::string& line) {
    svc.submit(line);
    svc.drain();
    return responses.back();
  }

  /// Parses a response and returns the `result` object (asserting ok).
  Value result(const std::string& line) {
    Value doc = Value::parse(line);
    EXPECT_TRUE(doc.get("ok").as_bool()) << line;
    return doc;
  }

  std::vector<std::string> responses;
  service::Service svc;
};

std::string count_request(std::uint64_t id, const std::string& algo,
                          const std::string& extra = "") {
  return "{\"id\":" + std::to_string(id) +
         ",\"verb\":\"count\",\"params\":{\"algo\":\"" + algo + "\"" + extra +
         "}}";
}

graph::TriangleCount served_triangles(Harness& h, const std::string& line) {
  Value doc = h.result(h.ask(line));
  return static_cast<graph::TriangleCount>(
      doc.get("result").get("triangles").as_uint());
}

std::filesystem::path scratch_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tricount_service_test_" + std::string(tag));
  std::filesystem::create_directories(dir);
  return dir;
}

// --- wire protocol -------------------------------------------------------

TEST(ServiceProtocol, EnvelopeValidation) {
  const service::WireLimits limits;
  EXPECT_FALSE(service::parse_request("not json", limits).ok);
  EXPECT_FALSE(service::parse_request("[1,2]", limits).ok);
  EXPECT_FALSE(service::parse_request("{\"verb\":\"x\"}", limits).ok);
  EXPECT_FALSE(
      service::parse_request("{\"id\":-1,\"verb\":\"x\"}", limits).ok);
  EXPECT_FALSE(
      service::parse_request("{\"id\":1.5,\"verb\":\"x\"}", limits).ok);
  // Past 2^64 the id has no uint64 value; rejected, not thrown.
  EXPECT_FALSE(
      service::parse_request("{\"id\":1e20,\"verb\":\"x\"}", limits).ok);
  EXPECT_FALSE(service::parse_request("{\"id\":1}", limits).ok);
  EXPECT_FALSE(
      service::parse_request("{\"id\":1,\"verb\":\"x\",\"params\":3}", limits)
          .ok);

  const auto ok =
      service::parse_request("{\"id\":7,\"verb\":\"count\"}", limits);
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.request.id, 7u);
  EXPECT_EQ(ok.request.verb, "count");
  EXPECT_EQ(ok.request.canonical_params, "{}");
}

TEST(ServiceProtocol, CanonicalParamsIgnoreKeyOrder) {
  const service::WireLimits limits;
  const auto a = service::parse_request(
      "{\"id\":1,\"verb\":\"count\",\"params\":{\"algo\":\"2d\","
      "\"overlap\":true}}",
      limits);
  const auto b = service::parse_request(
      "{\"id\":2,\"verb\":\"count\",\"params\":{\"overlap\":true,"
      "\"algo\":\"2d\"}}",
      limits);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.request.canonical_params, b.request.canonical_params);
}

TEST(ServiceProtocol, CanonicalParamsNormalizeNumericSpellings) {
  // Numerically equal params must canonicalize to the SAME key bytes no
  // matter how the client spelled them — `1`, `1.0`, `1e0`, `1.000` are
  // one number, and a cache keyed on the lexeme would fragment (cold
  // recomputes for warm queries) or, worse, split hit accounting across
  // aliases. Locked here at the protocol layer.
  const service::WireLimits limits;
  const auto canonical = [&](const std::string& lexeme) {
    const auto out = service::parse_request(
        "{\"id\":1,\"verb\":\"count\",\"params\":{\"q\":" + lexeme + "}}",
        limits);
    EXPECT_TRUE(out.ok) << lexeme;
    return out.request.canonical_params;
  };
  const std::string one = canonical("1");
  EXPECT_EQ(canonical("1.0"), one);
  EXPECT_EQ(canonical("1e0"), one);
  EXPECT_EQ(canonical("1.000"), one);
  EXPECT_EQ(canonical("10e-1"), one);
  const std::string half = canonical("0.5");
  EXPECT_EQ(canonical("5e-1"), half);
  EXPECT_EQ(canonical("0.50"), half);
  EXPECT_NE(half, one);
  // Distinct numbers must stay distinct even when they round-print alike.
  EXPECT_NE(canonical("2"), one);
}

TEST(ServiceProtocol, TypedLimitErrors) {
  service::WireLimits limits;
  limits.max_bytes = 64;
  limits.max_depth = 4;

  const std::string big = "{\"id\":1,\"verb\":\"count\",\"params\":{\"pad\":\"" +
                          std::string(100, 'x') + "\"}}";
  auto out = service::parse_request(big, limits);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.error, service::ErrorCode::kTooLarge);

  out = service::parse_request(
      "{\"id\":1,\"verb\":\"x\",\"params\":{\"a\":[[[1]]]}}", limits);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.error, service::ErrorCode::kTooDeep);

  out = service::parse_request("{\"id\":1,\"verb\":\"x\",\"par", limits);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.error, service::ErrorCode::kTruncated);
}

// --- hardened JSON parsing (satellite: obs/json) -------------------------

TEST(ServiceJsonHardening, LimitsAreTyped) {
  ParseLimits limits;
  limits.max_bytes = 32;
  try {
    Value::parse(std::string(64, ' ') + "1", limits);
    FAIL() << "oversized document accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.kind(), ParseError::Kind::kTooLarge);
  }

  limits = ParseLimits{};
  limits.max_depth = 3;
  try {
    Value::parse("[[[[1]]]]", limits);
    FAIL() << "over-deep document accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.kind(), ParseError::Kind::kTooDeep);
  }
  // At the limit is fine.
  EXPECT_NO_THROW(Value::parse("[[[1]]]", limits));

  try {
    Value::parse("{\"a\": \"unterminated", ParseLimits{});
    FAIL() << "truncated document accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.kind(), ParseError::Kind::kTruncated);
  }
}

TEST(ServiceJsonHardening, SeededFuzzNeverCrashes) {
  // Three generators — random bytes, truncations of a valid document,
  // and byte mutations of a valid document — under tight limits. The
  // parser must either return a value or throw ParseError; anything
  // else (crash, other exception type) fails the test.
  util::Xoshiro256 rng(test_support::fuzz_seed() ^ 0x5e41ce);
  ParseLimits limits;
  limits.max_bytes = 4096;
  limits.max_depth = 8;
  const std::string seed_doc =
      "{\"id\":12,\"verb\":\"count\",\"params\":{\"algo\":\"2d\","
      "\"list\":[1,2.5,-3,true,false,null,\"s\\u00e9q\"],\"nested\":"
      "{\"a\":{\"b\":[]}}}}";
  const char alphabet[] = "{}[]\",:0123456789.eE+-truefalsnul \\x\t\n";

  auto try_parse = [&](const std::string& text) {
    try {
      (void)Value::parse(text, limits);
    } catch (const ParseError&) {
      // expected failure class
    }
  };

  for (int round = 0; round < 400; ++round) {
    std::string doc;
    const std::size_t len = rng.bounded(96);
    for (std::size_t i = 0; i < len; ++i) {
      doc += alphabet[rng.bounded(sizeof alphabet - 1)];
    }
    try_parse(doc);
  }
  for (std::size_t cut = 0; cut <= seed_doc.size(); ++cut) {
    try_parse(seed_doc.substr(0, cut));
  }
  for (int round = 0; round < 400; ++round) {
    std::string doc = seed_doc;
    const int flips = 1 + static_cast<int>(rng.bounded(4));
    for (int f = 0; f < flips; ++f) {
      doc[rng.bounded(doc.size())] =
          static_cast<char>(32 + rng.bounded(95));
    }
    try_parse(doc);
  }
}

// --- result cache --------------------------------------------------------

TEST(ServiceCache, LruAccounting) {
  service::ResultCache cache(2);
  const std::string a = service::ResultCache::key(1, "count", "{}");
  const std::string b = service::ResultCache::key(1, "count", "{\"x\":1}");
  const std::string c = service::ResultCache::key(2, "count", "{}");
  EXPECT_NE(a, c) << "graph version must be part of the key";

  EXPECT_FALSE(cache.get(a).has_value());
  cache.put(a, "ra");
  cache.put(b, "rb");
  ASSERT_TRUE(cache.get(a).has_value());  // a is now MRU
  cache.put(c, "rc");                     // evicts b (LRU)
  EXPECT_FALSE(cache.get(b).has_value());
  EXPECT_EQ(cache.get(a).value_or(""), "ra");
  EXPECT_EQ(cache.get(c).value_or(""), "rc");

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);

  cache.invalidate_all();
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(ServiceCache, CapacityZeroDisables) {
  service::ResultCache cache(0);
  cache.put("k", "v");
  EXPECT_FALSE(cache.get("k").has_value());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

// --- admission queue -----------------------------------------------------

TEST(ServiceAdmission, BoundedQueueSheds) {
  service::AdmissionQueue queue(2);
  service::Pending pending;
  EXPECT_TRUE(queue.try_push(pending));
  EXPECT_TRUE(queue.try_push(pending));
  EXPECT_FALSE(queue.try_push(pending)) << "third push must shed";
  EXPECT_EQ(queue.stats().admitted, 2u);
  EXPECT_EQ(queue.stats().shed, 1u);
  EXPECT_EQ(queue.stats().max_depth, 2u);

  EXPECT_EQ(queue.pop_batch(8).size(), 2u);
  EXPECT_TRUE(queue.try_push(pending)) << "space again after the pop";
  queue.stop();
  EXPECT_FALSE(queue.try_push(pending)) << "stopped queue refuses";
  EXPECT_EQ(queue.pop_batch(8).size(), 1u) << "backlog drains after stop";
  EXPECT_TRUE(queue.pop_batch(8).empty()) << "stopped and drained";
}

TEST(ServiceAdmission, ServiceShedsWithTypedError) {
  service::ServiceOptions options;
  options.ranks = 1;
  options.queue_depth = 2;
  Harness h(options);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    h.svc.submit("{\"id\":" + std::to_string(id) + ",\"verb\":\"hello\"}");
  }
  // The three rejected lines were answered inline, before any dispatch.
  ASSERT_EQ(h.responses.size(), 3u);
  for (const std::string& line : h.responses) {
    Value doc = Value::parse(line);
    EXPECT_FALSE(doc.get("ok").as_bool());
    EXPECT_EQ(doc.get("error").get("code").as_string(), "shed");
  }
  h.svc.drain();
  EXPECT_EQ(h.responses.size(), 5u);

  const auto counters = h.svc.counters();
  EXPECT_EQ(counters.requests, 5u);
  EXPECT_EQ(counters.admitted, 2u);
  EXPECT_EQ(counters.shed, 3u);
}

// --- cache behaviour through the service ---------------------------------

TEST(ServiceCacheFlow, HitSkipsCountingAndVersionBumpInvalidates) {
  Harness h;
  h.svc.load_graph(test_support::corpus()[0].graph, "corpus0");
  const graph::TriangleCount expected = test_support::corpus()[0].expected;
  EXPECT_EQ(h.svc.graph_version(), 1u);

  const std::uint64_t jobs_before = h.svc.jobs_run();
  EXPECT_EQ(served_triangles(h, count_request(1, "2d")), expected);
  EXPECT_GT(h.svc.jobs_run(), jobs_before) << "miss must run a job";

  // Same query again: a cache hit — byte-identical except the id, no
  // SPMD job, and the record reports zero counting supersteps.
  const std::uint64_t jobs_after_miss = h.svc.jobs_run();
  EXPECT_EQ(served_triangles(h, count_request(2, "2d")), expected);
  EXPECT_EQ(h.svc.jobs_run(), jobs_after_miss)
      << "cache hit must not run a counting job";
  EXPECT_EQ(h.svc.cache_stats().hits, 1u);
  const service::RequestRecord& hit = h.svc.records().back();
  EXPECT_EQ(hit.cache, "hit");
  EXPECT_EQ(hit.supersteps, 0u)
      << "a cache hit answers without any counting superstep";

  // Reloading the graph bumps the version and invalidates: the same
  // query is a miss again even though the bytes would still be right.
  h.svc.load_graph(test_support::corpus()[0].graph, "corpus0");
  EXPECT_EQ(h.svc.graph_version(), 2u);
  EXPECT_GE(h.svc.cache_stats().invalidations, 1u);
  EXPECT_EQ(served_triangles(h, count_request(3, "2d")), expected);
  EXPECT_EQ(h.svc.records().back().cache, "miss");
  EXPECT_EQ(h.svc.cache_stats().hits, 1u) << "no hit across versions";
}

TEST(ServiceCacheFlow, EvictionPastCapacity) {
  service::ServiceOptions options;
  options.cache_capacity = 2;
  Harness h(options);
  h.svc.load_graph(test_support::corpus()[1].graph, "corpus1");

  served_triangles(h, count_request(1, "2d"));
  served_triangles(h, count_request(1, "2d", ",\"kernel\":\"merge\""));
  served_triangles(h, count_request(1, "2d", ",\"kernel\":\"hash\""));
  EXPECT_EQ(h.svc.cache_stats().evictions, 1u);
  // The first (LRU) entry is gone: asking again is a miss, not a hit.
  served_triangles(h, count_request(2, "2d"));
  EXPECT_EQ(h.svc.records().back().cache, "miss");
}

TEST(ServiceCacheFlow, GraphSwapVerbBumpsVersion) {
  Harness h;
  Value doc = h.result(h.ask(
      "{\"id\":1,\"verb\":\"graph.load\",\"params\":{\"generate\":"
      "{\"type\":\"ws\",\"n\":64,\"k\":6,\"beta\":0.1,\"seed\":3}}}"));
  EXPECT_EQ(doc.get("result").get("graph_version").as_uint(), 1u);
  const graph::TriangleCount first = served_triangles(h, count_request(2, "2d"));
  EXPECT_GT(first, 0u);

  doc = h.result(h.ask(
      "{\"id\":3,\"verb\":\"graph.swap\",\"params\":{\"generate\":"
      "{\"type\":\"er\",\"n\":128,\"edges\":512,\"seed\":9}}}"));
  EXPECT_EQ(doc.get("result").get("graph_version").as_uint(), 2u);
  EXPECT_EQ(h.svc.graph_version(), 2u);
  served_triangles(h, count_request(4, "2d"));
  EXPECT_EQ(h.svc.records().back().cache, "miss")
      << "swap must invalidate the old graph's entries";
}

TEST(ServiceCacheFlow, NumericSpellingsShareCacheEntries) {
  // Service-level face of the canonicalization regression: the same
  // approx query spelled with different numeric lexemes is ONE cache
  // entry — the 2nd..4th spellings all hit.
  Harness h;
  h.svc.load_graph(test_support::corpus()[0].graph, "corpus0");
  const auto approx = [](std::uint64_t id, const std::string& retention,
                         const std::string& seed) {
    return "{\"id\":" + std::to_string(id) +
           ",\"verb\":\"approx\",\"params\":{\"retention\":" + retention +
           ",\"seed\":" + seed + "}}";
  };
  h.result(h.ask(approx(1, "0.5", "7")));
  h.result(h.ask(approx(2, "5e-1", "7")));
  h.result(h.ask(approx(3, "0.50", "7.0")));
  h.result(h.ask(approx(4, "0.5", "7e0")));
  EXPECT_EQ(h.svc.cache_stats().hits, 3u)
      << "numerically equal params must share one cache entry";
  EXPECT_EQ(h.svc.cache_stats().size, 1u);
}

TEST(ServiceCacheFlow, SwapInsideBatchSkipsCacheForStaleAdmissions) {
  // A graph.swap queued AHEAD of an already-admitted count: the count
  // was admitted against the old version but executes against the new
  // graph. It must bypass the cache entirely (no stale hit, no put under
  // a mismatched key) and still serve the NEW graph's number.
  Harness h;
  const graph::EdgeList a = graph::watts_strogatz(64, 6, 0.1, 3);
  h.svc.load_graph(a, "ws64");
  const graph::TriangleCount t_a = served_triangles(h, count_request(1, "2d"));

  // Queue [count, swap, count] as ONE drained batch: both counts are
  // admitted at v1; the second executes at v2.
  h.svc.submit(count_request(2, "2d"));
  h.svc.submit(
      "{\"id\":3,\"verb\":\"graph.swap\",\"params\":{\"generate\":"
      "{\"type\":\"er\",\"n\":128,\"edges\":512,\"seed\":9}}}");
  h.svc.submit(count_request(4, "2d"));
  h.svc.drain();

  const graph::EdgeList b = graph::erdos_renyi(128, 512, 9);
  const graph::TriangleCount t_b =
      graph::count_triangles_serial(graph::Csr::from_edges(b));
  ASSERT_NE(t_a, t_b) << "test graphs must disagree to detect staleness";

  const auto& records = h.svc.records();
  ASSERT_GE(records.size(), 3u);
  const service::RequestRecord& stale_hit = records[records.size() - 3];
  const service::RequestRecord& skewed = records.back();
  EXPECT_EQ(stale_hit.id, 2u);
  EXPECT_EQ(stale_hit.cache, "hit") << "pre-swap count still matches v1";
  EXPECT_EQ(skewed.id, 4u);
  EXPECT_EQ(skewed.cache, "none")
      << "a version-skewed request must not touch the cache";
  Value last = Value::parse(h.responses.back());
  EXPECT_TRUE(last.get("ok").as_bool());
  EXPECT_EQ(last.get("result").get("triangles").as_uint(), t_b)
      << "the skewed count must serve the NEW graph's triangles";

  // The skewed execution must not have poisoned either version's key:
  // the next same-shape query is a clean miss, then a clean hit.
  EXPECT_EQ(served_triangles(h, count_request(5, "2d")), t_b);
  EXPECT_EQ(h.svc.records().back().cache, "miss");
  EXPECT_EQ(served_triangles(h, count_request(6, "2d")), t_b);
  EXPECT_EQ(h.svc.records().back().cache, "hit");
}

TEST(ServiceCacheFlow, SwapUnderLoadNeverServesStaleCounts) {
  // Concurrent regression for the same race: one thread streams count
  // requests while the driving thread interleaves graph.swap requests
  // between two graphs with different triangle totals. Every served
  // count must be one of the two true totals, version-skewed requests
  // bypass the cache, and after the dust settles a fresh count serves
  // exactly the final graph's number.
  Harness h;
  const graph::EdgeList a = graph::watts_strogatz(64, 6, 0.1, 3);
  const graph::EdgeList b = graph::erdos_renyi(128, 512, 9);
  const graph::TriangleCount t_a =
      graph::count_triangles_serial(graph::Csr::from_edges(a));
  const graph::TriangleCount t_b =
      graph::count_triangles_serial(graph::Csr::from_edges(b));
  ASSERT_NE(t_a, t_b);
  h.svc.load_graph(a, "ws64");

  // submit() is thread-safe; all execution stays on this thread via
  // drain(), so the response log needs no locking.
  std::thread counter([&h] {
    for (std::uint64_t id = 100; id < 140; ++id) {
      h.svc.submit(count_request(id, "2d"));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const char* specs[2] = {
      "{\"type\":\"er\",\"n\":128,\"edges\":512,\"seed\":9}",
      "{\"type\":\"ws\",\"n\":64,\"k\":6,\"beta\":0.1,\"seed\":3}"};
  for (int swap = 0; swap < 10; ++swap) {
    h.svc.submit("{\"id\":" + std::to_string(swap + 1) +
                 ",\"verb\":\"graph.swap\",\"params\":{\"generate\":" +
                 specs[swap % 2] + "}}");
    h.svc.drain();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  counter.join();
  h.svc.drain();

  std::size_t shed = 0;
  for (const std::string& line : h.responses) {
    Value doc = Value::parse(line);
    if (!doc.get("ok").as_bool()) {
      ++shed;  // backpressure under load is fine; staleness is not
      continue;
    }
    if (doc.get("id").as_uint() < 100) continue;  // swap responses
    const graph::TriangleCount served = static_cast<graph::TriangleCount>(
        doc.get("result").get("triangles").as_uint());
    EXPECT_TRUE(served == t_a || served == t_b)
        << "served " << served << ", expected " << t_a << " or " << t_b;
  }
  EXPECT_LT(shed, h.responses.size()) << "some requests must have served";

  // Final state: ws graph (last swap used specs[1]); a fresh count must
  // serve its exact total, never a stale cached one.
  EXPECT_EQ(served_triangles(h, count_request(999, "2d")), t_a);
}

// --- batching ------------------------------------------------------------

std::map<std::uint64_t, std::string> run_session(
    service::ServiceOptions options, const std::vector<std::string>& lines) {
  Harness h(options);
  h.svc.load_graph(test_support::corpus()[2].graph, "corpus2");
  for (const std::string& line : lines) h.svc.submit(line);
  h.svc.drain();
  std::map<std::uint64_t, std::string> by_id;
  for (const std::string& line : h.responses) {
    by_id[Value::parse(line).get("id").as_uint()] = line;
  }
  return by_id;
}

TEST(ServiceBatching, BatchedAndUnbatchedBytesIdentical) {
  // The same session through a coalescing service (all requests land in
  // one sweep) and a strictly serial one (max_batch 1): every response
  // must be byte-identical. Runs once with the cache on (duplicates are
  // hits) and once with it off (duplicates coalesce within the batch) —
  // the wire bytes must not depend on either knob.
  std::vector<std::string> lines;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    lines.push_back(count_request(id, "2d"));
  }
  lines.push_back(count_request(5, "cetric"));
  lines.push_back(count_request(6, "2d", ",\"kernel\":\"merge\""));
  lines.push_back(
      "{\"id\":7,\"verb\":\"approx\",\"params\":{\"retention\":0.5,"
      "\"seed\":11}}");
  lines.push_back("{\"id\":8,\"verb\":\"clustering\"}");
  lines.push_back("{\"id\":9,\"verb\":\"bogus\"}");

  for (const std::size_t cache_capacity : {std::size_t{128}, std::size_t{0}}) {
    service::ServiceOptions batched;
    batched.cache_capacity = cache_capacity;
    batched.max_batch = lines.size();
    service::ServiceOptions serial = batched;
    serial.max_batch = 1;

    const auto a = run_session(batched, lines);
    const auto b = run_session(serial, lines);
    ASSERT_EQ(a.size(), lines.size());
    ASSERT_EQ(b.size(), lines.size());
    for (const auto& [id, line] : a) {
      EXPECT_EQ(line, b.at(id))
          << "response bytes diverge for id=" << id
          << " cache_capacity=" << cache_capacity;
    }
  }
}

TEST(ServiceBatching, CoalescedDuplicatesSkipRecount) {
  // Cache off: duplicates within one sweep still compute once.
  service::ServiceOptions options;
  options.cache_capacity = 0;
  options.max_batch = 8;
  Harness h(options);
  h.svc.load_graph(test_support::corpus()[3].graph, "corpus3");
  const std::uint64_t jobs_before = h.svc.jobs_run();
  for (std::uint64_t id = 1; id <= 4; ++id) {
    h.svc.submit(count_request(id, "2d"));
  }
  h.svc.drain();
  EXPECT_EQ(h.svc.jobs_run(), jobs_before + 1)
      << "four identical queries in one sweep must count once";
  std::size_t coalesced = 0;
  for (const auto& row : h.svc.records()) {
    if (row.cache == "coalesced") {
      ++coalesced;
      EXPECT_EQ(row.supersteps, 0u);
    }
  }
  EXPECT_EQ(coalesced, 3u);
}

// --- typed parameter errors ----------------------------------------------

/// Asks `request` and requires a bad_params answer whose message names
/// `mentions`.
void expect_bad_params(Harness& h, const std::string& request,
                       const std::string& mentions) {
  const Value doc = Value::parse(h.ask(request));
  EXPECT_FALSE(doc.get("ok").as_bool()) << request;
  const Value* error = doc.find("error");
  ASSERT_NE(error, nullptr) << request;
  EXPECT_EQ(error->get("code").as_string(), "bad_params") << request;
  EXPECT_NE(error->get("message").as_string().find(mentions),
            std::string::npos)
      << request << " -> " << error->get("message").as_string();
}

/// A harness with a small corpus graph loaded.
struct LoadedHarness : Harness {
  LoadedHarness() { svc.load_graph(test_support::corpus()[0].graph, "g"); }
};

TEST(ServiceTypedParams, CountAlgoMustBeString) {
  LoadedHarness h;
  expect_bad_params(h, R"({"id":1,"verb":"count","params":{"algo":2}})",
                    "'algo'");
}

TEST(ServiceTypedParams, ApproxRetentionMustBeNumber) {
  LoadedHarness h;
  expect_bad_params(
      h, R"({"id":1,"verb":"approx","params":{"retention":"0.5"}})",
      "'retention'");
}

TEST(ServiceTypedParams, GenerateTypeMustBeString) {
  LoadedHarness h;
  const std::uint64_t version = h.svc.graph_version();
  expect_bad_params(
      h, R"({"id":1,"verb":"graph.load","params":{"generate":{"type":7}}})",
      "'type'");
  EXPECT_EQ(h.svc.graph_version(), version);
}

TEST(ServiceTypedParams, GenerateBetaMustBeNumber) {
  LoadedHarness h;
  const std::uint64_t version = h.svc.graph_version();
  expect_bad_params(h,
                    R"({"id":1,"verb":"graph.load","params":{"generate":)"
                    R"({"type":"ws","n":64,"k":4,"beta":"high"}}})",
                    "'beta'");
  EXPECT_EQ(h.svc.graph_version(), version);
}

TEST(ServiceTypedParams, GeneratorParamsOutsideTheGeneratorsDomain) {
  // An odd Watts-Strogatz k and an RMAT scale of 0 both make the
  // generator throw; the verb must refuse them before it runs.
  LoadedHarness h;
  const std::uint64_t version = h.svc.graph_version();
  expect_bad_params(h,
                    R"({"id":1,"verb":"graph.load","params":{"generate":)"
                    R"({"type":"ws","n":64,"k":7}}})",
                    "'k'");
  expect_bad_params(h,
                    R"({"id":2,"verb":"graph.load","params":{"generate":)"
                    R"({"type":"rmat","scale":0}}})",
                    "'scale'");
  EXPECT_EQ(h.svc.graph_version(), version);
}

TEST(ServiceTypedParams, IntegersPastTwoToThe64AreBadParams) {
  // 1e20 has no uint64 value; it must not wrap to a small one (a window
  // of capacity 0 would evict every edge).
  LoadedHarness h;
  const auto stats = [&h] {
    return Value::parse(h.ask(R"({"id":9,"verb":"delta.stats"})"))
        .get("result");
  };
  const Value before = stats();
  expect_bad_params(
      h, R"({"id":1,"verb":"graph.window","params":{"capacity":1e20}})",
      "'capacity'");
  expect_bad_params(h,
                    R"({"id":2,"verb":"pervertex","params":{"top":1e20}})",
                    "'top'");
  const Value after = stats();
  EXPECT_EQ(after.get("num_edges").as_uint(),
            before.get("num_edges").as_uint());
  EXPECT_EQ(after.get("triangles").as_uint(),
            before.get("triangles").as_uint());
  EXPECT_EQ(after.get("graph_version").as_uint(),
            before.get("graph_version").as_uint());
  EXPECT_GT(after.get("num_edges").as_uint(), 0u);
}

TEST(ServiceTypedParams, PervertexIdMustBeInteger) {
  LoadedHarness h;
  expect_bad_params(
      h, R"({"id":1,"verb":"pervertex","params":{"vertices":[1.5]}})",
      "integer");
}

TEST(ServiceTypedParams, UnopenablePathIsBadParams) {
  LoadedHarness h;
  const std::uint64_t version = h.svc.graph_version();
  const std::string path =
      (scratch_dir("typed_params") / "missing.mtx").string();
  std::filesystem::remove(path);
  expect_bad_params(
      h, R"({"id":1,"verb":"graph.load","params":{"path":")" + path + "\"}}",
      "cannot open");
  EXPECT_EQ(h.svc.graph_version(), version);
}

TEST(ServiceTypedParams, UnparsablePathIsBadParams) {
  LoadedHarness h;
  const std::uint64_t version = h.svc.graph_version();
  const std::string path =
      (scratch_dir("typed_params") / "garbled.mtx").string();
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n"
        << "4 4 1\n"
        << "two three\n";
  }
  expect_bad_params(
      h, R"({"id":1,"verb":"graph.load","params":{"path":")" + path + "\"}}",
      "malformed");
  EXPECT_EQ(h.svc.graph_version(), version);
}

TEST(ServiceTypedParams, OutOfRangeEndpointIsBadParams) {
  // A file whose edge names a vertex past its header's count: simplify
  // rejects it, and the graph loaded before stays resident.
  Harness h;
  const std::filesystem::path dir = scratch_dir("typed_params");
  const std::string good = (dir / "k4.bin").string();
  const std::string bad = (dir / "out_of_range.bin").string();
  graph::write_binary(graph::complete_graph(4), good);
  graph::write_binary(graph::EdgeList{4, {{0, 1}, {1, 9}}}, bad);
  const Value loaded = Value::parse(h.ask(
      R"({"id":1,"verb":"graph.load","params":{"path":")" + good + "\"}}"));
  ASSERT_TRUE(loaded.get("ok").as_bool());
  EXPECT_EQ(loaded.get("result").get("num_edges").as_uint(), 6u);
  const std::uint64_t version = h.svc.graph_version();
  expect_bad_params(
      h, R"({"id":2,"verb":"graph.load","params":{"path":")" + bad + "\"}}",
      "out of range");
  EXPECT_EQ(h.svc.graph_version(), version);
  const Value stats =
      Value::parse(h.ask(R"({"id":3,"verb":"delta.stats"})")).get("result");
  EXPECT_EQ(stats.get("graph_version").as_uint(), version);
  EXPECT_EQ(stats.get("num_edges").as_uint(), 6u);
  EXPECT_EQ(stats.get("triangles").as_uint(), 4u);
}

TEST(ServiceTypedParams, GraphFilesPast32BitsAreBadParams) {
  // Files whose counts or ids do not fit a 32-bit VertexId, or whose
  // header claims more entries than the file holds: each is refused, and
  // the graph loaded before stays resident.
  Harness h;
  const std::filesystem::path dir = scratch_dir("past_32_bits");
  const std::string good = (dir / "k4.bin").string();
  graph::write_binary(graph::complete_graph(4), good);
  ASSERT_TRUE(Value::parse(h.ask(R"({"id":1,"verb":"graph.load","params":)"
                                 R"({"path":")" + good + "\"}}"))
                  .get("ok")
                  .as_bool());
  const std::uint64_t version = h.svc.graph_version();

  // A binary file whose header words (after the magic) say n and m.
  const auto binary = [&](const std::string& name, const graph::EdgeList& g,
                          std::uint64_t n, std::uint64_t m) {
    const std::string file = (dir / name).string();
    graph::write_binary(g, file);
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&n), sizeof n);
    f.write(reinterpret_cast<const char*>(&m), sizeof m);
    return file;
  };
  const auto text = [&](const std::string& name, const std::string& body) {
    const std::string file = (dir / name).string();
    std::ofstream(file) << body;
    return file;
  };
  const std::string kBanner =
      "%%MatrixMarket matrix coordinate pattern general\n";
  const std::vector<std::string> files = {
      binary("wide_n.bin", graph::EdgeList{4, {{1, 2}}},
             (std::uint64_t{1} << 32) + 4, 1),
      binary("huge_m.bin", graph::EdgeList{4, {}}, 4, std::uint64_t{1} << 62),
      text("huge_nnz.mtx", kBanner + "3 3 4611686018427387904\n2 1\n"),
      text("wide_rows.mtx", kBanner + "4294967300 4294967300 1\n"
                                      "4294967299 2\n"),
      text("wide_id.txt", "#n 5\n4294967297 2\n"),
  };
  std::uint64_t id = 1;
  for (const std::string& file : files) {
    expect_bad_params(h,
                      R"({"id":)" + std::to_string(++id) +
                          R"(,"verb":"graph.load","params":{"path":")" +
                          file + "\"}}",
                      std::filesystem::path(file).filename().string());
    EXPECT_EQ(h.svc.graph_version(), version) << file;
    const Value stats = Value::parse(h.ask(R"({"id":99,"verb":"delta.stats"})"))
                            .get("result");
    EXPECT_EQ(stats.get("graph_version").as_uint(), version) << file;
    EXPECT_EQ(stats.get("num_edges").as_uint(), 6u) << file;
  }
}

// --- served results equal the library (corpus equivalence) ---------------

TEST(ServiceEquivalence, ServedCountsMatchCorpusAcrossAlgorithms) {
  // Every corpus graph the cross-algorithm matrix already agrees on,
  // served through the wire protocol: 2D Cannon on the resident
  // partition, cetric, and SUMMA, across kernel policies, must all
  // return the serial reference count.
  const char* kKernels[] = {"auto", "merge", "galloping", "bitmap", "hash"};
  for (std::size_t gi = 0; gi < test_support::corpus().size(); ++gi) {
    const auto& entry = test_support::corpus()[gi];
    Harness h;
    h.svc.load_graph(entry.graph, "corpus" + std::to_string(gi));
    std::uint64_t id = 0;
    for (const char* kernel : kKernels) {
      const std::string extra =
          ",\"kernel\":\"" + std::string(kernel) + "\"";
      EXPECT_EQ(served_triangles(h, count_request(++id, "2d", extra)),
                entry.expected)
          << "graph=" << gi << " algo=2d kernel=" << kernel;
    }
    EXPECT_EQ(served_triangles(h, count_request(++id, "cetric")),
              entry.expected)
        << "graph=" << gi << " algo=cetric";
    EXPECT_EQ(served_triangles(h, count_request(++id, "summa")),
              entry.expected)
        << "graph=" << gi << " algo=summa";
    EXPECT_EQ(served_triangles(h, count_request(++id, "2d",
                                                ",\"overlap\":true")),
              entry.expected)
        << "graph=" << gi << " algo=2d overlap";
  }
}

/// Serves every verb against `h`'s current graph and requires each answer
/// to equal the batch library call on `simplified`, the same graph.
void expect_verbs_match_library(Harness& h, const graph::EdgeList& simplified,
                                const std::string& label) {
  const int ranks = h.svc.ranks();
  const graph::TriangleCount expected =
      graph::count_triangles_serial(graph::Csr::from_edges(simplified));
  for (const char* algo : {"2d", "cetric", "summa"}) {
    EXPECT_EQ(served_triangles(h, count_request(1, algo)), expected)
        << label << " algo=" << algo;
  }

  // clustering == clustering_stats_2d
  const core::ClusteringStats stats = core::clustering_stats_2d(simplified, ranks);
  Value doc = h.result(h.ask(R"({"id":2,"verb":"clustering"})"));
  const Value& clustering = doc.get("result");
  EXPECT_EQ(clustering.get("triangles").as_uint(),
            static_cast<std::uint64_t>(stats.triangles)) << label;
  EXPECT_EQ(clustering.get("wedges").as_uint(),
            static_cast<std::uint64_t>(stats.wedges)) << label;
  EXPECT_DOUBLE_EQ(clustering.get("transitivity").as_number(),
                   stats.transitivity) << label;
  EXPECT_DOUBLE_EQ(clustering.get("average_local_clustering").as_number(),
                   stats.average_local_clustering) << label;

  // pervertex over every vertex == count_per_vertex_2d
  const core::PerVertexResult per_vertex =
      core::count_per_vertex_2d(simplified, ranks);
  std::string ids;
  for (graph::VertexId v = 0; v < simplified.num_vertices; ++v) {
    if (v > 0) ids += ',';
    ids += std::to_string(v);
  }
  doc = h.result(h.ask(R"({"id":3,"verb":"pervertex","params":{"vertices":[)" +
                       ids + "]}}"));
  EXPECT_EQ(doc.get("result").get("total_triangles").as_uint(),
            static_cast<std::uint64_t>(per_vertex.total_triangles)) << label;
  const Value& rows = doc.get("result").get("vertices");
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(simplified.num_vertices));
  for (std::size_t v = 0; v < rows.size(); ++v) {
    EXPECT_EQ(rows.at(v).get("triangles").as_uint(),
              static_cast<std::uint64_t>(per_vertex.counts[v]))
        << label << " vertex " << v;
  }

  // support (every edge) == edge_supports_2d
  const std::vector<graph::TriangleCount> supports =
      core::edge_supports_2d(simplified, ranks);
  doc = h.result(h.ask(R"({"id":4,"verb":"support","params":{"top":10000}})"));
  EXPECT_EQ(doc.get("result").get("edges").as_uint(), supports.size());
  const Value& top = doc.get("result").get("top");
  ASSERT_EQ(top.size(), std::min<std::size_t>(10000, supports.size()));
  for (std::size_t i = 0; i < top.size(); ++i) {
    const graph::Edge key{
        static_cast<graph::VertexId>(top.at(i).get("u").as_uint()),
        static_cast<graph::VertexId>(top.at(i).get("v").as_uint())};
    const auto it = std::lower_bound(simplified.edges.begin(),
                                     simplified.edges.end(), key);
    ASSERT_TRUE(it != simplified.edges.end() && *it == key) << label;
    EXPECT_EQ(top.at(i).get("support").as_uint(),
              static_cast<std::uint64_t>(
                  supports[static_cast<std::size_t>(it - simplified.edges.begin())]))
        << label << " edge " << key.u << "-" << key.v;
  }

  // truss == ktruss_2d
  const graph::KtrussResult truss = core::ktruss_2d(simplified, ranks);
  doc = h.result(h.ask(R"({"id":5,"verb":"truss"})"));
  EXPECT_EQ(doc.get("result").get("max_k").as_number(),
            static_cast<double>(truss.max_k)) << label;
  const Value& per_k = doc.get("result").get("per_k");
  ASSERT_EQ(per_k.size(),
            static_cast<std::size_t>(std::max(0, truss.max_k - 2)));
  for (std::size_t i = 0; i < per_k.size(); ++i) {
    const int k = static_cast<int>(i) + 3;
    const auto edges = static_cast<std::uint64_t>(std::count_if(
        truss.trussness.begin(), truss.trussness.end(),
        [k](int t) { return t >= k; }));
    EXPECT_EQ(per_k.at(i).get("edges").as_uint(), edges) << label << " k=" << k;
  }
}

TEST(ServiceEquivalence, EveryVerbMatchesLibraryAcrossCorpus) {
  for (std::size_t gi = 0; gi < test_support::corpus().size(); ++gi) {
    const auto& entry = test_support::corpus()[gi];
    Harness h;
    h.svc.load_graph(entry.graph, "corpus" + std::to_string(gi));
    expect_verbs_match_library(h, graph::simplify(entry.graph),
                               "corpus" + std::to_string(gi));
  }
}

TEST(ServiceEquivalence, EveryVerbMatchesLibraryAfterApply) {
  // Serve every verb (so both resident pieces exist), apply an
  // insert/delete batch, and require every verb to equal the library on
  // the graph after the apply: the stale pieces must be rebuilt.
  for (std::size_t gi = 0; gi < test_support::corpus().size(); ++gi) {
    const std::string label = "corpus" + std::to_string(gi);
    const graph::EdgeList before =
        graph::simplify(test_support::corpus()[gi].graph);
    ASSERT_GE(before.edges.size(), 2u);
    Harness h;
    h.svc.load_graph(before, label);
    expect_verbs_match_library(h, before, label);

    graph::EdgeList after = before;
    std::vector<std::string> ops;
    auto op = [](char sign, graph::VertexId u, graph::VertexId v) {
      std::string text(1, sign);
      text += std::to_string(u);
      text += ' ';
      text += std::to_string(v);
      return text;
    };
    for (const std::size_t at : {before.edges.size() - 1, std::size_t{0}}) {
      const graph::Edge e = before.edges[at];
      ops.push_back(op('-', e.u, e.v));
      after.edges.erase(after.edges.begin() + static_cast<std::ptrdiff_t>(at));
    }
    for (graph::VertexId u = 0; u < before.num_vertices && ops.size() < 4; ++u) {
      for (graph::VertexId v = u + 1;
           v < before.num_vertices && ops.size() < 4; ++v) {
        if (std::binary_search(before.edges.begin(), before.edges.end(),
                               graph::Edge{u, v})) {
          continue;
        }
        ops.push_back(op('+', u, v));
        after.edges.push_back(graph::Edge{u, v});
      }
    }
    after = graph::simplify(std::move(after));
    std::string list;
    for (const std::string& text : ops) {
      if (!list.empty()) list += ',';
      list += '"' + text + '"';
    }
    h.result(h.ask(R"({"id":9,"verb":"graph.apply","params":{"ops":[)" + list +
                   "]}}"));
    expect_verbs_match_library(h, after, label + " after apply");
  }
}

TEST(ServiceEquivalence, ApproxMatchesLibraryCall) {
  const auto& entry = test_support::corpus()[4];
  Harness h;
  h.svc.load_graph(entry.graph, "corpus4");
  const graph::EdgeList simplified = graph::simplify(entry.graph);
  // approx with a pinned seed == the library call with the same seed
  const Value doc = h.result(h.ask(
      "{\"id\":3,\"verb\":\"approx\",\"params\":{\"retention\":0.4,"
      "\"seed\":21}}"));
  const graph::ApproxCount approx =
      graph::approx_triangles_doulion(simplified, 0.4, 21);
  EXPECT_DOUBLE_EQ(doc.get("result").get("estimate").as_number(),
                   approx.estimate);
  EXPECT_EQ(h.svc.records().back().supersteps, 0u)
      << "approx runs no counting superstep";
}

TEST(ServiceEquivalence, PervertexTopMatchesAFullSortOnTies) {
  // Disjoint K4s (3 triangles per vertex), triangles (1 each) and
  // isolated vertices (0), scattered over shuffled ids: nearly every
  // place of the ranking is a tie that the id breaks. `top` must answer
  // what a full sort (count descending, then id ascending) answers. The
  // edges tie the same way (support 2 in a K4, 1 in a triangle), so
  // `support`'s `top` must answer what a full sort of the edge supports
  // (support descending, then edge index ascending) answers.
  constexpr graph::VertexId kN = 240;
  std::vector<graph::VertexId> ids(kN);
  std::iota(ids.begin(), ids.end(), graph::VertexId{0});
  util::Xoshiro256 rng(61);
  for (std::size_t i = ids.size() - 1; i > 0; --i) {
    std::swap(ids[i], ids[rng.bounded(i + 1)]);
  }
  graph::EdgeList g;
  g.num_vertices = kN;
  std::size_t at = 0;
  for (const std::size_t size : {4u, 3u}) {
    for (int copy = 0; copy < 25; ++copy, at += size) {
      for (std::size_t a = 0; a < size; ++a) {
        for (std::size_t b = a + 1; b < size; ++b) {
          g.edges.push_back({ids[at + a], ids[at + b]});
        }
      }
    }
  }
  g = graph::simplify(std::move(g));
  const std::vector<graph::TriangleCount> counts =
      graph::per_vertex_triangles(graph::Csr::from_edges(g));
  std::vector<graph::VertexId> order(kN);
  std::iota(order.begin(), order.end(), graph::VertexId{0});
  std::sort(order.begin(), order.end(),
            [&](graph::VertexId a, graph::VertexId b) {
              return counts[a] != counts[b] ? counts[a] > counts[b] : a < b;
            });

  Harness h;
  h.svc.load_graph(g, "ties");
  for (const std::uint64_t top : {0u, 1u, 7u, 99u, 100u, 101u, 175u, 240u,
                                  10000u}) {
    const Value doc = h.result(h.ask(
        "{\"id\":1,\"verb\":\"pervertex\",\"params\":{\"top\":" +
        std::to_string(top) + "}}"));
    const Value& rows = doc.get("result").get("top");
    ASSERT_EQ(rows.size(), std::min<std::size_t>(top, kN)) << "top=" << top;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows.at(i).get("vertex").as_uint(), order[i])
          << "top=" << top << " place " << i;
      EXPECT_EQ(rows.at(i).get("triangles").as_uint(), counts[order[i]])
          << "top=" << top << " place " << i;
    }
  }

  const std::vector<graph::TriangleCount> supports = graph::edge_supports(g);
  std::vector<std::size_t> edge_order(supports.size());
  std::iota(edge_order.begin(), edge_order.end(), std::size_t{0});
  std::sort(edge_order.begin(), edge_order.end(),
            [&](std::size_t a, std::size_t b) {
              return supports[a] != supports[b] ? supports[a] > supports[b]
                                                : a < b;
            });
  for (const std::uint64_t top : {0u, 1u, 7u, 99u, 100u, 101u, 175u, 240u,
                                  10000u}) {
    const Value doc = h.result(h.ask(
        "{\"id\":2,\"verb\":\"support\",\"params\":{\"top\":" +
        std::to_string(top) + "}}"));
    const Value& rows = doc.get("result").get("top");
    ASSERT_EQ(rows.size(), std::min<std::size_t>(top, supports.size()))
        << "top=" << top;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const graph::Edge& edge = g.edges[edge_order[i]];
      EXPECT_EQ(rows.at(i).get("u").as_uint(), edge.u)
          << "top=" << top << " place " << i;
      EXPECT_EQ(rows.at(i).get("v").as_uint(), edge.v)
          << "top=" << top << " place " << i;
      EXPECT_EQ(rows.at(i).get("support").as_uint(), supports[edge_order[i]])
          << "top=" << top << " place " << i;
    }
  }
}

// --- resident state: each piece built once per graph version -------------

std::uint64_t resident_builds(const Harness& h, const std::string& piece) {
  const obs::Trace artifact = h.svc.session_artifact();
  const Value* value =
      artifact.other_data().get("metrics").get("counters").find(
          "tc.resident.builds." + piece);
  return value != nullptr ? value->as_uint() : 0;
}

TEST(ServiceResident, EachPieceBuiltOncePerGraphVersion) {
  service::ServiceOptions options;
  options.cache_capacity = 0;  // every request below runs its plan
  Harness h(options);
  const graph::EdgeList g = graph::simplify(test_support::corpus()[1].graph);
  h.svc.load_graph(g, "corpus1");
  EXPECT_EQ(resident_builds(h, "2d"), 1u) << "graph.load builds the 2D piece";

  const std::vector<std::string> no_cetric = {
      count_request(1, "2d"),
      count_request(2, "summa"),
      R"({"id":3,"verb":"pervertex"})",
      R"({"id":4,"verb":"clustering"})",
      R"({"id":5,"verb":"support"})",
      R"({"id":6,"verb":"truss"})",
      count_request(7, "2d", ",\"kernel\":\"merge\"")};
  for (const std::string& line : no_cetric) h.result(h.ask(line));
  EXPECT_EQ(resident_builds(h, "2d"), 1u);
  EXPECT_EQ(resident_builds(h, "cetric"), 0u)
      << "a session without cetric requests never builds the cetric piece";

  // 40 interleaved uncached verbs on one version: one build of each.
  for (std::size_t i = 0; i < 40; ++i) {
    h.result(h.ask(i % 3 == 0 ? count_request(10 + i, "cetric")
                              : no_cetric[i % no_cetric.size()]));
  }
  EXPECT_EQ(resident_builds(h, "2d"), 1u);
  EXPECT_EQ(resident_builds(h, "cetric"), 1u);

  // graph.apply builds nothing...
  const graph::Edge e = g.edges.front();
  h.result(h.ask(R"({"id":60,"verb":"graph.apply","params":{"ops":["-)" +
                 std::to_string(e.u) + " " + std::to_string(e.v) + "\"]}}"));
  EXPECT_EQ(resident_builds(h, "2d"), 1u);
  EXPECT_EQ(resident_builds(h, "cetric"), 1u);
  // ...the next cetric read rebuilds the cetric piece, once, and the 2D
  // piece is patched in place, never rebuilt.
  h.result(h.ask(count_request(61, "cetric")));
  EXPECT_EQ(resident_builds(h, "cetric"), 2u);
  EXPECT_EQ(resident_builds(h, "2d"), 1u);
  for (std::size_t i = 0; i < 12; ++i) {
    h.result(h.ask(i % 3 == 0 ? count_request(70 + i, "cetric")
                              : no_cetric[i % no_cetric.size()]));
  }
  EXPECT_EQ(resident_builds(h, "2d"), 1u);
  EXPECT_EQ(resident_builds(h, "cetric"), 2u);
}

TEST(ServiceResident, StatsReportTheCetricPartitionsBytes) {
  service::ServiceOptions options;
  options.cache_capacity = 0;
  Harness h(options);
  const graph::EdgeList g = graph::simplify(test_support::corpus()[1].graph);
  h.svc.load_graph(g, "corpus1");
  std::uint64_t id = 0;
  const auto stats = [&] {
    return h.result(h.ask(R"({"id":)" + std::to_string(++id) +
                          R"(,"verb":"stats"})"))
        .get("result");
  };
  EXPECT_EQ(stats().get("cetric_resident_bytes").as_uint(), 0u);
  h.result(h.ask(count_request(100, "2d")));
  EXPECT_EQ(stats().get("cetric_resident_bytes").as_uint(), 0u)
      << "a 2D count builds no cetric partition";
  h.result(h.ask(count_request(101, "cetric")));

  mpisim::PersistentWorld world(options.ranks);
  const std::uint64_t library =
      cetric::preprocess_resident(world, g).resident_bytes();
  EXPECT_GT(library, 0u);
  const Value after = stats();
  EXPECT_EQ(after.get("cetric_resident_bytes").as_uint(), library);
  EXPECT_GT(after.get("resident_bytes").as_uint(), 0u)
      << "resident_bytes still reports the 2D partition";
}

// --- client threads read while the dispatcher serves ---------------------

TEST(ServiceConcurrency, ClientReadsWhileDispatcherServes) {
  // A real dispatcher thread serves while the client thread submits and
  // reads cache_stats(), counters() and jobs_run(). Under TRICOUNT_TSAN
  // this is the race check for the cache and the world's job count.
  std::mutex mutex;
  std::condition_variable answered;
  std::vector<std::string> responses;
  service::ServiceOptions options;
  options.cache_capacity = 4;  // five distinct keys: misses and evictions
  service::Service svc(options, [&](const std::string& line) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      responses.push_back(line);
    }
    answered.notify_one();
  });
  const graph::EdgeList g = graph::watts_strogatz(64, 6, 0.1, 3);
  const graph::TriangleCount expected =
      graph::count_triangles_serial(graph::Csr::from_edges(graph::simplify(g)));
  const char* kernels[] = {"auto", "merge", "galloping", "bitmap", "hash"};
  constexpr std::uint64_t kRequests = 60;

  auto wait_for = [&](std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex);
    return answered.wait_for(lock, std::chrono::seconds(120),
                             [&] { return responses.size() >= count; });
  };
  std::thread client([&] {
    svc.submit(
        "{\"id\":0,\"verb\":\"graph.load\",\"params\":{\"generate\":"
        "{\"type\":\"ws\",\"n\":64,\"k\":6,\"beta\":0.1,\"seed\":3}}}");
    // Counts admitted before the load lands would bypass the cache.
    (void)wait_for(1);
    for (std::uint64_t id = 1; id < kRequests; ++id) {
      svc.submit(count_request(id, "2d",
                               ",\"kernel\":\"" + std::string(kernels[id % 5]) +
                                   "\""));
      (void)svc.cache_stats();
      (void)svc.counters();
      (void)svc.jobs_run();
    }
  });
  client.join();
  ASSERT_TRUE(wait_for(kRequests));
  svc.shutdown();

  std::size_t served = 0;
  for (const std::string& line : responses) {
    const Value doc = Value::parse(line);
    if (!doc.get("ok").as_bool() || doc.get("id").as_uint() == 0) continue;
    EXPECT_EQ(doc.get("result").get("triangles").as_uint(), expected);
    ++served;
  }
  EXPECT_GT(served, 0u);
  EXPECT_EQ(svc.counters().requests, kRequests);
  EXPECT_GT(svc.cache_stats().misses, 0u);
}

// --- self-healing: a failed rank never needs a reload --------------------

}  // namespace

namespace service {

/// Test access to the dispatcher-owned world.
struct ServiceTestPeer {
  /// Fails `rank` inside a job on the service's world, which is what a
  /// rank that throws inside a served plan does: the job throws and the
  /// world stays poisoned. Only between dispatches (manual dispatch).
  static void fail_rank(Service& svc, int rank) {
    EXPECT_THROW((void)svc.world_->run_job([rank](mpisim::Comm& comm) {
      if (comm.rank() == rank) throw std::runtime_error("injected failure");
    }),
                 std::runtime_error);
    EXPECT_TRUE(svc.world_->poisoned());
  }
};

}  // namespace service

namespace {

using service::ServiceTestPeer;

std::uint64_t recoveries(const service::Service& svc) {
  const obs::Trace artifact = svc.session_artifact();
  const Value* value =
      artifact.other_data().get("metrics").get("counters").find(
          "tc.service.recoveries");
  return value != nullptr ? value->as_uint() : 0;
}

TEST(ServiceSelfHealing, PoisonedWorldIsRebuiltWithoutReload) {
  service::ServiceOptions options;
  options.cache_capacity = 0;
  Harness h(options);
  const graph::EdgeList g = graph::simplify(test_support::corpus()[4].graph);
  const graph::TriangleCount expected =
      graph::count_triangles_serial(graph::Csr::from_edges(g));
  h.svc.load_graph(g, "corpus4");

  std::uint64_t id = 1;
  for (const char* algo : {"2d", "summa", "cetric"}) {
    const std::uint64_t jobs = h.svc.jobs_run();
    ServiceTestPeer::fail_rank(h.svc, 1);
    EXPECT_EQ(served_triangles(h, count_request(id++, algo)), expected)
        << algo;
    EXPECT_GT(h.svc.jobs_run(), jobs) << "the job count survives the rebuild";
  }
  ServiceTestPeer::fail_rank(h.svc, 0);
  h.result(h.ask(R"({"id":10,"verb":"pervertex"})"));
  EXPECT_EQ(recoveries(h.svc), 4u);
  // A job only reads the resident pieces, so the new worlds serve them
  // as they were built.
  EXPECT_EQ(resident_builds(h, "2d"), 1u);
  EXPECT_EQ(resident_builds(h, "cetric"), 1u);

  // graph.apply rebuilds a poisoned world too, then counts its delta.
  ServiceTestPeer::fail_rank(h.svc, 2);
  const graph::Edge e = g.edges.front();
  h.result(h.ask(R"({"id":11,"verb":"graph.apply","params":{"ops":["-)" +
                 std::to_string(e.u) + " " + std::to_string(e.v) + "\"]}}"));
  EXPECT_EQ(recoveries(h.svc), 5u);
  EXPECT_EQ(h.svc.counters().errors, 0u);
}

TEST(ServiceSelfHealing, FailureCampaignUnderQueuedLoadAndApply) {
  // Seeded rank failures between the requests of queued bursts, with
  // insert/delete batches between the bursts. Every answer must be the
  // exact count of the graph it ran on, the service must never need a
  // reload, and a world rebuild must never rebuild a resident piece.
  const std::uint64_t seed = test_support::chaos_seed();
  constexpr int kRanks = 4;
  constexpr int kRounds = 8;
  service::ServiceOptions options;
  options.cache_capacity = 0;
  options.max_batch = 1;  // one request per dispatch: a failure between each
  Harness h(options);
  graph::EdgeList g = graph::simplify(graph::watts_strogatz(96, 6, 0.2, 11));
  h.svc.load_graph(g, "ws96");
  std::set<graph::Edge> edges(g.edges.begin(), g.edges.end());
  util::Xoshiro256 rng(seed);
  const char* algos[] = {"2d", "summa", "cetric"};
  std::uint64_t id = 1;
  std::uint64_t failures = 0;
  auto dispatch = [&](int requests) {
    for (int i = 0; i < requests; ++i) {
      if (rng.bounded(10) < 3) {
        ServiceTestPeer::fail_rank(
            h.svc, static_cast<int>(rng.bounded(kRanks)));
        ++failures;
      }
      EXPECT_TRUE(h.svc.dispatch_once());
    }
  };

  for (int round = 0; round < kRounds; ++round) {
    graph::EdgeList current;
    current.num_vertices = g.num_vertices;
    current.edges.assign(edges.begin(), edges.end());
    const graph::TriangleCount expected =
        graph::count_triangles_serial(graph::Csr::from_edges(current));
    const std::size_t first = h.responses.size();
    for (int k = 0; k < 12; ++k) h.svc.submit(count_request(id++, algos[k % 3]));
    dispatch(12);
    ASSERT_EQ(h.responses.size(), first + 12);
    for (std::size_t at = first; at < first + 12; ++at) {
      EXPECT_EQ(h.result(h.responses[at]).get("result").get("triangles")
                    .as_uint(),
                expected)
          << "round " << round;
    }

    // One delete of a live edge and one insert of an absent pair.
    const graph::Edge gone = *std::next(
        edges.begin(), static_cast<std::ptrdiff_t>(rng.bounded(edges.size())));
    graph::Edge added{};
    do {
      const auto a = static_cast<graph::VertexId>(rng.bounded(g.num_vertices));
      const auto b = static_cast<graph::VertexId>(rng.bounded(g.num_vertices));
      added = graph::Edge{std::min(a, b), std::max(a, b)};
    } while (added.u == added.v || edges.count(added) != 0);
    edges.erase(gone);
    edges.insert(added);
    h.svc.submit("{\"id\":" + std::to_string(id++) +
                 ",\"verb\":\"graph.apply\",\"params\":{\"ops\":[\"-" +
                 std::to_string(gone.u) + " " + std::to_string(gone.v) +
                 "\",\"+" + std::to_string(added.u) + " " +
                 std::to_string(added.v) + "\"]}}");
    dispatch(1);
    h.result(h.responses.back());
  }
  EXPECT_GT(failures, 0u) << "seed " << seed;
  // Every failure is followed by a dispatch that rebuilds the world.
  EXPECT_EQ(recoveries(h.svc), failures);
  EXPECT_EQ(h.svc.counters().errors, 0u);
  // The 2D piece is built once, at load, and patched for each later
  // version a round read; the cetric piece is built once per such version.
  EXPECT_EQ(resident_builds(h, "2d"), 1u);
  EXPECT_EQ(resident_builds(h, "cetric"), static_cast<std::uint64_t>(kRounds));
}

// --- warm-vs-cold acceptance gate ----------------------------------------

TEST(ServicePerformance, WarmServedCountBeatsColdCliTenfold) {
  // Acceptance criterion: on rmat_s8 at 4 ranks, a warm served count —
  // resident partition, cache MISS, so the √p counting supersteps do
  // run — must be at least 10x faster than a cold `tricount_cli count`
  // end-to-end (process start, graph read, preprocess, count). The CLI
  // path comes from ctest via TRICOUNT_CLI.
  const char* cli = std::getenv("TRICOUNT_CLI");
  if (cli == nullptr || *cli == '\0') {
    GTEST_SKIP() << "TRICOUNT_CLI not set (run via ctest)";
  }

  graph::RmatParams params;
  params.scale = 8;
  params.edge_factor = 8;
  params.seed = 1;
  const graph::EdgeList rmat_s8 = graph::rmat(params);

  const auto dir = scratch_dir("perf");
  const auto graph_path = dir / "rmat_s8.mtx";
  graph::write_matrix_market(rmat_s8, graph_path.string());

  // Cold side: full CLI runs, best of 3 (best-of is the conservative
  // choice — it shrinks the cold time, so it can only make the gate
  // harder to pass).
  const std::string command = "cd " + dir.string() + " && " + cli +
                              " count --file " + graph_path.string() +
                              " --ranks 4 >/dev/null 2>&1";
  double cold_seconds = 1e9;
  for (int round = 0; round < 3; ++round) {
    const double start = util::wall_seconds();
    ASSERT_EQ(std::system(command.c_str()), 0) << command;
    cold_seconds = std::min(cold_seconds, util::wall_seconds() - start);
  }

  // Warm side: resident service with the cache disabled, so every
  // served count is a genuine miss that runs the counting supersteps.
  service::ServiceOptions options;
  options.cache_capacity = 0;
  Harness h(options);
  h.svc.load_graph(rmat_s8, "rmat_s8");
  const graph::TriangleCount expected = served_triangles(h, count_request(1, "2d"));
  double warm_seconds = 1e9;
  for (std::uint64_t id = 2; id <= 6; ++id) {
    const double start = util::wall_seconds();
    EXPECT_EQ(served_triangles(h, count_request(id, "2d")), expected);
    warm_seconds = std::min(warm_seconds, util::wall_seconds() - start);
  }
  for (const auto& row : h.svc.records()) {
    EXPECT_EQ(row.cache, "miss") << "warm timing must measure misses";
    EXPECT_GT(row.supersteps, 0u);
  }

  EXPECT_GE(cold_seconds, warm_seconds * 10.0)
      << "warm served count must be >=10x faster than cold CLI: cold="
      << cold_seconds << "s warm=" << warm_seconds << "s";
}

// --- graceful shutdown (satellite: obs/graceful) -------------------------

TEST(ServiceGraceful, SignalSetsFlagWithoutKilling) {
  obs::reset_shutdown_for_tests();
  obs::install_shutdown_handlers(obs::ShutdownMode::kFlagOnly);
  EXPECT_FALSE(obs::shutdown_requested());
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(obs::shutdown_requested())
      << "kFlagOnly must survive the signal and set the flag";
  EXPECT_EQ(obs::shutdown_signal(), SIGTERM);
  obs::reset_shutdown_for_tests();
  EXPECT_FALSE(obs::shutdown_requested());
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
}

TEST(ServiceGraceful, ShutdownVerbStopsAndShutdownDrains) {
  Harness h;
  h.svc.load_graph(test_support::corpus()[0].graph, "corpus0");
  h.svc.submit(count_request(1, "2d"));
  h.svc.submit("{\"id\":2,\"verb\":\"shutdown\"}");
  EXPECT_FALSE(h.svc.stop_requested()) << "not yet dispatched";
  h.svc.shutdown();  // drains the backlog even in manual mode
  EXPECT_TRUE(h.svc.stop_requested());
  EXPECT_EQ(h.responses.size(), 2u) << "both answers flushed on shutdown";
  h.svc.shutdown();  // idempotent
  EXPECT_EQ(h.responses.size(), 2u);
}

// --- session trace -------------------------------------------------------

std::string joined(const std::vector<std::string>& violations) {
  std::string out;
  for (const auto& v : violations) out += v + "\n  ";
  return out;
}

TEST(ServiceArtifact, MixedSessionLintsClean) {
  service::ServiceOptions options;
  options.queue_depth = 3;
  options.artifacts_dir = scratch_dir("artifact").string();
  Harness h(options);
  h.svc.load_graph(test_support::corpus()[1].graph, "corpus1");

  // hits, misses, an unknown verb (admitted error), a parse reject, and
  // sheds — every disposition the lint rules reconcile.
  h.svc.submit(count_request(1, "2d"));
  h.svc.drain();
  h.svc.submit(count_request(2, "2d"));
  h.svc.drain();
  h.svc.submit("{\"id\":3,\"verb\":\"bogus\"}");
  h.svc.drain();
  h.svc.submit("{broken");
  h.svc.submit(count_request(4, "cetric"));
  h.svc.submit(count_request(5, "summa"));
  h.svc.submit("{\"id\":6,\"verb\":\"clustering\"}");
  h.svc.submit("{\"id\":7,\"verb\":\"hello\"}");  // queue_depth 3: shed
  h.svc.drain();

  const obs::Trace artifact = h.svc.session_artifact();
  const std::vector<std::string> violations = obs::lint_trace(artifact);
  EXPECT_TRUE(violations.empty())
      << "lint violations:\n  " << joined(violations);

  const std::string path = h.svc.write_session_artifact();
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_TRUE(obs::lint_trace(obs::Trace::from_json(obs::json::read_file(path)))
                  .empty());
}

/// Whether lint_trace(trace) reports a violation containing `what`.
bool flags(const obs::Trace& trace, const std::string& what) {
  const std::vector<std::string> violations = obs::lint_trace(trace);
  return std::any_of(violations.begin(), violations.end(),
                     [&](const std::string& v) {
                       return v.find(what) != std::string::npos;
                     });
}

/// `trace` rebuilt with `edit` applied to each of its spans and instants
/// (the only events a session trace holds); otherData is kept.
obs::Trace edited(const obs::Trace& trace,
                  const std::function<void(obs::TraceEvent&)>& edit) {
  obs::Trace out;
  out.other_data() = trace.other_data();
  for (obs::TraceEvent e : trace.events()) {
    edit(e);
    if (e.ph == 'X') {
      out.add_complete(e.tid, e.name, e.cat, e.ts_us, e.dur_us, e.args);
    } else {
      out.add_instant(e.tid, e.name, e.cat, e.ts_us, e.args);
    }
  }
  return out;
}

void set_arg(obs::TraceEvent& e, const std::string& key, double value) {
  for (auto& [name, v] : e.args) {
    if (name == key) v = value;
  }
}

TEST(ServiceArtifact, LintCatchesBrokenDocuments) {
  Harness h;
  h.svc.load_graph(test_support::corpus()[0].graph, "corpus0");
  served_triangles(h, count_request(1, "2d"));
  served_triangles(h, count_request(2, "2d"));  // a cache hit
  const obs::Trace artifact = h.svc.session_artifact();
  ASSERT_TRUE(obs::lint_trace(artifact).empty())
      << joined(obs::lint_trace(artifact));
  ASSERT_EQ(std::count_if(artifact.events().begin(), artifact.events().end(),
                          [](const obs::TraceEvent& e) {
                            return e.cat == "hit";
                          }),
            1);

  // A malformed otherData.session: its counters are missing.
  obs::Trace malformed = artifact;
  malformed.other_data().set("session", Value::object());
  EXPECT_TRUE(flags(malformed, "otherData.session"));

  // otherData.session with `key` of `block` ("" = the session itself)
  // set to `value`.
  const auto with_session = [&](const std::string& block,
                                const std::string& key, std::uint64_t value) {
    obs::Trace out = artifact;
    Value session = out.other_data().get("session");
    if (block.empty()) {
      session.set(key, value);
    } else {
      Value inner = session.get(block);
      inner.set(key, value);
      session.set(block, std::move(inner));
    }
    out.other_data().set("session", std::move(session));
    return out;
  };
  EXPECT_TRUE(flags(with_session("", "requests", 99),
                    "admitted + shed + rejected != requests"));
  EXPECT_TRUE(flags(with_session("cache", "hits", 5), "session.cache.hits"));
  EXPECT_TRUE(flags(with_session("delta", "edges_applied", 5),
                    "nonzero tallies without any batch"));

  // One span per admitted request, one instant per shed request.
  obs::Trace spanless;
  spanless.other_data() = artifact.other_data();
  EXPECT_TRUE(flags(spanless, "request spans != admitted"));
  obs::Trace unknown_shed = artifact;
  unknown_shed.add_instant(0, "count", "shed", 0.0, {{"id", 3.0}});
  EXPECT_TRUE(flags(unknown_shed, "shed instants != shed"));

  // A cache hit that ran counting supersteps, and a failed request
  // without an error code.
  EXPECT_TRUE(flags(edited(artifact,
                           [](obs::TraceEvent& e) {
                             if (e.cat == "hit") set_arg(e, "supersteps", 2.0);
                           }),
                    "cache hit ran supersteps"));
  EXPECT_TRUE(flags(edited(artifact,
                           [](obs::TraceEvent& e) {
                             if (e.cat == "miss") set_arg(e, "ok", 0.0);
                           }),
                    "failed request without an error code"));

  // A request's args are unsigned integers, `ok` and `batched` 0 or 1.
  for (const char* key : {"id", "graph_version", "supersteps"}) {
    for (const double bad : {1.5, -1.0}) {
      EXPECT_TRUE(flags(edited(artifact,
                               [&](obs::TraceEvent& e) {
                                 if (e.cat == "miss") set_arg(e, key, bad);
                               }),
                        std::string(key) + " is not an unsigned integer"))
          << key << " = " << bad;
    }
  }
  for (const char* key : {"ok", "batched"}) {
    EXPECT_TRUE(flags(edited(artifact,
                             [&](obs::TraceEvent& e) {
                               if (e.cat == "miss") set_arg(e, key, 2.0);
                             }),
                      std::string(key) + " is not 0 or 1"))
        << key;
  }

  // A shed or rejected request's instant carries an integer id and its
  // error code; an executed request's span sits on the dispatcher's tid.
  for (const std::string cat : {"", "miss"}) {
    obs::Trace uncoded = artifact;
    uncoded.add_instant(0, "count", cat, 0.0, {{"id", 3.0}});
    EXPECT_TRUE(flags(uncoded,
                      "shed or rejected request without an error code"))
        << "'" << cat << "'";
  }
  obs::Trace idless = artifact;
  idless.add_instant(0, "bogus", "bad_verb", 0.0, {{"id", 2.5}});
  EXPECT_TRUE(flags(idless, "id is not an unsigned integer"));
  EXPECT_TRUE(flags(edited(artifact, [](obs::TraceEvent& e) { e.tid = 0; }),
                    "not on the dispatcher tid"));
}

}  // namespace
}  // namespace tricount
