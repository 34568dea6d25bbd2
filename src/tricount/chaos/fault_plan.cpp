#include "tricount/chaos/fault_plan.hpp"

#include <stdexcept>

#include "tricount/util/rng.hpp"

namespace tricount::chaos {

namespace {

// Independent decision streams: each fault type hashes with its own salt
// so, e.g., the drop and duplicate draws for one attempt are uncorrelated.
constexpr std::uint64_t kDropSalt = 0x64726f70u;       // "drop"
constexpr std::uint64_t kDuplicateSalt = 0x6475706cu;  // "dupl"
constexpr std::uint64_t kReorderSalt = 0x72656f72u;    // "reor"
constexpr std::uint64_t kDelaySalt = 0x64656c61u;      // "dela"
constexpr std::uint64_t kCrashSalt = 0x63726173u;      // "cras"
constexpr std::uint64_t kStragglerSalt = 0x73747261u;  // "stra"

/// Folds one more component into a hash chain via SplitMix64.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return util::stream_seed(h, v);
}

}  // namespace

FaultPlan::FaultPlan(const FaultSpec& spec, int world_size)
    : spec_(spec), world_size_(world_size) {
  if (world_size <= 0) {
    throw std::invalid_argument("chaos: world size must be > 0");
  }
  const auto p = static_cast<std::uint64_t>(world_size);
  if (spec_.crash_superstep >= 0) {
    crash_rank_ = spec_.crash_rank >= 0
                      ? spec_.crash_rank % world_size
                      : static_cast<int>(fold(spec_.seed, kCrashSalt) % p);
  }
  if (spec_.straggler_factor > 1.0) {
    straggler_rank_ =
        spec_.straggler_rank >= 0
            ? spec_.straggler_rank % world_size
            : static_cast<int>(fold(spec_.seed, kStragglerSalt) % p);
  }
}

double FaultPlan::draw(std::uint64_t salt, int source, int dest, int tag,
                       std::uint64_t seq, int attempt) const {
  std::uint64_t h = fold(spec_.seed, salt);
  h = fold(h, static_cast<std::uint64_t>(source));
  h = fold(h, static_cast<std::uint64_t>(dest));
  h = fold(h, static_cast<std::uint64_t>(tag));
  h = fold(h, seq);
  h = fold(h, static_cast<std::uint64_t>(attempt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

mpisim::FaultAction FaultPlan::on_message(int source, int dest, int tag,
                                          std::uint64_t seq,
                                          int attempt) const {
  mpisim::FaultAction action;
  if (spec_.drop_rate > 0.0 &&
      draw(kDropSalt, source, dest, tag, seq, attempt) < spec_.drop_rate) {
    action.drop = true;
    return action;
  }
  if (spec_.duplicate_rate > 0.0 &&
      draw(kDuplicateSalt, source, dest, tag, seq, attempt) <
          spec_.duplicate_rate) {
    action.duplicate = true;
  }
  if (spec_.reorder_rate > 0.0 &&
      draw(kReorderSalt, source, dest, tag, seq, attempt) <
          spec_.reorder_rate) {
    action.reorder = true;
  }
  if (spec_.delay_rate > 0.0 &&
      draw(kDelaySalt, source, dest, tag, seq, attempt) < spec_.delay_rate) {
    action.delay_seconds = spec_.delay_seconds;
  }
  return action;
}

double FaultPlan::straggler_factor(int rank) const {
  return rank == straggler_rank_ ? spec_.straggler_factor : 1.0;
}

int FaultPlan::crash_superstep(int rank) const {
  return rank == crash_rank_ ? spec_.crash_superstep : -1;
}

// ---------------------------------------------------------------------------
// Replay files

obs::json::Value spec_to_json(const FaultSpec& spec) {
  using obs::json::Value;
  Value root = Value::object();
  root.set("schema", "tricount.chaos.v1");
  root.set("seed", spec.seed);
  root.set("drop_rate", spec.drop_rate);
  root.set("duplicate_rate", spec.duplicate_rate);
  root.set("reorder_rate", spec.reorder_rate);
  root.set("delay_rate", spec.delay_rate);
  root.set("delay_seconds", spec.delay_seconds);
  root.set("straggler_factor", spec.straggler_factor);
  root.set("straggler_rank", spec.straggler_rank);
  root.set("crash_superstep", spec.crash_superstep);
  root.set("crash_rank", spec.crash_rank);
  root.set("max_retries", spec.max_retries);
  root.set("retry_timeout_seconds", spec.retry_timeout_seconds);
  return root;
}

FaultSpec spec_from_json(const obs::json::Value& value) {
  const obs::json::Value* schema = value.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "tricount.chaos.v1") {
    throw std::runtime_error("chaos replay: not a tricount.chaos.v1 file");
  }
  FaultSpec spec;
  spec.seed = value.get("seed").as_uint();
  spec.drop_rate = value.get("drop_rate").as_number();
  spec.duplicate_rate = value.get("duplicate_rate").as_number();
  spec.reorder_rate = value.get("reorder_rate").as_number();
  spec.delay_rate = value.get("delay_rate").as_number();
  spec.delay_seconds = value.get("delay_seconds").as_number();
  spec.straggler_factor = value.get("straggler_factor").as_number();
  spec.straggler_rank = value.get("straggler_rank").as_int();
  spec.crash_superstep = value.get("crash_superstep").as_int();
  spec.crash_rank = value.get("crash_rank").as_int();
  spec.max_retries = value.get("max_retries").as_int();
  spec.retry_timeout_seconds =
      value.get("retry_timeout_seconds").as_number();
  return spec;
}

void save_replay(const FaultSpec& spec, const std::string& path) {
  obs::json::write_file(spec_to_json(spec), path);
}

FaultSpec load_replay(const std::string& path) {
  return spec_from_json(obs::json::read_file(path));
}

}  // namespace tricount::chaos
