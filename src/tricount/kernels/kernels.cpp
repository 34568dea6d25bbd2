#include "tricount/kernels/kernels.hpp"

namespace tricount::kernels {

const char* to_string(KernelPolicy policy) {
  switch (policy) {
    case KernelPolicy::kAuto: return "auto";
    case KernelPolicy::kMerge: return "merge";
    case KernelPolicy::kGalloping: return "galloping";
    case KernelPolicy::kBitmap: return "bitmap";
    case KernelPolicy::kHash: return "hash";
  }
  return "?";
}

const char* to_string(KernelKind kind) {
  switch (kind) {
    case KernelKind::kMerge: return "merge";
    case KernelKind::kGalloping: return "galloping";
    case KernelKind::kBitmap: return "bitmap";
    case KernelKind::kHash: return "hash";
  }
  return "?";
}

bool parse_policy(std::string_view name, KernelPolicy& out) {
  if (name == "auto") {
    out = KernelPolicy::kAuto;
  } else if (name == "merge") {
    out = KernelPolicy::kMerge;
  } else if (name == "galloping") {
    out = KernelPolicy::kGalloping;
  } else if (name == "bitmap") {
    out = KernelPolicy::kBitmap;
  } else if (name == "hash") {
    out = KernelPolicy::kHash;
  } else {
    return false;
  }
  return true;
}

KernelCounters& KernelCounters::operator+=(const KernelCounters& other) {
  intersection_tasks += other.intersection_tasks;
  lookups += other.lookups;
  hits += other.hits;
  probes += other.probes;
  hash_builds += other.hash_builds;
  direct_builds += other.direct_builds;
  rows_visited += other.rows_visited;
  early_exits += other.early_exits;
  merge_calls += other.merge_calls;
  merge_steps += other.merge_steps;
  galloping_calls += other.galloping_calls;
  galloping_steps += other.galloping_steps;
  bitmap_calls += other.bitmap_calls;
  bitmap_tests += other.bitmap_tests;
  bitmap_builds += other.bitmap_builds;
  hash_calls += other.hash_calls;
  hash_lookups += other.hash_lookups;
  return *this;
}

}  // namespace tricount::kernels
