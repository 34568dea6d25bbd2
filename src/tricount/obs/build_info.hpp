// Structured build provenance for artifacts: the util/build.hpp strings
// packaged as a struct and as the JSON object stamped into
// tricount.metrics artifacts, flight-recorder dumps and live views,
// service session traces, and bench --json records.
#pragma once

#include <string>

#include "tricount/obs/json.hpp"

namespace tricount::obs {

struct BuildInfo {
  std::string version;     ///< project version, e.g. "1.0.0"
  std::string git_hash;    ///< short hash or "unknown"
  std::string build_type;  ///< CMAKE_BUILD_TYPE ("" under multi-config)
  std::string compiler;    ///< compiler id + version
  std::string options;     ///< enabled TRICOUNT_* options, or "none"
};

/// The provenance of this binary (stamped at configure time).
const BuildInfo& build_info();

/// The same as a JSON object:
///   {"version": ..., "git": ..., "build_type": ..., "compiler": ...,
///    "options": ...}
/// Consumers (lint, diff) treat the key as informational: artifacts from
/// different builds still diff clean when their measurements agree.
json::Value build_info_json();

}  // namespace tricount::obs
