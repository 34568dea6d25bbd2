#include "tricount/service/protocol.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace tricount::service {

using obs::json::ParseError;
using obs::json::Value;

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kTruncated: return "truncated";
    case ErrorCode::kTooLarge: return "too_large";
    case ErrorCode::kTooDeep: return "too_deep";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kBadVerb: return "bad_verb";
    case ErrorCode::kBadParams: return "bad_params";
    case ErrorCode::kNoGraph: return "no_graph";
    case ErrorCode::kShed: return "shed";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

namespace {

ErrorCode code_for(ParseError::Kind kind) {
  switch (kind) {
    case ParseError::Kind::kTruncated: return ErrorCode::kTruncated;
    case ParseError::Kind::kTooLarge: return ErrorCode::kTooLarge;
    case ParseError::Kind::kTooDeep: return ErrorCode::kTooDeep;
    case ParseError::Kind::kMalformed: return ErrorCode::kParse;
  }
  return ErrorCode::kParse;
}

ParseOutcome reject(ErrorCode code, std::string message) {
  ParseOutcome out;
  out.ok = false;
  out.error = code;
  out.message = std::move(message);
  return out;
}

Value copy_value(const Value& v);

Value copy_sorted(const Value& v) {
  switch (v.type()) {
    case Value::Type::kObject: {
      std::vector<const std::pair<std::string, Value>*> members;
      members.reserve(v.members().size());
      for (const auto& member : v.members()) members.push_back(&member);
      std::sort(members.begin(), members.end(),
                [](const auto* a, const auto* b) { return a->first < b->first; });
      Value out = Value::object();
      for (const auto* member : members) {
        out.set(member->first, copy_sorted(member->second));
      }
      return out;
    }
    case Value::Type::kArray: {
      Value out = Value::array();
      for (std::size_t i = 0; i < v.size(); ++i) {
        out.push_back(copy_sorted(v.at(i)));
      }
      return out;
    }
    default: return copy_value(v);
  }
}

Value copy_value(const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull: return Value();
    case Value::Type::kBool: return Value(v.as_bool());
    case Value::Type::kNumber: return Value(v.as_number());
    case Value::Type::kString: return Value(v.as_string());
    case Value::Type::kArray: {
      Value out = Value::array();
      for (std::size_t i = 0; i < v.size(); ++i) out.push_back(copy_value(v.at(i)));
      return out;
    }
    case Value::Type::kObject: {
      Value out = Value::object();
      for (const auto& [k, member] : v.members()) out.set(k, copy_value(member));
      return out;
    }
  }
  return Value();
}

}  // namespace

std::string canonicalize(const Value& value) {
  return copy_sorted(value).dump();
}

ParseOutcome parse_request(std::string_view line, const WireLimits& limits) {
  Value doc;
  try {
    obs::json::ParseLimits parse_limits;
    parse_limits.max_bytes = limits.max_bytes;
    parse_limits.max_depth = limits.max_depth;
    doc = Value::parse(line, parse_limits);
  } catch (const ParseError& e) {
    return reject(code_for(e.kind()), e.what());
  } catch (const std::exception& e) {
    return reject(ErrorCode::kParse, e.what());
  }

  if (!doc.is_object()) {
    return reject(ErrorCode::kBadRequest, "request must be a JSON object");
  }
  const Value* id = doc.find("id");
  if (id == nullptr || !id->is_uint()) {
    return reject(ErrorCode::kBadRequest,
                  "'id' must be a non-negative integer");
  }
  const Value* verb = doc.find("verb");
  if (verb == nullptr || !verb->is_string() || verb->as_string().empty()) {
    ParseOutcome out = reject(ErrorCode::kBadRequest,
                              "'verb' must be a non-empty string");
    out.request.id = id->as_uint();  // echo the id even in the error
    return out;
  }

  ParseOutcome out;
  out.ok = true;
  out.request.id = id->as_uint();
  out.request.verb = verb->as_string();
  const Value* params = doc.find("params");
  if (params != nullptr) {
    if (!params->is_object()) {
      ParseOutcome bad = reject(ErrorCode::kBadRequest,
                                "'params' must be an object");
      bad.request.id = out.request.id;
      return bad;
    }
    out.request.params = copy_value(*params);
  } else {
    out.request.params = Value::object();
  }
  out.request.canonical_params = canonicalize(out.request.params);
  return out;
}

std::string ok_response(std::uint64_t id, const Value& result) {
  return ok_response_raw(id, result.dump());
}

std::string ok_response_raw(std::uint64_t id, const std::string& result_json) {
  std::string out;
  out.reserve(result_json.size() + 64);
  out += "{\"schema\":\"";
  out += kSchema;
  out += "\",\"id\":";
  out += std::to_string(id);
  out += ",\"ok\":true,\"result\":";
  out += result_json;
  out += '}';
  return out;
}

std::string error_response(std::uint64_t id, ErrorCode code,
                           const std::string& message) {
  Value out = Value::object();
  out.set("schema", kSchema);
  out.set("id", id);
  out.set("ok", false);
  Value error = Value::object();
  error.set("code", to_string(code));
  error.set("message", message);
  out.set("error", std::move(error));
  return out.dump();
}

}  // namespace tricount::service
