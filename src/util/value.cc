#include "util/value.h"

#include <functional>

namespace nose {

std::string ValueToString(const Value& v) {
  switch (v.index()) {
    case 0:
      return std::to_string(std::get<int64_t>(v));
    case 1:
      return std::to_string(std::get<double>(v));
    case 2:
      return "'" + std::get<std::string>(v) + "'";
    case 3:
      return std::get<bool>(v) ? "true" : "false";
  }
  return "?";
}

std::string ValueTupleToString(const ValueTuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ", ";
    out += ValueToString(t[i]);
  }
  out += ")";
  return out;
}

size_t ValueHash::operator()(const Value& v) const {
  switch (v.index()) {
    case 0:
      return std::hash<int64_t>()(std::get<int64_t>(v));
    case 1:
      return std::hash<double>()(std::get<double>(v));
    case 2:
      return std::hash<std::string>()(std::get<std::string>(v));
    case 3:
      return std::hash<bool>()(std::get<bool>(v));
  }
  return 0;
}

size_t ValueTupleHash::operator()(const ValueTuple& t) const {
  size_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](size_t x) {
    h ^= x;
    h *= 1099511628211ull;  // FNV prime
  };
  for (const Value& v : t) {
    mix(v.index());
    mix(ValueHash()(v));
  }
  return h;
}

}  // namespace nose
