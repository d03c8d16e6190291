#ifndef NOSE_UTIL_VALUE_H_
#define NOSE_UTIL_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace nose {

/// A dynamically-typed cell value as stored in the record store and bound to
/// statement parameters. The ordering of alternatives matters: comparison of
/// two Values of different alternatives orders by alternative index, which
/// gives a total order usable for clustering keys.
using Value = std::variant<int64_t, double, std::string, bool>;

/// A tuple of values; used for partition keys, clustering keys and rows.
using ValueTuple = std::vector<Value>;

/// Renders a value for debugging/output ("42", "3.5", "'abc'", "true").
std::string ValueToString(const Value& v);

/// Renders a tuple as "(v1, v2, ...)".
std::string ValueTupleToString(const ValueTuple& t);

/// Hash of one value's payload (the alternative index is not mixed in;
/// callers that mix values of different types add it themselves).
/// Consistent with Value equality: 0.0 and -0.0 hash alike.
struct ValueHash {
  size_t operator()(const Value& v) const;
};

/// FNV-1a style hash for a value tuple, usable in unordered containers.
struct ValueTupleHash {
  size_t operator()(const ValueTuple& t) const;
};

}  // namespace nose

#endif  // NOSE_UTIL_VALUE_H_
