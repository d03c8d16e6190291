#include "workload/query.h"

#include <algorithm>

#include "util/strings.h"

namespace nose {

const char* PredicateOpName(PredicateOp op) {
  switch (op) {
    case PredicateOp::kEq:
      return "=";
    case PredicateOp::kLt:
      return "<";
    case PredicateOp::kLe:
      return "<=";
    case PredicateOp::kGt:
      return ">";
    case PredicateOp::kGe:
      return ">=";
    case PredicateOp::kNe:
      return "!=";
  }
  return "?";
}

std::string Predicate::ToString() const {
  std::string rhs = literal.has_value() ? ValueToString(*literal) : "?" + param;
  return field.QualifiedName() + " " + PredicateOpName(op) + " " + rhs;
}

Query::Query(KeyPath path, std::vector<FieldRef> select,
             std::vector<Predicate> predicates,
             std::vector<OrderField> order_by)
    : path_(std::move(path)),
      select_(std::move(select)),
      predicates_(std::move(predicates)),
      order_by_(std::move(order_by)) {}

Status Query::Validate() const {
  const EntityGraph* graph = path_.graph();
  if (graph == nullptr) {
    return Status::FailedPrecondition("query has no path/graph");
  }
  if (select_.empty()) {
    return Status::InvalidArgument("query selects no fields");
  }
  auto check_on_path = [&](const FieldRef& ref) -> Status {
    auto field = graph->ResolveField(ref);
    if (!field.ok()) return field.status();
    if (!path_.ContainsEntity(ref.entity)) {
      return Status::InvalidArgument("field " + ref.QualifiedName() +
                                     " is not on the query path " +
                                     path_.ToString());
    }
    return Status::Ok();
  };
  for (const FieldRef& ref : select_) NOSE_RETURN_IF_ERROR(check_on_path(ref));
  for (const Predicate& p : predicates_) {
    NOSE_RETURN_IF_ERROR(check_on_path(p.field));
  }
  for (const OrderField& o : order_by_) {
    NOSE_RETURN_IF_ERROR(check_on_path(o.field));
  }
  const bool has_equality =
      std::any_of(predicates_.begin(), predicates_.end(),
                  [](const Predicate& p) { return p.IsEquality(); });
  if (!has_equality) {
    return Status::InvalidArgument(
        "query needs at least one equality predicate to anchor a get "
        "request: " +
        ToString());
  }
  return Status::Ok();
}

std::vector<Predicate> Query::PredicatesOn(size_t index) const {
  std::vector<Predicate> out;
  const std::string& entity = path_.EntityAt(index);
  for (const Predicate& p : predicates_) {
    if (p.field.entity == entity) out.push_back(p);
  }
  return out;
}

std::vector<Predicate> Query::PredicatesFrom(size_t index) const {
  std::vector<Predicate> out;
  for (const Predicate& p : predicates_) {
    const int pos = path_.IndexOfEntity(p.field.entity);
    if (pos >= 0 && static_cast<size_t>(pos) >= index) out.push_back(p);
  }
  return out;
}

std::string Query::ToString() const {
  std::vector<std::string> sel;
  sel.reserve(select_.size());
  for (const FieldRef& ref : select_) sel.push_back(ref.QualifiedName());
  std::string out = "SELECT " + StrJoin(sel, ", ");
  out += " FROM " + path_.ToString();
  if (!predicates_.empty()) {
    std::vector<std::string> preds;
    preds.reserve(predicates_.size());
    for (const Predicate& p : predicates_) preds.push_back(p.ToString());
    out += " WHERE " + StrJoin(preds, " AND ");
  }
  if (!order_by_.empty()) {
    std::vector<std::string> ord;
    ord.reserve(order_by_.size());
    for (const OrderField& o : order_by_) ord.push_back(o.field.QualifiedName());
    out += " ORDER BY " + StrJoin(ord, ", ");
  }
  return out;
}

}  // namespace nose
