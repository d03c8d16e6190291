// Executor edge cases: key-changing updates (delete + reinsert), multi-
// field partition keys, literal predicates, error propagation, exact
// duplicate removal and the join merge of duplicate contexts.

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "executor/dataset.h"
#include "executor/loader.h"
#include "executor/plan_executor.h"
#include "tests/hotel_fixture.h"
#include "tests/reference_evaluator.h"
#include "util/rng.h"

namespace nose {
namespace {

int64_t I(int64_t v) { return v; }

class ExecutorEdgeTest : public ::testing::Test {
 protected:
  ExecutorEdgeTest() : graph_(MakeHotelGraph()), data_(graph_.get()) {
    // Minimal data: 2 hotels, 6 rooms, 4 guests, 8 reservations.
    const char* cities[] = {"Boston", "NYC"};
    for (int64_t h = 0; h < 2; ++h) {
      data_.AddRow("Hotel", {Value(h), Value("H" + std::to_string(h)),
                             Value(std::string(cities[h])),
                             Value(std::string("S")), Value(std::string("A")),
                             Value(std::string("P"))});
    }
    for (int64_t r = 0; r < 6; ++r) {
      data_.AddRow("Room", {Value(r), Value(I(100 + r)),
                            Value(50.0 + 10.0 * static_cast<double>(r)),
                            Value(I(r % 3))});
      data_.AddLink(0, static_cast<size_t>(r % 2), static_cast<size_t>(r));
    }
    for (int64_t g = 0; g < 4; ++g) {
      data_.AddRow("Guest", {Value(g), Value("G" + std::to_string(g)),
                             Value("g" + std::to_string(g))});
    }
    Rng rng(3);
    for (int64_t v = 0; v < 8; ++v) {
      data_.AddRow("Reservation",
                   {Value(v), Value(I(rng.Uniform(100))),
                    Value(I(rng.Uniform(100)))});
      data_.AddLink(1, rng.Uniform(6), static_cast<size_t>(v));
      data_.AddLink(2, rng.Uniform(4), static_cast<size_t>(v));
    }
    for (int64_t p = 0; p < 3; ++p) {
      data_.AddRow("POI", {Value(p), Value("P" + std::to_string(p)),
                           Value("D" + std::to_string(p))});
      data_.AddLink(3, static_cast<size_t>(p % 2), static_cast<size_t>(p));
    }
    data_.AddRow("Amenity", {Value(I(0)), Value(std::string("wifi"))});
    data_.SyncCountsTo(graph_.get());
  }

  std::unique_ptr<EntityGraph> graph_;
  Dataset data_;
};

TEST_F(ExecutorEdgeTest, KeyChangingUpdateRewritesRecords) {
  // rooms-by-rate clustered on RoomRate: updating a rate must move the
  // record within the clustering order.
  auto path = graph_->ResolvePath("Room", {"Hotel"});
  Query q(*path, {{"Room", "RoomID"}, {"Room", "RoomRate"}},
          {{{"Hotel", "HotelCity"}, PredicateOp::kEq, std::nullopt, "city"},
           {{"Room", "RoomRate"}, PredicateOp::kGt, std::nullopt, "rate"}},
          {});
  Workload workload(graph_.get());
  ASSERT_TRUE(workload.AddQuery("rooms", std::move(q), 5.0).ok());
  auto room = graph_->SingleEntityPath("Room");
  auto upd = Update::MakeUpdate(
      *room, {{"RoomRate", std::nullopt, "newrate"}},
      {{{"Room", "RoomID"}, PredicateOp::kEq, std::nullopt, "room"}});
  ASSERT_TRUE(upd.ok());
  ASSERT_TRUE(workload.AddUpdate("reprice", std::move(upd).value(), 1.0).ok());

  Advisor advisor;
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  RecordStore store;
  ASSERT_TRUE(LoadSchema(data_, rec->schema, &store).ok());
  PlanExecutor executor(&store, &rec->schema);

  PlanExecutor::Params qp = {{"city", Value(std::string("Boston"))},
                             {"rate", Value(1000.0)}};
  auto before = executor.ExecuteQuery(rec->query_plans[0].second, qp);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->empty());  // nothing above 1000

  // Reprice room 0 (a Boston room, hotel 0) to 2000.
  PlanExecutor::Params up = {{"room", Value(I(0))}, {"newrate", Value(2000.0)}};
  ASSERT_TRUE(
      executor.ExecuteUpdate(rec->update_plans[0].second, up).ok());

  auto after = executor.ExecuteQuery(rec->query_plans[0].second, qp);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ(std::get<int64_t>((*after)[0][0]), 0);
  EXPECT_DOUBLE_EQ(std::get<double>((*after)[0][1]), 2000.0);

  // The old record must be gone: query the old rate band.
  PlanExecutor::Params old_band = {{"city", Value(std::string("Boston"))},
                                   {"rate", Value(0.0)}};
  auto all = executor.ExecuteQuery(rec->query_plans[0].second, old_band);
  ASSERT_TRUE(all.ok());
  int count0 = 0;
  for (const ValueTuple& row : *all) {
    if (std::get<int64_t>(row[0]) == 0) ++count0;
  }
  EXPECT_EQ(count0, 1);  // exactly one record for room 0
}

TEST_F(ExecutorEdgeTest, MultiFieldPartitionKeyAndLiteralPredicate) {
  // Query anchored by two equality predicates (city + literal floor).
  auto path = graph_->ResolvePath("Room", {"Hotel"});
  Query q(*path, {{"Room", "RoomID"}},
          {{{"Hotel", "HotelCity"}, PredicateOp::kEq, std::nullopt, "city"},
           {{"Room", "RoomFloor"}, PredicateOp::kEq, Value(I(1)), ""}},
          {});
  ASSERT_TRUE(q.Validate().ok());
  Workload workload(graph_.get());
  ASSERT_TRUE(workload.AddQuery("floor1", std::move(q)).ok());
  Advisor advisor;
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  RecordStore store;
  ASSERT_TRUE(LoadSchema(data_, rec->schema, &store).ok());
  PlanExecutor executor(&store, &rec->schema);

  PlanExecutor::Params params = {{"city", Value(std::string("NYC"))}};
  auto got = executor.ExecuteQuery(rec->query_plans[0].second, params);
  ASSERT_TRUE(got.ok()) << got.status();
  auto want =
      ReferenceEvaluate(data_, workload.FindEntry("floor1")->query(), params);
  EXPECT_EQ(CanonicalRows(*got), CanonicalRows(want));
}

TEST_F(ExecutorEdgeTest, MissingParameterIsReported) {
  Workload workload(graph_.get());
  ASSERT_TRUE(workload.AddQuery("q", MakeFig3Query(*graph_)).ok());
  Advisor advisor;
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok());
  RecordStore store;
  ASSERT_TRUE(LoadSchema(data_, rec->schema, &store).ok());
  PlanExecutor executor(&store, &rec->schema);
  auto got = executor.ExecuteQuery(rec->query_plans[0].second,
                                   {{"city", Value(std::string("Boston"))}});
  EXPECT_FALSE(got.ok());  // ?rate unbound
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorEdgeTest, PlanAgainstWrongSchemaIsReported) {
  Workload workload(graph_.get());
  ASSERT_TRUE(workload.AddQuery("q", MakeFig3Query(*graph_)).ok());
  Advisor advisor;
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok());
  Schema empty;
  RecordStore store;
  PlanExecutor executor(&store, &empty);
  auto got = executor.ExecuteQuery(
      rec->query_plans[0].second,
      {{"city", Value(std::string("Boston"))}, {"rate", Value(0.0)}});
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExecutorEdgeTest, DisconnectRemovesRelationshipRecords) {
  auto path = graph_->ResolvePath("Reservation", {"Guest"});
  Query q(*path, {{"Reservation", "ResID"}},
          {{{"Guest", "GuestID"}, PredicateOp::kEq, std::nullopt, "g"}}, {});
  Workload workload(graph_.get());
  ASSERT_TRUE(workload.AddQuery("res", std::move(q)).ok());
  auto dis = Update::MakeConnect(graph_.get(), "Guest", "g", "Reservations",
                                 "r", /*disconnect=*/true);
  ASSERT_TRUE(dis.ok());
  ASSERT_TRUE(workload.AddUpdate("dis", std::move(dis).value(), 1.0).ok());
  Advisor advisor;
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  RecordStore store;
  ASSERT_TRUE(LoadSchema(data_, rec->schema, &store).ok());
  PlanExecutor executor(&store, &rec->schema);

  // Find a guest with a reservation, disconnect it, verify it vanished.
  for (int64_t g = 0; g < 4; ++g) {
    PlanExecutor::Params qp = {{"g", Value(g)}};
    auto before = executor.ExecuteQuery(rec->query_plans[0].second, qp);
    ASSERT_TRUE(before.ok());
    if (before->empty()) continue;
    const int64_t res = std::get<int64_t>((*before)[0][0]);
    PlanExecutor::Params dp = {{"g", Value(g)}, {"r", Value(res)}};
    ASSERT_TRUE(
        executor.ExecuteUpdate(rec->update_plans[0].second, dp).ok());
    auto after = executor.ExecuteQuery(rec->query_plans[0].second, qp);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->size(), before->size() - 1);
    return;
  }
  GTEST_SKIP() << "no guest had reservations in this dataset";
}

TEST_F(ExecutorEdgeTest, DistinctDoublesSurviveDuplicateRemoval) {
  // Two rooms of one hotel whose rates differ by 1e-7: both rates are
  // distinct result rows, even though "%f" renders both as "1.000000".
  Dataset data(graph_.get());
  data.AddRow("Hotel", {Value(I(0)), Value(std::string("H0")),
                        Value(std::string("Boston")), Value(std::string("S")),
                        Value(std::string("A")), Value(std::string("P"))});
  for (int64_t r = 0; r < 2; ++r) {
    data.AddRow("Room", {Value(r), Value(I(100 + r)),
                         Value(1.0000001 + 1e-7 * static_cast<double>(r)),
                         Value(I(1))});
    data.AddLink(0, 0, static_cast<size_t>(r));
  }
  auto path = graph_->ResolvePath("Room", {"Hotel"});
  ASSERT_TRUE(path.ok());
  Workload workload(graph_.get());
  ASSERT_TRUE(workload
                  .AddQuery("rates",
                            Query(*path, {{"Room", "RoomRate"}},
                                  {{{"Hotel", "HotelCity"}, PredicateOp::kEq,
                                    std::nullopt, "city"}},
                                  {}))
                  .ok());
  Advisor advisor;
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  RecordStore store;
  ASSERT_TRUE(LoadSchema(data, rec->schema, &store).ok());
  PlanExecutor executor(&store, &rec->schema);

  PlanExecutor::Params params = {{"city", Value(std::string("Boston"))}};
  auto got = executor.ExecuteQuery(rec->query_plans[0].second, params);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), 2u);
  EXPECT_NE((*got)[0][0], (*got)[1][0]);
  EXPECT_EQ(
      ReferenceEvaluate(data, workload.FindEntry("rates")->query(), params)
          .size(),
      2u);
}

TEST_F(ExecutorEdgeTest, SeparatorsInStringsCannotForgeDuplicates) {
  // Two guests of one room, ("x'|'y", "z") and ("x", "y'|'z"): joined with
  // '|' their rendered names and emails give the same key string, yet they
  // are two distinct rows.
  Dataset data(graph_.get());
  data.AddRow("Room", {Value(I(0)), Value(I(100)), Value(80.0), Value(I(1))});
  data.AddRow("Guest", {Value(I(0)), Value(std::string("x'|'y")),
                        Value(std::string("z"))});
  data.AddRow("Guest", {Value(I(1)), Value(std::string("x")),
                        Value(std::string("y'|'z"))});
  for (int64_t v = 0; v < 2; ++v) {
    data.AddRow("Reservation", {Value(v), Value(I(1)), Value(I(2))});
    data.AddLink(1, 0, static_cast<size_t>(v));
    data.AddLink(2, static_cast<size_t>(v), static_cast<size_t>(v));
  }
  auto path = graph_->ResolvePath("Guest", {"Reservations", "Room"});
  ASSERT_TRUE(path.ok());
  Workload workload(graph_.get());
  ASSERT_TRUE(workload
                  .AddQuery("guests",
                            Query(*path,
                                  {{"Guest", "GuestName"},
                                   {"Guest", "GuestEmail"}},
                                  {{{"Room", "RoomID"}, PredicateOp::kEq,
                                    std::nullopt, "room"}},
                                  {}))
                  .ok());
  Advisor advisor;
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  RecordStore store;
  ASSERT_TRUE(LoadSchema(data, rec->schema, &store).ok());
  PlanExecutor executor(&store, &rec->schema);

  PlanExecutor::Params params = {{"room", Value(I(0))}};
  auto got = executor.ExecuteQuery(rec->query_plans[0].second, params);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->size(), 2u);
  EXPECT_EQ(
      ReferenceEvaluate(data, workload.FindEntry("guests")->query(), params)
          .size(),
      2u);
}

TEST_F(ExecutorEdgeTest, JoinMergesDuplicateContexts) {
  // Hotels a guest stayed at, as a hand-built two-step plan: the guest's
  // reservations with their rooms, then each room's hotel. Three
  // reservations in one room are three first-step contexts that agree on
  // every field still needed (the room ID; the hotel name is not fetched
  // yet), so the join merge keeps one and the second step issues one get
  // (paper §IV-B step 3).
  Dataset data(graph_.get());
  data.AddRow("Hotel", {Value(I(0)), Value(std::string("H0")),
                        Value(std::string("Boston")), Value(std::string("S")),
                        Value(std::string("A")), Value(std::string("P"))});
  data.AddRow("Room", {Value(I(0)), Value(I(100)), Value(80.0), Value(I(1))});
  data.AddLink(0, 0, 0);
  data.AddRow("Guest", {Value(I(0)), Value(std::string("G0")),
                        Value(std::string("g0"))});
  for (int64_t v = 0; v < 3; ++v) {
    data.AddRow("Reservation", {Value(v), Value(I(1)), Value(I(2))});
    data.AddLink(1, 0, static_cast<size_t>(v));
    data.AddLink(2, 0, static_cast<size_t>(v));
  }

  auto cf_path = [&](const std::string& start,
                     const std::vector<std::string>& steps) {
    auto path = graph_->ResolvePath(start, steps);
    EXPECT_TRUE(path.ok()) << path.status();
    return std::move(path).value();
  };
  auto rooms_by_guest = ColumnFamily::Create(
      cf_path("Guest", {"Reservations", "Room"}), {{"Guest", "GuestID"}},
      {{"Reservation", "ResID"}, {"Room", "RoomID"}}, {});
  auto hotel_by_room = ColumnFamily::Create(
      cf_path("Room", {"Hotel"}), {{"Room", "RoomID"}},
      {{"Hotel", "HotelID"}}, {{"Hotel", "HotelName"}});
  ASSERT_TRUE(rooms_by_guest.ok()) << rooms_by_guest.status();
  ASSERT_TRUE(hotel_by_room.ok()) << hotel_by_room.status();
  Schema schema;
  schema.Add(std::move(rooms_by_guest).value(), "rooms_by_guest");
  schema.Add(std::move(hotel_by_room).value(), "hotel_by_room");
  RecordStore store;
  ASSERT_TRUE(LoadSchema(data, schema, &store).ok());

  // Query path Hotel(0) <- Room(1) <- Reservation(2) <- Guest(3).
  const Query query(cf_path("Hotel", {"Rooms", "Reservations", "Guest"}),
                    {{"Hotel", "HotelName"}},
                    {{{"Guest", "GuestID"}, PredicateOp::kEq, std::nullopt,
                      "g"}},
                    {});
  QueryPlan plan;
  plan.query = &query;
  PlanStep by_guest;
  by_guest.cf = schema.FindByName("rooms_by_guest");
  by_guest.from_index = 3;
  by_guest.to_index = 1;
  by_guest.first = true;
  by_guest.access.partition_preds = query.predicates();
  PlanStep by_room;
  by_room.cf = schema.FindByName("hotel_by_room");
  by_room.from_index = 1;
  by_room.to_index = 0;
  by_room.access.partition_uses_id = true;
  plan.steps = {by_guest, by_room};

  PlanExecutor executor(&store, &schema);
  auto got = executor.ExecuteQuery(plan, {{"g", Value(I(0))}});
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), 1u);
  EXPECT_EQ((*got)[0][0], Value(std::string("H0")));
  EXPECT_EQ(store.stats().gets, 2u);  // one per step: 3 contexts merged to 1
}

}  // namespace
}  // namespace nose
