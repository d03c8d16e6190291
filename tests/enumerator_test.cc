#include <algorithm>

#include <gtest/gtest.h>

#include "enumerator/enumerator.h"
#include "planner/plan_space.h"
#include "planner/update_planner.h"
#include "tests/hotel_fixture.h"

namespace nose {
namespace {

bool PoolContains(const CandidatePool& pool, const std::string& key_substr) {
  return std::any_of(pool.candidates().begin(), pool.candidates().end(),
                     [&](const ColumnFamily& cf) {
                       return cf.key().find(key_substr) != std::string::npos;
                     });
}

const ColumnFamily* FindCf(const CandidatePool& pool,
                           const std::string& key_substr) {
  for (const ColumnFamily& cf : pool.candidates()) {
    if (cf.key().find(key_substr) != std::string::npos) return &cf;
  }
  return nullptr;
}

class EnumeratorTest : public ::testing::Test {
 protected:
  EnumeratorTest() : graph_(MakeHotelGraph()) {}
  std::unique_ptr<EntityGraph> graph_;
};

TEST_F(EnumeratorTest, Fig3MaterializedViewEnumerated) {
  Enumerator enumerator;
  CandidatePool pool;
  enumerator.EnumerateQuery(MakeFig3Query(*graph_), &pool);
  EXPECT_GT(pool.size(), 10u);
  // The paper's §IV-A1 materialized view: [HotelCity][RoomRate, ids]
  // [GuestName, GuestEmail].
  const ColumnFamily* mv = FindCf(
      pool,
      "[Hotel.HotelCity][Room.RoomRate, Guest.GuestID, Reservation.ResID, "
      "Room.RoomID, Hotel.HotelID][Guest.GuestEmail, Guest.GuestName]");
  ASSERT_NE(mv, nullptr);
  // Key-only split variant (paper: "one that returns only the key
  // attributes").
  EXPECT_TRUE(PoolContains(
      pool,
      "[Hotel.HotelCity][Room.RoomRate, Guest.GuestID, Reservation.ResID, "
      "Room.RoomID, Hotel.HotelID][]"));
  // Materialization lookup [GuestID][][GuestName, GuestEmail].
  EXPECT_TRUE(PoolContains(
      pool, "[Guest.GuestID][][Guest.GuestEmail, Guest.GuestName]"));
}

TEST_F(EnumeratorTest, RelaxationProducesDeferredVariants) {
  // The Fig. 6 prefix query: relaxation drops RoomRate from the key.
  auto path = graph_->ResolvePath("Room", {"Hotel"});
  Query q(*path, {{"Room", "RoomID"}},
          {{{"Hotel", "HotelCity"}, PredicateOp::kEq, std::nullopt, "c"},
           {{"Room", "RoomRate"}, PredicateOp::kGt, std::nullopt, "r"}},
          {});
  Enumerator with_relax;
  CandidatePool pool;
  with_relax.EnumerateQuery(q, &pool);
  // CF1 of Fig. 6 (our canonical form also carries HotelID, per §IV-A1's
  // "we include the ID of each entity along the path").
  EXPECT_TRUE(PoolContains(
      pool, "[Hotel.HotelCity][Room.RoomRate, Room.RoomID, Hotel.HotelID][]"));
  // CF2 of Fig. 6 (relaxed: no RoomRate anywhere in the key).
  EXPECT_TRUE(
      PoolContains(pool, "[Hotel.HotelCity][Room.RoomID, Hotel.HotelID][]"));
  // CF5 of Fig. 6 (materialization carrying the deferred predicate field).
  EXPECT_TRUE(PoolContains(pool, "[Room.RoomID][][Room.RoomRate]"));

  EnumeratorOptions no_relax;
  no_relax.enable_relaxation = false;
  Enumerator without(no_relax);
  CandidatePool pool2;
  without.EnumerateQuery(q, &pool2);
  EXPECT_LT(pool2.size(), pool.size());
}

TEST_F(EnumeratorTest, SplitsToggle) {
  EnumeratorOptions no_splits;
  no_splits.enable_splits = false;
  Enumerator without(no_splits);
  Enumerator with_splits;
  CandidatePool p1, p2;
  without.EnumerateQuery(MakeFig3Query(*graph_), &p1);
  with_splits.EnumerateQuery(MakeFig3Query(*graph_), &p2);
  EXPECT_LT(p1.size(), p2.size());
}

TEST_F(EnumeratorTest, CombineMergesCompatibleFamilies) {
  // Two single-entity materializations with the same partition key and no
  // clustering must combine into one family with the union of values.
  auto guest = graph_->SingleEntityPath("Guest");
  CandidatePool pool;
  pool.Intern(*ColumnFamily::Create(*guest, {{"Guest", "GuestID"}}, {},
                                    {{"Guest", "GuestName"}}));
  pool.Intern(*ColumnFamily::Create(*guest, {{"Guest", "GuestID"}}, {},
                                    {{"Guest", "GuestEmail"}}));
  Enumerator enumerator;
  enumerator.Combine(&pool);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_TRUE(PoolContains(
      pool, "[Guest.GuestID][][Guest.GuestEmail, Guest.GuestName]"));

  EnumeratorOptions off;
  off.enable_combination = false;
  CandidatePool pool2;
  pool2.Intern(*ColumnFamily::Create(*guest, {{"Guest", "GuestID"}}, {},
                                     {{"Guest", "GuestName"}}));
  pool2.Intern(*ColumnFamily::Create(*guest, {{"Guest", "GuestID"}}, {},
                                     {{"Guest", "GuestEmail"}}));
  Enumerator disabled(off);
  disabled.Combine(&pool2);
  EXPECT_EQ(pool2.size(), 2u);
}

TEST_F(EnumeratorTest, CombineRequiresMatchingShape) {
  auto guest = graph_->SingleEntityPath("Guest");
  auto hotel = graph_->SingleEntityPath("Hotel");
  CandidatePool pool;
  // Different partition keys: no combination.
  pool.Intern(*ColumnFamily::Create(*guest, {{"Guest", "GuestID"}}, {},
                                    {{"Guest", "GuestName"}}));
  pool.Intern(*ColumnFamily::Create(*hotel, {{"Hotel", "HotelID"}}, {},
                                    {{"Hotel", "HotelName"}}));
  // Clustering key present: no combination.
  pool.Intern(*ColumnFamily::Create(*guest, {{"Guest", "GuestID"}},
                                    {{"Guest", "GuestName"}},
                                    {{"Guest", "GuestEmail"}}));
  Enumerator enumerator;
  const size_t before = pool.size();
  enumerator.Combine(&pool);
  EXPECT_EQ(pool.size(), before);
}

TEST_F(EnumeratorTest, WorkloadEnumerationCoversSupportQueries) {
  Workload workload(graph_.get());
  ASSERT_TRUE(workload.AddQuery("q", MakeFig3Query(*graph_)).ok());
  auto guest = graph_->SingleEntityPath("Guest");
  auto upd = Update::MakeUpdate(
      *guest, {{"GuestName", std::nullopt, "n"}},
      {{{"Guest", "GuestID"}, PredicateOp::kEq, std::nullopt, "g"}});
  ASSERT_TRUE(upd.ok());
  ASSERT_TRUE(workload.AddUpdate("u", std::move(upd).value()).ok());

  Enumerator enumerator;
  CandidatePool pool = enumerator.EnumerateWorkload(workload, "default");
  // Every support query of every (update, candidate) pair must itself have
  // a plan against the pool (the guarantee Algorithm 1's double round
  // provides).
  CostModel cm;
  CardinalityEstimator est(graph_.get(), &cm.params());
  QueryPlanner planner(&cm, &est);
  const WorkloadEntry* entry = workload.FindEntry("u");
  for (const ColumnFamily& cf : pool.candidates()) {
    if (!Modifies(entry->update(), cf)) continue;
    for (const Query& sq : SupportQueries(entry->update(), cf)) {
      PlanSpace space = planner.Build(sq, pool.candidates());
      EXPECT_TRUE(space.HasPlan())
          << "unanswerable support query for " << cf.ToString() << ": "
          << sq.ToString();
    }
  }
}

TEST_F(EnumeratorTest, PoolDeduplicates) {
  Enumerator enumerator;
  CandidatePool pool;
  enumerator.EnumerateQuery(MakeFig3Query(*graph_), &pool);
  const size_t once = pool.size();
  enumerator.EnumerateQuery(MakeFig3Query(*graph_), &pool);
  EXPECT_EQ(pool.size(), once);
}

TEST_F(EnumeratorTest, OrderByFieldsAreCarried) {
  auto path = graph_->ResolvePath("Room", {"Hotel"});
  Query q(*path, {{"Room", "RoomID"}},
          {{{"Hotel", "HotelCity"}, PredicateOp::kEq, std::nullopt, "c"}},
          {OrderField{{"Room", "RoomRate"}}});
  Enumerator enumerator;
  CandidatePool pool;
  enumerator.EnumerateQuery(q, &pool);
  // Clustered variant (pre-sorted results).
  EXPECT_TRUE(PoolContains(
      pool, "[Hotel.HotelCity][Room.RoomRate, Room.RoomID, Hotel.HotelID][]"));
  // Unclustered variant must still carry RoomRate for the client sort.
  bool found_carrying = false;
  for (const ColumnFamily& cf : pool.candidates()) {
    if (cf.clustering_key().size() >= 1 &&
        !(cf.clustering_key()[0] == FieldRef{"Room", "RoomRate"}) &&
        cf.ContainsField({"Room", "RoomRate"})) {
      found_carrying = true;
    }
  }
  EXPECT_TRUE(found_carrying);
}

}  // namespace
}  // namespace nose
