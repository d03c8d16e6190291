#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "advisor/session.h"
#include "rubis/model.h"
#include "rubis/workload.h"
#include "tests/hotel_fixture.h"

namespace nose {
namespace {

/// Every advisor in this file runs with the invariant audit on
/// (analysis/invariants.h): each recommendation is re-checked for plan
/// coverage, predicate partitioning, maintenance completeness and objective
/// consistency before the test's own assertions run.
AdvisorOptions Verified(AdvisorOptions opts = AdvisorOptions()) {
  opts.verify_invariants = true;
  return opts;
}

/// The §II guest-POI query: points of interest near hotels booked by a
/// guest.
Query MakeGuestPoiQuery(const EntityGraph& graph) {
  auto path = graph.ResolvePath(
      "POI", {"Hotels", "Rooms", "Reservations", "Guest"});
  assert(path.ok());
  std::vector<FieldRef> select = {{"POI", "POIName"},
                                  {"POI", "POIDescription"}};
  std::vector<Predicate> preds = {
      {{"Guest", "GuestID"}, PredicateOp::kEq, std::nullopt, "guest"}};
  return Query(std::move(path).value(), std::move(select), std::move(preds),
               {});
}

TEST(AdvisorTest, Fig3QueryGetsMaterializedView) {
  auto graph = MakeHotelGraph();
  Workload workload(graph.get());
  ASSERT_TRUE(workload.AddQuery("guests_by_city", MakeFig3Query(*graph)).ok());

  Advisor advisor(Verified());
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  // Read-only workload: a single materialized view answers the query in one
  // get, and the schema-size stage drops every other family.
  EXPECT_EQ(rec->schema.size(), 1u);
  ASSERT_EQ(rec->query_plans.size(), 1u);
  EXPECT_EQ(rec->query_plans[0].second.steps.size(), 1u);
  EXPECT_GT(rec->num_candidates, 5u);
}

TEST(AdvisorTest, SectionIIGuestPoiExample) {
  auto graph = MakeHotelGraph();
  Workload workload(graph.get());
  ASSERT_TRUE(workload.AddQuery("guest_pois", MakeGuestPoiQuery(*graph)).ok());

  Advisor advisor(Verified());
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->schema.size(), 1u);
  const ColumnFamily& cf = rec->schema.column_families()[0];
  // Keyed by the guest, carrying POI name/description — §II's denormalized
  // column family.
  ASSERT_EQ(cf.partition_key().size(), 1u);
  EXPECT_EQ(cf.partition_key()[0].QualifiedName(), "Guest.GuestID");
  EXPECT_TRUE(cf.ContainsField({"POI", "POIName"}));
  EXPECT_TRUE(cf.ContainsField({"POI", "POIDescription"}));
}

TEST(AdvisorTest, FrequentUpdatesForceNormalization) {
  // §II: "if the application expects to be updating the names and
  // descriptions of points of interest frequently, [the denormalized]
  // column family may not be ideal".
  auto graph = MakeHotelGraph();

  auto make_workload = [&](double update_weight) {
    auto workload = std::make_unique<Workload>(graph.get());
    Status s =
        workload->AddQuery("guest_pois", MakeGuestPoiQuery(*graph), 1.0);
    assert(s.ok());
    auto poi_path = graph->SingleEntityPath("POI");
    auto update = Update::MakeUpdate(
        *poi_path,
        {{"POIDescription", std::nullopt, "desc"}},
        {{{"POI", "POIID"}, PredicateOp::kEq, std::nullopt, "poi"}});
    assert(update.ok());
    s = workload->AddUpdate("update_poi", std::move(update).value(),
                            update_weight);
    assert(s.ok());
    (void)s;
    return workload;
  };

  Advisor advisor(Verified());
  // Light updates: denormalization stays (POI attributes in the guest CF).
  // Each POI is duplicated into ~2000 guest partitions, so the update must
  // be genuinely rare for the duplication to pay off.
  auto light = make_workload(1e-5);
  auto rec_light = advisor.Recommend(*light);
  ASSERT_TRUE(rec_light.ok()) << rec_light.status();

  // Heavy updates: POI attributes should be stored once, keyed by POIID,
  // with the guest CF holding only the structure.
  auto heavy = make_workload(10000.0);
  auto rec_heavy = advisor.Recommend(*heavy);
  ASSERT_TRUE(rec_heavy.ok()) << rec_heavy.status();

  auto denormalized = [](const Recommendation& rec) {
    for (const ColumnFamily& cf : rec.schema.column_families()) {
      const bool keyed_by_guest =
          cf.partition_key().size() == 1 &&
          cf.partition_key()[0].QualifiedName() == "Guest.GuestID";
      if (keyed_by_guest && cf.ContainsField({"POI", "POIDescription"})) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(denormalized(*rec_light));
  EXPECT_FALSE(denormalized(*rec_heavy));
  // The heavy-update schema still answers the query (plan exists) but via a
  // normalized split: a structure CF plus a POI materialization CF.
  ASSERT_EQ(rec_heavy->query_plans.size(), 1u);
  EXPECT_GE(rec_heavy->query_plans[0].second.steps.size(), 2u);
}

TEST(AdvisorTest, SpaceConstraintForcesSmallerSchema) {
  auto graph = MakeHotelGraph();
  Workload workload(graph.get());
  ASSERT_TRUE(workload.AddQuery("guests_by_city", MakeFig3Query(*graph)).ok());
  ASSERT_TRUE(workload.AddQuery("guest_pois", MakeGuestPoiQuery(*graph)).ok());

  Advisor unconstrained(Verified());
  auto rec_free = unconstrained.Recommend(workload);
  ASSERT_TRUE(rec_free.ok()) << rec_free.status();
  const double free_size = rec_free->schema.TotalSizeBytes();
  const double free_cost = rec_free->objective;

  AdvisorOptions opts;
  opts.optimizer.space_limit_bytes = free_size * 0.5;
  Advisor constrained(Verified(opts));
  auto rec_tight = constrained.Recommend(workload);
  ASSERT_TRUE(rec_tight.ok()) << rec_tight.status();
  EXPECT_LE(rec_tight->schema.TotalSizeBytes(), free_size * 0.5);
  // Less space => no cheaper than the unconstrained optimum.
  EXPECT_GE(rec_tight->objective, free_cost - 1e-9);
}

TEST(AdvisorTest, ImpossibleSpaceConstraintIsInfeasible) {
  auto graph = MakeHotelGraph();
  Workload workload(graph.get());
  ASSERT_TRUE(workload.AddQuery("guests_by_city", MakeFig3Query(*graph)).ok());
  AdvisorOptions opts;
  opts.optimizer.space_limit_bytes = 1.0;  // one byte
  Advisor advisor(Verified(opts));
  auto rec = advisor.Recommend(workload);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kInfeasible);
}

TEST(AdvisorTest, ObjectiveMatchesRecommendedPlanCosts) {
  auto graph = MakeHotelGraph();
  Workload workload(graph.get());
  ASSERT_TRUE(workload.AddQuery("guests_by_city", MakeFig3Query(*graph), 3.0)
                  .ok());
  ASSERT_TRUE(workload.AddQuery("guest_pois", MakeGuestPoiQuery(*graph), 1.0)
                  .ok());
  Advisor advisor(Verified());
  auto rec = advisor.Recommend(workload);
  ASSERT_TRUE(rec.ok()) << rec.status();
  double replayed = 0.0;
  for (const auto& [name, plan] : rec->query_plans) {
    const WorkloadEntry* entry = workload.FindEntry(name);
    replayed += entry->WeightIn(Workload::kDefaultMix) / 4.0 * plan.cost;
  }
  EXPECT_NEAR(replayed, rec->objective, 1e-6 * std::max(1.0, rec->objective));
}

TEST(AdvisorTest, SecondPhaseMinimizesSchemaSize) {
  auto graph = MakeHotelGraph();
  Workload workload(graph.get());
  ASSERT_TRUE(workload.AddQuery("guests_by_city", MakeFig3Query(*graph)).ok());

  AdvisorOptions no_min;
  no_min.optimizer.minimize_schema_size = false;
  Advisor plain(Verified(no_min));
  auto rec_plain = plain.Recommend(workload);
  Advisor minimizing(Verified());
  auto rec_min = minimizing.Recommend(workload);
  ASSERT_TRUE(rec_plain.ok());
  ASSERT_TRUE(rec_min.ok());
  EXPECT_LE(rec_min->schema.size(), rec_plain->schema.size());
  EXPECT_NEAR(rec_min->objective, rec_plain->objective,
              1e-5 * std::max(1.0, rec_plain->objective));
}

TEST(AdvisorTest, AdviseAllMixesSharesAcrossSubsetGroups) {
  // "small" weights a strict subset of the default mix's statements and
  // "shift" reweights the default mix's own. AdviseAllMixes advises the
  // mixes in the requested order through one session: "small" and
  // "default" enumerate and plan cold, "shift" reuses the default group —
  // and no path changes the output.
  auto graph = MakeHotelGraph();
  Workload workload(graph.get());
  ASSERT_TRUE(workload.AddQuery("guests_by_city", MakeFig3Query(*graph), 2.0)
                  .ok());
  ASSERT_TRUE(workload.AddQuery("guest_pois", MakeGuestPoiQuery(*graph), 1.0)
                  .ok());
  ASSERT_TRUE(workload.SetWeight("guests_by_city", "small", 1.0).ok());
  ASSERT_TRUE(workload.SetWeight("guests_by_city", "shift", 1.0).ok());
  ASSERT_TRUE(workload.SetWeight("guest_pois", "shift", 5.0).ok());

  Advisor advisor(Verified());
  auto all = advisor.AdviseAllMixes(workload, {"small", "default", "shift"});
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all->size(), 3u);
  EXPECT_EQ((*all)[0].first, "small");
  EXPECT_EQ((*all)[0].second.reuse, PoolReuse::kCold);
  EXPECT_EQ((*all)[1].first, "default");
  EXPECT_EQ((*all)[1].second.reuse, PoolReuse::kCold);
  EXPECT_EQ((*all)[2].first, "shift");
  EXPECT_EQ((*all)[2].second.reuse, PoolReuse::kSameStatements);
  for (const auto& [mix, rec] : *all) {
    auto solo = advisor.Recommend(workload, mix);
    ASSERT_TRUE(solo.ok()) << mix << ": " << solo.status();
    EXPECT_EQ(solo->reuse, PoolReuse::kCold) << mix;
    EXPECT_EQ(rec.ToString(), solo->ToString()) << mix;
  }
}

// ===========================================================================
// AdvisingSession
// ===========================================================================

/// Hotel workload with two queries and an update; mixes "default", a
/// reweighted "shift" over the same statements, and a one-query "sub".
std::unique_ptr<Workload> MakeEvolvingWorkload(const EntityGraph& graph) {
  auto workload = std::make_unique<Workload>(&graph);
  (void)workload->AddQuery("guests_by_city", MakeFig3Query(graph), 3.0);
  auto poi_path = graph.SingleEntityPath("POI");
  auto update = Update::MakeUpdate(
      *poi_path, {{"POIDescription", std::nullopt, "d"}},
      {{{"POI", "POIID"}, PredicateOp::kEq, std::nullopt, "p"}});
  (void)workload->AddUpdate("upd_poi", std::move(update).value(), 1.0);
  (void)workload->SetWeight("guests_by_city", "shift", 0.5);
  (void)workload->SetWeight("upd_poi", "shift", 4.0);
  (void)workload->SetWeight("guests_by_city", "sub", 1.0);
  return workload;
}

TEST(AdvisingSessionTest, SameStatementSetReusesGroupAndMatchesCold) {
  auto graph = MakeHotelGraph();
  auto workload = MakeEvolvingWorkload(*graph);

  AdvisingSession session;
  auto first = session.Advise(*workload, Workload::kDefaultMix);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->reuse, PoolReuse::kCold);

  auto warm = session.Advise(*workload, "shift");
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->reuse, PoolReuse::kSameStatements);

  auto cold = Advisor().Recommend(*workload, "shift");
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(warm->ToString(), cold->ToString());
  EXPECT_NEAR(warm->objective, cold->objective,
              1e-9 * std::max(1.0, cold->objective));
}

TEST(AdvisingSessionTest, SubsetOfAGroupAdvisesColdAndMatches) {
  // A mix whose statements a group contains still enumerates and plans its
  // own pool: only the same statement set reuses a group.
  auto graph = MakeHotelGraph();
  auto workload = MakeEvolvingWorkload(*graph);

  AdvisingSession session;
  ASSERT_TRUE(session.Advise(*workload, Workload::kDefaultMix).ok());
  auto sub = session.Advise(*workload, "sub");
  ASSERT_TRUE(sub.ok()) << sub.status();
  EXPECT_EQ(sub->reuse, PoolReuse::kCold);

  auto cold = Advisor().Recommend(*workload, "sub");
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(sub->ToString(), cold->ToString());
}

TEST(AdvisingSessionTest, SupersetGrowthEnumeratesFreshButMatches) {
  auto graph = MakeHotelGraph();
  auto workload = MakeEvolvingWorkload(*graph);

  AdvisingSession session;
  ASSERT_TRUE(session.Advise(*workload, "sub").ok());
  // The statement set grew: the sub pool cannot answer the update, so this
  // re-advise re-enumerates — but still matches cold output exactly.
  auto grown = session.Advise(*workload, Workload::kDefaultMix);
  ASSERT_TRUE(grown.ok()) << grown.status();
  EXPECT_EQ(grown->reuse, PoolReuse::kCold);

  auto cold = Advisor().Recommend(*workload, Workload::kDefaultMix);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(grown->ToString(), cold->ToString());
}

TEST(AdvisingSessionTest, ReturningStatementSetReusesItsEarlierGroup) {
  // sub -> default -> sub: the session keeps every group, so the third
  // call finds the first group again.
  auto graph = MakeHotelGraph();
  auto workload = MakeEvolvingWorkload(*graph);

  AdvisingSession session;
  ASSERT_TRUE(session.Advise(*workload, "sub").ok());
  ASSERT_TRUE(session.Advise(*workload, Workload::kDefaultMix).ok());
  auto again = session.Advise(*workload, "sub");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->reuse, PoolReuse::kSameStatements);
  EXPECT_EQ(again->timing.enumeration_seconds, 0.0);

  auto cold = Advisor().Recommend(*workload, "sub");
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(again->ToString(), cold->ToString());
}

/// The solve time splits into the cost solve and the schema-size solve,
/// and the split accounts for it exactly.
void ExpectSolveSplit(const AdvisorTiming& timing, const std::string& mix) {
  EXPECT_GE(timing.cost_solve_seconds, 0.0) << mix;
  EXPECT_GE(timing.size_solve_seconds, 0.0) << mix;
  EXPECT_EQ(timing.bip_solve_seconds,
            timing.cost_solve_seconds + timing.size_solve_seconds)
      << mix;
}

/// Enumeration, the cost, build and solve phases and "other" add up to the
/// total: no phase is counted twice.
void ExpectPhasesAddUp(const AdvisorTiming& timing, const std::string& mix) {
  EXPECT_NEAR(timing.enumeration_seconds + timing.cost_calculation_seconds +
                  timing.bip_construction_seconds + timing.bip_solve_seconds +
                  timing.other_seconds,
              timing.total_seconds, 1e-9)
      << mix;
}

TEST(AdvisorTest, TimingBreakdownStaysNonNegative) {
  // Shared-pool advising hands later mixes cached plan spaces, which once
  // drove the residual "other" bucket (total minus attributed phases)
  // negative. Every bucket must be clamped to a physical value, and the
  // buckets must add up to the total.
  auto graph = MakeHotelGraph();
  Workload workload(graph.get());
  ASSERT_TRUE(workload.AddQuery("guests_by_city", MakeFig3Query(*graph), 2.0)
                  .ok());
  ASSERT_TRUE(workload.AddQuery("guest_pois", MakeGuestPoiQuery(*graph), 1.0)
                  .ok());
  ASSERT_TRUE(workload.SetWeight("guests_by_city", "shift", 1.0).ok());
  ASSERT_TRUE(workload.SetWeight("guest_pois", "shift", 5.0).ok());

  Advisor advisor(Verified());
  auto all = advisor.AdviseAllMixes(workload, {"default", "shift"});
  ASSERT_TRUE(all.ok()) << all.status();
  for (const auto& [mix, rec] : *all) {
    EXPECT_GE(rec.timing.enumeration_seconds, 0.0) << mix;
    EXPECT_GE(rec.timing.cost_calculation_seconds, 0.0) << mix;
    EXPECT_GE(rec.timing.bip_construction_seconds, 0.0) << mix;
    EXPECT_GE(rec.timing.bip_solve_seconds, 0.0) << mix;
    EXPECT_GE(rec.timing.other_seconds, 0.0) << mix;
    EXPECT_GE(rec.timing.total_seconds, 0.0) << mix;
    ExpectSolveSplit(rec.timing, mix);
    ExpectPhasesAddUp(rec.timing, mix);
  }

  // On RUBiS `default` both stages do real work: branch and bound for the
  // cost, then the drop pass over the fourteen selected families.
  auto rubis_graph = rubis::MakeGraph();
  ASSERT_TRUE(rubis_graph.ok()) << rubis_graph.status();
  auto rubis_workload = rubis::MakeWorkload(**rubis_graph);
  ASSERT_TRUE(rubis_workload.ok()) << rubis_workload.status();
  auto rec = advisor.Recommend(**rubis_workload, rubis::kBiddingMix);
  ASSERT_TRUE(rec.ok()) << rec.status();
  ExpectSolveSplit(rec->timing, rubis::kBiddingMix);
  ExpectPhasesAddUp(rec->timing, rubis::kBiddingMix);
  EXPECT_GT(rec->timing.cost_solve_seconds, 0.0);
  EXPECT_GT(rec->timing.size_solve_seconds, 0.0);
}

}  // namespace
}  // namespace nose
