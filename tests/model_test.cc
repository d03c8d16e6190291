#include <gtest/gtest.h>

#include "model/entity_graph.h"
#include "tests/hotel_fixture.h"

namespace nose {
namespace {

TEST(EntityTest, AutoIdField) {
  Entity e("Guest", 100);
  EXPECT_EQ(e.id_field().name, "GuestID");
  EXPECT_EQ(e.id_field().type, FieldType::kId);
  EXPECT_EQ(e.fields().size(), 1u);
}

TEST(EntityTest, AddAndFindFields) {
  Entity e("Guest", 100);
  ASSERT_TRUE(e.AddField({"GuestName", FieldType::kString, 0, 0}).ok());
  EXPECT_NE(e.FindField("GuestName"), nullptr);
  EXPECT_EQ(e.FindField("Nope"), nullptr);
  // Duplicate field rejected.
  EXPECT_EQ(e.AddField({"GuestName", FieldType::kString, 0, 0}).code(),
            StatusCode::kAlreadyExists);
  // Second ID field rejected.
  EXPECT_EQ(e.AddField({"Other", FieldType::kId, 0, 0}).code(),
            StatusCode::kInvalidArgument);
}

TEST(EntityTest, FieldCardinalityDefaultsAndClamps) {
  Entity e("Guest", 100);
  ASSERT_TRUE(e.AddField({"GuestName", FieldType::kString, 0, 0}).ok());
  ASSERT_TRUE(e.AddField({"City", FieldType::kString, 0, 12}).ok());
  ASSERT_TRUE(e.AddField({"Huge", FieldType::kInteger, 0, 100000}).ok());
  ASSERT_TRUE(e.AddField({"Vip", FieldType::kBoolean, 0, 0}).ok());
  EXPECT_EQ(e.FieldCardinality(e.id_field()), 100u);
  EXPECT_EQ(e.FieldCardinality(*e.FindField("GuestName")), 100u);  // derive
  EXPECT_EQ(e.FieldCardinality(*e.FindField("City")), 12u);
  EXPECT_EQ(e.FieldCardinality(*e.FindField("Huge")), 100u);  // clamp
  EXPECT_EQ(e.FieldCardinality(*e.FindField("Vip")), 2u);
}

TEST(EntityGraphTest, HotelModelResolves) {
  auto graph = MakeHotelGraph();
  EXPECT_NE(graph->FindEntity("Hotel"), nullptr);
  EXPECT_NE(graph->FindEntity("Amenity"), nullptr);
  EXPECT_EQ(graph->FindEntity("Motel"), nullptr);
  EXPECT_EQ(graph->relationships().size(), 5u);

  auto field = graph->ResolveField({"Hotel", "HotelCity"});
  ASSERT_TRUE(field.ok());
  EXPECT_EQ((*field)->type, FieldType::kString);
  EXPECT_FALSE(graph->ResolveField({"Hotel", "Zip"}).ok());
  EXPECT_FALSE(graph->ResolveField({"Inn", "HotelCity"}).ok());
}

TEST(EntityGraphTest, PathResolution) {
  auto graph = MakeHotelGraph();
  auto path = graph->ResolvePath("Guest", {"Reservations", "Room", "Hotel"});
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->NumEntities(), 4u);
  EXPECT_EQ(path->EntityAt(0), "Guest");
  EXPECT_EQ(path->EntityAt(3), "Hotel");
  EXPECT_EQ(path->IndexOfEntity("Room"), 2);
  EXPECT_EQ(path->IndexOfEntity("POI"), -1);

  // Unknown step.
  EXPECT_FALSE(graph->ResolvePath("Guest", {"Rooms"}).ok());
  // Revisiting an entity is rejected.
  EXPECT_FALSE(
      graph->ResolvePath("Guest", {"Reservations", "Guest"}).ok());
}

TEST(EntityGraphTest, PathReversal) {
  auto graph = MakeHotelGraph();
  auto path = graph->ResolvePath("Guest", {"Reservations", "Room", "Hotel"});
  ASSERT_TRUE(path.ok());
  KeyPath rev = path->Reversed();
  EXPECT_EQ(rev.EntityAt(0), "Hotel");
  EXPECT_EQ(rev.EntityAt(3), "Guest");
  EXPECT_EQ(rev.Reversed(), *path);
}

TEST(EntityGraphTest, SubPath) {
  auto graph = MakeHotelGraph();
  auto path = graph->ResolvePath("Guest", {"Reservations", "Room", "Hotel"});
  ASSERT_TRUE(path.ok());
  KeyPath sub = path->SubPath(1, 3);
  EXPECT_EQ(sub.NumEntities(), 3u);
  EXPECT_EQ(sub.EntityAt(0), "Reservation");
  EXPECT_EQ(sub.EntityAt(2), "Hotel");
  KeyPath single = path->SubPath(2, 2);
  EXPECT_EQ(single.NumEntities(), 1u);
  EXPECT_EQ(single.EntityAt(0), "Room");
}

TEST(EntityGraphTest, StepFanout) {
  auto graph = MakeHotelGraph();
  // Hotel -> Rooms: 10000 rooms / 100 hotels = 100 per hotel.
  auto path = graph->ResolvePath("Hotel", {"Rooms"});
  ASSERT_TRUE(path.ok());
  EXPECT_DOUBLE_EQ(graph->StepFanout(path->steps()[0]), 100.0);
  // Reverse: each room has exactly one hotel.
  KeyPath rev = path->Reversed();
  EXPECT_DOUBLE_EQ(graph->StepFanout(rev.steps()[0]), 1.0);
  // M:N with explicit link count: Hotel->POI = 1000 links / 100 hotels.
  auto poi = graph->ResolvePath("Hotel", {"PointsOfInterest"});
  ASSERT_TRUE(poi.ok());
  EXPECT_DOUBLE_EQ(graph->StepFanout(poi->steps()[0]), 10.0);
  EXPECT_DOUBLE_EQ(graph->StepFanout(poi->Reversed().steps()[0]), 2.0);
}

TEST(EntityGraphTest, PathInstanceCount) {
  auto graph = MakeHotelGraph();
  auto path = graph->ResolvePath("Hotel", {"Rooms", "Reservations"});
  ASSERT_TRUE(path.ok());
  // 100 hotels * 100 rooms/hotel * 10 reservations/room = 100k instances.
  EXPECT_DOUBLE_EQ(graph->PathInstanceCount(*path), 100000.0);
  // Direction invariant.
  EXPECT_DOUBLE_EQ(graph->PathInstanceCount(path->Reversed()), 100000.0);
}

TEST(EntityGraphTest, RejectsSelfRelationship) {
  EntityGraph graph;
  ASSERT_TRUE(graph.AddEntity(Entity("A", 10)).ok());
  EXPECT_EQ(graph
                .AddRelationship(
                    {"A", "A", Cardinality::kOneToMany, "next", "prev"})
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(EntityGraphTest, RejectsDuplicateStepNames) {
  EntityGraph graph;
  ASSERT_TRUE(graph.AddEntity(Entity("A", 10)).ok());
  ASSERT_TRUE(graph.AddEntity(Entity("B", 10)).ok());
  ASSERT_TRUE(graph.AddEntity(Entity("C", 10)).ok());
  ASSERT_TRUE(
      graph.AddRelationship({"A", "B", Cardinality::kOneToMany, "bs", "a"})
          .ok());
  EXPECT_EQ(graph.AddRelationship({"A", "C", Cardinality::kOneToMany, "bs", "a2"})
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(QueryTest, ValidationRules) {
  auto graph = MakeHotelGraph();
  Query q = MakeFig3Query(*graph);
  EXPECT_TRUE(q.Validate().ok());

  // Field off the path.
  {
    auto path = graph->ResolvePath("Guest", {"Reservations"});
    Query bad(*path, {{"Hotel", "HotelCity"}},
              {{{"Guest", "GuestID"}, PredicateOp::kEq, std::nullopt, "g"}},
              {});
    EXPECT_FALSE(bad.Validate().ok());
  }
  // No equality predicate.
  {
    auto path = graph->SingleEntityPath("Guest");
    Query bad(*path, {{"Guest", "GuestName"}},
              {{{"Guest", "GuestName"}, PredicateOp::kGt, std::nullopt, "n"}},
              {});
    EXPECT_FALSE(bad.Validate().ok());
  }
}

TEST(QueryTest, PredicateAccessors) {
  auto graph = MakeHotelGraph();
  Query q = MakeFig3Query(*graph);
  EXPECT_EQ(q.PredicatesOn(3).size(), 1u);  // HotelCity on Hotel
  EXPECT_EQ(q.PredicatesOn(2).size(), 1u);  // RoomRate on Room
  EXPECT_EQ(q.PredicatesOn(0).size(), 0u);
  EXPECT_EQ(q.PredicatesFrom(2).size(), 2u);
  EXPECT_NE(q.ToString().find("SELECT Guest.GuestName"), std::string::npos);
}

}  // namespace
}  // namespace nose
