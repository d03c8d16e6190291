#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "store/record_store.h"

namespace nose {
namespace {

int64_t I(int64_t v) { return v; }

struct Row {
  ValueTuple clustering;
  ValueTuple values;
};

/// Collects the rows one get visits.
StatusOr<std::vector<Row>> Scan(RecordStore& store, const std::string& name,
                                const ValueTuple& partition,
                                const ValueTuple& prefix = {},
                                const std::optional<RangeBound>& range =
                                    std::nullopt) {
  std::vector<Row> rows;
  NOSE_RETURN_IF_ERROR(store.Get(
      name, partition, prefix, range,
      [&](const ValueTuple& clustering, const ValueTuple& values) {
        rows.push_back({clustering, values});
      }));
  return rows;
}

class RecordStoreTest : public ::testing::Test {
 protected:
  RecordStoreTest() {
    EXPECT_TRUE(store_.CreateColumnFamily("cf", 1, 2, 1).ok());
  }
  RecordStore store_;
};

TEST_F(RecordStoreTest, PutGetRoundTrip) {
  ASSERT_TRUE(store_.Put("cf", {I(1)}, {I(10), I(100)}, {Value(I(7))}).ok());
  ASSERT_TRUE(store_.Put("cf", {I(1)}, {I(20), I(200)}, {Value(I(8))}).ok());
  ASSERT_TRUE(store_.Put("cf", {I(2)}, {I(30), I(300)}, {Value(I(9))}).ok());

  auto rows = Scan(store_, "cf", {I(1)});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].clustering, (ValueTuple{I(10), I(100)}));
  EXPECT_EQ((*rows)[0].values, (ValueTuple{I(7)}));
  EXPECT_EQ((*rows)[1].clustering, (ValueTuple{I(20), I(200)}));

  auto missing = Scan(store_, "cf", {I(99)});
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());
}

TEST_F(RecordStoreTest, RowsComeBackInClusteringOrder) {
  for (int64_t k : {5, 3, 9, 1, 7}) {
    ASSERT_TRUE(store_.Put("cf", {I(1)}, {I(k), I(0)}, {Value(I(k))}).ok());
  }
  auto rows = Scan(store_, "cf", {I(1)});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_TRUE((*rows)[i - 1].clustering < (*rows)[i].clustering);
  }
}

TEST_F(RecordStoreTest, ClusteringPrefixFilters) {
  ASSERT_TRUE(store_.Put("cf", {I(1)}, {I(10), I(1)}, {Value(I(0))}).ok());
  ASSERT_TRUE(store_.Put("cf", {I(1)}, {I(10), I(2)}, {Value(I(0))}).ok());
  ASSERT_TRUE(store_.Put("cf", {I(1)}, {I(11), I(3)}, {Value(I(0))}).ok());
  auto rows = Scan(store_, "cf", {I(1)}, {I(10)});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(RecordStoreTest, RangeScans) {
  for (int64_t k = 1; k <= 10; ++k) {
    ASSERT_TRUE(store_.Put("cf", {I(1)}, {I(k), I(0)}, {Value(I(k))}).ok());
  }
  auto gt = Scan(store_, "cf", {I(1)}, {}, RangeBound{PredicateOp::kGt, I(7)});
  ASSERT_TRUE(gt.ok());
  EXPECT_EQ(gt->size(), 3u);
  auto ge = Scan(store_, "cf", {I(1)}, {}, RangeBound{PredicateOp::kGe, I(7)});
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(ge->size(), 4u);
  auto lt = Scan(store_, "cf", {I(1)}, {}, RangeBound{PredicateOp::kLt, I(3)});
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(lt->size(), 2u);
  auto le = Scan(store_, "cf", {I(1)}, {}, RangeBound{PredicateOp::kLe, I(3)});
  ASSERT_TRUE(le.ok());
  EXPECT_EQ(le->size(), 3u);
}

TEST_F(RecordStoreTest, RangeAfterPrefix) {
  ASSERT_TRUE(store_.Put("cf", {I(1)}, {I(10), I(1)}, {Value(I(0))}).ok());
  ASSERT_TRUE(store_.Put("cf", {I(1)}, {I(10), I(5)}, {Value(I(0))}).ok());
  ASSERT_TRUE(store_.Put("cf", {I(1)}, {I(11), I(9)}, {Value(I(0))}).ok());
  auto rows =
      Scan(store_, "cf", {I(1)}, {I(10)}, RangeBound{PredicateOp::kGt, I(2)});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].clustering, (ValueTuple{I(10), I(5)}));
}

TEST_F(RecordStoreTest, PartialValueWritesMerge) {
  ASSERT_TRUE(store_.CreateColumnFamily("wide", 1, 0, 2).ok());
  ASSERT_TRUE(
      store_.Put("wide", {I(1)}, {}, {Value(I(10)), Value(I(20))}).ok());
  ASSERT_TRUE(store_.Put("wide", {I(1)}, {}, {std::nullopt, Value(I(99))}).ok());
  auto rows = Scan(store_, "wide", {I(1)});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].values, (ValueTuple{I(10), I(99)}));
}

TEST_F(RecordStoreTest, DeleteRemovesRecord) {
  ASSERT_TRUE(store_.Put("cf", {I(1)}, {I(10), I(1)}, {Value(I(0))}).ok());
  EXPECT_EQ(*store_.RowCount("cf"), 1u);
  ASSERT_TRUE(store_.Delete("cf", {I(1)}, {I(10), I(1)}).ok());
  EXPECT_EQ(*store_.RowCount("cf"), 0u);
  // Idempotent.
  ASSERT_TRUE(store_.Delete("cf", {I(1)}, {I(10), I(1)}).ok());
}

TEST_F(RecordStoreTest, MixedValueTypes) {
  ASSERT_TRUE(store_.CreateColumnFamily("mix", 1, 1, 2).ok());
  ASSERT_TRUE(store_
                  .Put("mix", {Value(std::string("Boston"))}, {Value(3.5)},
                       {Value(std::string("x")), Value(true)})
                  .ok());
  auto rows = Scan(store_, "mix", {Value(std::string("Boston"))});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(std::get<std::string>((*rows)[0].values[0]), "x");
  EXPECT_EQ(std::get<bool>((*rows)[0].values[1]), true);
}

TEST_F(RecordStoreTest, ErrorsOnMisuse) {
  EXPECT_FALSE(store_.CreateColumnFamily("cf", 1, 0, 0).ok());  // duplicate
  EXPECT_FALSE(store_.CreateColumnFamily("bad", 0, 0, 0).ok());
  EXPECT_FALSE(Scan(store_, "nope", {I(1)}).ok());
  EXPECT_FALSE(store_.Put("cf", {I(1)}, {I(1)}, {Value(I(0))}).ok());  // arity
  EXPECT_FALSE(Scan(store_, "cf", {I(1)}, {I(1), I(2), I(3)}).ok());
  // Range with full prefix has no component to scan.
  EXPECT_FALSE(Scan(store_, "cf", {I(1)}, {I(1), I(2)},
                    RangeBound{PredicateOp::kGt, I(0)})
                   .ok());
}

TEST_F(RecordStoreTest, StatsAccumulateSimulatedTime) {
  const CostParams params;
  ASSERT_TRUE(store_.Put("cf", {I(1)}, {I(1), I(1)}, {Value(I(0))}).ok());
  const StoreStats after_put = store_.stats();
  EXPECT_GE(after_put.simulated_ms, params.write_request);
  EXPECT_EQ(after_put.puts, 1u);
  EXPECT_EQ(after_put.gets, 0u);
  ASSERT_TRUE(Scan(store_, "cf", {I(1)}).ok());
  const StoreStats after_get = store_.stats();
  EXPECT_GE(after_get.simulated_ms - after_put.simulated_ms,
            params.read_request);
  EXPECT_EQ(after_get.gets - after_put.gets, 1u);
  EXPECT_EQ(after_get.puts - after_put.puts, 0u);
  EXPECT_EQ(after_get.rows_read - after_put.rows_read, 1u);
}

TEST_F(RecordStoreTest, GetChargesExactlyTheVisitedRows) {
  // Three rows per first clustering component 1..6, so every bound below
  // has keys equal to it; string values of varying length make every
  // row's byte charge differ.
  for (int64_t k = 1; k <= 6; ++k) {
    for (int64_t j = 0; j < 3; ++j) {
      const std::string payload(static_cast<size_t>(k + j), 'x');
      ASSERT_TRUE(
          store_.Put("cf", {I(1)}, {I(k), I(j)}, {Value(payload)}).ok());
    }
  }
  auto all = Scan(store_, "cf", {I(1)});
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 18u);

  struct Case {
    const char* what;
    ValueTuple partition;
    ValueTuple prefix;
    std::optional<RangeBound> range;
    size_t want_rows;
  };
  const Case cases[] = {
      {"whole partition", {I(1)}, {}, std::nullopt, 18},
      {"prefix", {I(1)}, {I(4)}, std::nullopt, 3},
      {"lt", {I(1)}, {}, RangeBound{PredicateOp::kLt, I(3)}, 6},
      {"le", {I(1)}, {}, RangeBound{PredicateOp::kLe, I(3)}, 9},
      {"gt", {I(1)}, {}, RangeBound{PredicateOp::kGt, I(3)}, 9},
      {"ge", {I(1)}, {}, RangeBound{PredicateOp::kGe, I(3)}, 12},
      {"gt after prefix", {I(1)}, {I(2)}, RangeBound{PredicateOp::kGt, I(1)},
       1},
      {"ge after prefix", {I(1)}, {I(2)}, RangeBound{PredicateOp::kGe, I(1)},
       2},
      {"missing partition", {I(99)}, {}, std::nullopt, 0},
      {"missing prefix", {I(1)}, {I(7)}, std::nullopt, 0},
      {"empty gt", {I(1)}, {}, RangeBound{PredicateOp::kGt, I(6)}, 0},
      {"empty lt", {I(1)}, {}, RangeBound{PredicateOp::kLt, I(1)}, 0},
  };
  const CostParams& params = store_.params();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    // The expected rows, filtered by brute force from the partition.
    std::vector<Row> want;
    for (const Row& row : *all) {
      if (c.partition != ValueTuple{I(1)} ||
          !std::equal(c.prefix.begin(), c.prefix.end(),
                      row.clustering.begin())) {
        continue;
      }
      if (c.range.has_value()) {
        const Value& probe = row.clustering[c.prefix.size()];
        const Value& bound = c.range->value;
        bool keep = !(probe < bound);  // kGe
        if (c.range->op == PredicateOp::kLt) keep = probe < bound;
        if (c.range->op == PredicateOp::kLe) keep = !(bound < probe);
        if (c.range->op == PredicateOp::kGt) keep = bound < probe;
        if (!keep) continue;
      }
      want.push_back(row);
    }
    const StoreStats before = store_.stats();
    auto got = Scan(store_, "cf", c.partition, c.prefix, c.range);
    ASSERT_TRUE(got.ok()) << got.status();
    const StoreStats after = store_.stats();

    ASSERT_EQ(got->size(), c.want_rows);
    ASSERT_EQ(want.size(), c.want_rows);
    size_t bytes = 0;
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].clustering, want[i].clustering);
      EXPECT_EQ((*got)[i].values, want[i].values);
      bytes += TupleBytes(want[i].clustering) + TupleBytes(want[i].values);
    }
    EXPECT_EQ(after.gets - before.gets, 1u);
    EXPECT_EQ(after.rows_read - before.rows_read, c.want_rows);
    EXPECT_EQ(after.bytes_read - before.bytes_read, bytes);
    // Simulated time is kept in integer nanoseconds, rounded once per
    // charge (the request, then the rows and bytes).
    const double want_ms = params.read_request +
                           static_cast<double>(c.want_rows) * params.read_row +
                           static_cast<double>(bytes) * params.read_byte;
    EXPECT_NEAR(after.simulated_ms - before.simulated_ms, want_ms, 2e-6);
  }
}

TEST_F(RecordStoreTest, ConcurrentScanSeesWholeRows) {
  // Two readers scan one wide partition while a writer appends to it:
  // every visited row is a whole row the writer put, and a reader's count
  // never falls between scans.
  RecordStore store(CostParams(), /*stripes_per_cf=*/4);
  ASSERT_TRUE(store.CreateColumnFamily("wide", 1, 1, 2).ok());
  constexpr int64_t kRows = 400;
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::atomic<int> shrank{0};
  std::atomic<int> errors{0};
  auto reader = [&] {
    size_t last = 0;
    bool more = true;
    while (more) {
      more = !done.load(std::memory_order_acquire);
      size_t count = 0;
      Status s = store.Get(
          "wide", {I(0)}, {}, std::nullopt,
          [&](const ValueTuple& clustering, const ValueTuple& values) {
            ++count;
            const int64_t r = std::get<int64_t>(clustering.at(0));
            if (clustering.size() != 1 || values.size() != 2 ||
                values[0] != Value(r * 2) ||
                values[1] != Value("row" + std::to_string(r))) {
              torn.fetch_add(1);
            }
          });
      if (!s.ok()) errors.fetch_add(1);
      if (count < last) shrank.fetch_add(1);
      last = count;
      std::this_thread::yield();  // let the writer in between scans
    }
    if (last != static_cast<size_t>(kRows)) errors.fetch_add(1);
  };
  std::thread r1(reader);
  std::thread r2(reader);
  std::thread writer([&] {
    for (int64_t r = 0; r < kRows; ++r) {
      if (!store.Put("wide", {I(0)}, {r},
                     {Value(r * 2), Value("row" + std::to_string(r))})
               .ok()) {
        errors.fetch_add(1);
      }
    }
    done.store(true, std::memory_order_release);
  });
  writer.join();
  r1.join();
  r2.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(shrank.load(), 0);
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(store.stats().rows_written, static_cast<uint64_t>(kRows));
}

}  // namespace
}  // namespace nose
