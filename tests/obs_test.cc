// Unit tests for the observability layer: the trace recorder's span
// capture and Chrome trace_event export, the metrics registry's counters /
// gauges / histograms and their JSON snapshot, and the interaction with the
// worker pool (spans recorded inside pool tasks land on named worker lanes),
// the run report's JSON assembly, and the one file reader/writer.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/file.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace nose {
namespace {

// The recorder and registry are process-wide singletons shared by every
// test in this binary; tests therefore Enable() (which clears captured
// events) at their start and use uniquely named metrics or value deltas.

TEST(TraceTest, DisabledRecorderCapturesNothing) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Enable();
  rec.Disable();
  {
    obs::Span span("trace_test.ignored", "test");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(rec.EventCount(), 0u);
}

TEST(TraceTest, SpansRecordNameCategoryAndArgs) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Enable();
  {
    obs::Span span("trace_test.outer", "test");
    EXPECT_TRUE(span.active());
    span.Arg("detail", "value-42");
    obs::Span inner(std::string("trace_test.dynamic"), "test");
  }
  rec.Disable();
  EXPECT_EQ(rec.EventCount(), 2u);
  const std::string json = rec.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("trace_test.outer"), std::string::npos);
  EXPECT_NE(json.find("trace_test.dynamic"), std::string::npos);
  EXPECT_NE(json.find("value-42"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // The exporting thread's lane is named via thread_name metadata.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  const std::vector<std::string> cats = rec.Categories();
  EXPECT_NE(std::find(cats.begin(), cats.end(), "test"), cats.end());
}

TEST(TraceTest, EnableClearsPriorEvents) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Enable();
  { obs::Span span("trace_test.first", "test"); }
  EXPECT_EQ(rec.EventCount(), 1u);
  rec.Enable();  // restart: epoch resets, buffers drop
  EXPECT_EQ(rec.EventCount(), 0u);
  rec.Disable();
}

TEST(TraceTest, EndIsIdempotentAndStopsTheSpan) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Enable();
  {
    obs::Span span("trace_test.ended", "test");
    span.End();
    span.End();  // second End and the destructor must not double-record
  }
  rec.Disable();
  EXPECT_EQ(rec.EventCount(), 1u);
}

TEST(TraceTest, PoolWorkerSpansLandOnNamedLanes) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Enable();
  {
    util::ThreadPool pool(4);
    util::ParallelFor(&pool, 64, [](size_t) {
      obs::Span span("trace_test.task", "test");
    });
  }  // pool destruction joins the workers: buffers are quiescent
  rec.Disable();
  EXPECT_EQ(rec.EventCount(), 64u);
  const std::string json = rec.ToChromeJson();
  // At least one task ran on a pool worker (ParallelFor keeps the calling
  // thread busy too, so not all 64 are guaranteed off-thread — but with 64
  // tasks and 3 helper workers, some must be).
  EXPECT_NE(json.find("pool-worker-"), std::string::npos);
}

TEST(TraceTest, WriteChromeJsonProducesParsableFile) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Enable();
  { obs::Span span("trace_test.file", "test"); }
  rec.Disable();
  const std::string path = ::testing::TempDir() + "obs_test_trace.json";
  std::string error;
  ASSERT_TRUE(rec.WriteChromeJson(path, &error)) << error;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_GT(std::ftell(f), 0);
  std::fclose(f);
  std::remove(path.c_str());
  // Unwritable path reports instead of silently succeeding.
  EXPECT_FALSE(rec.WriteChromeJson("/nonexistent-dir/trace.json", &error));
  EXPECT_FALSE(error.empty());
}

TEST(TraceTest, PhaseSpanMeasuresWhetherOrNotTracingIsOn) {
  obs::TraceRecorder::Global().Disable();
  obs::PhaseSpan off_phase("trace_test.phase_off", "test");
  EXPECT_GE(off_phase.StopSeconds(), 0.0);

  obs::TraceRecorder::Global().Enable();
  obs::PhaseSpan on_phase("trace_test.phase_on", "test");
  EXPECT_GE(on_phase.ElapsedSeconds(), 0.0);
  EXPECT_GE(on_phase.StopSeconds(), 0.0);
  obs::TraceRecorder::Global().Disable();
  EXPECT_EQ(obs::TraceRecorder::Global().EventCount(), 1u);
}

TEST(MetricsTest, CounterAccumulatesAndSnapshots) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& c = reg.GetCounter("obs_test.counter");
  const uint64_t before = c.value();
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), before + 42);
  // The same name resolves to the same object.
  EXPECT_EQ(&reg.GetCounter("obs_test.counter"), &c);
  const auto values = reg.CounterValues();
  EXPECT_EQ(values.at("obs_test.counter"), before + 42);
}

TEST(MetricsTest, GaugeSetAndSetMax) {
  obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("obs_test.gauge");
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.SetMax(2.0);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.SetMax(7.25);
  EXPECT_DOUBLE_EQ(g.value(), 7.25);
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.histogram");
  h.Reset();
  h.Observe(0.5);
  h.Observe(2.0);
  h.Observe(1024.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 1026.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1024.0);
  uint64_t total = 0;
  for (size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    total += h.bucket(i);
  }
  EXPECT_EQ(total, 3u);
}

TEST(MetricsTest, JsonSnapshotIsWellFormedAndFinite) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("obs_test.json_counter").Add(7);
  reg.GetGauge("obs_test.json_gauge").Set(1.25);
  // Non-finite values must degrade to 0 — strict JSON has no NaN/Inf
  // literal, and the CI smoke step validates with python -m json.tool.
  reg.GetGauge("obs_test.json_nonfinite")
      .Set(std::numeric_limits<double>::quiet_NaN());
  reg.GetHistogram("obs_test.json_histogram").Observe(3.0);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_counter\":7"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(MetricsTest, HistogramQuantiles) {
  obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.quantiles");
  h.Reset();
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // empty histogram

  for (int i = 1; i <= 1000; ++i) h.Observe(static_cast<double>(i));
  const double p50 = h.Quantile(0.50);
  const double p95 = h.Quantile(0.95);
  const double p99 = h.Quantile(0.99);
  // Exponential buckets bound the resolution, so pin ordering and range
  // rather than exact values.
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  EXPECT_GT(p50, 100.0);   // far from the minimum
  EXPECT_LT(p50, 900.0);   // and from the maximum
  EXPECT_GT(p99, 500.0);

  // A constant stream collapses every quantile onto the one value.
  h.Reset();
  for (int i = 0; i < 100; ++i) h.Observe(42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 42.0);
}

TEST(MetricsTest, JsonSnapshotCarriesQuantiles) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Histogram& h = reg.GetHistogram("obs_test.json_quantiles");
  h.Reset();
  h.Observe(5.0);
  const std::string json = reg.ToJson();
  const size_t at = json.find("\"obs_test.json_quantiles\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(json.find("\"p50\"", at), std::string::npos);
  EXPECT_NE(json.find("\"p95\"", at), std::string::npos);
  EXPECT_NE(json.find("\"p99\"", at), std::string::npos);
}

TEST(TraceTest, FlushPartialWritesValidJsonMidRecording) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Enable();
  { obs::Span done_span("trace_test.partial_done", "test"); }
  obs::Span open_span("trace_test.partial_open", "test");
  const std::string path = ::testing::TempDir() + "obs_test_partial.json";
  std::string error;
  // Flushed while recording is still live (a span is open): the file must
  // be a complete, parseable Chrome-trace document of everything recorded
  // so far — this is what the crash handler relies on.
  ASSERT_TRUE(rec.FlushPartial(path, &error)) << error;

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  ASSERT_FALSE(content.empty());
  EXPECT_EQ(content.front(), '{');
  while (!content.empty() && content.back() == '\n') content.pop_back();
  EXPECT_EQ(content.back(), '}');
  EXPECT_NE(content.find("trace_test.partial_done"), std::string::npos);

  // The recorder keeps working after a partial flush.
  open_span.End();
  rec.Disable();
}

TEST(ReportTest, JsonStringEscapes) {
  std::string out;
  obs::AppendJsonString(&out, "a\"b\\c\nd\re\tf\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001\"");
}

TEST(ReportTest, SectionsFollowPhasesInInsertionOrder) {
  obs::RunReport report("demo");
  report.AddString("name", "x");
  report.AddPhase("solve", 0.5);
  report.AddSection("digest", "[1]");
  report.AddSection("empty", "");
  report.AddSection("solver", "{}");
  EXPECT_EQ(report.ToJson(),
            "{\"report_version\":1,\"command\":\"demo\",\"name\":\"x\","
            "\"phases\":{\"solve_seconds\":0.5},\"digest\":[1],"
            "\"solver\":{}}");
}

TEST(FileTest, WriteThenReadIsByteExact) {
  const std::string path = ::testing::TempDir() + "obs_test_file.bin";
  const std::string bytes("line\r\n\0tail", 11);
  std::string error;
  ASSERT_TRUE(obs::WriteFile(path, bytes, &error)) << error;
  std::string read;
  ASSERT_TRUE(obs::ReadFile(path, &read, &error)) << error;
  EXPECT_EQ(read, bytes);
  // A rewrite replaces the old contents instead of appending to them.
  ASSERT_TRUE(obs::WriteFile(path, "x", &error)) << error;
  ASSERT_TRUE(obs::ReadFile(path, &read, &error)) << error;
  EXPECT_EQ(read, "x");
  std::remove(path.c_str());

  // Failures report instead of succeeding silently.
  error.clear();
  EXPECT_FALSE(obs::ReadFile(path, &read, &error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_FALSE(obs::ReadFile(::testing::TempDir(), &read, &error));
  error.clear();
  EXPECT_FALSE(obs::WriteFile("/nonexistent-dir/f.json", "{}", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace nose
