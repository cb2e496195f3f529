#include "obs/obs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <cstdint>
#include <filesystem>

#include "core/thread_pool.h"
#include "df/dataframe.h"
#include "df/partition_store.h"
#include "spatial/grid.h"
#include "spatial/join.h"
#include "spatial/strtree.h"
#include "serve/engine.h"
#include "tensor/tensor.h"

namespace obs = ::geotorch::obs;

namespace {

// Minimal structural JSON validator: checks quote/escape handling and
// that braces/brackets balance outside of strings. Not a full parser,
// but enough to catch unescaped names and truncated output.
bool JsonBalanced(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty();
}

const obs::SpanNode* FindNode(const std::vector<obs::SpanNode>& nodes,
                              const std::string& name) {
  for (const auto& n : nodes) {
    if (n.name == name) return &n;
  }
  return nullptr;
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::Reset();
  }
  void TearDown() override {
    obs::SetEnabled(true);
    obs::Reset();
  }
};

TEST_F(ObsTest, CounterInterningAndAdd) {
  obs::Counter* a = obs::GetCounter("test.counter_a");
  obs::Counter* a2 = obs::GetCounter("test.counter_a");
  obs::Counter* b = obs::GetCounter("test.counter_b");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  a->Add(3);
  a->Add(4);
  b->Add(1);
  EXPECT_EQ(a->value(), 7);
  EXPECT_EQ(b->value(), 1);

  const auto values = obs::CounterValues();
  ASSERT_GE(values.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      values.begin(), values.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));
  auto it = std::find_if(values.begin(), values.end(), [](const auto& kv) {
    return kv.first == "test.counter_a";
  });
  ASSERT_NE(it, values.end());
  EXPECT_EQ(it->second, 7);
}

TEST_F(ObsTest, CounterMacroCachesAndAdds) {
  for (int i = 0; i < 5; ++i) {
    GEO_OBS_COUNT("test.macro_counter", 2);
  }
  EXPECT_EQ(obs::GetCounter("test.macro_counter")->value(), 10);
}

TEST_F(ObsTest, HistogramStatsAndBuckets) {
  obs::Histogram* h = obs::GetHistogram("test.hist");
  EXPECT_EQ(h->count(), 0);
  EXPECT_EQ(h->min(), 0);  // empty -> 0
  EXPECT_EQ(h->max(), 0);

  h->Record(0);    // bucket 0 (v <= 0)
  h->Record(-5);   // bucket 0
  h->Record(1);    // bucket 1: [1, 2)
  h->Record(3);    // bucket 2: [2, 4)
  h->Record(4);    // bucket 3: [4, 8)
  h->Record(100);  // bucket 7: [64, 128)

  EXPECT_EQ(h->count(), 6);
  EXPECT_EQ(h->sum(), 0 - 5 + 1 + 3 + 4 + 100);
  EXPECT_EQ(h->min(), -5);
  EXPECT_EQ(h->max(), 100);
  EXPECT_EQ(h->bucket(0), 2);
  EXPECT_EQ(h->bucket(1), 1);
  EXPECT_EQ(h->bucket(2), 1);
  EXPECT_EQ(h->bucket(3), 1);
  EXPECT_EQ(h->bucket(7), 1);

  int64_t total = 0;
  for (int i = 0; i < obs::Histogram::kNumBuckets; ++i) total += h->bucket(i);
  EXPECT_EQ(total, h->count());

  EXPECT_EQ(obs::Histogram::BucketBound(0), 0);
  EXPECT_EQ(obs::Histogram::BucketBound(1), 2);
  EXPECT_EQ(obs::Histogram::BucketBound(3), 8);

  h->Reset();
  EXPECT_EQ(h->count(), 0);
  EXPECT_EQ(h->sum(), 0);
  EXPECT_EQ(h->bucket(0), 0);
}

TEST_F(ObsTest, Gauges) {
  obs::SetGauge("test.gauge", 42);
  obs::SetGauge("test.gauge", 7);  // last write wins
  obs::SetGauge("test.other", -1);
  const auto gauges = obs::GaugeValues();
  auto it = std::find_if(gauges.begin(), gauges.end(), [](const auto& kv) {
    return kv.first == "test.gauge";
  });
  ASSERT_NE(it, gauges.end());
  EXPECT_EQ(it->second, 7);
}

TEST_F(ObsTest, SpanNestingAggregatesAsTree) {
  {
    obs::TraceSpan outer("outer");
    {
      obs::TraceSpan inner("inner");
    }
    {
      obs::TraceSpan inner("inner");
    }
  }
  {
    obs::TraceSpan outer("outer");
  }
  const auto roots = obs::AggregateSpans();
  const obs::SpanNode* outer = FindNode(roots, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 2);
  EXPECT_GE(outer->total_ns, 0);
  const obs::SpanNode* inner = FindNode(outer->children, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2);
  EXPECT_LE(inner->total_ns, outer->total_ns);
  // "inner" never appears as a root.
  EXPECT_EQ(FindNode(roots, "inner"), nullptr);
}

TEST_F(ObsTest, OpenSpansAreExcludedFromAggregation) {
  obs::TraceSpan open_span("still_open");
  {
    obs::TraceSpan closed("closed_child");
  }
  const auto roots = obs::AggregateSpans();
  EXPECT_EQ(FindNode(roots, "still_open"), nullptr);
  // The child of an open span is re-rooted so its time is not lost.
  const obs::SpanNode* child = FindNode(roots, "closed_child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->count, 1);
}

TEST_F(ObsTest, SpansMergeAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::TraceSpan work("worker_span");
        obs::TraceSpan sub("worker_child");
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto roots = obs::AggregateSpans();
  const obs::SpanNode* work = FindNode(roots, "worker_span");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->count, kThreads * kSpansPerThread);
  const obs::SpanNode* child = FindNode(work->children, "worker_child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->count, kThreads * kSpansPerThread);
}

TEST_F(ObsTest, JsonExportStructureAndContent) {
  obs::GetCounter("json.counter")->Add(5);
  obs::GetHistogram("json.hist")->Record(17);
  obs::SetGauge("json.gauge", 9);
  {
    obs::TraceSpan root("json_root");
    obs::TraceSpan leaf("json_leaf");
  }
  const std::string json = obs::ExportJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"json.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"json_root\""), std::string::npos);
  EXPECT_NE(json.find("\"json_leaf\""), std::string::npos);
}

// The parallel spatial engine instruments its hot paths; a join driven
// through both strategies must surface its spans and counters in the
// trace export. An explicit multi-thread pool forces the parallel
// probe/merge path even on single-core machines (the global pool may
// have one worker there, which silently falls back to serial).
TEST_F(ObsTest, SpatialJoinSpansAndCountersInTrace) {
  namespace sp = ::geotorch::spatial;
  geotorch::ThreadPool pool(3);
  sp::GridPartitioner grid(sp::Envelope(0, 0, 10, 10), 4, 4);
  const std::vector<sp::Polygon> cells = grid.CellPolygons();
  std::vector<sp::Point> points;
  for (int i = 0; i < 500; ++i) {
    points.push_back({0.01 + 9.98 * (i % 50) / 50.0,
                      0.01 + 9.98 * (i / 50) / 10.0});
  }

  sp::JoinOptions tree_opts;
  tree_opts.strategy = sp::JoinStrategy::kStrTree;
  tree_opts.parallel = true;
  tree_opts.pool = &pool;
  const auto tree_pairs = sp::PointInPolygonJoin(points, cells, tree_opts);

  sp::JoinOptions grid_opts = tree_opts;
  grid_opts.strategy = sp::JoinStrategy::kGridHash;
  const auto grid_pairs =
      sp::PointInPolygonJoin(points, cells, grid_opts, &grid);
  ASSERT_EQ(grid_pairs, tree_pairs);

  EXPECT_EQ(obs::GetCounter("spatial.probes")->value(),
            2 * static_cast<int64_t>(points.size()));
  EXPECT_EQ(obs::GetCounter("spatial.fastpath_hits")->value(),
            static_cast<int64_t>(grid_pairs.size()));
  // Both joins took the partition-parallel probe path, so the merged
  // result bytes were counted for each.
  EXPECT_EQ(
      obs::GetCounter("spatial.merge_bytes")->value(),
      static_cast<int64_t>((tree_pairs.size() + grid_pairs.size()) *
                           sizeof(sp::JoinPair)));

  const std::string json = obs::ExportJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  for (const char* needle :
       {"\"spatial.build\"", "\"spatial.probe\"", "\"spatial.probes\"",
        "\"spatial.build_entries\"", "\"spatial.fastpath_hits\"",
        "\"spatial.merge_bytes\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST_F(ObsTest, ServeEngineCountersHistogramsAndSpans) {
  namespace serve = ::geotorch::serve;
  namespace ts = ::geotorch::tensor;
  namespace data = ::geotorch::data;

  serve::EngineOptions opts;
  opts.max_batch = 4;
  opts.max_delay_us = 100;
  opts.max_queue = 64;
  opts.warmup_batches = 1;
  constexpr int kRequests = 12;
  {
    serve::Engine engine([](const data::Batch& batch) { return batch.x; },
                         serve::SampleSpec{{4}, {}}, opts);
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&engine] {
        for (int i = 0; i < kRequests / 4; ++i) {
          data::Sample s;
          s.x = ts::Tensor::Full({4}, 1.0f);
          auto r = engine.Submit(s);
          EXPECT_TRUE(r.ok());
        }
      });
    }
    for (auto& c : clients) c.join();
  }  // engine drains and joins here

  EXPECT_EQ(obs::GetCounter("serve.requests")->value(), kRequests);
  EXPECT_EQ(obs::GetCounter("serve.rejected")->value(), 0);
  const int64_t batches = obs::GetCounter("serve.batches")->value();
  EXPECT_GE(batches, (kRequests + opts.max_batch - 1) / opts.max_batch);
  EXPECT_LE(batches, kRequests);

  // Histograms: one batch_size sample per batch summing to the request
  // count, one latency sample per served request.
  obs::Histogram* batch_size = obs::GetHistogram("serve.batch_size");
  EXPECT_EQ(batch_size->count(), batches);
  EXPECT_EQ(batch_size->sum(), kRequests);
  EXPECT_LE(batch_size->max(), opts.max_batch);
  EXPECT_EQ(obs::GetHistogram("serve.latency_us")->count(), kRequests);

  // Spans: one warmup, one serve.batch per batch with the forward
  // nested inside it.
  const auto spans = obs::AggregateSpans();
  const obs::SpanNode* warmup = FindNode(spans, "serve.warmup");
  ASSERT_NE(warmup, nullptr);
  EXPECT_EQ(warmup->count, 1);
  const obs::SpanNode* batch_span = FindNode(spans, "serve.batch");
  ASSERT_NE(batch_span, nullptr);
  EXPECT_EQ(batch_span->count, batches);
  const obs::SpanNode* fwd = FindNode(batch_span->children, "serve.forward");
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(fwd->count, batches);

  const std::string json = obs::ExportJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  for (const char* needle :
       {"\"serve.requests\"", "\"serve.batches\"", "\"serve.batch_size\"",
        "\"serve.latency_us\"", "\"serve.queue_depth\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST_F(ObsTest, DataFrameSpillCountersGaugeAndSpans) {
  namespace df = ::geotorch::df;

  const auto saved = df::PartitionStore::Global().options();
  df::PartitionStore::Options opts;
  opts.resident_budget_bytes = 1;  // spill everything evictable
  opts.spill_dir = "obs_test_spill";
  df::PartitionStore::Global().Configure(opts);
  {
    std::vector<int64_t> ids(512);
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
    df::DataFrame frame =
        df::DataFrame::FromColumns(
            {{"id", df::Column::FromInt64s(std::move(ids))}})
            .Repartition(4);
    // Round-trip every partition through the spill path: cycling pins
    // under a 1-byte budget forces evictions and fault-ins.
    for (int round = 0; round < 2; ++round) {
      for (int pi = 0; pi < frame.num_partitions(); ++pi) {
        df::Partition::Pin pin(frame.partition(pi));
      }
    }
  }
  df::PartitionStore::Global().Configure(saved);
  std::error_code ec;
  std::filesystem::remove_all(opts.spill_dir, ec);

  // Counters: GTDF bytes actually written, and fault-ins from the pins.
  EXPECT_GT(obs::GetCounter("df.spill_bytes")->value(), 0);
  EXPECT_GT(obs::GetCounter("df.fault_in")->value(), 0);

  // Gauge: the store publishes its resident footprint on every change.
  const auto gauges = obs::GaugeValues();
  const auto it =
      std::find_if(gauges.begin(), gauges.end(),
                   [](const auto& g) { return g.first == "df.resident_bytes"; });
  ASSERT_NE(it, gauges.end());
  EXPECT_GE(it->second, 0);

  // Spans: one df.spill per eviction, one df.fault per fault-in.
  const auto spans = obs::AggregateSpans();
  const obs::SpanNode* spill = FindNode(spans, "df.spill");
  ASSERT_NE(spill, nullptr);
  EXPECT_GT(spill->count, 0);
  const obs::SpanNode* fault = FindNode(spans, "df.fault");
  ASSERT_NE(fault, nullptr);
  EXPECT_GT(fault->count, 0);

  const std::string json = obs::ExportJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  for (const char* needle : {"\"df.spill_bytes\"", "\"df.fault_in\"",
                             "\"df.resident_bytes\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST_F(ObsTest, JsonEscapesSpecialCharacters) {
  obs::SetGauge("quote\"back\\slash", 1);
  const std::string json = obs::ExportJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST_F(ObsTest, WriteJsonFileRoundTrip) {
  obs::GetCounter("file.counter")->Add(1);
  const std::string path =
      ::testing::TempDir() + "/obs_test_export.json";
  ASSERT_TRUE(obs::WriteJsonFile(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(contents, obs::ExportJson());
}

TEST_F(ObsTest, ResetClearsEverything) {
  obs::GetCounter("reset.counter")->Add(3);
  obs::GetHistogram("reset.hist")->Record(8);
  obs::SetGauge("reset.gauge", 1);
  {
    obs::TraceSpan s("reset_span");
  }
  obs::Reset();
  EXPECT_EQ(obs::GetCounter("reset.counter")->value(), 0);
  EXPECT_EQ(obs::GetHistogram("reset.hist")->count(), 0);
  EXPECT_TRUE(obs::GaugeValues().empty());
  EXPECT_TRUE(obs::AggregateSpans().empty());
}

TEST_F(ObsTest, SpanOpenAcrossResetDoesNotCorrupt) {
  auto* span = new obs::TraceSpan("crosses_reset");
  obs::Reset();
  delete span;  // closes after Reset; must not resurrect or crash
  EXPECT_EQ(FindNode(obs::AggregateSpans(), "crosses_reset"), nullptr);
}

TEST_F(ObsTest, RuntimeDisableStopsRecording) {
  obs::SetEnabled(false);
  EXPECT_FALSE(obs::Enabled());
  EXPECT_FALSE(GEO_OBS_ON());
  {
    obs::TraceSpan s("disabled_span");
  }
  obs::SetEnabled(true);
  EXPECT_EQ(FindNode(obs::AggregateSpans(), "disabled_span"), nullptr);

  // Direct registry access still works while disabled — only the
  // macro/span fast paths go dark.
  obs::SetEnabled(false);
  obs::GetCounter("disabled.counter")->Add(1);
  EXPECT_EQ(obs::GetCounter("disabled.counter")->value(), 1);
}

}  // namespace
