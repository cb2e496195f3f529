#include "df/dataframe.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <queue>
#include <span>
#include <unordered_map>

#include "core/check.h"
#include "core/thread_pool.h"
#include "df/partition_store.h"
#include "obs/obs.h"

namespace geotorch::df {
namespace {

// Publishes the engine's logical-memory accounting alongside the
// metrics, so a trace dump shows operator timings and the bytes the
// operators left live (Fig. 8's measurement, now exported).
void PublishMemoryGauges() {
  if (!GEO_OBS_ON()) return;
  obs::SetGauge("df.tracked_bytes", MemoryTracker::Global().current_bytes());
  obs::SetGauge("df.tracked_peak_bytes", MemoryTracker::Global().peak_bytes());
}

// Numeric read of a column cell as double (int64 widens).
double NumericAt(const Column& col, int64_t row) {
  if (col.type() == DataType::kDouble) return col.doubles()[row];
  GEO_CHECK(col.type() == DataType::kInt64)
      << "aggregation column must be numeric";
  return static_cast<double>(col.int64s()[row]);
}

// Hash of one group key (`num_keys` int64s). The shard is `hash %
// num_shards` and a table slot comes from the high half, so the two
// stay independent when the shard count is a power of two.
uint64_t HashKey(const int64_t* key, size_t num_keys) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (size_t k = 0; k < num_keys; ++k) {
    h = (h ^ static_cast<uint64_t>(key[k])) * 0xff51afd7ed558ccdull;
  }
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

// The groups of one hash shard, stored densely in first-seen order:
// keys (`num_keys` per group), counts, and aggregation state (sum,
// sumsq, min, max per aggregation). A power-of-two array of group
// indices, linearly probed and at most half full, maps a key to its
// group. Group counts routinely reach the row count (every (cell,
// timestep) pair distinct), so a group costs no allocation of its own.
class GroupTable {
 public:
  GroupTable(size_t num_keys, size_t num_aggs)
      : num_keys_(num_keys), stride_(4 * num_aggs), slots_(16, kEmpty) {}

  size_t size() const { return counts_.size(); }
  const int64_t* key(size_t g) const { return keys_.data() + g * num_keys_; }
  int64_t& count(size_t g) { return counts_[g]; }
  int64_t count(size_t g) const { return counts_[g]; }
  double* state(size_t g) { return states_.data() + g * stride_; }
  const double* state(size_t g) const {
    return states_.data() + g * stride_;
  }

  // Returns the group of `key` (whose HashKey is `hash`), appending a
  // group with count 0 and an empty state if the key is new.
  size_t FindOrAdd(const int64_t* key, uint64_t hash) {
    const size_t mask = slots_.size() - 1;
    size_t s = (hash >> 32) & mask;
    for (; slots_[s] != kEmpty; s = (s + 1) & mask) {
      // A plain loop: std::equal becomes a memcmp call here, which
      // costs more than the rest of the probe for one or two keys.
      const int64_t* other = this->key(slots_[s]);
      size_t k = 0;
      while (k < num_keys_ && key[k] == other[k]) ++k;
      if (k == num_keys_) return slots_[s];
    }
    const size_t g = size();
    slots_[s] = static_cast<uint32_t>(g);
    keys_.insert(keys_.end(), key, key + num_keys_);
    counts_.push_back(0);
    states_.resize(states_.size() + stride_, 0.0);
    for (size_t i = g * stride_; i < states_.size(); i += 4) {
      states_[i + 2] = std::numeric_limits<double>::infinity();
      states_[i + 3] = -std::numeric_limits<double>::infinity();
    }
    if (2 * size() > slots_.size()) Grow();
    return g;
  }

  // Folds group `g` of `src` into group `dst` of this table; a group's
  // first fold copies the state.
  void Merge(size_t dst, const GroupTable& src, size_t g) {
    double* d = state(dst);
    const double* s = src.state(g);
    if (counts_[dst] == 0) {
      std::copy(s, s + stride_, d);
    } else {
      for (size_t i = 0; i < stride_; i += 4) {
        d[i] += s[i];
        d[i + 1] += s[i + 1];
        d[i + 2] = std::min(d[i + 2], s[i + 2]);
        d[i + 3] = std::max(d[i + 3], s[i + 3]);
      }
    }
    counts_[dst] += src.count(g);
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();

  void Grow() {
    GEO_CHECK_LT(slots_.size(), size_t{1} << 32)
        << "group-by shard holds more than 2^31 groups";
    slots_.assign(2 * slots_.size(), kEmpty);
    const size_t mask = slots_.size() - 1;
    for (size_t g = 0; g < size(); ++g) {
      size_t s = (HashKey(key(g), num_keys_) >> 32) & mask;
      while (slots_[s] != kEmpty) s = (s + 1) & mask;
      slots_[s] = static_cast<uint32_t>(g);
    }
  }

  size_t num_keys_;
  size_t stride_;
  std::vector<int64_t> keys_;
  std::vector<int64_t> counts_;
  std::vector<double> states_;
  std::vector<uint32_t> slots_;
};

// Appends one output value; `state` is the aggregation's (sum, sumsq,
// min, max).
void EmitAggValue(const AggSpec& spec, int64_t count, const double* state,
                  Column& col) {
  switch (spec.kind) {
    case AggKind::kCount:
      col.mutable_int64s().push_back(count);
      break;
    case AggKind::kSum:
      col.mutable_doubles().push_back(state[0]);
      break;
    case AggKind::kMin:
      col.mutable_doubles().push_back(state[2]);
      break;
    case AggKind::kMax:
      col.mutable_doubles().push_back(state[3]);
      break;
    case AggKind::kMean:
      col.mutable_doubles().push_back(state[0] / static_cast<double>(count));
      break;
    case AggKind::kVariance:
    case AggKind::kStdDev: {
      const double n = static_cast<double>(count);
      const double mean = state[0] / n;
      const double var = std::max(0.0, state[1] / n - mean * mean);
      col.mutable_doubles().push_back(
          spec.kind == AggKind::kVariance ? var : std::sqrt(var));
      break;
    }
  }
}

}  // namespace

// --- Schema ------------------------------------------------------------

Schema::Schema(std::vector<std::pair<std::string, DataType>> fields)
    : fields_(std::move(fields)) {}

int Schema::FieldIndex(const std::string& name) const {
  for (int i = 0; i < num_fields(); ++i) {
    if (fields_[i].first == name) return i;
  }
  GEO_CHECK(false) << "no column named '" << name << "'";
  return -1;
}

bool Schema::HasField(const std::string& name) const {
  for (const auto& [n, t] : fields_) {
    if (n == name) return true;
  }
  return false;
}

// --- Partition ----------------------------------------------------------

SharedColumn TrackColumn(Column column) {
  const int64_t bytes = column.ByteSize();
  MemoryTracker::Global().Allocate(bytes);
  return SharedColumn(new Column(std::move(column)),
                      [bytes](const Column* c) {
                        MemoryTracker::Global().Release(bytes);
                        delete c;
                      });
}

Partition::Partition(std::vector<Column> columns) {
  columns_.reserve(columns.size());
  for (auto& c : columns) columns_.push_back(TrackColumn(std::move(c)));
  Init();
}

Partition::Partition(std::vector<SharedColumn> columns)
    : columns_(std::move(columns)) {
  Init();
}

void Partition::Init() {
  if (!columns_.empty()) {
    num_rows_ = columns_[0]->size();
    for (const auto& c : columns_) {
      GEO_CHECK_EQ(c->size(), num_rows_) << "ragged partition";
    }
  }
  types_.reserve(columns_.size());
  int64_t bytes = 0;
  for (const auto& c : columns_) {
    types_.push_back(c->type());
    bytes += c->ByteSize();
  }
  resident_bytes_ = bytes;
  store_ = &PartitionStore::Global();
  store_->Register(this, bytes);
  store_->EnforceBudget(this);
}

Partition::~Partition() {
  store_->Unregister(this);
  if (!spill_path_.empty()) std::remove(spill_path_.c_str());
}

// --- DataFrame ------------------------------------------------------------

DataFrame DataFrame::FromColumns(
    std::vector<std::pair<std::string, Column>> columns) {
  GEO_CHECK(!columns.empty());
  std::vector<std::pair<std::string, DataType>> fields;
  std::vector<Column> cols;
  for (auto& [name, col] : columns) {
    fields.emplace_back(name, col.type());
    cols.push_back(std::move(col));
  }
  DataFrame out;
  out.schema_ = std::make_shared<Schema>(std::move(fields));
  out.partitions_.push_back(std::make_shared<Partition>(std::move(cols)));
  return out;
}

DataFrame DataFrame::FromPartitions(
    std::shared_ptr<const Schema> schema,
    std::vector<std::shared_ptr<const Partition>> partitions) {
  DataFrame out;
  out.schema_ = std::move(schema);
  out.partitions_ = std::move(partitions);
  GEO_CHECK(out.schema_ != nullptr);
  return out;
}

int64_t DataFrame::NumRows() const {
  int64_t n = 0;
  for (const auto& p : partitions_) n += p->num_rows();
  return n;
}

int64_t DataFrame::ByteSize() const {
  int64_t n = 0;
  for (const auto& p : partitions_) n += p->ByteSize();
  return n;
}

void DataFrame::ForEachPartition(
    const std::function<void(const Partition&, int)>& fn) const {
  ThreadPool::Global().ParallelFor(
      static_cast<int64_t>(partitions_.size()), [&](int64_t i) {
        const int64_t t0 = GEO_OBS_ON() ? obs::NowNs() : 0;
        Partition::Pin pin(*partitions_[i]);
        fn(*partitions_[i], static_cast<int>(i));
        if (t0 != 0) {
          GEO_OBS_HIST("df.partition_us", (obs::NowNs() - t0) / 1000);
        }
      });
}

DataFrame DataFrame::Repartition(int n) const {
  GEO_CHECK_GE(n, 1);
  GEO_OBS_SPAN(op_span, "df.repartition");
  // Round-robin split by global row id; each output partition gathers
  // its rows from every input partition.
  std::vector<int64_t> part_offsets = {0};
  for (const auto& p : partitions_) {
    part_offsets.push_back(part_offsets.back() + p->num_rows());
  }
  std::vector<std::shared_ptr<const Partition>> out_parts(n);
  ThreadPool::Global().ParallelFor(n, [&](int64_t target) {
    std::vector<SharedColumn> cols(schema_->num_fields());
    std::vector<Column> built;
    built.reserve(schema_->num_fields());
    // Per input partition, the local indices this target takes.
    std::vector<std::vector<int64_t>> take(partitions_.size());
    for (size_t pi = 0; pi < partitions_.size(); ++pi) {
      const int64_t begin = part_offsets[pi];
      const int64_t rows = partitions_[pi]->num_rows();
      // Global ids congruent to target (mod n) within [begin, begin+rows).
      int64_t first = begin % n <= target
                          ? begin + (target - begin % n)
                          : begin + (n - begin % n + target);
      for (int64_t g = first; g < begin + rows; g += n) {
        take[pi].push_back(g - begin);
      }
    }
    for (int c = 0; c < schema_->num_fields(); ++c) {
      Column merged(schema_->type(c));
      for (size_t pi = 0; pi < partitions_.size(); ++pi) {
        if (take[pi].empty()) continue;
        Partition::Pin pin(*partitions_[pi]);
        Column piece = partitions_[pi]->column(c).Gather(take[pi]);
        if (merged.size() == 0) {
          merged = std::move(piece);
        } else {
          for (int64_t r = 0; r < piece.size(); ++r) {
            merged.AppendFrom(piece, r);
          }
        }
      }
      cols[c] = TrackColumn(std::move(merged));
    }
    out_parts[target] = std::make_shared<Partition>(std::move(cols));
  });
  return FromPartitions(schema_, std::move(out_parts));
}

DataFrame DataFrame::Select(const std::vector<std::string>& names) const {
  std::vector<int> indices;
  std::vector<std::pair<std::string, DataType>> fields;
  for (const auto& name : names) {
    const int i = schema_->FieldIndex(name);
    indices.push_back(i);
    fields.emplace_back(name, schema_->type(i));
  }
  auto out_schema = std::make_shared<Schema>(std::move(fields));
  std::vector<std::shared_ptr<const Partition>> out_parts(num_partitions());
  for (int pi = 0; pi < num_partitions(); ++pi) {
    std::vector<SharedColumn> cols;
    cols.reserve(indices.size());
    for (int idx : indices) cols.push_back(partitions_[pi]->column_ptr(idx));
    out_parts[pi] = std::make_shared<Partition>(std::move(cols));
  }
  return FromPartitions(out_schema, std::move(out_parts));
}

DataFrame DataFrame::Filter(
    const std::function<bool(const RowView&)>& pred) const {
  GEO_OBS_SPAN(op_span, "df.filter");
  std::vector<std::shared_ptr<const Partition>> out_parts(num_partitions());
  ForEachPartition([&](const Partition& part, int pi) {
    std::vector<int64_t> keep;
    for (int64_t r = 0; r < part.num_rows(); ++r) {
      RowView row(&part, schema_.get(), r);
      if (pred(row)) keep.push_back(r);
    }
    std::vector<SharedColumn> cols;
    cols.reserve(schema_->num_fields());
    for (int c = 0; c < schema_->num_fields(); ++c) {
      cols.push_back(TrackColumn(part.column(c).Gather(keep)));
    }
    out_parts[pi] = std::make_shared<Partition>(std::move(cols));
  });
  return FromPartitions(schema_, std::move(out_parts));
}

DataFrame DataFrame::WithColumn(
    const std::string& name, DataType type,
    const std::function<Value(const RowView&)>& fn) const {
  GEO_CHECK(!schema_->HasField(name))
      << "column '" << name << "' already exists";
  GEO_OBS_SPAN(op_span, "df.with_column");
  auto fields = schema_->fields();
  fields.emplace_back(name, type);
  auto out_schema = std::make_shared<Schema>(std::move(fields));
  std::vector<std::shared_ptr<const Partition>> out_parts(num_partitions());
  ForEachPartition([&](const Partition& part, int pi) {
    std::vector<SharedColumn> cols;
    cols.reserve(schema_->num_fields() + 1);
    for (int c = 0; c < schema_->num_fields(); ++c) {
      cols.push_back(part.column_ptr(c));  // structural sharing
    }
    Column extra(type);
    for (int64_t r = 0; r < part.num_rows(); ++r) {
      RowView row(&part, schema_.get(), r);
      extra.Append(fn(row));
    }
    cols.push_back(TrackColumn(std::move(extra)));
    out_parts[pi] = std::make_shared<Partition>(std::move(cols));
  });
  return FromPartitions(out_schema, std::move(out_parts));
}

DataFrame DataFrame::Drop(const std::string& name) const {
  std::vector<std::string> keep;
  for (const auto& [n, t] : schema_->fields()) {
    if (n != name) keep.push_back(n);
  }
  GEO_CHECK_LT(static_cast<int>(keep.size()), schema_->num_fields())
      << "Drop: no column named '" << name << "'";
  return Select(keep);
}

DataFrame DataFrame::GroupByAgg(const std::vector<std::string>& keys,
                                const std::vector<AggSpec>& aggs,
                                int num_shards) const {
  GEO_CHECK(!keys.empty());
  if (num_shards <= 0) {
    num_shards = std::max(1, ThreadPool::Global().num_threads());
  }
  std::vector<int> key_idx;
  for (const auto& k : keys) {
    const int i = schema_->FieldIndex(k);
    GEO_CHECK(schema_->type(i) == DataType::kInt64)
        << "group-by keys must be int64 (got " << k << ")";
    key_idx.push_back(i);
  }
  std::vector<int> agg_idx;
  for (const auto& a : aggs) {
    agg_idx.push_back(a.kind == AggKind::kCount
                          ? -1
                          : schema_->FieldIndex(a.column));
  }
  const size_t num_keys = key_idx.size();
  const size_t num_aggs = aggs.size();

  GEO_OBS_SPAN(op_span, "df.groupby");

  // Phase 1: per-partition partial aggregation, sharded by key hash so
  // the merge phase needs no locking.
  std::vector<std::vector<GroupTable>> partials(partitions_.size());
  {
    GEO_OBS_SPAN(partial_span, "df.groupby.partial");
    ForEachPartition([&](const Partition& part, int pi) {
      std::vector<std::span<const int64_t>> key_cols;
      for (int k : key_idx) key_cols.push_back(part.column(k).int64s());
      std::vector<const Column*> value_cols;
      for (int a : agg_idx) {
        value_cols.push_back(a < 0 ? nullptr : &part.column(a));
      }
      std::vector<GroupTable> shards(num_shards,
                                     GroupTable(num_keys, num_aggs));
      std::vector<int64_t> key(num_keys);
      for (int64_t r = 0; r < part.num_rows(); ++r) {
        for (size_t k = 0; k < num_keys; ++k) key[k] = key_cols[k][r];
        const uint64_t hash = HashKey(key.data(), num_keys);
        GroupTable& table = shards[hash % num_shards];
        const size_t g = table.FindOrAdd(key.data(), hash);
        ++table.count(g);
        double* state = table.state(g);
        for (size_t a = 0; a < num_aggs; ++a, state += 4) {
          if (value_cols[a] == nullptr) continue;
          const double v = NumericAt(*value_cols[a], r);
          state[0] += v;
          state[1] += v * v;
          state[2] = std::min(state[2], v);
          state[3] = std::max(state[3], v);
        }
      }
      partials[pi] = std::move(shards);
    });
  }

  // Output schema: keys then agg aliases.
  std::vector<std::pair<std::string, DataType>> fields;
  for (const auto& k : keys) fields.emplace_back(k, DataType::kInt64);
  for (const auto& a : aggs) {
    fields.emplace_back(a.alias, a.kind == AggKind::kCount
                                     ? DataType::kInt64
                                     : DataType::kDouble);
  }
  auto out_schema = std::make_shared<Schema>(std::move(fields));

  // Phase 2: shard-parallel merge; one output partition per shard. Each
  // shard folds the partitions' tables in index order, releasing each
  // one as soon as it is folded.
  GEO_OBS_SPAN(merge_span, "df.groupby.merge");
  std::vector<std::shared_ptr<const Partition>> out_parts(num_shards);
  ThreadPool::Global().ParallelFor(num_shards, [&](int64_t shard) {
    GroupTable merged = partials.empty()
                            ? GroupTable(num_keys, num_aggs)
                            : std::move(partials[0][shard]);
    for (size_t pi = 1; pi < partials.size(); ++pi) {
      const GroupTable part = std::move(partials[pi][shard]);
      for (size_t g = 0; g < part.size(); ++g) {
        const int64_t* key = part.key(g);
        merged.Merge(merged.FindOrAdd(key, HashKey(key, num_keys)), part, g);
      }
    }
    std::vector<Column> cols;
    for (size_t k = 0; k < num_keys; ++k) {
      cols.emplace_back(DataType::kInt64);
      for (size_t g = 0; g < merged.size(); ++g) {
        cols[k].mutable_int64s().push_back(merged.key(g)[k]);
      }
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      Column& col = cols.emplace_back(aggs[a].kind == AggKind::kCount
                                          ? DataType::kInt64
                                          : DataType::kDouble);
      for (size_t g = 0; g < merged.size(); ++g) {
        EmitAggValue(aggs[a], merged.count(g), merged.state(g) + 4 * a, col);
      }
    }
    out_parts[shard] = std::make_shared<Partition>(std::move(cols));
  });
  DataFrame out = FromPartitions(out_schema, std::move(out_parts));
  PublishMemoryGauges();
  return out;
}

DataFrame DataFrame::JoinInner(const DataFrame& right,
                               const std::string& left_key,
                               const std::string& right_key) const {
  const int lk = schema_->FieldIndex(left_key);
  const int rk = right.schema().FieldIndex(right_key);
  GEO_CHECK(schema_->type(lk) == DataType::kInt64 &&
            right.schema().type(rk) == DataType::kInt64)
      << "join keys must be int64";

  GEO_OBS_SPAN(op_span, "df.join");

  // The broadcast side must stay resident from the hash build through
  // the last probe-side gather (the build table stores row positions,
  // not values).
  std::vector<Partition::Pin> right_pins;
  right_pins.reserve(right.num_partitions());
  for (int pi = 0; pi < right.num_partitions(); ++pi) {
    right_pins.emplace_back(right.partition(pi));
  }

  // Build side: key -> (partition, row) list.
  std::unordered_multimap<int64_t, std::pair<int, int64_t>> build;
  for (int pi = 0; pi < right.num_partitions(); ++pi) {
    const Partition& part = right.partition(pi);
    const auto keys = part.column(rk).int64s();
    for (int64_t r = 0; r < part.num_rows(); ++r) {
      build.emplace(keys[r], std::make_pair(pi, r));
    }
  }

  // Output schema: all left fields + right fields (right key dropped;
  // name-collisions get a "right_" prefix).
  std::vector<std::pair<std::string, DataType>> fields = schema_->fields();
  std::vector<int> right_cols;
  for (int c = 0; c < right.schema().num_fields(); ++c) {
    if (c == rk) continue;
    right_cols.push_back(c);
    std::string name = right.schema().name(c);
    if (schema_->HasField(name)) name = "right_" + name;
    fields.emplace_back(name, right.schema().type(c));
  }
  auto out_schema = std::make_shared<Schema>(std::move(fields));

  std::vector<std::shared_ptr<const Partition>> out_parts(num_partitions());
  ForEachPartition([&](const Partition& part, int pi) {
    // Matched (left row, right partition, right row) triples.
    std::vector<int64_t> left_rows;
    std::vector<std::pair<int, int64_t>> right_rows;
    const auto keys = part.column(lk).int64s();
    for (int64_t r = 0; r < part.num_rows(); ++r) {
      auto [begin, end] = build.equal_range(keys[r]);
      for (auto it = begin; it != end; ++it) {
        left_rows.push_back(r);
        right_rows.push_back(it->second);
      }
    }
    std::vector<SharedColumn> cols;
    cols.reserve(out_schema->num_fields());
    for (int c = 0; c < schema_->num_fields(); ++c) {
      cols.push_back(TrackColumn(part.column(c).Gather(left_rows)));
    }
    for (int rc : right_cols) {
      Column gathered(right.schema().type(rc));
      for (const auto& [rpi, rr] : right_rows) {
        gathered.AppendFrom(right.partition(rpi).column(rc), rr);
      }
      cols.push_back(TrackColumn(std::move(gathered)));
    }
    out_parts[pi] = std::make_shared<Partition>(std::move(cols));
  });
  DataFrame out = FromPartitions(out_schema, std::move(out_parts));
  PublishMemoryGauges();
  return out;
}

DataFrame DataFrame::SortByInt64(const std::string& name) const {
  const int idx = schema_->FieldIndex(name);
  GEO_CHECK(schema_->type(idx) == DataType::kInt64);
  GEO_OBS_SPAN(op_span, "df.sort");
  // Per-partition stable sort of (key, row) runs in parallel, then a
  // k-way merge with ties broken on partition index. A run preserves
  // its partition's row order for equal keys and the merge takes equal
  // keys from the lowest partition first, so the merged order equals a
  // global stable sort over the concatenated partitions — the serial
  // implementation this replaced.
  struct Loc {
    int64_t key;
    int64_t row;
  };
  const int np = num_partitions();
  std::vector<std::vector<Loc>> runs(np);
  ForEachPartition([&](const Partition& part, int pi) {
    const auto keys = part.column(idx).int64s();
    std::vector<Loc>& run = runs[pi];
    run.reserve(part.num_rows());
    for (int64_t r = 0; r < part.num_rows(); ++r) {
      run.push_back({keys[r], r});
    }
    std::stable_sort(run.begin(), run.end(),
                     [](const Loc& a, const Loc& b) { return a.key < b.key; });
  });

  struct Head {
    int64_t key;
    int part;
  };
  const auto head_after = [](const Head& a, const Head& b) {
    return a.key > b.key || (a.key == b.key && a.part > b.part);
  };
  std::priority_queue<Head, std::vector<Head>, decltype(head_after)> heads(
      head_after);
  std::vector<int64_t> cursor(np, 0);
  for (int pi = 0; pi < np; ++pi) {
    if (!runs[pi].empty()) heads.push({runs[pi][0].key, pi});
  }
  struct OutLoc {
    int part;
    int64_t row;
  };
  std::vector<OutLoc> merged;
  merged.reserve(NumRows());
  while (!heads.empty()) {
    const Head head = heads.top();
    heads.pop();
    merged.push_back({head.part, runs[head.part][cursor[head.part]].row});
    const int64_t next = ++cursor[head.part];
    if (next < static_cast<int64_t>(runs[head.part].size())) {
      heads.push({runs[head.part][next].key, head.part});
    }
  }

  // Materialize output columns independently across the pool. Every
  // column task reads from every input partition, so all inputs stay
  // pinned for the gather (sort output is a small single partition).
  std::vector<Partition::Pin> pins;
  pins.reserve(partitions_.size());
  for (const auto& p : partitions_) pins.emplace_back(*p);
  std::vector<Column> cols;
  for (int c = 0; c < schema_->num_fields(); ++c) {
    cols.emplace_back(schema_->type(c));
  }
  ThreadPool::Global().ParallelFor(schema_->num_fields(), [&](int64_t c) {
    for (const OutLoc& loc : merged) {
      cols[c].AppendFrom(partitions_[loc.part]->column(c), loc.row);
    }
  });
  std::vector<std::shared_ptr<const Partition>> parts;
  parts.push_back(std::make_shared<Partition>(std::move(cols)));
  return FromPartitions(schema_, std::move(parts));
}

DataFrame DataFrame::Union(const DataFrame& other) const {
  GEO_CHECK_EQ(schema_->num_fields(), other.schema().num_fields());
  for (int c = 0; c < schema_->num_fields(); ++c) {
    GEO_CHECK(schema_->name(c) == other.schema().name(c) &&
              schema_->type(c) == other.schema().type(c))
        << "Union: schema mismatch at column " << c;
  }
  std::vector<std::shared_ptr<const Partition>> parts = partitions_;
  for (int pi = 0; pi < other.num_partitions(); ++pi) {
    parts.push_back(other.partition_ptr(pi));
  }
  return FromPartitions(schema_, std::move(parts));
}

DataFrame DataFrame::Distinct(const std::vector<std::string>& keys) const {
  return GroupByAgg(keys, {{AggKind::kCount, "", "_n"}}).Drop("_n");
}

std::vector<int64_t> DataFrame::CollectInt64(const std::string& name) const {
  const int idx = schema_->FieldIndex(name);
  std::vector<int64_t> out;
  out.reserve(NumRows());
  for (const auto& p : partitions_) {
    Partition::Pin pin(*p);
    const auto v = p->column(idx).int64s();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

std::vector<double> DataFrame::CollectDouble(const std::string& name) const {
  const int idx = schema_->FieldIndex(name);
  std::vector<double> out;
  out.reserve(NumRows());
  for (const auto& p : partitions_) {
    Partition::Pin pin(*p);
    const auto v = p->column(idx).doubles();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

}  // namespace geotorch::df
