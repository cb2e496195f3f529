#include "df/dataframe.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
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

// --- Group-by ------------------------------------------------------------
//
// Every group-by buffer is a flat array of 64-bit words holding
// fixed-stride records; keys and counts are int64 words, aggregation
// state and values are doubles stored by bit pattern (Word/Real).

uint64_t Word(double v) { return std::bit_cast<uint64_t>(v); }
double Real(uint64_t w) { return std::bit_cast<double>(w); }

// What a group keeps for its aggregations: only the doubles each
// AggKind reads (kCount none; kSum and kMean a sum; kVariance and
// kStdDev a sum and a sum of squares; kMin a min; kMax a max), and the
// per-row updates that maintain them.
class AggLayout {
 public:
  enum class Op : uint8_t { kSum, kSumSq, kMin, kMax };
  struct Update {
    Op op;
    uint32_t word;   // state word it updates
    uint32_t value;  // slot of the row value it reads
  };

  // `value_col[a]` is aggregation a's source column (-1 for kCount).
  AggLayout(const std::vector<AggSpec>& aggs,
            const std::vector<int>& value_col) {
    for (size_t a = 0; a < aggs.size(); ++a) {
      agg_word_.push_back(static_cast<uint32_t>(identity_.size()));
      if (aggs[a].kind == AggKind::kCount) continue;
      // Aggregations over one column read one row value.
      const auto seen =
          std::find(value_cols_.begin(), value_cols_.end(), value_col[a]);
      const auto slot = static_cast<uint32_t>(seen - value_cols_.begin());
      if (seen == value_cols_.end()) value_cols_.push_back(value_col[a]);
      const auto add = [&](Op op, double identity) {
        updates_.push_back(
            {op, static_cast<uint32_t>(identity_.size()), slot});
        identity_.push_back(Word(identity));
      };
      switch (aggs[a].kind) {
        case AggKind::kCount:
          break;
        case AggKind::kSum:
        case AggKind::kMean:
          add(Op::kSum, 0.0);
          break;
        case AggKind::kVariance:
        case AggKind::kStdDev:
          add(Op::kSum, 0.0);
          add(Op::kSumSq, 0.0);
          break;
        case AggKind::kMin:
          add(Op::kMin, std::numeric_limits<double>::infinity());
          break;
        case AggKind::kMax:
          add(Op::kMax, -std::numeric_limits<double>::infinity());
          break;
      }
    }
  }

  size_t state_words() const { return identity_.size(); }
  size_t num_values() const { return value_cols_.size(); }
  // Source column of each row-value slot.
  const std::vector<int>& value_cols() const { return value_cols_; }
  // First state word of aggregation `a`.
  size_t agg_word(size_t a) const { return agg_word_[a]; }

  void Reset(uint64_t* state) const {
    std::copy(identity_.begin(), identity_.end(), state);
  }

  // Folds one row's values (one per slot, as words) into `state`.
  void Accumulate(uint64_t* state, const uint64_t* values) const {
    for (const Update& u : updates_) {
      const double s = Real(state[u.word]);
      const double v = Real(values[u.value]);
      switch (u.op) {
        case Op::kSum:
          state[u.word] = Word(s + v);
          break;
        case Op::kSumSq:
          state[u.word] = Word(s + v * v);
          break;
        case Op::kMin:
          state[u.word] = Word(std::min(s, v));
          break;
        case Op::kMax:
          state[u.word] = Word(std::max(s, v));
          break;
      }
    }
  }

  // Folds a partial state into a total.
  void Fold(uint64_t* total, const uint64_t* partial) const {
    for (const Update& u : updates_) {
      const double t = Real(total[u.word]);
      const double p = Real(partial[u.word]);
      switch (u.op) {
        case Op::kSum:
        case Op::kSumSq:
          total[u.word] = Word(t + p);
          break;
        case Op::kMin:
          total[u.word] = Word(std::min(t, p));
          break;
        case Op::kMax:
          total[u.word] = Word(std::max(t, p));
          break;
      }
    }
  }

 private:
  std::vector<int> value_cols_;
  std::vector<Update> updates_;
  std::vector<uint32_t> agg_word_;
  std::vector<uint64_t> identity_;
};

// Phase-1 output of one (input partition, shard). `partial` holds the
// pre-aggregated groups in first-seen order, records [hash, keys...,
// count, state...]; `raw` holds every row that arrived once the
// pre-aggregation table was full, in row order, records [hash,
// keys..., values...].
struct ShardSlice {
  std::vector<uint64_t> partial;
  std::unique_ptr<uint64_t[]> raw;
  size_t num_partial = 0;
  size_t num_raw = 0;
};

// The phase-1 pre-aggregation table of one (input partition, shard):
// at most kGroupByPartialCap groups, probed through a fixed array of
// 2 × cap 16-bit slots, so a partition's tables stay cache-resident.
class CappedTable {
 public:
  static_assert(2 * kGroupByPartialCap <= 0xffff);

  CappedTable(size_t num_keys, size_t stride, size_t max_groups,
              ShardSlice* out)
      : num_keys_(num_keys),
        stride_(stride),
        slots_(2 * kGroupByPartialCap, kEmpty),
        out_(out) {
    out_->partial.reserve(std::min<size_t>(max_groups, kGroupByPartialCap) *
                          stride_);
  }

  bool full() const { return out_->num_partial >= kGroupByPartialCap; }

  // Returns the record of `key`, appending [hash, key, 0, `identity`]
  // if the key is new. Requires !full().
  uint64_t* FindOrAdd(const int64_t* key, uint64_t hash,
                      const AggLayout& layout) {
    std::vector<uint64_t>& records = out_->partial;
    constexpr size_t kMask = 2 * kGroupByPartialCap - 1;
    size_t s = (hash >> 32) & kMask;
    for (; slots_[s] != kEmpty; s = (s + 1) & kMask) {
      uint64_t* rec = records.data() + slots_[s] * stride_;
      if (rec[0] != hash) continue;
      size_t k = 0;
      while (k < num_keys_ && key[k] == static_cast<int64_t>(rec[1 + k])) {
        ++k;
      }
      if (k == num_keys_) return rec;
    }
    slots_[s] = static_cast<uint16_t>(out_->num_partial++);
    const size_t at = records.size();
    records.resize(at + stride_);  // zeroes the count
    uint64_t* rec = records.data() + at;
    rec[0] = hash;
    for (size_t k = 0; k < num_keys_; ++k) {
      rec[1 + k] = static_cast<uint64_t>(key[k]);
    }
    layout.Reset(rec + 2 + num_keys_);
    return rec;
  }

 private:
  static constexpr uint16_t kEmpty = 0xffff;

  size_t num_keys_;
  size_t stride_;
  std::vector<uint16_t> slots_;
  ShardSlice* out_;
};

// The groups of one output shard in phase 2, stored densely in
// first-seen order as records [keys..., total count, partial count,
// partition tag, total state..., partial state...]. The partial
// accumulates the group's rows of the partition named by the tag; when
// a later partition reaches the group, the partial folds into the
// total (the first fold copies). A power-of-two array of record
// indices, linearly probed and sized once for at least twice the
// shard's row count, maps a key to its record.
class ShardTable {
 public:
  ShardTable(size_t num_keys, const AggLayout& layout, size_t max_groups)
      : num_keys_(num_keys),
        state_words_(layout.state_words()),
        stride_(num_keys + 3 + 2 * state_words_),
        layout_(layout) {
    GEO_CHECK_LT(max_groups, size_t{1} << 31)
        << "group-by shard holds more than 2^31 groups";
    size_t slots = 16;
    while (slots < 2 * max_groups) slots *= 2;
    slots_.assign(slots, kEmpty);
    records_.reserve(max_groups * stride_);
  }

  size_t size() const { return records_.size() / stride_; }

  // The record of `key`; a new key gets a record with no rows.
  uint64_t* FindOrAdd(const uint64_t* key, uint64_t hash) {
    const size_t mask = slots_.size() - 1;
    size_t s = (hash >> 32) & mask;
    for (; slots_[s] != kEmpty; s = (s + 1) & mask) {
      uint64_t* rec = records_.data() + slots_[s] * stride_;
      size_t k = 0;
      while (k < num_keys_ && key[k] == rec[k]) ++k;
      if (k == num_keys_) return rec;
    }
    slots_[s] = static_cast<uint32_t>(size());
    const size_t at = records_.size();
    records_.resize(at + stride_);  // zeroes the counts and states
    uint64_t* rec = records_.data() + at;
    std::copy(key, key + num_keys_, rec);
    rec[num_keys_ + 2] = kNoPartition;
    return rec;
  }

  // The partial state of `rec` for partition `pi`. When `rec`'s
  // partial belongs to an earlier partition, it folds into the total
  // first and restarts empty.
  uint64_t* Partial(uint64_t* rec, uint64_t pi) {
    uint64_t* partial = rec + num_keys_ + 3 + state_words_;
    if (rec[num_keys_ + 2] != pi) {
      Flush(rec);
      rec[num_keys_ + 2] = pi;
      layout_.Reset(partial);
    }
    return partial;
  }
  uint64_t& partial_count(uint64_t* rec) { return rec[num_keys_ + 1]; }

  // Folds `rec`'s partial into its total; the first fold copies.
  void Flush(uint64_t* rec) {
    uint64_t& partial_count = rec[num_keys_ + 1];
    if (partial_count == 0) return;
    uint64_t* total = rec + num_keys_ + 3;
    const uint64_t* partial = total + state_words_;
    if (rec[num_keys_] == 0) {
      std::copy(partial, partial + state_words_, total);
    } else {
      layout_.Fold(total, partial);
    }
    rec[num_keys_] += partial_count;
    partial_count = 0;
  }

  uint64_t* record(size_t g) { return records_.data() + g * stride_; }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  static constexpr uint64_t kNoPartition =
      std::numeric_limits<uint64_t>::max();

  size_t num_keys_;
  size_t state_words_;
  size_t stride_;
  const AggLayout& layout_;
  std::vector<uint64_t> records_;
  std::vector<uint32_t> slots_;
};

// The output value of `spec` from a group's total count and state
// (`state` points at the aggregation's first state word).
void EmitAggValue(const AggSpec& spec, int64_t count, const uint64_t* state,
                  Column& col) {
  switch (spec.kind) {
    case AggKind::kCount:
      col.mutable_int64s().push_back(count);
      break;
    case AggKind::kSum:
    case AggKind::kMin:
    case AggKind::kMax:
      col.mutable_doubles().push_back(Real(state[0]));
      break;
    case AggKind::kMean:
      col.mutable_doubles().push_back(Real(state[0]) /
                                      static_cast<double>(count));
      break;
    case AggKind::kVariance:
    case AggKind::kStdDev: {
      const double n = static_cast<double>(count);
      const double mean = Real(state[0]) / n;
      const double var = std::max(0.0, Real(state[1]) / n - mean * mean);
      col.mutable_doubles().push_back(
          spec.kind == AggKind::kVariance ? var : std::sqrt(var));
      break;
    }
  }
}

}  // namespace

uint64_t GroupKeyHash(const int64_t* key, size_t num_keys) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (size_t k = 0; k < num_keys; ++k) {
    h = (h ^ static_cast<uint64_t>(key[k])) * 0xff51afd7ed558ccdull;
  }
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

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
    extra.Reserve(part.num_rows());
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
  const AggLayout layout(aggs, agg_idx);
  for (int c : layout.value_cols()) {
    GEO_CHECK(schema_->type(c) == DataType::kDouble ||
              schema_->type(c) == DataType::kInt64)
        << "aggregation column must be numeric";
  }
  const size_t num_keys = key_idx.size();
  const size_t num_values = layout.num_values();
  const size_t state_words = layout.state_words();
  const size_t partial_stride = 2 + num_keys + state_words;
  const size_t raw_stride = 1 + num_keys + num_values;
  const auto shards = static_cast<size_t>(num_shards);

  GEO_OBS_SPAN(op_span, "df.groupby");

  // Phase 1, per input partition: hash each row once and route it to
  // its shard's capped pre-aggregation table until that table is full;
  // every later row of that shard goes raw. The first pass marks the
  // raw rows, so the second copies them into buffers sized exactly.
  std::vector<std::vector<ShardSlice>> slices(partitions_.size());
  {
    GEO_OBS_SPAN(partial_span, "df.groupby.partial");
    ForEachPartition([&](const Partition& part, int pi) {
      const int64_t n = part.num_rows();
      std::vector<std::span<const int64_t>> key_cols;
      for (int k : key_idx) key_cols.push_back(part.column(k).int64s());
      // Each value slot's column: doubles, or int64s widened per row.
      std::vector<std::pair<const double*, const int64_t*>> value_cols;
      for (int c : layout.value_cols()) {
        const Column& col = part.column(c);
        value_cols.emplace_back(
            col.type() == DataType::kDouble ? col.doubles().data() : nullptr,
            col.type() == DataType::kInt64 ? col.int64s().data() : nullptr);
      }
      std::vector<uint64_t> values(num_values);
      const auto read_values = [&](int64_t r) {
        for (size_t v = 0; v < num_values; ++v) {
          const auto [d, i] = value_cols[v];
          values[v] = Word(d != nullptr ? d[r] : static_cast<double>(i[r]));
        }
      };

      std::vector<ShardSlice>& out = slices[pi];
      out.resize(shards);
      std::vector<CappedTable> tables;
      tables.reserve(shards);
      for (size_t s = 0; s < shards; ++s) {
        tables.emplace_back(num_keys, partial_stride,
                            static_cast<size_t>(n), &out[s]);
      }
      // From the first raw row on: each row's shard (kNotRaw when it
      // was pre-aggregated) and hash.
      constexpr uint32_t kNotRaw = std::numeric_limits<uint32_t>::max();
      int64_t first_raw = n;
      std::unique_ptr<uint32_t[]> raw_shard;
      std::unique_ptr<uint64_t[]> raw_hash;
      std::vector<int64_t> key(num_keys);
      for (int64_t r = 0; r < n; ++r) {
        for (size_t k = 0; k < num_keys; ++k) key[k] = key_cols[k][r];
        const uint64_t hash = GroupKeyHash(key.data(), num_keys);
        const size_t s = hash % shards;
        if (tables[s].full()) {
          if (first_raw == n) {
            first_raw = r;
            raw_shard = std::make_unique_for_overwrite<uint32_t[]>(n - r);
            raw_hash = std::make_unique_for_overwrite<uint64_t[]>(n - r);
          }
          raw_shard[r - first_raw] = static_cast<uint32_t>(s);
          raw_hash[r - first_raw] = hash;
          ++out[s].num_raw;
          continue;
        }
        if (first_raw < n) raw_shard[r - first_raw] = kNotRaw;
        uint64_t* rec = tables[s].FindOrAdd(key.data(), hash, layout);
        ++rec[1 + num_keys];
        read_values(r);
        layout.Accumulate(rec + 2 + num_keys, values.data());
      }
      if (first_raw == n) return;

      std::vector<uint64_t*> cursor(shards);
      int64_t num_raw = 0;
      for (size_t s = 0; s < shards; ++s) {
        if (out[s].num_raw == 0) continue;
        out[s].raw =
            std::make_unique_for_overwrite<uint64_t[]>(out[s].num_raw *
                                                       raw_stride);
        cursor[s] = out[s].raw.get();
        num_raw += static_cast<int64_t>(out[s].num_raw);
      }
      for (int64_t r = first_raw; r < n; ++r) {
        const uint32_t s = raw_shard[r - first_raw];
        if (s == kNotRaw) continue;
        uint64_t* row = cursor[s];
        cursor[s] += raw_stride;
        row[0] = raw_hash[r - first_raw];
        for (size_t k = 0; k < num_keys; ++k) {
          row[1 + k] = static_cast<uint64_t>(key_cols[k][r]);
        }
        read_values(r);
        std::copy(values.begin(), values.end(), row + 1 + num_keys);
      }
      GEO_OBS_COUNT("df.groupby.raw_rows", num_raw);
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

  // Phase 2, per shard, reading only phase 1's buffers: one table,
  // sized once from the shard's rows, consumes the partitions in index
  // order — each partition's partial groups, then its raw rows in row
  // order — and frees each slice once consumed. One output partition
  // per shard, rows in first-seen order.
  GEO_OBS_SPAN(merge_span, "df.groupby.merge");
  std::vector<std::shared_ptr<const Partition>> out_parts(num_shards);
  ThreadPool::Global().ParallelFor(num_shards, [&](int64_t shard) {
    size_t max_groups = 0;
    for (const auto& slice : slices) {
      max_groups += slice[shard].num_partial + slice[shard].num_raw;
    }
    ShardTable table(num_keys, layout, max_groups);
    for (size_t pi = 0; pi < slices.size(); ++pi) {
      const ShardSlice slice = std::move(slices[pi][shard]);
      const uint64_t* rec = slice.partial.data();
      for (size_t i = 0; i < slice.num_partial; ++i, rec += partial_stride) {
        uint64_t* group = table.FindOrAdd(rec + 1, rec[0]);
        const uint64_t* state = rec + 2 + num_keys;
        std::copy(state, state + state_words, table.Partial(group, pi));
        table.partial_count(group) = rec[1 + num_keys];
      }
      const uint64_t* row = slice.raw.get();
      for (size_t i = 0; i < slice.num_raw; ++i, row += raw_stride) {
        uint64_t* group = table.FindOrAdd(row + 1, row[0]);
        layout.Accumulate(table.Partial(group, pi), row + 1 + num_keys);
        ++table.partial_count(group);
      }
    }
    const size_t num_groups = table.size();
    std::vector<Column> cols;
    for (size_t k = 0; k < num_keys; ++k) {
      cols.emplace_back(DataType::kInt64).mutable_int64s().reserve(num_groups);
    }
    for (const auto& a : aggs) {
      Column& col = cols.emplace_back(a.kind == AggKind::kCount
                                          ? DataType::kInt64
                                          : DataType::kDouble);
      if (a.kind == AggKind::kCount) {
        col.mutable_int64s().reserve(num_groups);
      } else {
        col.mutable_doubles().reserve(num_groups);
      }
    }
    for (size_t g = 0; g < num_groups; ++g) {
      uint64_t* group = table.record(g);
      table.Flush(group);
      for (size_t k = 0; k < num_keys; ++k) {
        cols[k].mutable_int64s().push_back(static_cast<int64_t>(group[k]));
      }
      const auto count = static_cast<int64_t>(group[num_keys]);
      const uint64_t* total = group + num_keys + 3;
      for (size_t a = 0; a < aggs.size(); ++a) {
        EmitAggValue(aggs[a], count, total + layout.agg_word(a),
                     cols[num_keys + a]);
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
