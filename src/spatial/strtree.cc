#include "spatial/strtree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <utility>

#include "core/check.h"
#include "core/thread_pool.h"
#include "obs/obs.h"

namespace geotorch::spatial {
namespace {

// Work of sorting one id for the pool's fan-out rule, in GEMM
// multiply-adds (DESIGN.md §5): the old 1 << 13-id threshold then weighs
// 1 << 18, the old GEMM one.
constexpr int64_t kSortWorkPerId = 32;

/// Sorts `data[0, n)` with `less`, fanning the initial chunk sorts and
/// the pairwise merge passes out over `pool` (one std::sort when the
/// pool gives one chunk: small arrays, the serial device, a nested
/// call). `less` must be a strict total order: the sorted permutation
/// is then unique, so the result cannot depend on the chunking or on
/// how many workers the pool has.
template <typename Less>
void SortIds(int32_t* data, int64_t n, const Less& less, ThreadPool& pool) {
  const int64_t chunks = pool.Chunks(n, kSortWorkPerId);
  if (chunks <= 1) {
    std::sort(data, data + n, less);
    return;
  }
  const int64_t per = (n + chunks - 1) / chunks;
  std::vector<int64_t> bounds;
  for (int64_t b = 0; b < n; b += per) bounds.push_back(b);
  bounds.push_back(n);
  const int64_t runs = static_cast<int64_t>(bounds.size()) - 1;
  pool.ParallelFor(runs, [&](int64_t r) {
    std::sort(data + bounds[r], data + bounds[r + 1], less);
  });

  // Pairwise merge passes, ping-ponging between `data` and a scratch
  // buffer; each pass halves the number of sorted runs.
  std::vector<int32_t> scratch(n);
  int32_t* src = data;
  int32_t* dst = scratch.data();
  while (static_cast<int64_t>(bounds.size()) - 1 > 1) {
    const int64_t in_runs = static_cast<int64_t>(bounds.size()) - 1;
    const int64_t pairs = in_runs / 2;
    std::vector<int64_t> next_bounds;
    for (int64_t p = 0; p <= pairs; ++p) {
      next_bounds.push_back(bounds[std::min<int64_t>(2 * p, in_runs)]);
    }
    if (next_bounds.back() != n) next_bounds.push_back(n);
    pool.ParallelFor(pairs, [&](int64_t p) {
      std::merge(src + bounds[2 * p], src + bounds[2 * p + 1],
                 src + bounds[2 * p + 1], src + bounds[2 * p + 2],
                 dst + bounds[2 * p], less);
    });
    if (in_runs % 2 == 1) {  // odd run out: carried over unmerged
      std::copy(src + bounds[in_runs - 1], src + bounds[in_runs],
                dst + bounds[in_runs - 1]);
    }
    bounds = std::move(next_bounds);
    std::swap(src, dst);
  }
  if (src != data) std::copy(src, src + n, data);
}

}  // namespace

StrTree::StrTree(std::vector<Entry> entries, int node_capacity,
                 ThreadPool* pool)
    : entries_(std::move(entries)), node_capacity_(node_capacity) {
  GEO_CHECK_GE(node_capacity_, 2);
  num_entries_ = static_cast<int64_t>(entries_.size());
  if (entries_.empty()) return;
  Build(pool != nullptr ? *pool : ThreadPool::Global());
}

void StrTree::Build(ThreadPool& pool) {
  GEO_OBS_SPAN(build_span, "spatial.build");
  GEO_OBS_COUNT("spatial.build_entries", num_entries_);
  const int64_t n = num_entries_;
  const int64_t cap = node_capacity_;

  if (n <= cap) {
    Node leaf;
    leaf.is_leaf = true;
    for (int64_t i = 0; i < n; ++i) {
      leaf.children.push_back(static_cast<int32_t>(i));
      leaf.envelope.ExpandToInclude(entries_[i].envelope);
    }
    nodes_.push_back(std::move(leaf));
    root_ = 0;
    height_ = 1;
    return;
  }

  // STR: sort by center x, cut into ~sqrt(#leaves) vertical slices,
  // sort each slice by center y, pack runs of node_capacity into
  // leaves. Ties order by entry index, making every sort's output a
  // unique permutation — the hinge of serial/parallel identity.
  std::vector<int32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  SortIds(ids.data(), n,
          [this](int32_t a, int32_t b) {
            const double ax = entries_[a].envelope.center().x;
            const double bx = entries_[b].envelope.center().x;
            if (ax != bx) return ax < bx;
            return a < b;
          },
          pool);

  const int64_t num_leaves = (n + cap - 1) / cap;
  const int64_t num_slices =
      static_cast<int64_t>(std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const int64_t slice_size = (n + num_slices - 1) / num_slices;
  const auto y_less = [this](int32_t a, int32_t b) {
    const double ay = entries_[a].envelope.center().y;
    const double by = entries_[b].envelope.center().y;
    if (ay != by) return ay < by;
    return a < b;
  };
  const auto sort_slice = [&](int64_t s) {
    const int64_t begin = s * slice_size;
    const int64_t end = std::min<int64_t>(n, begin + slice_size);
    if (begin < end) {
      std::sort(ids.begin() + begin, ids.begin() + end, y_less);
    }
  };
  pool.ParallelFor(num_slices, sort_slice);

  // Leaf boundaries are a pure function of (n, cap): runs of `cap`
  // within each slice.
  std::vector<std::pair<int64_t, int64_t>> leaf_ranges;
  leaf_ranges.reserve(num_leaves);
  for (int64_t s = 0; s < num_slices; ++s) {
    const int64_t begin = s * slice_size;
    const int64_t end = std::min<int64_t>(n, begin + slice_size);
    for (int64_t b = begin; b < end; b += cap) {
      leaf_ranges.emplace_back(b, std::min<int64_t>(end, b + cap));
    }
  }
  const int64_t leaf_count = static_cast<int64_t>(leaf_ranges.size());
  nodes_.resize(leaf_count);
  const auto fill_leaf = [&](int64_t i) {
    Node& leaf = nodes_[i];
    leaf.is_leaf = true;
    for (int64_t r = leaf_ranges[i].first; r < leaf_ranges[i].second; ++r) {
      leaf.children.push_back(ids[r]);
      leaf.envelope.ExpandToInclude(entries_[ids[r]].envelope);
    }
  };
  pool.ParallelFor(leaf_count, fill_leaf);

  // Pack upward level by level; every parent slot is independent, so
  // each level fans out over the pool after a single resize.
  int64_t level_begin = 0;
  int64_t level_count = leaf_count;
  height_ = 1;
  while (level_count > 1) {
    const int64_t parent_count = (level_count + cap - 1) / cap;
    const int64_t base = static_cast<int64_t>(nodes_.size());
    nodes_.resize(base + parent_count);
    const auto fill_parent = [&](int64_t p) {
      Node& parent = nodes_[base + p];
      parent.is_leaf = false;
      const int64_t cb = level_begin + p * cap;
      const int64_t ce =
          std::min<int64_t>(level_begin + level_count, cb + cap);
      for (int64_t c = cb; c < ce; ++c) {
        parent.children.push_back(static_cast<int32_t>(c));
        parent.envelope.ExpandToInclude(nodes_[c].envelope);
      }
    };
    pool.ParallelFor(parent_count, fill_parent);
    level_begin = base;
    level_count = parent_count;
    ++height_;
  }
  root_ = static_cast<int32_t>(level_begin);
}

namespace {

bool SameEnvelope(const Envelope& a, const Envelope& b) {
  return a.min_x() == b.min_x() && a.min_y() == b.min_y() &&
         a.max_x() == b.max_x() && a.max_y() == b.max_y();
}

// Squared distance from a point to an envelope (0 when inside).
double EnvelopeDist2(const Envelope& e, const Point& p) {
  const double dx = std::max({e.min_x() - p.x, 0.0, p.x - e.max_x()});
  const double dy = std::max({e.min_y() - p.y, 0.0, p.y - e.max_y()});
  return dx * dx + dy * dy;
}

}  // namespace

bool StrTree::IdenticalTo(const StrTree& other) const {
  if (num_entries_ != other.num_entries_ ||
      node_capacity_ != other.node_capacity_ || root_ != other.root_ ||
      height_ != other.height_ || nodes_.size() != other.nodes_.size()) {
    return false;
  }
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].id != other.entries_[i].id ||
        !SameEnvelope(entries_[i].envelope, other.entries_[i].envelope)) {
      return false;
    }
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_leaf != other.nodes_[i].is_leaf ||
        nodes_[i].children != other.nodes_[i].children ||
        !SameEnvelope(nodes_[i].envelope, other.nodes_[i].envelope)) {
      return false;
    }
  }
  return true;
}

std::vector<int64_t> StrTree::Nearest(const Point& p, int k) const {
  std::vector<int64_t> out;
  if (nodes_.empty() || k <= 0) return out;
  // Best-first search: frontier of (dist2, is_entry, index).
  struct Item {
    double dist2;
    bool is_entry;
    int32_t index;
    bool operator>(const Item& other) const { return dist2 > other.dist2; }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> frontier;
  frontier.push({EnvelopeDist2(nodes_[root_].envelope, p), false, root_});
  while (!frontier.empty() && static_cast<int>(out.size()) < k) {
    Item item = frontier.top();
    frontier.pop();
    if (item.is_entry) {
      out.push_back(entries_[item.index].id);
      continue;
    }
    const Node& node = nodes_[item.index];
    if (node.is_leaf) {
      for (int32_t e : node.children) {
        frontier.push({EnvelopeDist2(entries_[e].envelope, p), true, e});
      }
    } else {
      for (int32_t c : node.children) {
        frontier.push({EnvelopeDist2(nodes_[c].envelope, p), false, c});
      }
    }
  }
  return out;
}

std::vector<int64_t> StrTree::Query(const Envelope& query) const {
  std::vector<int64_t> out;
  Visit(query, [&out](int64_t id) { out.push_back(id); });
  return out;
}

}  // namespace geotorch::spatial
