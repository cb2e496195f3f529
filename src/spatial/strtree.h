#ifndef GEOTORCH_SPATIAL_STRTREE_H_
#define GEOTORCH_SPATIAL_STRTREE_H_

#include <cstdint>
#include <vector>

#include "spatial/geometry.h"

namespace geotorch {
class ThreadPool;
}  // namespace geotorch

namespace geotorch::spatial {

/// A bulk-loaded Sort-Tile-Recursive R-tree, the index Sedona uses for
/// spatial joins. Built once over (envelope, id) entries; queried with
/// an envelope to get candidate ids whose envelopes intersect it.
///
/// The bulk-load is level-wise and threaded on the parallel device
/// (DESIGN.md §8):
/// entries are sorted by center-x, tiled into sqrt(#leaves) slices,
/// each slice sorted by center-y, and nodes packed level by level. All
/// sort comparators are strict total orders (ties broken on the entry /
/// child index), and slice/leaf/parent boundaries depend only on the
/// entry count and node capacity — so the tree a parallel build
/// produces is identical to the serial one, node for node.
class StrTree {
 public:
  struct Entry {
    Envelope envelope;
    int64_t id;
  };

  /// Builds the tree; `node_capacity` children per node. The sorts and
  /// the node packing run on `pool` (nullptr: ThreadPool::Global()); on
  /// the serial device every phase stays on the calling thread and
  /// builds the same tree.
  explicit StrTree(std::vector<Entry> entries, int node_capacity = 10,
                   ThreadPool* pool = nullptr);

  /// Ids of all entries whose envelope intersects `query`.
  std::vector<int64_t> Query(const Envelope& query) const;

  /// Ids of the k entries whose envelopes are nearest to `p`
  /// (best-first branch-and-bound over envelope distances), closest
  /// first. Returns fewer than k when the tree is small.
  std::vector<int64_t> Nearest(const Point& p, int k) const;

  /// Calls `fn(id)` for every intersecting entry (no allocation).
  template <typename Fn>
  void Visit(const Envelope& query, Fn&& fn) const {
    if (nodes_.empty()) return;
    VisitNode(root_, query, fn);
  }

  int64_t size() const { return num_entries_; }
  int height() const { return height_; }

  /// True when both trees hold the same entries and the same node
  /// structure (envelopes compared bitwise). The property tests use
  /// this to assert parallel builds match serial ones exactly.
  bool IdenticalTo(const StrTree& other) const;

 private:
  struct Node {
    Envelope envelope;
    // Children indices for interior nodes; entry indices for leaves.
    std::vector<int32_t> children;
    bool is_leaf = false;
  };

  void Build(ThreadPool& pool);

  template <typename Fn>
  void VisitNode(int32_t node_id, const Envelope& query, Fn&& fn) const {
    const Node& node = nodes_[node_id];
    if (!node.envelope.Intersects(query)) return;
    if (node.is_leaf) {
      for (int32_t e : node.children) {
        if (entries_[e].envelope.Intersects(query)) fn(entries_[e].id);
      }
      return;
    }
    for (int32_t c : node.children) VisitNode(c, query, fn);
  }

  std::vector<Entry> entries_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
  int node_capacity_;
  int64_t num_entries_ = 0;
  int height_ = 0;
};

}  // namespace geotorch::spatial

#endif  // GEOTORCH_SPATIAL_STRTREE_H_
