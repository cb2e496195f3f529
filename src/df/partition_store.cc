#include "df/partition_store.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "core/check.h"
#include "core/env.h"
#include "df/dataframe.h"
#include "df/gtdf.h"
#include "obs/obs.h"

namespace geotorch::df {

// --- Partition residency ------------------------------------------------

const Column& Partition::column(int i) const {
  if (!resident_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!resident_.load(std::memory_order_relaxed)) FaultInLocked();
  }
  return *columns_[i];
}

SharedColumn Partition::column_ptr(int i) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!resident_.load(std::memory_order_relaxed)) FaultInLocked();
  return columns_[i];
}

int64_t Partition::ByteSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_.load(std::memory_order_relaxed) ? resident_bytes_ : 0;
}

Partition::Pin::Pin(const Partition& p) : p_(&p) {
  {
    std::lock_guard<std::mutex> lock(p_->mu_);
    if (!p_->resident_.load(std::memory_order_relaxed)) p_->FaultInLocked();
    ++p_->pin_count_;
  }
  // Touch + budget enforcement happen with no partition mutex held, so
  // two concurrent fault-ins can never deadlock evicting each other's
  // partition. This pin protects *this* partition from the sweep.
  p_->store_->Touch(p_);
  p_->store_->EnforceBudget(p_);
}

Partition::Pin::~Pin() {
  if (p_ == nullptr) return;  // moved from
  std::lock_guard<std::mutex> lock(p_->mu_);
  --p_->pin_count_;
}

void Partition::FaultInLocked() const {
  GEO_OBS_SPAN(fault_span, "df.fault");
  auto loaded = ReadGtdf(spill_path_);
  // The engine wrote this file itself moments-to-minutes ago; failing
  // to read it back means the spill directory was tampered with or the
  // disk is dying — not a state the pipeline can continue from.
  GEO_CHECK(loaded.ok()) << "fault-in failed: "
                         << loaded.status().ToString();
  GEO_CHECK_EQ(loaded->num_rows, num_rows_);
  GEO_CHECK_EQ(static_cast<int>(loaded->columns.size()),
               static_cast<int>(types_.size()));
  columns_.clear();
  columns_.reserve(loaded->columns.size());
  int64_t bytes = 0;
  for (auto& col : loaded->columns) {
    SharedColumn shared = TrackColumn(std::move(col));
    bytes += shared->ByteSize();
    columns_.push_back(std::move(shared));
  }
  resident_bytes_ = bytes;
  resident_.store(true, std::memory_order_release);
  GEO_OBS_COUNT("df.fault_in", 1);
  store_->OnFaultIn(this, bytes);
}

bool Partition::SpillLocked(int64_t* file_bytes) const {
  GEO_OBS_SPAN(spill_span, "df.spill");
  *file_bytes = 0;
  if (spill_path_.empty()) {
    std::string path = store_->NextSpillPath();
    Status s = WriteGtdf(path, columns_, num_rows_);
    if (!s.ok()) {
      // Disk trouble: keep the partition resident rather than losing
      // data; the budget sweep will simply fail to shrink this one.
      std::remove(path.c_str());
      GEO_OBS_COUNT("df.spill_failed", 1);
      return false;
    }
    std::error_code ec;
    const auto sz = std::filesystem::file_size(path, ec);
    *file_bytes = ec ? 0 : static_cast<int64_t>(sz);
    GEO_OBS_COUNT("df.spill_bytes", *file_bytes);
    spill_path_ = std::move(path);
  }
  columns_.clear();  // last references drop -> MemoryTracker release
  columns_.shrink_to_fit();
  resident_.store(false, std::memory_order_release);
  return true;
}

// --- PartitionStore -----------------------------------------------------

PartitionStore::Options PartitionStore::Options::FromEnv() {
  Options opts;
  const int64_t mb = EnvInt64("GEOTORCH_DF_RESIDENT_MB", 0, 0);
  if (mb > 0) opts.resident_budget_bytes = mb << 20;
  opts.spill_dir = EnvString("GEOTORCH_DF_SPILL_DIR", opts.spill_dir);
  return opts;
}

PartitionStore& PartitionStore::Global() {
  static PartitionStore* store = new PartitionStore();
  return *store;
}

void PartitionStore::Configure(const Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  opts_ = options;
  dir_ready_ = false;
}

PartitionStore::Options PartitionStore::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opts_;
}

PartitionStore::Stats PartitionStore::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.resident_partitions = static_cast<int64_t>(lru_.size());
  stats.spilled_partitions = static_cast<int64_t>(spilled_.size());
  stats.resident_bytes = resident_bytes_;
  stats.peak_resident_bytes = peak_resident_bytes_;
  stats.spill_count = spill_count_;
  stats.fault_count = fault_count_;
  stats.spill_bytes = spill_bytes_;
  return stats;
}

void PartitionStore::ResetPeak() {
  std::lock_guard<std::mutex> lock(mu_);
  peak_resident_bytes_ = resident_bytes_;
}

void PartitionStore::UpdateGaugeLocked() {
  if (resident_bytes_ > peak_resident_bytes_) {
    peak_resident_bytes_ = resident_bytes_;
  }
  if (GEO_OBS_ON()) obs::SetGauge("df.resident_bytes", resident_bytes_);
}

void PartitionStore::Register(const Partition* p, int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.push_front(p);
  resident_index_[p] = lru_.begin();
  resident_bytes_ += bytes;
  UpdateGaugeLocked();
}

void PartitionStore::Unregister(const Partition* p) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return evicting_.count(p) == 0; });
  auto it = resident_index_.find(p);
  if (it != resident_index_.end()) {
    lru_.erase(it->second);
    resident_index_.erase(it);
    resident_bytes_ -= p->resident_bytes_;
    UpdateGaugeLocked();
  } else {
    spilled_.erase(p);
  }
}

void PartitionStore::OnFaultIn(const Partition* p, int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  spilled_.erase(p);
  lru_.push_front(p);
  resident_index_[p] = lru_.begin();
  resident_bytes_ += bytes;
  ++fault_count_;
  UpdateGaugeLocked();
}

void PartitionStore::TouchLocked(const Partition* p) {
  auto it = resident_index_.find(p);
  if (it != resident_index_.end() && it->second != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second = lru_.begin();
  }
}

void PartitionStore::Touch(const Partition* p) {
  std::lock_guard<std::mutex> lock(mu_);
  TouchLocked(p);
}

void PartitionStore::EnforceBudget(const Partition* exclude) {
  size_t attempts = 0;
  while (true) {
    const Partition* victim = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (resident_bytes_ <= opts_.resident_budget_bytes) return;
      if (attempts >= lru_.size()) return;  // only pinned/excluded left
      // Coldest first; the freshly admitted/pinned partition is exempt
      // (the budget is honored to within one partition by design).
      for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        if (*it == exclude || evicting_.count(*it) != 0) continue;
        victim = *it;
        break;
      }
      if (victim == nullptr) return;
      evicting_.insert(victim);
    }
    ++attempts;
    TrySpill(victim);
  }
}

void PartitionStore::TrySpill(const Partition* p) {
  bool evicted = false;
  int64_t freed = 0;
  int64_t wrote = 0;
  // The partition mutex stays held through the LRU update below. If it
  // were released between the spill and the update, a Pin could fault
  // the partition back in first: OnFaultIn would push a second LRU
  // entry, the erase below would remove only the newer one, and the
  // stale entry would outlive the partition.
  std::unique_lock<std::mutex> plock(p->mu_);
  if (p->pin_count_ == 0 && p->resident_.load(std::memory_order_relaxed)) {
    freed = p->resident_bytes_;
    evicted = p->SpillLocked(&wrote);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (evicted) {
    auto it = resident_index_.find(p);
    if (it != resident_index_.end()) {
      lru_.erase(it->second);
      resident_index_.erase(it);
    }
    spilled_.insert(p);
    resident_bytes_ -= freed;
    ++spill_count_;
    spill_bytes_ += wrote;
  } else {
    // Pinned (or the write failed): treat as hot so the sweep moves on
    // instead of re-selecting the same victim.
    TouchLocked(p);
  }
  // Release the partition before leaving evicting_: from then on
  // Unregister may return and the partition (and its mutex) may die.
  plock.unlock();
  evicting_.erase(p);
  UpdateGaugeLocked();
  cv_.notify_all();
}

std::string PartitionStore::NextSpillPath() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dir_ready_) {
    std::error_code ec;
    std::filesystem::create_directories(opts_.spill_dir, ec);
    dir_ready_ = true;  // a failure surfaces as a WriteGtdf open error
  }
  // The pid keeps concurrently running test/bench processes that share
  // the default directory from clobbering each other's files.
  return opts_.spill_dir + "/part-" + std::to_string(::getpid()) + "-" +
         std::to_string(next_file_id_++) + ".gtdf";
}

}  // namespace geotorch::df
