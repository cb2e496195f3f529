#ifndef GEOTORCH_SERVE_FLEET_H_
#define GEOTORCH_SERVE_FLEET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "serve/config.h"
#include "serve/engine.h"
#include "tensor/tensor.h"

namespace geotorch::serve {

/// One loaded model version behind a fleet replica (DESIGN.md §11).
/// Type-erased on purpose: the fleet routes, swaps, and retires
/// snapshots without knowing the model family.
///
/// `owner` keeps the module (or whatever backs `forward`) alive;
/// in-flight batches hold a shared_ptr to the whole snapshot, so a
/// swapped-out version retires exactly when its last batch finishes.
/// `load` rebuilds THIS snapshot's own weights from a GTCP checkpoint
/// path — factories typically wire io::LoadStateDict plus a
/// SetPrecision re-derivation of the packed low-precision panels; a
/// null `load` marks the model as not hot-reloadable.
struct ModelSnapshot {
  std::shared_ptr<void> owner;
  Engine::BatchForward forward;
  std::function<Status(const std::string& path)> load;
  /// Assigned by the fleet: 1 for the snapshot a replica starts with,
  /// +1 per successful Reload of its model.
  int64_t version = 0;
};

/// Builds a fresh, fully-initialized snapshot (its own module
/// instance). Called once per replica at AddModel and once per replica
/// per Reload — replicas never share mutable model state, so their
/// forwards can run concurrently.
using SnapshotFactory = std::function<ModelSnapshot()>;

struct FleetStats {
  int64_t routed = 0;           ///< submits that passed admission
  int64_t tenant_rejected = 0;  ///< submits refused by a tenant quota
  int64_t reload_swaps = 0;     ///< replica snapshot swaps committed
  int64_t reload_failures = 0;  ///< Reload calls that returned an error
};

/// A sharded, replicated serving fleet (DESIGN.md §11): N Engine
/// replicas per named model, a least-queue-depth router with
/// round-robin tie-break, per-tenant token-bucket admission control
/// layered over the engines' OutOfRange backpressure, and hot model
/// reload that swaps every replica of a model to a new GTCP checkpoint
/// without dropping in-flight requests.
///
/// Hot reload is copy-on-swap: Reload builds a SHADOW snapshot per
/// replica (a fresh module from the factory), loads the checkpoint
/// into the shadow while the old snapshot keeps serving, and only
/// after every shadow loaded cleanly swaps each replica's snapshot
/// pointer — a swap the batcher observes between batches, never
/// mid-forward, so no forward ever sees a half-loaded model and every
/// response is bitwise-consistent with exactly one checkpoint version.
/// A load failure (truncated / bit-flipped file, name or shape
/// mismatch) aborts before ANY replica swapped: the old version keeps
/// serving and the caller gets the Status. Old snapshots drain and
/// retire via shared_ptr: Reload waits out each replica's in-flight
/// work (Engine::Drain), so by the time it returns no forward still
/// runs the previous version.
///
/// Thread-safety: Submit / Reload / AddModel / stats may race freely.
/// Reloads of the same model serialize; Submit never blocks on a
/// reload (the router keeps handing requests to the old snapshot until
/// the instant of the swap).
class Fleet {
 public:
  explicit Fleet(FleetOptions options = FleetOptions::FromEnv());
  /// Shuts down every replica (graceful drain, as Engine::~Engine).
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Registers `name` backed by `replicas` engines (0 means
  /// options.replicas), each wrapping its own snapshot from `factory`.
  /// AlreadyExists if the name is taken, InvalidArgument if the
  /// factory yields a snapshot with no forward.
  Status AddModel(const std::string& name, SnapshotFactory factory,
                  SampleSpec spec, int replicas = 0);

  /// Routes one sample to the least-loaded replica of `model` and
  /// blocks until its output row is ready. `deadline_us` bounds the
  /// wait on the chosen replica (0 = forever; see Engine::Submit).
  /// Errors:
  ///   NotFound          — no model with that name;
  ///   ResourceExhausted — `tenant` is over its request quota;
  ///   OutOfRange        — every replica's queue is full (backpressure);
  ///   DeadlineExceeded  — admitted, but not answered in time;
  ///   InvalidArgument   — shape mismatch, or fleet shut down.
  /// Replicas are tried in ascending outstanding-request order, so a
  /// single full replica does not bounce a request the next one could
  /// take; only when all reject does the caller see backpressure. A
  /// deadline expiry is NOT retried on the next replica — the time is
  /// already spent, which is the point of the deadline.
  Result<tensor::Tensor> Submit(const std::string& model,
                                const std::string& tenant,
                                const data::Sample& sample,
                                int64_t deadline_us = 0);

  /// Hot-swaps every replica of `model` to the checkpoint at `path`
  /// (copy-on-swap, see class comment). On success the model's version
  /// is bumped and no forward still runs the old weights; on error
  /// nothing changed and the old version keeps serving. Reloads of the
  /// same model serialize; traffic keeps flowing throughout.
  Status Reload(const std::string& model, const std::string& path);

  /// Version currently served by `model` (1 until the first successful
  /// Reload). NotFound for unknown names.
  Result<int64_t> ModelVersion(const std::string& model) const;

  /// Replica count for `model`; 0 for unknown names.
  int ReplicaCount(const std::string& model) const;

  /// Per-replica outstanding requests (accepted, not yet answered) —
  /// the router's load signal. Empty for unknown names.
  std::vector<int64_t> Outstanding(const std::string& model) const;

  /// Per-replica engine counters (accepted / rejected / batches), in
  /// replica order. Empty for unknown names.
  std::vector<EngineStats> ReplicaStats(const std::string& model) const;

  FleetStats stats() const;
  const FleetOptions& options() const { return options_; }

  /// Stops every replica: drains accepted requests, then joins the
  /// batcher threads. Idempotent; later submits get InvalidArgument.
  void Shutdown();

 private:
  struct Replica {
    std::unique_ptr<Engine> engine;
    /// Guards snapshot swaps against the batcher's per-batch read.
    /// Held only to copy / replace the shared_ptr, never across a
    /// forward, so reloads cannot stall serving.
    std::mutex snap_mu;
    std::shared_ptr<const ModelSnapshot> snapshot;
    /// Requests routed here and not yet answered (queued + batching +
    /// mid-forward). The router's least-depth key.
    std::atomic<int64_t> outstanding{0};
    /// "fleet.queue_depth.<model>.<index>" — built once so the per-
    /// request gauge update does no string assembly.
    std::string gauge_name;
  };

  struct ModelEntry {
    std::string name;
    SnapshotFactory factory;
    SampleSpec spec;
    std::vector<std::unique_ptr<Replica>> replicas;
    /// Round-robin cursor: rotates the starting replica of the
    /// router's scan so equal-depth replicas share load evenly.
    std::atomic<uint64_t> rr{0};
    /// Serializes Reload calls for this model.
    std::mutex reload_mu;
    std::atomic<int64_t> version{1};
  };

  /// Token bucket; guarded by tenants_mu_.
  struct TenantBucket {
    double tokens = 0.0;
    int64_t last_ns = 0;
  };

  ModelEntry* FindModel(const std::string& name) const;
  /// Takes one token from `tenant`'s bucket; false when the quota is
  /// exhausted. Always true when tenant_qps is 0 (quotas off).
  bool Admit(const std::string& tenant);

  FleetOptions options_;

  mutable std::mutex models_mu_;
  /// unique_ptr entries: pointers stay stable while AddModel appends.
  std::vector<std::unique_ptr<ModelEntry>> models_;

  std::mutex tenants_mu_;
  std::unordered_map<std::string, TenantBucket> tenants_;

  std::atomic<int64_t> routed_{0};
  std::atomic<int64_t> tenant_rejected_{0};
  std::atomic<int64_t> reload_swaps_{0};
  std::atomic<int64_t> reload_failures_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace geotorch::serve

#endif  // GEOTORCH_SERVE_FLEET_H_
