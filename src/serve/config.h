#ifndef GEOTORCH_SERVE_CONFIG_H_
#define GEOTORCH_SERVE_CONFIG_H_

#include "nn/precision.h"

namespace geotorch::serve {

/// Dynamic micro-batcher knobs (DESIGN.md §9). FromEnv() overrides the
/// compiled-in defaults with the GEOTORCH_SERVE_* environment family,
/// following the core/env.h conventions (DESIGN.md §14):
///
///   GEOTORCH_SERVE_MAX_BATCH     coalesce at most this many requests
///                                into one forward (default 16)
///   GEOTORCH_SERVE_MAX_QUEUE     bounded request-queue capacity;
///                                submits beyond it are rejected with a
///                                Status — backpressure, not unbounded
///                                memory (default 256)
///   GEOTORCH_SERVE_WARMUP        full-size warmup forwards run at
///                                engine construction, so the first
///                                real request does not pay pool /
///                                workspace cold-start (default 2)
///   GEOTORCH_SERVE_PRECISION     numeric mode the served model runs
///                                its GEMMs in: "f32" (default) or
///                                "int8" (DESIGN.md §10).
///                                Applied by the serve/adapters.h
///                                factories at model-wrap time, which
///                                is when int8 weights are quantized
///                                and panel-packed; unknown values are
///                                ignored
struct EngineOptions {
  int max_batch = 16;
  /// Not read; removed once geobench stops assigning it. The batcher
  /// never waits for a partial batch to fill (DESIGN.md §9).
  int max_delay_us = 200;
  int max_queue = 256;
  int warmup_batches = 2;
  nn::Precision precision = nn::Precision::kF32;

  /// Defaults overridden by any GEOTORCH_SERVE_* variables present.
  /// Values are clamped to sane minimums (max_batch/max_queue >= 1,
  /// warmup_batches >= 0); unparsable text is ignored.
  static EngineOptions FromEnv();
};

/// Knobs for the sharded, replicated serving fleet (serve/fleet.h,
/// DESIGN.md §11). FromEnv() reads the GEOTORCH_FLEET_* family and
/// nests EngineOptions::FromEnv(), so one environment configures both
/// layers:
///
///   GEOTORCH_FLEET_REPLICAS      engines spun up per registered model
///                                when AddModel does not override it
///                                (default 2)
///   GEOTORCH_FLEET_TENANT_QPS    per-tenant admission rate in requests
///                                per second, enforced by a token
///                                bucket at the router; 0 disables
///                                quotas entirely (default 0)
///   GEOTORCH_FLEET_TENANT_BURST  token-bucket capacity — how many
///                                requests a tenant may burst above the
///                                steady rate; 0 means max(1, qps)
///                                (default 0)
struct FleetOptions {
  int replicas = 2;
  int tenant_qps = 0;
  int tenant_burst = 0;
  /// Per-replica engine knobs; every replica of every model shares
  /// these.
  EngineOptions engine;

  /// Defaults overridden by any GEOTORCH_FLEET_* / GEOTORCH_SERVE_*
  /// variables present. replicas is clamped to >= 1, the tenant knobs
  /// to >= 0; unparsable text is ignored.
  static FleetOptions FromEnv();
};

}  // namespace geotorch::serve

#endif  // GEOTORCH_SERVE_CONFIG_H_
