#include "serve/config.h"

#include <cstdlib>
#include <string>

#include "core/env.h"

namespace geotorch::serve {

EngineOptions EngineOptions::FromEnv() {
  EngineOptions opts;
  opts.max_batch = EnvInt("GEOTORCH_SERVE_MAX_BATCH", opts.max_batch, 1);
  opts.max_queue = EnvInt("GEOTORCH_SERVE_MAX_QUEUE", opts.max_queue, 1);
  opts.warmup_batches =
      EnvInt("GEOTORCH_SERVE_WARMUP", opts.warmup_batches, 0);
  if (const char* env = std::getenv("GEOTORCH_SERVE_PRECISION");
      env != nullptr && *env != '\0') {
    nn::ParsePrecision(std::string(env), &opts.precision);
  }
  return opts;
}

FleetOptions FleetOptions::FromEnv() {
  FleetOptions opts;
  opts.replicas = EnvInt("GEOTORCH_FLEET_REPLICAS", opts.replicas, 1);
  opts.tenant_qps = EnvInt("GEOTORCH_FLEET_TENANT_QPS", opts.tenant_qps, 0);
  opts.tenant_burst =
      EnvInt("GEOTORCH_FLEET_TENANT_BURST", opts.tenant_burst, 0);
  opts.engine = EngineOptions::FromEnv();
  return opts;
}

}  // namespace geotorch::serve
