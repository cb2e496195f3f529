#ifndef GEOTORCH_BENCH_BENCH_UTIL_H_
#define GEOTORCH_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/memory.h"

// Set per bench target by bench/CMakeLists.txt.
#ifndef GEO_BENCH_GIT_REV
#define GEO_BENCH_GIT_REV "unknown"
#endif
#ifndef GEO_BENCH_BUILD_TYPE
#define GEO_BENCH_BUILD_TYPE "unknown"
#endif

namespace geotorch::bench {

/// Command-line knobs shared by the table/figure harnesses. Every bench
/// defaults to a laptop-scale configuration; pass --iterations=N to
/// average over more seeds (the paper uses 5) and --scale=paper to use
/// the paper's full dataset shapes (slower). --trace_json=PATH dumps
/// the observability snapshot (counters, histograms, span tree) of the
/// run to PATH.
struct BenchArgs {
  int iterations = 1;
  bool paper_scale = false;
  std::string trace_json;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--iterations=", 13) == 0) {
        args.iterations = std::atoi(argv[i] + 13);
      } else if (std::strcmp(argv[i], "--scale=paper") == 0) {
        args.paper_scale = true;
      } else if (std::strncmp(argv[i], "--trace_json=", 13) == 0) {
        args.trace_json = argv[i] + 13;
      }
    }
    if (args.iterations < 1) args.iterations = 1;
    return args;
  }
};

/// Streams one BENCH_*.json report with the envelope every committed
/// result carries: the bench name, the report schema version, the git
/// revision and build type it was built from, and the machine's
/// hardware thread count up front; the process peak resident-set size
/// (VmHWM) stamped at Finish(). The envelope makes reports comparable
/// across hosts and revisions without parsing bench-specific fields.
///
///   BenchJsonWriter json(path, "my_bench");
///   if (json.ok()) {
///     std::fprintf(json.stream(), "  \"rows\": %d,\n", rows);  // body
///     json.Finish();
///   }
///
/// Body fields written through stream() must each end with ",\n" —
/// Finish() appends the peak-RSS field and the closing brace.
class BenchJsonWriter {
 public:
  /// Bump when the shared envelope changes shape.
  static constexpr int kSchemaVersion = 3;

  BenchJsonWriter(const std::string& path, const char* bench)
      : path_(path), f_(std::fopen(path.c_str(), "wb")) {
    if (f_ == nullptr) {
      std::printf("WARNING: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f_, "{\n  \"bench\": \"%s\",\n", bench);
    std::fprintf(f_, "  \"schema_version\": %d,\n", kSchemaVersion);
    std::fprintf(f_, "  \"git_revision\": \"%s\",\n", GEO_BENCH_GIT_REV);
    std::fprintf(f_, "  \"build_type\": \"%s\",\n", GEO_BENCH_BUILD_TYPE);
    std::fprintf(f_, "  \"hardware_threads\": %u,\n",
                 std::max(1u, std::thread::hardware_concurrency()));
  }
  ~BenchJsonWriter() {
    if (f_ != nullptr) Finish();
  }
  BenchJsonWriter(const BenchJsonWriter&) = delete;
  BenchJsonWriter& operator=(const BenchJsonWriter&) = delete;

  bool ok() const { return f_ != nullptr; }
  std::FILE* stream() { return f_; }

  void Finish() {
    if (f_ == nullptr) return;
    std::fprintf(f_, "  \"peak_rss_mb\": %.1f\n}\n",
                 static_cast<double>(PeakRssBytes()) / (1 << 20));
    std::fclose(f_);
    f_ = nullptr;
    std::printf("wrote %s\n", path_.c_str());
  }

 private:
  std::string path_;
  std::FILE* f_;
};

/// "12.345±0.678" formatting used by the paper's tables.
inline std::string PlusMinus(double mean, double dev, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f±%.*f", precision, mean,
                precision, dev);
  return buf;
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Nearest-rank percentile (p in [0, 1]) of an ascending-sorted sample;
/// 0 for an empty one. The latency columns of the serve, fleet, stream
/// and quant benches all use it.
inline int64_t Percentile(const std::vector<int64_t>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

}  // namespace geotorch::bench

#endif  // GEOTORCH_BENCH_BENCH_UTIL_H_
