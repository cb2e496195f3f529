#ifndef GEOTORCH_TENSOR_DEVICE_H_
#define GEOTORCH_TENSOR_DEVICE_H_

#include <optional>

namespace geotorch::tensor {

/// Execution backend for heavy kernels (matmul, im2col convolution,
/// large elementwise loops).
///
/// The original GeoTorchAI runs its deep-learning module on either CPU
/// or GPU; this environment has no GPU, so the accelerated device is
/// simulated by a multi-threaded backend that exercises the same
/// device-dispatch code path (see DESIGN.md §1).
enum class Device {
  kSerial,    ///< single-threaded execution ("CPU" in the paper's Fig. 9)
  kParallel,  ///< thread-pool execution ("GPU" stand-in)
};

/// Returns the backend heavy kernels dispatch to on the calling thread:
/// its DeviceGuard override if one is active, else the process default.
Device GetDefaultDevice();

/// Sets the process-wide default backend, which every thread without
/// an override reads (pool workers included).
void SetDefaultDevice(Device device);

/// RAII per-thread device override (DESIGN.md §5). Sets the calling
/// thread's override and restores the thread's previous one (or none)
/// on destruction; other threads and the process default are
/// untouched. The serve batcher pins its thread to kSerial with one;
/// benchmarks use it to time both backends.
class DeviceGuard {
 public:
  explicit DeviceGuard(Device device);
  ~DeviceGuard();
  DeviceGuard(const DeviceGuard&) = delete;
  DeviceGuard& operator=(const DeviceGuard&) = delete;

 private:
  std::optional<Device> saved_;
};

/// Human-readable backend name ("serial-cpu" / "parallel-accel").
const char* DeviceToString(Device device);

}  // namespace geotorch::tensor

#endif  // GEOTORCH_TENSOR_DEVICE_H_
