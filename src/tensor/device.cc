#include "tensor/device.h"

#include <atomic>

namespace geotorch::tensor {
namespace {
std::atomic<Device> g_default_device{Device::kParallel};
// The calling thread's DeviceGuard override; empty reads the default.
thread_local std::optional<Device> t_device_override;
}  // namespace

Device GetDefaultDevice() {
  if (t_device_override) return *t_device_override;
  return g_default_device.load(std::memory_order_relaxed);
}

void SetDefaultDevice(Device device) {
  g_default_device.store(device, std::memory_order_relaxed);
}

DeviceGuard::DeviceGuard(Device device) : saved_(t_device_override) {
  t_device_override = device;
}

DeviceGuard::~DeviceGuard() { t_device_override = saved_; }

const char* DeviceToString(Device device) {
  switch (device) {
    case Device::kSerial:
      return "serial-cpu";
    case Device::kParallel:
      return "parallel-accel";
  }
  return "unknown";
}

}  // namespace geotorch::tensor
