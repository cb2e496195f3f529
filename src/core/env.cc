#include "core/env.h"

#include <algorithm>
#include <cstdlib>

namespace geotorch {
namespace {

// The variable's value, or null when unset or empty.
const char* EnvValue(const char* name) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? nullptr : v;
}

}  // namespace

int64_t EnvInt64(const char* name, int64_t default_value, int64_t min_value,
                 int64_t max_value) {
  const char* v = EnvValue(name);
  if (v == nullptr) return default_value;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return default_value;
  return std::clamp<int64_t>(parsed, min_value, max_value);
}

int EnvInt(const char* name, int default_value, int min_value,
           int max_value) {
  return static_cast<int>(
      EnvInt64(name, default_value, min_value, max_value));
}

std::string EnvString(const char* name, const std::string& default_value) {
  const char* v = EnvValue(name);
  return v == nullptr ? default_value : std::string(v);
}

}  // namespace geotorch
