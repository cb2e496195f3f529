#ifndef GEOTORCH_CORE_ENV_H_
#define GEOTORCH_CORE_ENV_H_

#include <climits>
#include <cstdint>
#include <string>

/// Shared parsing of the GEOTORCH_* environment knobs (DESIGN.md §14).
/// Every helper falls back to `default_value` when the variable is
/// unset or empty; the integer helpers also fall back when the text
/// does not start with a number, and clamp parsed values into
/// [min_value, max_value].
namespace geotorch {

int EnvInt(const char* name, int default_value, int min_value,
           int max_value = INT_MAX);

int64_t EnvInt64(const char* name, int64_t default_value, int64_t min_value,
                 int64_t max_value = INT64_MAX);

std::string EnvString(const char* name, const std::string& default_value);

}  // namespace geotorch

#endif  // GEOTORCH_CORE_ENV_H_
