#ifndef GEOTORCH_CORE_ATOMIC_FILE_H_
#define GEOTORCH_CORE_ATOMIC_FILE_H_

#include <cstdio>
#include <functional>
#include <string>

#include "core/status.h"

namespace geotorch {

/// Replaces the file at `path` with the bytes `write` puts into the
/// open stream it is given, so that a reader sees the old file or the
/// new one, never a torn one: the bytes go to a sibling temp file
/// (`path.tmp.<pid>.<n>`, so concurrent writers never share one), which
/// is renamed over `path` once it is flushed and closed. `write` returns
/// false when a write failed. On any failure the temp file is removed,
/// `path` is left as it was, and an IoError is returned.
Status WriteFileAtomically(const std::string& path,
                           const std::function<bool(std::FILE*)>& write);

}  // namespace geotorch

#endif  // GEOTORCH_CORE_ATOMIC_FILE_H_
