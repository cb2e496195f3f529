#ifndef GEOTORCH_DF_GTDF_H_
#define GEOTORCH_DF_GTDF_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "df/column.h"

namespace geotorch::df {

/// GTDF — the on-disk form of one DataFrame partition (DESIGN.md §12).
/// A single versioned binary blob, little-endian, with the same
/// corruption-safety discipline as the GTCP checkpoint format: every
/// structural field is bounds-checked before any payload is touched,
/// and a CRC-32 trailer covers every preceding byte, so truncation and
/// bit flips surface as Status errors, never crashes.
///
///   "GTDF" magic | u32 version | u32 num_columns | i64 num_rows
///   directory, one entry per column:
///     u8 type | u64 payload_offset | u64 payload_size
///   payloads (each offset 8-byte aligned, zero-padded between):
///     double:   num_rows x f64
///     int64:    num_rows x i64
///     geometry: num_rows x {f64 x, f64 y}
///     string:   u64 byte_offsets[num_rows + 1] | utf-8 blob
///   u32 CRC-32 trailer over every preceding byte
///
/// Fixed-width payloads are 8-byte aligned precisely so a reader can
/// serve them as typed spans straight out of an mmap'ed file image.
inline constexpr uint32_t kGtdfVersion = 1;

/// Writes the columns of one partition to `path`, streaming column by
/// column with an incrementally chained CRC (the file image is never
/// buffered whole — spilling a partition must not momentarily double
/// its footprint). All columns must have `num_rows` entries. The bytes
/// go to a sibling temp file renamed over `path`, so a reader never
/// sees a torn partition.
Status WriteGtdf(const std::string& path,
                 const std::vector<std::shared_ptr<const Column>>& columns,
                 int64_t num_rows);

/// A partition faulted back in from a GTDF file. Fixed-width columns
/// are zero-copy views over the (mmap'ed) file image — `keepalive`
/// holds the mapping through the columns themselves; string columns
/// are materialized. `via_mmap` is false when the platform map failed
/// and the image was read with plain positioned reads instead.
struct GtdfPartition {
  std::vector<Column> columns;
  int64_t num_rows = 0;
  bool via_mmap = false;
};

/// Parses a GTDF file written by WriteGtdf. Any structural problem —
/// wrong magic, unsupported (newer) version, truncation, CRC mismatch,
/// out-of-bounds or misaligned directory entry, non-monotonic string
/// offsets — returns an error Status.
Result<GtdfPartition> ReadGtdf(const std::string& path);

}  // namespace geotorch::df

#endif  // GEOTORCH_DF_GTDF_H_
