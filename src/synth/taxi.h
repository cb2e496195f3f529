#ifndef GEOTORCH_SYNTH_TAXI_H_
#define GEOTORCH_SYNTH_TAXI_H_

#include <cstdint>
#include <random>
#include <vector>

#include "core/rng.h"
#include "df/dataframe.h"
#include "spatial/geometry.h"

namespace geotorch::synth {

/// One synthetic taxi trip event — the stand-in for a row of the NYC
/// TLC yellow-trip record files (DESIGN.md §1).
struct TripRecord {
  double lon;
  double lat;
  int64_t time_sec;  ///< seconds since the dataset epoch
  int64_t is_pickup; ///< 1 = pickup, 0 = dropoff
};

struct TaxiTripConfig {
  int64_t num_records = 100000;
  /// Temporal span of the dataset; the paper's YellowTrip-NYC covers
  /// three months (Oct-Dec 2010) at 30-minute intervals.
  int64_t duration_sec = 92LL * 24 * 3600;
  /// Spatial extent; default approximates the NYC bounding box.
  spatial::Envelope extent =
      spatial::Envelope(-74.05, 40.60, -73.75, 40.90);
  /// Number of pickup/dropoff activity hot spots (midtown, airports...).
  int num_hotspots = 8;
  uint64_t seed = 0;
};

/// Generates trip events with the spatiotemporal structure the paper's
/// experiments rely on: hot-spot spatial mixture, rush-hour diurnal
/// profile, and a weekday/weekend cycle — so that the aggregated grid
/// tensor carries closeness, period, and trend signal.
std::vector<TripRecord> GenerateTaxiTrips(const TaxiTripConfig& config);

/// Loads trips into a DataFrame with columns lon (double), lat
/// (double), time (int64), is_pickup (int64) split into
/// `num_partitions` partitions — the shape of the raw data the
/// preprocessing module ingests.
df::DataFrame TripsToDataFrame(const std::vector<TripRecord>& trips,
                               int num_partitions);

/// The relative trip intensity at a given second (diurnal x weekly),
/// exposed for tests.
double TripIntensity(int64_t time_sec);

/// Knobs of the ordered-event-stream mode (DESIGN.md §14): the same
/// hot-spot + diurnal model as GenerateTaxiTrips, but emitted tick by
/// tick in nondecreasing event time — the shape a streaming ingest
/// consumes. Deterministic given the seed.
struct TaxiStreamConfig {
  /// Mean event rate at intensity 1.0; the instantaneous rate is
  /// events_per_sec * TripIntensity(t).
  double events_per_sec = 100.0;
  /// Stream end (exclusive) in dataset seconds; ticks past it return
  /// false.
  int64_t duration_sec = 24LL * 3600;
  /// Emission granularity: each NextTick call covers [t, t + tick_sec).
  /// Event timestamps are drawn uniformly WITHIN the tick, so events of
  /// one tick are unordered among themselves while ticks stay ordered —
  /// the out-of-order-within-tick contract downstream aggregation must
  /// tolerate.
  int64_t tick_sec = 1;
  spatial::Envelope extent =
      spatial::Envelope(-74.05, 40.60, -73.75, 40.90);
  int num_hotspots = 8;
  uint64_t seed = 0;
};

/// Ordered trip-event source: each NextTick appends the events of the
/// next tick_sec span (Poisson count at the intensity-modulated rate,
/// hot-spot spatial mixture) and advances. Event times never decrease
/// across ticks. Deterministic: two streams with the same config emit
/// identical sequences.
class TaxiEventStream {
 public:
  explicit TaxiEventStream(const TaxiStreamConfig& config);

  /// Appends this tick's events to `out` (which is NOT cleared) and
  /// advances the clock. Returns false — appending nothing — once the
  /// stream is exhausted (tick start >= duration_sec).
  bool NextTick(std::vector<TripRecord>* out);

  /// Dataset-clock start of the next tick to be emitted.
  int64_t next_tick_sec() const { return next_tick_sec_; }
  int64_t events_emitted() const { return events_emitted_; }
  const TaxiStreamConfig& config() const { return config_; }

  /// One activity center of the spatial mixture (shared with the batch
  /// generator).
  struct HotSpot {
    double lon;
    double lat;
    double sigma;
    double weight;
  };

 private:
  TaxiStreamConfig config_;
  Rng rng_;
  std::vector<HotSpot> spots_;
  std::discrete_distribution<int64_t> spot_dist_;  ///< over spots_' weights
  int64_t next_tick_sec_ = 0;
  int64_t events_emitted_ = 0;
};

}  // namespace geotorch::synth

#endif  // GEOTORCH_SYNTH_TAXI_H_
