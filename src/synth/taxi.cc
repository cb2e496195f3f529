#include "synth/taxi.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "core/check.h"

namespace geotorch::synth {
namespace {

// Hour-of-day intensity: low at night, peaks at the 8am and 6pm rush.
double DiurnalFactor(double hour) {
  const double morning = std::exp(-(hour - 8.0) * (hour - 8.0) / 8.0);
  const double evening = std::exp(-(hour - 18.0) * (hour - 18.0) / 10.0);
  return 0.25 + morning + 1.2 * evening;
}

// Weekday factor: weekends carry less commuter traffic.
double WeeklyFactor(int day_of_week) {
  return (day_of_week >= 5) ? 0.6 : 1.0;
}

using HotSpot = TaxiEventStream::HotSpot;

// Draws the activity centers. Both the batch generator and the event
// stream call this with a fresh seed-initialized Rng, so a stream and a
// batch over the same seed share one spatial world.
std::vector<HotSpot> SampleHotSpots(Rng& rng, const spatial::Envelope& extent,
                                    int num_hotspots) {
  std::vector<HotSpot> spots;
  spots.reserve(num_hotspots);
  for (int s = 0; s < num_hotspots; ++s) {
    HotSpot h;
    h.lon = rng.Uniform(extent.min_x() + 0.1 * extent.width(),
                        extent.max_x() - 0.1 * extent.width());
    h.lat = rng.Uniform(extent.min_y() + 0.1 * extent.height(),
                        extent.max_y() - 0.1 * extent.height());
    h.sigma = rng.Uniform(0.003, 0.02);
    h.weight = rng.Uniform(0.5, 2.0);
    spots.push_back(h);
  }
  return spots;
}

// The weighted spot choice of the mixture. Built once per generator:
// the distribution keeps no state between draws, so one instance draws
// exactly what a fresh one per draw would, without a heap allocation
// and a normalize per event.
std::discrete_distribution<int64_t> SpotDistribution(
    const std::vector<HotSpot>& spots) {
  std::vector<double> weights;
  weights.reserve(spots.size());
  for (const HotSpot& h : spots) weights.push_back(h.weight);
  return std::discrete_distribution<int64_t>(weights.begin(), weights.end());
}

// Hot-spot mixture draw: 85% from a weighted spot (clamped into the
// extent), 15% uniform background traffic.
void DrawLocation(Rng& rng, const std::vector<HotSpot>& spots,
                  std::discrete_distribution<int64_t>& spot_dist,
                  const spatial::Envelope& extent, TripRecord* rec) {
  if (rng.Bernoulli(0.85)) {
    const HotSpot& h = spots[spot_dist(rng.engine())];
    rec->lon = rng.Normal(h.lon, h.sigma);
    rec->lat = rng.Normal(h.lat, h.sigma);
    rec->lon = std::clamp(rec->lon, extent.min_x(), extent.max_x());
    rec->lat = std::clamp(rec->lat, extent.min_y(), extent.max_y());
  } else {
    rec->lon = rng.Uniform(extent.min_x(), extent.max_x());
    rec->lat = rng.Uniform(extent.min_y(), extent.max_y());
  }
}

}  // namespace

double TripIntensity(int64_t time_sec) {
  const double hour =
      static_cast<double>(time_sec % 86400) / 3600.0;
  const int dow = static_cast<int>((time_sec / 86400) % 7);
  return DiurnalFactor(hour) * WeeklyFactor(dow);
}

std::vector<TripRecord> GenerateTaxiTrips(const TaxiTripConfig& config) {
  GEO_CHECK_GT(config.num_records, 0);
  Rng rng(config.seed);

  // Hot spots: fixed activity centers inside the extent with
  // per-spot spread and weight.
  std::vector<HotSpot> spots =
      SampleHotSpots(rng, config.extent, config.num_hotspots);
  std::discrete_distribution<int64_t> spot_dist = SpotDistribution(spots);

  // Rejection-free time sampling: draw a uniform time, accept with
  // probability proportional to intensity (thinning); loop until
  // enough records.
  const double max_intensity = 2.8;  // upper bound of the profile
  std::vector<TripRecord> records;
  records.reserve(config.num_records);
  while (static_cast<int64_t>(records.size()) < config.num_records) {
    const int64_t t =
        rng.UniformInt(0, config.duration_sec - 1);
    if (rng.Uniform(0.0, max_intensity) > TripIntensity(t)) continue;
    TripRecord rec;
    rec.time_sec = t;
    rec.is_pickup = rng.Bernoulli(0.5) ? 1 : 0;
    DrawLocation(rng, spots, spot_dist, config.extent, &rec);
    records.push_back(rec);
  }
  return records;
}

TaxiEventStream::TaxiEventStream(const TaxiStreamConfig& config)
    : config_(config), rng_(config.seed) {
  GEO_CHECK_GT(config_.events_per_sec, 0.0);
  GEO_CHECK_GT(config_.duration_sec, 0);
  GEO_CHECK_GT(config_.tick_sec, 0);
  spots_ = SampleHotSpots(rng_, config_.extent, config_.num_hotspots);
  spot_dist_ = SpotDistribution(spots_);
}

bool TaxiEventStream::NextTick(std::vector<TripRecord>* out) {
  if (next_tick_sec_ >= config_.duration_sec) return false;
  const int64_t t0 = next_tick_sec_;
  const int64_t t1 =
      std::min(config_.duration_sec, t0 + config_.tick_sec);
  next_tick_sec_ = t0 + config_.tick_sec;

  // Poisson arrival count at the intensity-modulated rate, evaluated at
  // the tick start — fine for ticks much shorter than the diurnal
  // profile's features (hours).
  const double mean = config_.events_per_sec *
                      static_cast<double>(t1 - t0) * TripIntensity(t0);
  const int64_t n = rng_.Poisson(mean);
  for (int64_t i = 0; i < n; ++i) {
    TripRecord rec;
    // Uniform WITHIN the tick: ticks are ordered, events inside one
    // tick are not — downstream bucketing must not rely on intra-tick
    // order (and cannot, as long as slide >= tick_sec).
    rec.time_sec = rng_.UniformInt(t0, t1 - 1);
    rec.is_pickup = rng_.Bernoulli(0.5) ? 1 : 0;
    DrawLocation(rng_, spots_, spot_dist_, config_.extent, &rec);
    out->push_back(rec);
  }
  events_emitted_ += n;
  return true;
}

df::DataFrame TripsToDataFrame(const std::vector<TripRecord>& trips,
                               int num_partitions) {
  GEO_CHECK_GE(num_partitions, 1);
  // Build the partitions directly from contiguous record chunks (a
  // "parallel read" of the raw files) rather than loading into one
  // partition and shuffling.
  auto schema = std::make_shared<df::Schema>(
      std::vector<std::pair<std::string, df::DataType>>{
          {"lon", df::DataType::kDouble},
          {"lat", df::DataType::kDouble},
          {"time", df::DataType::kInt64},
          {"is_pickup", df::DataType::kInt64}});
  const int64_t n = static_cast<int64_t>(trips.size());
  const int64_t per = (n + num_partitions - 1) / num_partitions;
  std::vector<std::shared_ptr<const df::Partition>> parts;
  for (int64_t begin = 0; begin < n || parts.empty(); begin += per) {
    const int64_t end = std::min(n, begin + per);
    std::vector<double> lon;
    std::vector<double> lat;
    std::vector<int64_t> time;
    std::vector<int64_t> is_pickup;
    lon.reserve(end - begin);
    lat.reserve(end - begin);
    time.reserve(end - begin);
    is_pickup.reserve(end - begin);
    for (int64_t i = begin; i < end; ++i) {
      lon.push_back(trips[i].lon);
      lat.push_back(trips[i].lat);
      time.push_back(trips[i].time_sec);
      is_pickup.push_back(trips[i].is_pickup);
    }
    std::vector<df::Column> cols;
    cols.push_back(df::Column::FromDoubles(std::move(lon)));
    cols.push_back(df::Column::FromDoubles(std::move(lat)));
    cols.push_back(df::Column::FromInt64s(std::move(time)));
    cols.push_back(df::Column::FromInt64s(std::move(is_pickup)));
    parts.push_back(std::make_shared<df::Partition>(std::move(cols)));
    if (n == 0) break;
  }
  return df::DataFrame::FromPartitions(std::move(schema), std::move(parts));
}

}  // namespace geotorch::synth
