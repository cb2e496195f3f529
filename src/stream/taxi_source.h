#ifndef GEOTORCH_STREAM_TAXI_SOURCE_H_
#define GEOTORCH_STREAM_TAXI_SOURCE_H_

#include <vector>

#include "stream/event.h"
#include "synth/taxi.h"

namespace geotorch::stream {

/// Adapts synth::TaxiEventStream to the pipeline's EventSource
/// contract. Lives in its own TU so the stream stages themselves stay
/// free of the synth dependency (tests substitute their own sources).
class TaxiEventSource : public EventSource {
 public:
  explicit TaxiEventSource(const synth::TaxiStreamConfig& config)
      : stream_(config) {}

  bool NextTick(std::vector<Event>* out) override;

  const synth::TaxiEventStream& stream() const { return stream_; }

 private:
  synth::TaxiEventStream stream_;
  std::vector<synth::TripRecord> scratch_;
};

}  // namespace geotorch::stream

#endif  // GEOTORCH_STREAM_TAXI_SOURCE_H_
