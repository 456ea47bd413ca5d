#include "stats/metrics.hpp"

#include <sstream>

namespace hlock::stats {

std::string to_string(const FaultCounterSnapshot& snapshot) {
  std::ostringstream os;
  os << "faults{drops=" << snapshot.drops << " delays=" << snapshot.delays
     << " partition_drops=" << snapshot.partition_drops << "}";
  return os.str();
}

std::string to_string(const TcpCounterSnapshot& snapshot) {
  std::ostringstream os;
  os << "tcp{send_retries=" << snapshot.send_retries
     << " reconnects=" << snapshot.reconnects
     << " send_failures=" << snapshot.send_failures
     << " misaddressed=" << snapshot.misaddressed_frames << "}";
  return os.str();
}

void MessageCounter::add(proto::MessageKind kind) {
  counts_[static_cast<std::size_t>(kind)].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t MessageCounter::count(proto::MessageKind kind) const {
  return counts_[static_cast<std::size_t>(kind)].load(
      std::memory_order_relaxed);
}

std::uint64_t MessageCounter::total() const {
  std::uint64_t sum = 0;
  for (const std::atomic<std::uint64_t>& c : counts_) {
    sum += c.load(std::memory_order_relaxed);
  }
  return sum;
}

void LatencyRecorder::record(SimTime latency) {
  samples_ms_.push_back(latency.to_ms());
}

}  // namespace hlock::stats
