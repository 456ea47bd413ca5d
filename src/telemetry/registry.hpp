// Concurrent metrics registry: named instruments + consistent snapshots.
//
// One Registry holds every live series of a process (or of one cluster —
// tests give each cluster its own). Registration (get-or-create by full
// series name, labels included) takes the registry mutex; the returned
// references are stable for the registry's lifetime, so instrumented code
// registers once at construction and then records through cached pointers
// with no lock at all (see telemetry/metric.hpp for the record-path
// discipline).
//
// Two kinds of series exist:
//   * owned instruments (Counter / Gauge / Histogram) allocated by the
//     registry and written by instrumented code, and
//   * callback series, polled at snapshot time — how ThreadCluster folds
//     its transport's own atomic counters (Transport::messages_sent,
//     the stats:: fault and TCP counters) into registry series without double
//     bookkeeping. Callbacks may reference state owned by a component;
//     the component unregisters them on destruction
//     (unregister_callbacks), after which snapshots stop polling them.
//
// Series names follow Prometheus conventions: `base{label="value",...}`;
// use labeled() to build them with proper escaping. The name up to `{` is
// the series' family; every series of a family shares one metric type.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/metric.hpp"
#include "util/sync.hpp"

namespace hlock::telemetry {

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

/// "counter", "gauge" or "histogram" (the exposition TYPE vocabulary).
std::string to_string(MetricType type);

/// One series in a snapshot.
struct Sample {
  std::string name;  ///< full series name, labels included
  MetricType type = MetricType::kCounter;
  double value = 0.0;          ///< counter/gauge value
  HistogramSnapshot histogram; ///< histogram series only
};

/// Point-in-time view of every series, sorted by name (deterministic
/// exposition order). Per-value atomic reads; not a cross-series snapshot.
struct Snapshot {
  std::vector<Sample> samples;

  /// The sample with exactly this name, or nullptr.
  const Sample* find(std::string_view name) const;
  /// Sum of the values of every series whose family (name up to '{') is
  /// `family`; 0 when none exist.
  double family_sum(std::string_view family) const;
};

/// See file comment.
class Registry {
 public:
  /// Get-or-create by full series name. The same name always returns the
  /// same instrument; a name that exists with a different metric type
  /// throws UsageError (one family, one type).
  Counter& counter(const std::string& name) HLOCK_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) HLOCK_EXCLUDES(mutex_);
  /// `bounds` applies on first creation only (later calls return the
  /// existing instrument regardless); empty picks
  /// default_latency_bounds_ms().
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {})
      HLOCK_EXCLUDES(mutex_);

  /// Callback series, polled under the registry mutex at snapshot time.
  /// Re-registering a name replaces the callback.
  void register_counter_fn(const std::string& name,
                           std::function<std::uint64_t()> fn)
      HLOCK_EXCLUDES(mutex_);
  void register_gauge_fn(const std::string& name, std::function<double()> fn)
      HLOCK_EXCLUDES(mutex_);

  /// Drops every callback series whose name starts with `prefix` (owned
  /// instruments stay — their storage lives in the registry and remains
  /// valid). Components registering callbacks over their own state MUST
  /// call this before that state dies.
  void unregister_callbacks(const std::string& prefix)
      HLOCK_EXCLUDES(mutex_);

  Snapshot snapshot() const HLOCK_EXCLUDES(mutex_);

  /// Number of registered series (owned + callbacks).
  std::size_t series_count() const HLOCK_EXCLUDES(mutex_);

 private:
  template <typename T>
  using Table = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  void require_unclaimed(const std::string& name, MetricType type) const
      HLOCK_REQUIRES(mutex_);

  mutable Mutex mutex_;
  Table<Counter> counters_ HLOCK_GUARDED_BY(mutex_);
  Table<Gauge> gauges_ HLOCK_GUARDED_BY(mutex_);
  Table<Histogram> histograms_ HLOCK_GUARDED_BY(mutex_);
  std::map<std::string, std::function<std::uint64_t()>, std::less<>>
      counter_fns_ HLOCK_GUARDED_BY(mutex_);
  std::map<std::string, std::function<double()>, std::less<>> gauge_fns_
      HLOCK_GUARDED_BY(mutex_);
};

/// Builds `base{k1="v1",k2="v2"}` with label values escaped per the
/// exposition format (backslash, double quote, newline). An empty label
/// list returns `base` unchanged. Labels must be pre-sorted by the caller
/// if a canonical order matters (instrumentation sites use fixed orders).
std::string labeled(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string>> labels);

/// The family of a series name: everything before the first '{'.
std::string_view family_of(std::string_view name);

}  // namespace hlock::telemetry
