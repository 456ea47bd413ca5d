// The threaded workloads: a ThreadCluster of three nodes with one client
// thread each. inproc-airline runs the airline pattern over
// InProcTransport (codec round-trip on); tcp-ring runs the turn-ordered
// ring over TcpTransport. Clients are closed loops that time every
// lock()/upgrade() call and check every grant against a holder table.
//
// A run is a series of measured intervals. Each interval ends with every
// client parked at a common operation count, so the messages an interval
// sends are exactly the messages its acquisitions caused (the ring's are
// checked against its exact count), and each wall-clock metric is the
// median over intervals, which keeps one burst of host slowness from
// moving it.
#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "obs/span.hpp"
#include "runtime/thread_cluster.hpp"
#include "sim_driver.hpp"
#include "telemetry/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hlock::runtime::ThreadCluster;
using hlock::runtime::ThreadClusterOptions;
using hlock::runtime::TransportKind;

constexpr std::size_t kNodes = kThreadedClients;
constexpr int kSetups = 5;
/// A lock()/upgrade() call older than this has missed the run's deadline.
constexpr std::int64_t kCallDeadlineNs = 2'000'000'000;
/// How long parking at an interval's end may take before the run fails.
constexpr std::int64_t kParkDeadlineNs = 5'000'000'000;
constexpr std::uint64_t kUnbounded = std::numeric_limits<std::uint64_t>::max();

/// Per-interval tracing state of the traced rig's event sink.
struct TraceState {
  hlock::obs::SpanCollector spans;
  std::uint64_t requests = 0;
  std::uint64_t local_grants = 0;
};

/// What one measured interval produced.
struct Interval {
  double wall_s = 0;
  /// Wall time of every lock() and upgrade() call (µs).
  std::vector<double> latency_us;
  /// lock() calls completed.
  std::uint64_t acquisitions = 0;
  /// lock()/upgrade() calls that returned after the call deadline.
  std::uint64_t late = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::int64_t cpu_ns = 0;
  // Traced rig only.
  std::vector<double> unlock_us;
  std::vector<double> wake_us;
  std::unique_ptr<TraceState> trace;
};

/// A cluster plus its client threads; see file comment.
class Rig {
 public:
  Rig(Pattern pattern, TransportKind transport, std::uint64_t seed,
      bool traced);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Lets every client run until it has completed `ops` operations.
  void run_to(std::uint64_t ops);
  /// One measured interval of about `seconds`.
  Interval interval(double seconds);

  /// Calls that have been blocked for longer than the call deadline.
  std::uint64_t stuck_calls() const;
  std::uint64_t receiver_errors() const { return cluster_->receiver_errors(); }
  const HolderTable& holders() const { return holders_; }
  /// Errors thrown into client threads ("" when none).
  std::string client_error() const;
  hlock::telemetry::Registry* registry() { return registry_.get(); }

 private:
  struct Client {
    explicit Client(Rng r) : rng(r) {}
    Rng rng;
    std::uint64_t started = 0;  // guarded by Rig::control_mutex_
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::int64_t> done_at{0};
    std::atomic<std::int64_t> in_call_since{0};
    // Written by the client while it runs, read by the main thread while
    // every client is parked.
    std::vector<double> latency_us;
    std::vector<double> unlock_us;
    std::vector<double> wake_us;
    std::uint64_t acquisitions = 0;
    std::uint64_t late = 0;
  };

  void open_every_channel();
  void client_loop(std::size_t i);
  void airline_op(Client& client, std::size_t i);
  void ring_op(Client& client, std::size_t i, std::uint64_t step);
  void timed_lock(Client& client, std::size_t i, LockId lock, LockMode mode);
  void timed_upgrade(Client& client, std::size_t i, LockId lock);
  /// Ends a blocking call begun at `t0`: records its latency and counts it
  /// late when it missed the call deadline. Returns the end time.
  static std::int64_t end_call(Client& client, std::int64_t t0);
  void release(Client& client, std::size_t i, LockId lock);
  void wait_parked(std::uint64_t ops);
  std::unique_ptr<TraceState> swap_trace();

  const Pattern pattern_;
  const bool traced_;
  const std::size_t locks_;
  HolderTable holders_;
  /// Declared before the cluster, which must not outlive it.
  std::unique_ptr<hlock::telemetry::Registry> registry_;
  std::unique_ptr<ThreadCluster> cluster_;
  /// Ring: grants of each lock so far (its turn counter).
  std::unique_ptr<std::atomic<std::uint64_t>[]> grants_;
  /// Traced: when each (node, lock) last entered its critical section, as
  /// stamped by the event sink.
  std::unique_ptr<std::atomic<std::int64_t>[]> entered_at_;
  std::unique_ptr<TraceState> trace_;
  mutable std::mutex error_mutex_;
  std::string client_error_;
  std::mutex control_mutex_;
  std::condition_variable control_cv_;
  std::uint64_t stop_at_ = 0;  // guarded by control_mutex_
  bool quit_ = false;          // guarded by control_mutex_
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::thread> threads_;
};

Rig::Rig(Pattern pattern, TransportKind transport, std::uint64_t seed,
         bool traced)
    : pattern_(pattern),
      traced_(traced),
      locks_(lock_count(pattern, kNodes)),
      holders_(locks_),
      grants_(std::make_unique<std::atomic<std::uint64_t>[]>(locks_)),
      entered_at_(
          std::make_unique<std::atomic<std::int64_t>[]>(kNodes * locks_)) {
  ThreadClusterOptions options;
  options.node_count = kNodes;
  options.transport = transport;
  options.seed = seed;
  if (traced) {
    registry_ = std::make_unique<hlock::telemetry::Registry>();
    options.metrics = registry_.get();
    options.hier_config.trace_events = true;
  }
  cluster_ = std::make_unique<ThreadCluster>(options);
  if (traced) swap_trace();
  open_every_channel();
  for (std::size_t i = 0; i < kNodes; ++i) {
    clients_.push_back(std::make_unique<Client>(airline_rng(seed, i)));
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    threads_.emplace_back([this, i] { client_loop(i); });
  }
}

Rig::~Rig() {
  {
    std::lock_guard guard(control_mutex_);
    quit_ = true;
  }
  control_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void Rig::open_every_channel() {
  // Every (node, lock) pair is touched, and each lock's token crosses every
  // ordered pair of nodes: lazy automaton creation, connect() and reader
  // thread spawns all happen here, never inside a measured interval.
  for (std::uint32_t l = 0; l < locks_; ++l) {
    const LockId lock{l};
    for (std::size_t a = 0; a < kNodes; ++a) {
      for (std::size_t b = 0; b < kNodes; ++b) {
        if (a == b) continue;
        for (const std::size_t n : {a, b}) {
          cluster_->lock(node_id(n), lock, LockMode::kW);
          holders_.acquire(node_id(n), lock, LockMode::kW);
          holders_.release(node_id(n), lock);
          cluster_->unlock(node_id(n), lock);
        }
      }
    }
  }
}

std::unique_ptr<TraceState> Rig::swap_trace() {
  auto next = std::make_unique<TraceState>();
  TraceState* state = next.get();
  std::atomic<std::int64_t>* entered = entered_at_.get();
  const std::size_t locks = locks_;
  // set_event_sink() serializes with every sink call, so once it returns
  // the previous state is no longer written.
  cluster_->set_event_sink(
      [state, entered, locks](hlock::trace::TraceEvent event) {
        using hlock::trace::EventKind;
        if (event.kind == EventKind::kEnterCs) {
          entered[event.node.value() * locks + event.lock.value()].store(
              now_ns(), std::memory_order_release);
        } else if (event.kind == EventKind::kRequest) {
          ++state->requests;
        } else if (event.kind == EventKind::kLocalGrant) {
          ++state->local_grants;
        }
        state->spans.observe(event);
      });
  std::swap(trace_, next);
  return next;
}

void Rig::client_loop(std::size_t i) {
  Client& client = *clients_[i];
  for (;;) {
    std::uint64_t step = 0;
    {
      std::unique_lock guard(control_mutex_);
      control_cv_.wait(guard,
                       [&] { return quit_ || client.started < stop_at_; });
      if (quit_) return;
      step = client.started++;
    }
    try {
      if (pattern_ == Pattern::kRing) {
        ring_op(client, i, step);
      } else {
        airline_op(client, i);
      }
    } catch (const std::exception& error) {
      std::lock_guard guard(error_mutex_);
      if (client_error_.empty()) client_error_ = error.what();
    }
    client.done_at.store(now_ns(), std::memory_order_relaxed);
    client.done.store(step + 1, std::memory_order_release);
  }
}

void Rig::airline_op(Client& client, std::size_t i) {
  const std::vector<LockStep> steps = draw_airline_op(client.rng);
  for (const LockStep& step : steps) timed_lock(client, i, step.lock, step.mode);
  for (const LockStep& step : steps) {
    if (step.upgrade_midway) timed_upgrade(client, i, step.lock);
  }
  for (auto step = steps.rbegin(); step != steps.rend(); ++step) {
    release(client, i, step->lock);
  }
}

void Rig::ring_op(Client& client, std::size_t i, std::uint64_t step) {
  const LockId lock = ring_lock(i, step, kNodes);
  std::atomic<std::uint64_t>& grants = grants_[lock.value()];
  // The ring's turn rule: wait until the previous node in this lock's
  // turn order has been granted it.
  for (std::uint64_t seen = grants.load(std::memory_order_acquire);
       seen < step; seen = grants.load(std::memory_order_acquire)) {
    grants.wait(seen, std::memory_order_acquire);
  }
  timed_lock(client, i, lock, LockMode::kW);
  grants.fetch_add(1, std::memory_order_release);
  grants.notify_all();
  release(client, i, lock);
}

void Rig::timed_lock(Client& client, std::size_t i, LockId lock,
                     LockMode mode) {
  const std::int64_t t0 = now_ns();
  client.in_call_since.store(t0, std::memory_order_relaxed);
  cluster_->lock(node_id(i), lock, mode);
  const std::int64_t t1 = end_call(client, t0);
  holders_.acquire(node_id(i), lock, mode);
  ++client.acquisitions;
  if (traced_) {
    const std::int64_t entered =
        entered_at_[i * locks_ + lock.value()].load(std::memory_order_acquire);
    client.wake_us.push_back(static_cast<double>(t1 - entered) / 1e3);
  }
}

void Rig::timed_upgrade(Client& client, std::size_t i, LockId lock) {
  const std::int64_t t0 = now_ns();
  client.in_call_since.store(t0, std::memory_order_relaxed);
  cluster_->upgrade(node_id(i), lock);
  end_call(client, t0);
  holders_.upgrade(node_id(i), lock);
}

std::int64_t Rig::end_call(Client& client, std::int64_t t0) {
  const std::int64_t t1 = now_ns();
  client.in_call_since.store(0, std::memory_order_relaxed);
  client.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  if (t1 - t0 > kCallDeadlineNs) ++client.late;
  return t1;
}

void Rig::release(Client& client, std::size_t i, LockId lock) {
  holders_.release(node_id(i), lock);
  if (!traced_) {
    cluster_->unlock(node_id(i), lock);
    return;
  }
  const std::int64_t t0 = now_ns();
  cluster_->unlock(node_id(i), lock);
  client.unlock_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
}

void Rig::run_to(std::uint64_t ops) {
  {
    std::lock_guard guard(control_mutex_);
    stop_at_ = ops;
  }
  control_cv_.notify_all();
  wait_parked(ops);
}

void Rig::wait_parked(std::uint64_t ops) {
  const std::int64_t deadline = now_ns() + kParkDeadlineNs;
  for (;;) {
    bool parked = true;
    for (const auto& client : clients_) {
      parked &= client->done.load(std::memory_order_acquire) >= ops;
    }
    if (parked) return;
    if (now_ns() > deadline) {
      throw std::runtime_error("clients did not park within the deadline");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

Interval Rig::interval(double seconds) {
  Interval result;
  // The clients are parked: drop what the warm-up or an earlier phase
  // recorded.
  for (const auto& client : clients_) {
    client->latency_us.clear();
    client->unlock_us.clear();
    client->wake_us.clear();
    client->acquisitions = 0;
    client->late = 0;
  }
  if (traced_) swap_trace();
  const std::uint64_t messages0 = cluster_->messages_sent();
  const std::uint64_t bytes0 = cluster_->bytes_sent();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t start = now_ns();
  {
    std::lock_guard guard(control_mutex_);
    stop_at_ = kUnbounded;
  }
  control_cv_.notify_all();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  std::uint64_t target = 0;
  {
    // Every client stops once it has completed the most operations any
    // client has started; the ring parks on an even step, where its
    // per-lock message pattern (2 and 3 messages alternating) is whole.
    std::lock_guard guard(control_mutex_);
    for (const auto& client : clients_) {
      target = std::max(target, client->started);
    }
    if (pattern_ == Pattern::kRing && target % 2 == 1) ++target;
    stop_at_ = target;
  }
  wait_parked(target);
  std::int64_t end = start;
  for (const auto& client : clients_) {
    end = std::max(end, client->done_at.load(std::memory_order_relaxed));
  }
  result.wall_s = static_cast<double>(end - start) / 1e9;
  result.cpu_ns = process_cpu_ns() - cpu0;
  result.messages = cluster_->messages_sent() - messages0;
  result.bytes = cluster_->bytes_sent() - bytes0;
  for (const auto& client : clients_) {
    result.latency_us.insert(result.latency_us.end(),
                             client->latency_us.begin(),
                             client->latency_us.end());
    result.unlock_us.insert(result.unlock_us.end(), client->unlock_us.begin(),
                            client->unlock_us.end());
    result.wake_us.insert(result.wake_us.end(), client->wake_us.begin(),
                          client->wake_us.end());
    result.acquisitions += client->acquisitions;
    result.late += client->late;
  }
  if (traced_) result.trace = swap_trace();
  return result;
}

std::uint64_t Rig::stuck_calls() const {
  const std::int64_t now = now_ns();
  std::uint64_t stuck = 0;
  for (const auto& client : clients_) {
    const std::int64_t since =
        client->in_call_since.load(std::memory_order_relaxed);
    if (since != 0 && now - since > kCallDeadlineNs) ++stuck;
  }
  return stuck;
}

std::string Rig::client_error() const {
  std::lock_guard guard(error_mutex_);
  return client_error_;
}

/// Sums the histogram family `family` of a registry snapshot.
std::pair<double, double> histogram_sum_count(
    const hlock::telemetry::Snapshot& snapshot, std::string_view family) {
  double sum = 0, count = 0;
  for (const hlock::telemetry::Sample& sample : snapshot.samples) {
    if (hlock::telemetry::family_of(sample.name) != family) continue;
    sum += sample.histogram.sum;
    count += static_cast<double>(sample.histogram.count);
  }
  return {sum, count};
}

/// Messages sent per hierarchical kind, summed over nodes.
std::array<std::uint64_t, hlock::proto::kMessageKindCount> sent_by_kind(
    const hlock::telemetry::Snapshot& snapshot) {
  std::array<std::uint64_t, hlock::proto::kMessageKindCount> sent{};
  for (const hlock::telemetry::Sample& sample : snapshot.samples) {
    if (hlock::telemetry::family_of(sample.name) !=
        "hlock_messages_sent_total") {
      continue;
    }
    for (std::size_t k = 0; k < sent.size(); ++k) {
      const std::string label =
          "kind=\"" +
          hlock::proto::to_string(static_cast<hlock::proto::MessageKind>(k)) +
          "\"";
      if (sample.name.find(label) != std::string::npos) {
        sent[k] += static_cast<std::uint64_t>(sample.value);
      }
    }
  }
  return sent;
}

/// Fails the run and exits at once: a stuck call never returns, so the
/// rig could not be torn down.
[[noreturn]] void abort_stuck(Report& report, std::uint64_t stuck,
                              const std::string& why) {
  report.count(0, std::max<std::uint64_t>(stuck, 1));
  report.fail(why);
  report.print();
  std::_Exit(1);
}

/// Runs `phase` on `rig`, failing the run when the clients cannot park.
template <typename Phase>
auto checked(Rig& rig, Report& report, Phase phase) {
  try {
    return phase();
  } catch (const std::exception& error) {
    const std::uint64_t stuck = rig.stuck_calls();
    abort_stuck(report, stuck,
                std::string(error.what()) + "; " + std::to_string(stuck) +
                    " lock calls missed the deadline");
  }
}

Interval checked_interval(Rig& rig, double seconds, Report& report) {
  return checked(rig, report, [&] { return rig.interval(seconds); });
}

void checked_run_to(Rig& rig, std::uint64_t ops, Report& report) {
  checked(rig, report, [&] { rig.run_to(ops); });
}

void check_rig(const Rig& rig, Pattern pattern, const Interval& interval,
               Report& report) {
  if (rig.holders().violations() > 0) {
    report.fail(rig.holders().first_violation());
  }
  if (!rig.client_error().empty()) {
    report.fail("a client call failed: " + rig.client_error());
  }
  if (pattern == Pattern::kRing &&
      2 * interval.messages != 5 * interval.acquisitions) {
    report.fail("tcp-ring interval sent " + std::to_string(interval.messages) +
                " messages for " + std::to_string(interval.acquisitions) +
                " acquisitions; the ring sends exactly 2.5 per acquisition");
  }
}

}  // namespace

void run_threaded(const RunOptions& options, Report& report) {
  const bool ring = options.workload == "tcp-ring";
  const Pattern pattern = ring ? Pattern::kRing : Pattern::kAirline;
  const TransportKind transport =
      ring ? TransportKind::kTcp : TransportKind::kInProc;
  // Operations per client before the first measured interval: 0.1-0.2 s of
  // work on a 4-core machine (even, as the ring parks on even steps).
  const std::uint64_t warmup = options.small ? 100 : ring ? 2000 : 5000;
  const double interval_s = options.small ? 0.05 : 0.25;

  // The same pattern in the simulator under the paper's §4.1 timing and
  // Linux-cluster latency preset: the simulated latency metrics, and the
  // message mix and sim-layer figures of the traced run.
  SimConfig sim_config;
  sim_config.pattern = pattern;
  sim_config.nodes = kNodes;
  sim_config.ops = options.small ? 100 : ring ? 1000 : 4000;
  sim_config.seed = options.seed;
  const Recording replay = record_pass(sim_config, report, "simulated replay");

  if (!options.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Rig> rig;
    for (int r = 0; r < kSetups; ++r) {
      rig.reset();
      const std::int64_t t0 = now_ns();
      rig = std::make_unique<Rig>(pattern, transport, options.seed, false);
      checked_run_to(*rig, warmup, report);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    std::vector<double> rate, p50, p99, msgs, bytes;
    std::uint64_t attempted = 0, late = 0, samples = 0;
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
    do {
      const Interval interval = checked_interval(*rig, interval_s, report);
      check_rig(*rig, pattern, interval, report);
      const double acquisitions = static_cast<double>(interval.acquisitions);
      rate.push_back(acquisitions / interval.wall_s);
      p50.push_back(quantile(interval.latency_us, 0.5));
      p99.push_back(quantile(interval.latency_us, 0.99));
      msgs.push_back(static_cast<double>(interval.messages) / acquisitions);
      bytes.push_back(static_cast<double>(interval.bytes) / acquisitions);
      attempted += interval.acquisitions;
      late += interval.late;
      samples += interval.latency_us.size();
    } while (now_ns() < end);
    report.count(attempted, late + rig->receiver_errors());
    std::printf("  %zu measured intervals; acquire latency over %llu "
                "lock()/upgrade() calls, about %llu per interval\n",
                rate.size(), static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(samples / rate.size()));
    report.set("acquires_per_s", median(rate), "1/s");
    report.set("acquire_p50_us", median(p50), "us");
    report.set("acquire_p99_us", median(p99), "us");
    report.set("sim_acquire_p50_ms",
               quantile(replay.result.sim_latency_ms, 0.5), "ms");
    report.set("sim_acquire_p99_ms",
               quantile(replay.result.sim_latency_ms, 0.99), "ms");
    report.set("msgs_per_acquire", median(msgs), "msgs");
    report.set("bytes_per_acquire", median(bytes), "bytes");
    report.set("setup_s", median(setup_s), "s");
    return;
  }

  // Traced run: an untraced and a traced rig run alternate intervals; the
  // ratio of their throughputs is the cost of the instrumentation.
  const int threads_before = thread_count();
  Rig plain(pattern, transport, options.seed, false);
  checked_run_to(plain, warmup, report);
  const int rig_threads = thread_count() - threads_before;
  Rig traced(pattern, transport, options.seed, true);
  checked_run_to(traced, warmup, report);
  const hlock::telemetry::Snapshot before = traced.registry()->snapshot();

  std::vector<double> plain_rate, traced_rate, calls, unlock_p50, wake_p50,
      request_p50, token_p50;
  std::uint64_t attempted = 0, late = 0, plain_acquisitions = 0,
                traced_acquisitions = 0, requests = 0, local_grants = 0;
  std::int64_t plain_cpu_ns = 0;
  std::string phase_table;
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(options.seconds * 0.6 * 1e9);
  do {
    const Interval p = checked_interval(plain, interval_s, report);
    check_rig(plain, pattern, p, report);
    plain_rate.push_back(static_cast<double>(p.acquisitions) / p.wall_s);
    calls.insert(calls.end(), p.latency_us.begin(), p.latency_us.end());
    plain_cpu_ns += p.cpu_ns;
    plain_acquisitions += p.acquisitions;

    const Interval t = checked_interval(traced, interval_s, report);
    check_rig(traced, pattern, t, report);
    traced_rate.push_back(static_cast<double>(t.acquisitions) / t.wall_s);
    unlock_p50.push_back(median(t.unlock_us));
    wake_p50.push_back(median(t.wake_us));
    const SpanPaths paths = span_paths(t.trace->spans.spans());
    request_p50.push_back(median(paths.request_us));
    token_p50.push_back(median(paths.token_us));
    requests += t.trace->requests;
    local_grants += t.trace->local_grants;
    phase_table = hlock::obs::render_phase_table(t.trace->spans.phase_breakdown());
    traced_acquisitions += t.acquisitions;
    attempted += p.acquisitions + t.acquisitions;
    late += p.late + t.late;
  } while (now_ns() < end);
  const hlock::telemetry::Snapshot after = traced.registry()->snapshot();
  const std::uint64_t errors =
      late + plain.receiver_errors() + traced.receiver_errors();
  report.count(attempted, errors);
  std::printf("  %zu untraced + %zu traced intervals\n  span phases of the "
              "last traced interval (wall ms):\n%s",
              plain_rate.size(), traced_rate.size(), phase_table.c_str());

  const auto [sum0, count0] = histogram_sum_count(before, "hlock_recv_batch_size");
  const auto [sum1, count1] = histogram_sum_count(after, "hlock_recv_batch_size");
  const auto sent0 = sent_by_kind(before);
  const auto sent1 = sent_by_kind(after);
  std::array<std::uint64_t, hlock::proto::kMessageKindCount> sent{};
  for (std::size_t k = 0; k < sent.size(); ++k) sent[k] = sent1[k] - sent0[k];

  report.set("runtime.acquire_p999_us", quantile(calls, 0.999), "us");
  report.set("runtime.acquire_samples", static_cast<double>(calls.size()),
             "count");
  report.set("runtime.unlock_us.p50", median(unlock_p50), "us");
  report.set("runtime.request_path_us.p50", median(request_p50), "us");
  report.set("runtime.token_path_us.p50", median(token_p50), "us");
  report.set("runtime.wake_us.p50", median(wake_p50), "us");
  report.set("runtime.local_grant_ratio",
             requests > 0 ? static_cast<double>(local_grants) /
                                static_cast<double>(requests)
                          : 0,
             "ratio");
  report.set("runtime.recv_batch_size.mean",
             count1 > count0 ? (sum1 - sum0) / (count1 - count0) : 0, "msgs");
  report.set("runtime.cpu_us_per_acquire",
             static_cast<double>(plain_cpu_ns) / 1e3 /
                 static_cast<double>(plain_acquisitions),
             "us");
  report.set("runtime.threads", rig_threads, "count");
  report.set("runtime.trace_overhead",
             median(plain_rate) / median(traced_rate), "ratio");
  report.set("failed_ratio",
             static_cast<double>(errors) / static_cast<double>(attempted),
             "ratio");

  // The simulator on the same pattern.
  std::vector<double> ns_per_event;
  const std::int64_t sim_end =
      now_ns() + static_cast<std::int64_t>(options.seconds * 0.08 * 1e9);
  do {
    const SimResult again = run_pass(sim_config, report, "simulated replay");
    if (!again.same_work(replay.result)) {
      report.fail("two simulated replays of one seed did different work");
    }
    ns_per_event.push_back(again.wall_s * 1e9 /
                           static_cast<double>(again.events));
  } while (now_ns() < sim_end);
  report.set("sim.events_per_acquire",
             static_cast<double>(replay.result.events) /
                 static_cast<double>(replay.result.acquisitions),
             "events");
  report.set("sim.ns_per_event", median(ns_per_event), "ns");
  report_message_kinds(sent, traced_acquisitions, report);
  const double layer_s = options.seconds * 0.08;
  measure_core(pattern, kNodes, options.seed, sim_config.path_compression,
               layer_s, report);
  measure_proto(replay.mix, layer_s, report);
  measure_transports(options.small, report);
}

}  // namespace perfbench
