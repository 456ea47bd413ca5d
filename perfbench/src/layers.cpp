#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "proto/codec.hpp"
#include "runtime/engine.hpp"
#include "transport/inproc_transport.hpp"
#include "transport/tcp_transport.hpp"

namespace perfbench {

namespace {

using hlock::core::Effects;
using hlock::proto::Message;

/// `nodes` HierEngines wired by one FIFO queue: every message an engine
/// call emits is delivered, in emission order, by pump(). Each engine call
/// is timed.
class EngineHarness {
 public:
  EngineHarness(std::size_t nodes, bool path_compression)
      : granted_(nodes), upgraded_(nodes) {
    hlock::core::HierConfig config;
    config.path_compression = path_compression;
    for (std::size_t i = 0; i < nodes; ++i) {
      engines_.push_back(std::make_unique<hlock::runtime::HierEngine>(
          node_id(i), NodeId{0}, config));
    }
  }

  void request(std::size_t node, LockId lock, LockMode mode) {
    const std::int64_t t0 = now_ns();
    Effects effects = engines_[node]->request(lock, mode);
    request_ns.push_back(static_cast<double>(now_ns() - t0));
    absorb(node, lock, std::move(effects));
  }

  void upgrade(std::size_t node, LockId lock) {
    absorb(node, lock, engines_[node]->upgrade(lock));
  }

  void release(std::size_t node, LockId lock) {
    const std::int64_t t0 = now_ns();
    Effects effects = engines_[node]->release(lock);
    release_ns.push_back(static_cast<double>(now_ns() - t0));
    absorb(node, lock, std::move(effects));
  }

  /// Delivers queued messages until none remain; false if none was queued.
  bool pump() {
    const bool any = !queue_.empty();
    while (!queue_.empty()) {
      const Message message = std::move(queue_.front());
      queue_.pop_front();
      const std::size_t to = message.to.value();
      const std::int64_t t0 = now_ns();
      Effects effects = engines_[to]->deliver(message);
      deliver_ns.push_back(static_cast<double>(now_ns() - t0));
      absorb(to, message.lock, std::move(effects));
    }
    return any;
  }

  /// Consumes a grant (or upgrade completion) of `lock` at `node`.
  bool take_grant(std::size_t node, LockId lock) {
    return take(granted_[node], lock);
  }
  bool take_upgrade(std::size_t node, LockId lock) {
    return take(upgraded_[node], lock);
  }

  std::vector<double> request_ns;
  std::vector<double> deliver_ns;
  std::vector<double> release_ns;

 private:
  static bool take(std::vector<LockId>& events, LockId lock) {
    const auto it = std::find(events.begin(), events.end(), lock);
    if (it == events.end()) return false;
    events.erase(it);
    return true;
  }

  void absorb(std::size_t node, LockId lock, Effects&& effects) {
    for (Message& message : effects.messages) {
      queue_.push_back(std::move(message));
    }
    if (effects.entered_cs) granted_[node].push_back(lock);
    if (effects.upgraded) upgraded_[node].push_back(lock);
  }

  std::vector<std::unique_ptr<hlock::runtime::HierEngine>> engines_;
  std::deque<Message> queue_;
  std::vector<std::vector<LockId>> granted_;
  std::vector<std::vector<LockId>> upgraded_;
};

/// Round-robin closed loop over the harness: every node advances as far as
/// its grants allow, then every queued message is delivered.
void drive_airline(EngineHarness& harness, std::size_t nodes,
                   std::uint64_t seed, std::uint64_t ops) {
  enum class Phase { kIdle, kAcquiring, kUpgrading };
  struct State {
    Rng rng;
    std::vector<LockStep> steps;
    std::size_t next = 0;
    Phase phase = Phase::kIdle;
    std::uint64_t done = 0;
  };
  std::vector<State> states(nodes);
  for (std::size_t i = 0; i < nodes; ++i) states[i].rng = airline_rng(seed, i);
  const auto release_all = [&harness](std::size_t i, State& s) {
    for (std::size_t k = s.steps.size(); k-- > 0;) {
      harness.release(i, s.steps[k].lock);
    }
    s.phase = Phase::kIdle;
    ++s.done;
  };
  for (;;) {
    bool progressed = false;
    bool finished = true;
    for (std::size_t i = 0; i < nodes; ++i) {
      State& s = states[i];
      for (bool step = true; step;) {
        step = false;
        if (s.phase == Phase::kIdle && s.done < ops) {
          s.steps = draw_airline_op(s.rng);
          s.next = 0;
          s.phase = Phase::kAcquiring;
          harness.request(i, s.steps[0].lock, s.steps[0].mode);
          step = true;
        } else if (s.phase == Phase::kAcquiring &&
                   harness.take_grant(i, s.steps[s.next].lock)) {
          ++s.next;
          const auto upgrade =
              std::find_if(s.steps.begin(), s.steps.end(),
                           [](const LockStep& st) { return st.upgrade_midway; });
          if (s.next < s.steps.size()) {
            harness.request(i, s.steps[s.next].lock, s.steps[s.next].mode);
          } else if (upgrade != s.steps.end()) {
            s.phase = Phase::kUpgrading;
            harness.upgrade(i, upgrade->lock);
          } else {
            release_all(i, s);
          }
          step = true;
        } else if (s.phase == Phase::kUpgrading) {
          for (const LockStep& st : s.steps) {
            if (st.upgrade_midway && harness.take_upgrade(i, st.lock)) {
              release_all(i, s);
              step = true;
            }
          }
        }
        progressed |= step;
      }
      finished &= s.done >= ops;
    }
    if (finished) return;
    if (!harness.pump() && !progressed) {
      throw std::runtime_error("core harness stalled on the airline pattern");
    }
  }
}

void drive_ring(EngineHarness& harness, std::size_t nodes,
                std::uint64_t steps) {
  std::vector<std::uint64_t> done(nodes, 0);
  std::vector<bool> waiting(nodes, false);
  std::vector<std::uint64_t> grants(nodes, 0);
  for (;;) {
    bool progressed = false;
    bool finished = true;
    for (std::size_t i = 0; i < nodes; ++i) {
      if (done[i] >= steps) continue;
      finished = false;
      const LockId lock = ring_lock(i, done[i], nodes);
      if (!waiting[i] && grants[lock.value()] >= done[i]) {
        harness.request(i, lock, LockMode::kW);
        waiting[i] = true;
        progressed = true;
      }
      if (waiting[i] && harness.take_grant(i, lock)) {
        ++grants[lock.value()];
        harness.release(i, lock);
        waiting[i] = false;
        ++done[i];
        progressed = true;
      }
    }
    if (finished) return;
    if (!harness.pump() && !progressed) {
      throw std::runtime_error("core harness stalled on the ring pattern");
    }
  }
}

/// One-way timings of a two-node transport.
struct OneWay {
  std::vector<double> send_us;
  std::vector<double> oneway_us;
};

OneWay ping(hlock::transport::Transport& transport, int warmup, int samples) {
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::int64_t> received_at{0};
  std::thread receiver([&transport, &received, &received_at] {
    for (;;) {
      const std::vector<Message> batch = transport.recv_ready(NodeId{1});
      if (batch.empty()) return;  // shut down
      received_at.store(now_ns(), std::memory_order_relaxed);
      received.fetch_add(batch.size(), std::memory_order_release);
      received.notify_one();
    }
  });
  // Shuts the transport down and joins the receiver on every path out.
  struct Join {
    hlock::transport::Transport& transport;
    std::thread& thread;
    ~Join() {
      transport.shutdown();
      thread.join();
    }
  } join{transport, receiver};

  Message message;
  message.from = NodeId{0};
  message.to = NodeId{1};
  message.lock = LockId{0};
  message.request = hlock::proto::RequestId{NodeId{1}, 1};
  message.payload =
      hlock::proto::HierToken{LockMode::kW, LockMode::kNL, {}};
  OneWay out;
  for (int s = 0; s < warmup + samples; ++s) {
    const std::int64_t t0 = now_ns();
    transport.send_batch({message});
    const std::int64_t t1 = now_ns();
    const auto expected = static_cast<std::uint64_t>(s) + 1;
    for (std::uint64_t seen = received.load(std::memory_order_acquire);
         seen < expected; seen = received.load(std::memory_order_acquire)) {
      received.wait(seen, std::memory_order_acquire);
    }
    if (s < warmup) continue;
    out.send_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    out.oneway_us.push_back(
        static_cast<double>(received_at.load(std::memory_order_relaxed) - t0) /
        1e3);
  }
  return out;
}

void report_oneway(const std::string& prefix, const OneWay& timings,
                   Report& report) {
  report.set(prefix + ".send_batch_us.p50", median(timings.send_us), "us");
  report.set(prefix + ".oneway_us.p50", median(timings.oneway_us), "us");
  report.set(prefix + ".oneway_us.p99", quantile(timings.oneway_us, 0.99),
             "us");
}

}  // namespace

void measure_core(Pattern pattern, std::size_t nodes, std::uint64_t seed,
                  bool path_compression, double seconds, Report& report) {
  // One pass is a few thousand acquisitions; the reported figure is the
  // median over passes of each pass's median call time.
  std::vector<double> request, deliver, release;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t pass = 0;
  do {
    EngineHarness harness(nodes, path_compression);
    if (pattern == Pattern::kAirline) {
      drive_airline(harness, nodes, seed + pass, 3000 / nodes + 1);
    } else {
      drive_ring(harness, nodes, 1000);
    }
    request.push_back(median(harness.request_ns));
    deliver.push_back(median(harness.deliver_ns));
    release.push_back(median(harness.release_ns));
    ++pass;
  } while (now_ns() < end);
  report.set("core.request_ns", median(request), "ns");
  report.set("core.deliver_ns", median(deliver), "ns");
  report.set("core.release_ns", median(release), "ns");
}

void measure_proto(const std::vector<Message>& mix, double seconds,
                   Report& report) {
  if (mix.empty()) {
    report.fail("no message mix was captured for the proto layer");
    return;
  }
  std::vector<std::vector<std::byte>> frames(mix.size());
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    hlock::proto::encode_batch_into(std::span<const Message>{&mix[i], 1},
                                    frames[i]);
    bytes += frames[i].size();
    const auto decoded = hlock::proto::decode_batch(frames[i]);
    if (!decoded || decoded->size() != 1 || decoded->front() != mix[i]) {
      report.fail("the codec round-trip changed a message");
      return;
    }
  }
  std::vector<double> encode_ns, decode_ns;
  std::vector<std::byte> scratch;
  std::uint64_t checksum = 0;
  const double count = static_cast<double>(mix.size());
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    std::int64_t t0 = now_ns();
    for (const Message& message : mix) {
      scratch.clear();
      hlock::proto::encode_batch_into(std::span<const Message>{&message, 1},
                                      scratch);
      checksum += scratch.size();
    }
    encode_ns.push_back(static_cast<double>(now_ns() - t0) / count);
    t0 = now_ns();
    for (const std::vector<std::byte>& frame : frames) {
      const auto decoded = hlock::proto::decode_batch(frame);
      checksum += decoded ? decoded->size() : 0;
    }
    decode_ns.push_back(static_cast<double>(now_ns() - t0) / count);
  } while (now_ns() < end);
  if (checksum == 0) report.fail("the codec loop produced nothing");
  report.set("proto.encode_ns_per_msg", median(encode_ns), "ns");
  report.set("proto.decode_ns_per_msg", median(decode_ns), "ns");
  report.set("proto.bytes_per_msg", static_cast<double>(bytes) / count,
             "bytes");
}

void measure_transports(bool small, Report& report) {
  const int warmup = small ? 20 : 200;
  const int samples = small ? 200 : 2000;
  {
    hlock::transport::InProcOptions options;
    options.node_count = 2;
    hlock::transport::InProcTransport transport{options};
    report_oneway("transport.inproc", ping(transport, warmup, samples),
                  report);
  }
  {
    hlock::transport::TcpTransport transport{2};
    report_oneway("transport.tcp", ping(transport, warmup, samples), report);
  }
}

void report_message_kinds(
    const std::array<std::uint64_t, hlock::proto::kMessageKindCount>& sent,
    std::uint64_t acquisitions, Report& report) {
  using hlock::proto::MessageKind;
  const double per = acquisitions > 0 ? 1.0 / static_cast<double>(acquisitions)
                                      : 0.0;
  const auto count = [&sent](MessageKind kind) {
    return static_cast<double>(sent[static_cast<std::size_t>(kind)]);
  };
  report.set("core.msgs_per_acquire.request",
             count(MessageKind::kHierRequest) * per, "msgs");
  report.set("core.msgs_per_acquire.grant", count(MessageKind::kHierGrant) * per,
             "msgs");
  report.set("core.msgs_per_acquire.token", count(MessageKind::kHierToken) * per,
             "msgs");
  report.set("core.msgs_per_acquire.release",
             count(MessageKind::kHierRelease) * per, "msgs");
  report.set("core.msgs_per_acquire.freeze",
             count(MessageKind::kHierFreeze) * per, "msgs");
}

SpanPaths span_paths(const std::vector<hlock::obs::RequestSpan>& spans) {
  using hlock::obs::Phase;
  SpanPaths paths;
  for (const hlock::obs::RequestSpan& span : spans) {
    const hlock::obs::SpanEvent* issued = span.find(Phase::kIssued);
    const hlock::obs::SpanEvent* granted = span.find(Phase::kGranted);
    const hlock::obs::SpanEvent* entered = span.find(Phase::kCsEntered);
    if (issued == nullptr || granted == nullptr || entered == nullptr) continue;
    if (granted->node == issued->node) continue;  // granted locally
    hlock::SimTime reached = granted->at;
    if (const hlock::obs::SpanEvent* queued = span.find(Phase::kQueuedLocal)) {
      reached = std::min(reached, queued->at);
    }
    paths.request_us.push_back(
        static_cast<double>((reached - issued->at).count_ns()) / 1e3);
    paths.token_us.push_back(
        static_cast<double>((entered->at - granted->at).count_ns()) / 1e3);
  }
  return paths;
}

}  // namespace perfbench
