#include "runtime/thread_cluster.hpp"

#include "util/check.hpp"
#include "util/log.hpp"

namespace hlock::runtime {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Brackets a blocking client call in the stall watchdog and ends the
/// bracket on every exit path, throws included. Without a watchdog it does
/// nothing, and the label is never built.
class StallBracket {
 public:
  template <typename MakeLabel>
  StallBracket(telemetry::StallWatchdog* watchdog, MakeLabel&& make_label)
      : watchdog_(watchdog) {
    if (watchdog_ != nullptr) key_ = watchdog_->begin(make_label());
  }
  StallBracket(const StallBracket&) = delete;
  StallBracket& operator=(const StallBracket&) = delete;
  ~StallBracket() {
    if (watchdog_ != nullptr) watchdog_->end(key_);
  }

 private:
  telemetry::StallWatchdog* const watchdog_;
  std::uint64_t key_ = 0;
};

}  // namespace

ThreadCluster::EngineSeries::EngineSeries(telemetry::Registry& registry,
                                          Protocol protocol, NodeId node) {
  const std::string proto_label = to_string(protocol);
  const std::string node_label = std::to_string(node.value());
  const auto name = [&](std::string_view base) {
    return telemetry::labeled(
        base, {{"proto", proto_label}, {"node", node_label}});
  };
  const auto name_with = [&](std::string_view base, std::string_view key,
                             std::string value) {
    return telemetry::labeled(base, {{"proto", proto_label},
                                     {"node", node_label},
                                     {key, std::move(value)}});
  };
  for (const LockMode mode : proto::kAllModes) {
    const std::size_t i = proto::mode_index(mode);
    requests[i] = &registry.counter(name_with(
        "hlock_engine_requests_total", "mode", proto::to_string(mode)));
    grants[i] = &registry.counter(name_with(
        "hlock_engine_grants_total", "mode", proto::to_string(mode)));
  }
  for (std::size_t i = 0; i < proto::kMessageKindCount; ++i) {
    sent[i] = &registry.counter(
        name_with("hlock_messages_sent_total", "kind",
                  proto::to_string(static_cast<proto::MessageKind>(i))));
  }
  releases = &registry.counter(name("hlock_engine_releases_total"));
  upgrades = &registry.counter(name("hlock_engine_upgrades_total"));
  forwards = &registry.counter(name("hlock_engine_forwards_total"));
  freezes = &registry.counter(name("hlock_engine_freezes_total"));
  wait_ms = &registry.histogram(name("hlock_wait_ms"));
  hold_ms = &registry.histogram(name("hlock_hold_ms"));
}

ThreadCluster::Shard::Shard(ThreadCluster& owner, NodeId self,
                            std::unique_ptr<LockEngine> engine,
                            obs::AtomicLamportClock& clock,
                            const ThreadClusterOptions& options)
    : cluster(owner),
      node(self),
      core(self, options.node_count, std::move(engine), options.recovery,
           clock, *this) {}

SimTime ThreadCluster::Shard::now() { return cluster.wall_now(); }

void ThreadCluster::Shard::send(std::vector<proto::Message>&& messages) {
  if (series != nullptr) {
    for (const proto::Message& message : messages) {
      const proto::MessageKind kind = proto::kind_of(message.payload);
      series->sent[static_cast<std::size_t>(kind)]->inc();
      switch (kind) {
        case proto::MessageKind::kHierRequest:
          if (std::get<proto::HierRequest>(message.payload).requester !=
              message.from) {
            series->forwards->inc();
          }
          break;
        case proto::MessageKind::kNaimiRequest:
          if (std::get<proto::NaimiRequest>(message.payload).requester !=
              message.from) {
            series->forwards->inc();
          }
          break;
        case proto::MessageKind::kHierFreeze:
          series->freezes->inc();
          break;
        case proto::MessageKind::kHierToken:
        case proto::MessageKind::kNaimiToken: {
          telemetry::Gauge*& location = token_gauges[message.lock];
          if (location == nullptr) {
            location = &cluster.metrics_->gauge(telemetry::labeled(
                "hlock_token_location",
                {{"lock", std::to_string(message.lock.value())}}));
          }
          location->set(static_cast<double>(message.to.value()));
          break;
        }
        default:
          break;
      }
    }
  }
  cluster.transport_->send_batch(std::move(messages));
}

void ThreadCluster::Shard::sink(std::vector<trace::TraceEvent>&& events) {
  // The sink slot is only readable under event_mutex_ — checking it
  // unguarded raced with set_event_sink().
  MutexLock guard(cluster.event_mutex_);
  if (!cluster.event_sink_) return;
  for (trace::TraceEvent& event : events) {
    cluster.event_sink_(std::move(event));
  }
}

void ThreadCluster::Shard::granted(LockId lock, bool upgraded) {
  (upgraded ? upgrades : grants).insert(lock);
  // The inbox waiter is not on the condvar, and nobody on it awaits this
  // lock: signal the waiter alone.
  if (inbox_waiter == lock) {
    cluster.inproc_->mailbox(node).signal_caller();
  } else {
    cv.notify_all();
  }
  if (series == nullptr) return;
  if (upgraded) {
    series->upgrades->inc();
    return;
  }
  // A grant with no open wait is a fence re-grant; it counts under NL.
  LockMode mode = LockMode::kNL;
  if (const auto it = waits.find(lock); it != waits.end()) {
    mode = it->second.mode;
    series->wait_ms->record(ms_since(it->second.since));
    waits.erase(it);
  }
  series->grants[proto::mode_index(mode)]->inc();
  held_since[lock] = Clock::now();
}

void ThreadCluster::Shard::publish_telemetry() {
  if (queue_depth != nullptr) {
    queue_depth->set(static_cast<double>(core.engine().queued_requests()));
    tokens_held->set(static_cast<double>(core.engine().tokens_held()));
  }
  if (epoch_gauge == nullptr) return;
  const recovery::Manager& manager = *core.manager();
  const recovery::RecoveryCounters& counters = manager.counters();
  epoch_gauge->set(static_cast<double>(manager.current_epoch()));
  suspicions->inc(counters.suspicions - published.suspicions);
  fences->inc(counters.fences_installed - published.fences_installed);
  recoveries->inc(counters.recoveries - published.recoveries);
  stale_drops_metric->inc(core.stale_drops() - published_stale);
  published = counters;
  published_stale = core.stale_drops();
  const std::vector<double>& samples = manager.recovery_durations_ms();
  for (; published_samples < samples.size(); ++published_samples) {
    recovery_ms->record(samples[published_samples]);
  }
}

ThreadCluster::ThreadCluster(const ThreadClusterOptions& options)
    : metrics_(options.metrics), watchdog_(options.watchdog),
      shard_count_(options.recovery.enabled ? 1 : kDefaultEngineShards),
      recovery_(options.recovery) {
  if (options.transport == TransportKind::kTcp) {
    auto tcp = std::make_unique<transport::TcpTransport>(options.node_count);
    tcp_ = tcp.get();
    transport_ = std::move(tcp);
  } else {
    auto inproc = std::make_unique<transport::InProcTransport>(
        transport::InProcOptions{options.node_count});
    inproc_ = inproc.get();
    transport_ = std::move(inproc);
  }
  if (options.faults.any()) {
    transport::FaultPlan plan = options.faults;
    if (plan.seed == 0) plan.seed = options.seed;
    auto faulty = std::make_unique<transport::FaultyTransport>(
        std::move(transport_), plan);
    faulty_ = faulty.get();
    transport_ = std::move(faulty);
  }
  HLOCK_REQUIRE(options.node_count >= 1, "a cluster needs at least one node");
  HLOCK_REQUIRE(
      !(options.recovery.enabled && options.protocol == Protocol::kRaymond),
      "crash recovery is not supported for the Raymond baseline");
  if (metrics_ != nullptr) register_transport_metrics(options.node_count);
  nodes_.reserve(options.node_count);
  for (std::size_t i = 0; i < options.node_count; ++i) {
    const NodeId self{static_cast<std::uint32_t>(i)};
    auto rt = std::make_unique<NodeRuntime>();
    if (metrics_ != nullptr) {
      rt->recv_batch = &metrics_->histogram(
          telemetry::labeled("hlock_recv_batch_size",
                             {{"node", std::to_string(i)}}),
          telemetry::linear_bounds(1.0, 1.0, 16));
    }
    if (metrics_ != nullptr) {
      rt->series =
          std::make_unique<EngineSeries>(*metrics_, options.protocol, self);
    }
    rt->shards.reserve(shard_count_);
    for (std::size_t s = 0; s < shard_count_; ++s) {
      auto shard = std::make_unique<Shard>(
          *this, self,
          make_engine(options.protocol, self, options.node_count,
                      kInitialRoot, options.hier_config),
          rt->clock, options);
      if (metrics_ != nullptr) {
        shard->series = rt->series.get();
        const auto name = [&](std::string_view base) {
          return telemetry::labeled(base, {{"node", std::to_string(i)}});
        };
        shard->queue_depth = &metrics_->gauge(telemetry::labeled(
            "hlock_engine_queue_depth",
            {{"node", std::to_string(i)}, {"shard", std::to_string(s)}}));
        shard->tokens_held = &metrics_->gauge(telemetry::labeled(
            "hlock_tokens_held",
            {{"node", std::to_string(i)}, {"shard", std::to_string(s)}}));
        if (options.recovery.enabled) {
          shard->epoch_gauge = &metrics_->gauge(name("hlock_epoch"));
          shard->suspicions =
              &metrics_->counter(name("hlock_suspicions_total"));
          shard->fences = &metrics_->counter(name("hlock_fences_total"));
          shard->recoveries =
              &metrics_->counter(name("hlock_recoveries_total"));
          shard->stale_drops_metric =
              &metrics_->counter(name("hlock_stale_drops_total"));
          shard->recovery_ms = &metrics_->histogram(name("hlock_recovery_ms"));
        }
      }
      rt->shards.push_back(std::move(shard));
    }
    nodes_.push_back(std::move(rt));
  }
  for (std::size_t i = 0; i < options.node_count; ++i) {
    const NodeId self{static_cast<std::uint32_t>(i)};
    const std::string name = "recv-" + std::to_string(i);
    nodes_[i]->receiver =
        sched::Thread(name.c_str(), [this, self] { receiver_loop(self); });
  }
  if (options.recovery.enabled) {
    ticker_ = sched::Thread("recovery-ticker", [this] { ticker_loop(); });
  }
}

void ThreadCluster::register_transport_metrics(std::size_t node_count) {
  transport::Transport* transport = transport_.get();
  metrics_->register_counter_fn(
      "hlock_transport_messages_sent_total",
      [transport] { return transport->messages_sent(); });
  metrics_->register_counter_fn("hlock_transport_bytes_sent_total",
                                [transport] {
                                  return transport->bytes_sent();
                                });
  // One callback series per field of each counting transport's X-macro
  // table, named `hlock_transport_<field>_total`: the fault counters under
  // a fault plan, the TCP counters over TCP. Their fields are disjoint.
  const auto export_field = [this](const char* field,
                                   const std::atomic<std::uint64_t>& value) {
    metrics_->register_counter_fn(
        std::string("hlock_transport_") + field + "_total",
        [&value] { return value.load(std::memory_order_relaxed); });
  };
  if (faulty_ != nullptr) faulty_->counters().for_each(export_field);
  if (tcp_ != nullptr) tcp_->counters().for_each(export_field);
  // Mailbox depth per node. Safe as a snapshot-time callback: the mailbox
  // mutex is a leaf — nothing acquired under it — so registry -> mailbox
  // cannot complete a cycle (unlike shard mutexes; see Shard). Over TCP the
  // depth is an atomic read that never takes the receive lock, which a
  // waiting receiver holds.
  for (std::size_t i = 0; i < node_count; ++i) {
    const NodeId node{static_cast<std::uint32_t>(i)};
    metrics_->register_gauge_fn(
        telemetry::labeled("hlock_mailbox_depth",
                           {{"node", std::to_string(i)}}),
        [transport, node] {
          return static_cast<double>(transport->inbox_depth(node));
        });
  }
}

ThreadCluster::~ThreadCluster() {
  // The callback series read transport_ — stop the polling before the
  // teardown so a concurrent sampler snapshot never touches a dying
  // transport.
  if (metrics_ != nullptr) {
    metrics_->unregister_callbacks("hlock_transport_");
    metrics_->unregister_callbacks("hlock_mailbox_depth");
  }
  stopping_.store(true);
  // Notify while holding each shard's mutex: a client thread that already
  // checked its predicate but has not entered the wait yet would otherwise
  // miss the wake-up and block forever (and the unsynchronized flag write
  // would race with the predicate read).
  for (auto& rt : nodes_) {
    for (auto& shard : rt->shards) {
      MutexLock guard(shard->mutex);
      shard->cv.notify_all();
    }
  }
  // Stop the recovery ticker before the transport dies under its sends.
  if (ticker_.joinable()) {
    {
      MutexLock guard(ticker_mutex_);
      ticker_cv_.notify_all();
    }
    ticker_.join();
  }
  transport_->shutdown();
  for (auto& rt : nodes_) {
    if (rt->receiver.joinable()) rt->receiver.join();
  }
  // Wait until every woken client call has left its wait; destroying the
  // node state under a thread still inside lock()/upgrade() would be a
  // use-after-free.
  for (auto& rt : nodes_) {
    for (auto& shard : rt->shards) {
      MutexLock guard(shard->mutex);
      while (shard->waiters != 0) shard->cv.wait(shard->mutex);
    }
  }
}

void ThreadCluster::set_event_sink(EventSink sink) {
  // Under event_mutex_: receivers read the sink while applying effects, so
  // an unguarded write here would race with every in-flight event (a real
  // defect the capability analysis flagged when the slot was annotated).
  MutexLock guard(event_mutex_);
  event_sink_ = std::move(sink);
}

ThreadCluster::NodeRuntime& ThreadCluster::runtime_of(NodeId node) {
  HLOCK_REQUIRE(node.value() < nodes_.size(), "unknown node id");
  return *nodes_[node.value()];
}

void ThreadCluster::receiver_loop(NodeId node) {
  NodeRuntime& rt = runtime_of(node);
  for (;;) {
    // One transport call drains every deliverable message (one mailbox lock
    // acquisition for the whole burst); an empty batch means shutdown.
    std::vector<proto::Message> batch = transport_->recv_ready(node);
    if (batch.empty()) return;
    // Explicit schedule point: under the explorer a client thread may slip
    // in between the drain and the dispatch (shutdown/close races live
    // exactly there).
    sched::yield_point("thread_cluster.recv-batch");
    if (!dispatch(rt, node, batch)) return;
  }
}

bool ThreadCluster::dispatch(NodeRuntime& rt, NodeId node,
                             const std::vector<proto::Message>& batch) {
  // Crash-stop: the batch is discarded unread — the node consumes nothing
  // ever again (docs/recovery.md).
  if (!rt.alive.load(std::memory_order_acquire)) return false;
  if (rt.recv_batch != nullptr) {
    rt.recv_batch->record(static_cast<double>(batch.size()));
  }
  // Dispatch consecutive same-shard runs under one shard lock
  // acquisition — batches never cross shards out of order, preserving
  // per-channel FIFO.
  std::size_t i = 0;
  while (i < batch.size()) {
    Shard& shard = shard_of(rt, batch[i].lock);
    MutexLock guard(shard.mutex);
    do {
      // Crash-stop taken mid-batch: stop dispatching immediately so the
      // crashed node cannot keep replying (and emitting old-epoch
      // traffic) for the rest of the batch.
      if (!rt.alive.load(std::memory_order_acquire)) return false;
      // An exception escaping a std::thread calls std::terminate, so a
      // receiver converts failures into a counted, logged error effect
      // and keeps draining its mailbox.
      try {
        shard.core.deliver(batch[i]);
      } catch (const std::exception& error) {
        receiver_errors_.fetch_add(1, std::memory_order_relaxed);
        HLOCK_LOG(kError, "node " << node.value()
                                  << ": error applying message: "
                                  << error.what());
      }
      ++i;
    } while (i < batch.size() &&
             &shard_of(rt, batch[i].lock) == &shard);
    shard.publish_telemetry();
  }
  return true;
}

SimTime ThreadCluster::wall_now() const {
  const auto elapsed = std::chrono::steady_clock::now() - started_;
  return SimTime::ns(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

void ThreadCluster::ticker_loop() {
  const auto interval =
      std::chrono::nanoseconds(recovery_.heartbeat_interval.count_ns());
  for (;;) {
    {
      MutexLock guard(ticker_mutex_);
      if (stopping_.load()) return;
      ticker_cv_.wait_for(ticker_mutex_, interval);
    }
    if (stopping_.load()) return;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      NodeRuntime& rt = *nodes_[i];
      Shard& shard = *rt.shards[0];
      MutexLock guard(shard.mutex);
      // Checked under the mutex crash_stop() holds while it marks the node
      // dead, so a crash-stopped node never ticks (or sends) again.
      if (!rt.alive.load(std::memory_order_acquire)) continue;
      // An unhalt replays the application calls buffered while halted, and
      // the engine may reject one (say, a release of a lock not held); as
      // on the receivers, the error is counted and logged.
      try {
        shard.core.tick();
      } catch (const std::exception& error) {
        receiver_errors_.fetch_add(1, std::memory_order_relaxed);
        HLOCK_LOG(kError, "node " << i << ": error in recovery tick: "
                                  << error.what());
      }
      shard.publish_telemetry();
    }
  }
}

void ThreadCluster::crash_stop(NodeId node) {
  HLOCK_REQUIRE(recovery_.enabled,
                "crash_stop() requires recovery to be enabled — without it "
                "the survivors could never regenerate the token");
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = *rt.shards[0];
  MutexLock guard(shard.mutex);
  rt.alive.store(false, std::memory_order_release);
  // A crash-stop loses all volatile state; wake any of the node's blocked
  // client calls (they observe !alive and return), the inbox waiter
  // included.
  shard.core.crash();
  shard.cv.notify_all();
  if (inproc_ != nullptr) inproc_->mailbox(node).signal_caller();
}

bool ThreadCluster::alive(NodeId node) const {
  HLOCK_REQUIRE(node.value() < nodes_.size(), "unknown node id");
  return nodes_[node.value()]->alive.load(std::memory_order_acquire);
}

ThreadCluster::Shard& ThreadCluster::recovery_shard(NodeId node) {
  NodeRuntime& rt = runtime_of(node);
  HLOCK_REQUIRE(recovery_.enabled, "recovery is not enabled on this cluster");
  return *rt.shards[0];
}

std::uint32_t ThreadCluster::recovery_epoch_of(NodeId node) {
  Shard& shard = recovery_shard(node);
  MutexLock guard(shard.mutex);
  return shard.core.manager()->current_epoch();
}

recovery::RecoveryCounters ThreadCluster::recovery_counters(NodeId node) {
  Shard& shard = recovery_shard(node);
  MutexLock guard(shard.mutex);
  return shard.core.manager()->counters();
}

std::uint64_t ThreadCluster::stale_drops(NodeId node) {
  Shard& shard = recovery_shard(node);
  MutexLock guard(shard.mutex);
  return shard.core.stale_drops();
}

void ThreadCluster::await(NodeRuntime& rt, Shard& shard,
                          std::unordered_set<LockId>& done, LockId lock) {
  ++shard.waiters;
  while (!stopping_ && rt.alive.load(std::memory_order_acquire) &&
         done.count(lock) == 0) {
    if (!drain_own_inbox(rt, shard, lock)) shard.cv.wait(shard.mutex);
  }
  done.erase(lock);
  --shard.waiters;
  // Only a tearing-down destructor waits for waiters to fall; the shard's
  // other blocked calls have nothing to wake for.
  if (stopping_) shard.cv.notify_all();
}

bool ThreadCluster::drain_own_inbox(NodeRuntime& rt, Shard& shard,
                                    LockId lock) {
  if (inproc_ == nullptr) return false;
  transport::Mailbox& inbox = inproc_->mailbox(shard.node);
  // Read under the shard lock: a grant applied once it is dropped signals
  // past this generation, so it cannot be missed.
  const std::optional<std::uint64_t> generation = inbox.enlist_caller();
  if (!generation) return false;
  shard.inbox_waiter = lock;
  // Dropped before dispatching, which takes the node's shard locks one at
  // a time: no shard lock is ever held under another.
  shard.mutex.unlock();
  for (;;) {
    // Explicit schedule point: before each take, a grant, push, crash-stop
    // or close may slip in — first between the enlistment and the wait,
    // then between a dispatch and the take that gives the claim back.
    sched::yield_point("thread_cluster.caller-drain");
    const std::vector<proto::Message> batch =
        inbox.take_for_caller(*generation);
    if (batch.empty()) break;
    dispatch(rt, shard.node, batch);
  }
  shard.mutex.lock();
  // Another call may have enlisted since the take withdrew this one.
  if (shard.inbox_waiter == lock) shard.inbox_waiter.reset();
  return true;
}

void ThreadCluster::lock(NodeId node, LockId lock, LockMode mode,
                         std::uint8_t priority) {
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = shard_of(rt, lock);
  // Watchdog bracket around the whole blocking wait, begun and ended
  // outside the shard mutex (the watchdog takes its own).
  const StallBracket stall(watchdog_, [&] {
    return "node=" + std::to_string(node.value()) +
           " lock=" + std::to_string(lock.value()) +
           " mode=" + proto::to_string(mode);
  });
  sched::yield_point("thread_cluster.lock");
  MutexLock guard(shard.mutex);
  HLOCK_REQUIRE(rt.alive.load(std::memory_order_acquire),
                "node has crash-stopped");
  // Teardown (or a crash while waiting) returns spuriously, as the
  // destructor contract says.
  if (!stopping_) {
    if (metrics_ != nullptr) {
      shard.series->requests[proto::mode_index(mode)]->inc();
      shard.waits[lock] = {mode, Clock::now()};
    }
    shard.core.request(lock, mode, priority);
    if (metrics_ != nullptr) shard.publish_telemetry();
    await(rt, shard, shard.grants, lock);
  }
}

void ThreadCluster::unlock(NodeId node, LockId lock) {
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = shard_of(rt, lock);
  MutexLock guard(shard.mutex);
  HLOCK_REQUIRE(rt.alive.load(std::memory_order_acquire),
                "node has crash-stopped");
  if (stopping_) return;
  if (metrics_ != nullptr) {
    shard.series->releases->inc();
    if (const auto it = shard.held_since.find(lock);
        it != shard.held_since.end()) {
      shard.series->hold_ms->record(ms_since(it->second));
      shard.held_since.erase(it);
    }
  }
  shard.core.release(lock);
  if (metrics_ != nullptr) shard.publish_telemetry();
}

void ThreadCluster::upgrade(NodeId node, LockId lock) {
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = shard_of(rt, lock);
  const StallBracket stall(watchdog_, [&] {
    return "node=" + std::to_string(node.value()) +
           " lock=" + std::to_string(lock.value()) + " upgrade";
  });
  MutexLock guard(shard.mutex);
  HLOCK_REQUIRE(rt.alive.load(std::memory_order_acquire),
                "node has crash-stopped");
  if (!stopping_) {
    shard.core.upgrade(lock);
    if (metrics_ != nullptr) shard.publish_telemetry();
    await(rt, shard, shard.upgrades, lock);
  }
}

bool ThreadCluster::holds(NodeId node, LockId lock) {
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = shard_of(rt, lock);
  MutexLock guard(shard.mutex);
  return shard.core.engine().holds(lock);
}

}  // namespace hlock::runtime
