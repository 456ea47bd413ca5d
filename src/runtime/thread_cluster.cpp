#include "runtime/thread_cluster.hpp"

#include "runtime/instrumented_engine.hpp"
#include "telemetry/exports.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace hlock::runtime {

ThreadCluster::Shard::Shard(ThreadCluster& owner, NodeId self,
                            std::unique_ptr<LockEngine> engine,
                            obs::AtomicLamportClock& clock,
                            const ThreadClusterOptions& options)
    : cluster(owner),
      core(self, options.node_count, std::move(engine), options.recovery,
           clock, *this) {}

SimTime ThreadCluster::Shard::now() { return cluster.wall_now(); }

void ThreadCluster::Shard::send(std::vector<proto::Message>&& messages) {
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
  cv.notify_all();
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
      recovery_(options.recovery) {
  if (options.transport == TransportKind::kTcp) {
    transport::TcpOptions tcp_options;
    tcp_options.batching = options.batching;
    auto tcp = std::make_unique<transport::TcpTransport>(options.node_count,
                                                         tcp_options);
    tcp_ = tcp.get();
    transport_ = std::move(tcp);
  } else {
    transport_ = std::make_unique<transport::InProcTransport>(
        transport::InProcOptions{options.node_count, options.message_latency,
                                 options.seed, options.codec_roundtrip,
                                 options.batching});
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
  HLOCK_REQUIRE(options.initial_root.value() < options.node_count,
                "the initial root must be one of the cluster's nodes");
  HLOCK_REQUIRE(
      !(options.recovery.enabled && options.protocol == Protocol::kRaymond),
      "crash recovery is not supported for the Raymond baseline");
  HLOCK_REQUIRE(!(options.recovery.enabled && options.engine_shards > 1),
                "crash recovery requires engine_shards <= 1: the manager "
                "reports over the node's whole lock space");
  shard_count_ = options.engine_shards == 0 ? kDefaultEngineShards
                                            : options.engine_shards;
  if (options.recovery.enabled) shard_count_ = 1;
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
    rt->shards.reserve(shard_count_);
    for (std::size_t s = 0; s < shard_count_; ++s) {
      std::unique_ptr<LockEngine> engine =
          make_engine(options.protocol, self, options.node_count,
                      options.initial_root, options.hier_config);
      if (metrics_ != nullptr) {
        engine = std::make_unique<InstrumentedEngine>(
            std::move(engine), *metrics_, options.protocol, self);
      }
      auto shard = std::make_unique<Shard>(*this, self, std::move(engine),
                                           rt->clock, options);
      if (metrics_ != nullptr) {
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
  // Fault/retry counter structs fold in via their X-macro field tables.
  // With both decorator and TCP present the TCP retry counters get their
  // own prefix so the two field sets cannot collide.
  if (faulty_ != nullptr) {
    telemetry::export_transport_counters(*metrics_, faulty_->counters(),
                                         "hlock_transport_");
    if (tcp_ != nullptr) {
      telemetry::export_transport_counters(*metrics_, tcp_->counters(),
                                           "hlock_tcp_transport_");
    }
  } else if (tcp_ != nullptr) {
    telemetry::export_transport_counters(*metrics_, tcp_->counters(),
                                         "hlock_transport_");
  }
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
    metrics_->unregister_callbacks("hlock_tcp_transport_");
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
    // One transport call drains every matured message (one mailbox lock
    // acquisition for the whole burst); an empty batch means shutdown.
    std::vector<proto::Message> batch = transport_->recv_ready(node);
    if (batch.empty()) return;
    // Crash-stop: the receiver discards the batch unread and exits — the
    // node consumes nothing ever again (docs/recovery.md).
    if (!rt.alive.load(std::memory_order_acquire)) return;
    if (rt.recv_batch != nullptr) {
      rt.recv_batch->record(static_cast<double>(batch.size()));
    }
    // Explicit schedule point: under the explorer a client thread may slip
    // in between the drain and the dispatch (shutdown/close races live
    // exactly there).
    sched::yield_point("thread_cluster.recv-batch");
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
        if (!rt.alive.load(std::memory_order_acquire)) return;
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
  }
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
      if (!rt.alive.load(std::memory_order_acquire)) continue;
      Shard& shard = *rt.shards[0];
      MutexLock guard(shard.mutex);
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
  // client calls (they observe !alive and return).
  shard.core.crash();
  shard.cv.notify_all();
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
    shard.cv.wait(shard.mutex);
  }
  done.erase(lock);
  --shard.waiters;
  shard.cv.notify_all();  // a tearing-down destructor may drain waiters
}

void ThreadCluster::lock(NodeId node, LockId lock, LockMode mode,
                         std::uint8_t priority) {
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = shard_of(rt, lock);
  // Watchdog bracket around the whole blocking wait. begin() before the
  // shard mutex (it takes the watchdog's own); end() under it is fine —
  // shard -> watchdog is the only order these two ever compose in.
  std::uint64_t stall_key = 0;
  if (watchdog_ != nullptr) {
    stall_key = watchdog_->begin(
        "node=" + std::to_string(node.value()) +
        " lock=" + std::to_string(lock.value()) +
        " mode=" + proto::to_string(mode));
  }
  sched::yield_point("thread_cluster.lock");
  MutexLock guard(shard.mutex);
  HLOCK_REQUIRE(rt.alive.load(std::memory_order_acquire),
                "node has crash-stopped");
  // Teardown (or a crash while waiting) returns spuriously, as the
  // destructor contract says.
  if (!stopping_) {
    shard.core.request(lock, mode, priority);
    if (metrics_ != nullptr) shard.publish_telemetry();
    await(rt, shard, shard.grants, lock);
  }
  if (watchdog_ != nullptr) watchdog_->end(stall_key);
}

void ThreadCluster::unlock(NodeId node, LockId lock) {
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = shard_of(rt, lock);
  MutexLock guard(shard.mutex);
  HLOCK_REQUIRE(rt.alive.load(std::memory_order_acquire),
                "node has crash-stopped");
  if (stopping_) return;
  shard.core.release(lock);
  if (metrics_ != nullptr) shard.publish_telemetry();
}

void ThreadCluster::upgrade(NodeId node, LockId lock) {
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = shard_of(rt, lock);
  std::uint64_t stall_key = 0;
  if (watchdog_ != nullptr) {
    stall_key = watchdog_->begin("node=" + std::to_string(node.value()) +
                                 " lock=" + std::to_string(lock.value()) +
                                 " upgrade");
  }
  MutexLock guard(shard.mutex);
  HLOCK_REQUIRE(rt.alive.load(std::memory_order_acquire),
                "node has crash-stopped");
  if (!stopping_) {
    shard.core.upgrade(lock);
    if (metrics_ != nullptr) shard.publish_telemetry();
    await(rt, shard, shard.upgrades, lock);
  }
  if (watchdog_ != nullptr) watchdog_->end(stall_key);
}

bool ThreadCluster::holds(NodeId node, LockId lock) {
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = shard_of(rt, lock);
  MutexLock guard(shard.mutex);
  return shard.core.engine().holds(lock);
}

}  // namespace hlock::runtime
