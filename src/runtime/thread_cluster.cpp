#include "runtime/thread_cluster.hpp"

#include "runtime/instrumented_engine.hpp"
#include "telemetry/exports.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace hlock::runtime {

namespace {

std::unique_ptr<LockEngine> make_engine(const ThreadClusterOptions& options,
                                        NodeId self) {
  std::unique_ptr<LockEngine> engine;
  if (options.protocol == Protocol::kHierarchical) {
    engine = std::make_unique<HierEngine>(self, options.initial_root,
                                          options.hier_config);
  } else if (options.protocol == Protocol::kRaymond) {
    HLOCK_REQUIRE(options.initial_root == NodeId{0},
                  "the Raymond tree is rooted at node 0");
    engine = std::make_unique<RaymondEngine>(self, options.node_count);
  } else {
    engine = std::make_unique<NaimiEngine>(self, options.initial_root);
  }
  if (options.metrics != nullptr) {
    engine = std::make_unique<InstrumentedEngine>(
        std::move(engine), *options.metrics, options.protocol, self);
  }
  return engine;
}

}  // namespace

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
      auto shard = std::make_unique<Shard>();
      if (metrics_ != nullptr) {
        shard->queue_depth = &metrics_->gauge(telemetry::labeled(
            "hlock_engine_queue_depth",
            {{"node", std::to_string(i)}, {"shard", std::to_string(s)}}));
        shard->tokens_held = &metrics_->gauge(telemetry::labeled(
            "hlock_tokens_held",
            {{"node", std::to_string(i)}, {"shard", std::to_string(s)}}));
      }
      // No thread can see the node yet, but `engine` is lock-guarded state
      // of a foreign object as far as the analysis is concerned — take the
      // (uncontended, once-per-shard) lock rather than suppress.
      MutexLock guard(shard->mutex);
      shard->engine = make_engine(options, self);
      if (options.recovery.enabled && s == 0) {
        rt->manager = std::make_unique<recovery::Manager>(
            self, options.node_count, options.recovery,
            shard->engine.get());
      }
      rt->shards.push_back(std::move(shard));
    }
    if (options.recovery.enabled && metrics_ != nullptr) {
      const auto name = [&](std::string_view base) {
        return telemetry::labeled(base, {{"node", std::to_string(i)}});
      };
      rt->epoch_gauge = &metrics_->gauge(name("hlock_epoch"));
      rt->suspicions = &metrics_->counter(name("hlock_suspicions_total"));
      rt->fences = &metrics_->counter(name("hlock_fences_total"));
      rt->recoveries = &metrics_->counter(name("hlock_recoveries_total"));
      rt->stale_drops_metric =
          &metrics_->counter(name("hlock_stale_drops_total"));
      rt->recovery_ms = &metrics_->histogram(name("hlock_recovery_ms"));
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
    // acquisition, moving each message straight into delivery — batches
    // never cross shards out of order, preserving per-channel FIFO.
    std::size_t i = 0;
    while (i < batch.size()) {
      Shard& shard = shard_of(rt, batch[i].lock);
      MutexLock guard(shard.mutex);
      do {
        // Crash-stop taken mid-batch: stop dispatching immediately so the
        // crashed node cannot keep replying (and emitting old-epoch
        // traffic) for the rest of the batch.
        if (!rt.alive.load(std::memory_order_acquire)) return;
        proto::Message& message = batch[i];
        // An exception escaping a std::thread calls std::terminate, so a
        // receiver converts failures into a counted, logged error effect
        // and keeps draining its mailbox.
        try {
          rt.clock.observe(message.lamport);
          if (recovery_.enabled) {
            rt.manager->note_alive(message.from, wall_now());
            if (proto::is_recovery_kind(proto::kind_of(message.payload))) {
              apply_outcome(rt, shard,
                            rt.manager->on_message(message, wall_now()));
            } else {
              deliver_protocol(rt, shard, message);
            }
          } else {
            Effects effects = shard.engine->deliver(message);
            apply(rt, shard, message.lock, std::move(effects));
          }
        } catch (const std::exception& error) {
          receiver_errors_.fetch_add(1, std::memory_order_relaxed);
          HLOCK_LOG(kError, "node " << node.value()
                                    << ": error applying message: "
                                    << error.what());
        }
        ++i;
      } while (i < batch.size() &&
               &shard_of(rt, batch[i].lock) == &shard);
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
    for (auto& rt_ptr : nodes_) {
      NodeRuntime& rt = *rt_ptr;
      if (!rt.alive.load(std::memory_order_acquire)) continue;
      Shard& shard = *rt.shards[0];
      MutexLock guard(shard.mutex);
      apply_outcome(rt, shard, rt.manager->on_tick(wall_now()));
    }
  }
}

void ThreadCluster::deliver_protocol(NodeRuntime& rt, Shard& shard,
                                     const proto::Message& message) {
  if (rt.manager->halted()) {
    rt.halted_msgs.push_back(message);
    return;
  }
  if (message.epoch > shard.engine->recovery_epoch(message.lock)) {
    // The sender is fenced into a newer epoch; our fence is still in
    // flight. Park the message — delivering it now would make the
    // automaton drop a perfectly valid post-fence message.
    rt.parked_msgs.push_back(message);
    return;
  }
  Effects effects = shard.engine->deliver(message);
  if (effects.stale_drop) ++rt.stale_drops;
  apply(rt, shard, message.lock, std::move(effects));
}

void ThreadCluster::apply_outcome(NodeRuntime& rt, Shard& shard,
                                  recovery::Outcome&& outcome) {
  const std::uint64_t step_time = rt.clock.tick();
  if (!outcome.events.empty()) {
    const SimTime at = wall_now();
    MutexLock sink_guard(event_mutex_);
    if (event_sink_) {
      for (trace::TraceEvent& event : outcome.events) {
        event.at = at;
        event.lamport = step_time;
        event_sink_(std::move(event));
      }
    }
  }
  if (!outcome.messages.empty()) {
    for (proto::Message& message : outcome.messages) {
      message.lamport = rt.clock.tick();
    }
    transport_->send_batch(std::move(outcome.messages));
  }
  for (auto& [lock, effects] : outcome.fence_effects) {
    apply(rt, shard, lock, std::move(effects));
  }
  if (outcome.unhalted) {
    // Replay through the same routing (a message can re-park or re-buffer
    // if another campaign began meanwhile), then wake the client calls
    // blocked in wait_unhalted().
    std::vector<proto::Message> parked = std::move(rt.parked_msgs);
    rt.parked_msgs.clear();
    std::vector<proto::Message> backlog = std::move(rt.halted_msgs);
    rt.halted_msgs.clear();
    for (const proto::Message& message : parked) {
      deliver_protocol(rt, shard, message);
    }
    for (const proto::Message& message : backlog) {
      deliver_protocol(rt, shard, message);
    }
    shard.cv.notify_all();
  }
  publish_recovery_metrics(rt);
}

void ThreadCluster::wait_unhalted(NodeRuntime& rt, Shard& shard) {
  if (!recovery_.enabled) return;
  ++shard.waiters;
  while (!stopping_ && rt.alive.load(std::memory_order_acquire) &&
         rt.manager->halted()) {
    shard.cv.wait(shard.mutex);
  }
  --shard.waiters;
  shard.cv.notify_all();  // a tearing-down destructor may drain waiters
}

void ThreadCluster::publish_recovery_metrics(NodeRuntime& rt) {
  if (rt.epoch_gauge == nullptr) return;
  const recovery::RecoveryCounters& counters = rt.manager->counters();
  rt.epoch_gauge->set(static_cast<double>(rt.manager->current_epoch()));
  rt.suspicions->inc(counters.suspicions - rt.published.suspicions);
  rt.fences->inc(counters.fences_installed - rt.published.fences_installed);
  rt.recoveries->inc(counters.recoveries - rt.published.recoveries);
  rt.stale_drops_metric->inc(rt.stale_drops - rt.published_stale);
  rt.published = counters;
  rt.published_stale = rt.stale_drops;
  const std::vector<double>& samples = rt.manager->recovery_durations_ms();
  for (; rt.published_samples < samples.size(); ++rt.published_samples) {
    rt.recovery_ms->record(samples[rt.published_samples]);
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
  // client calls (they observe !alive and throw).
  rt.halted_msgs.clear();
  rt.parked_msgs.clear();
  shard.cv.notify_all();
}

bool ThreadCluster::alive(NodeId node) const {
  HLOCK_REQUIRE(node.value() < nodes_.size(), "unknown node id");
  return nodes_[node.value()]->alive.load(std::memory_order_acquire);
}

std::uint32_t ThreadCluster::recovery_epoch_of(NodeId node) {
  NodeRuntime& rt = runtime_of(node);
  HLOCK_REQUIRE(recovery_.enabled, "recovery is not enabled on this cluster");
  MutexLock guard(rt.shards[0]->mutex);
  return rt.manager->current_epoch();
}

recovery::RecoveryCounters ThreadCluster::recovery_counters(NodeId node) {
  NodeRuntime& rt = runtime_of(node);
  HLOCK_REQUIRE(recovery_.enabled, "recovery is not enabled on this cluster");
  MutexLock guard(rt.shards[0]->mutex);
  return rt.manager->counters();
}

std::uint64_t ThreadCluster::stale_drops(NodeId node) {
  NodeRuntime& rt = runtime_of(node);
  HLOCK_REQUIRE(recovery_.enabled, "recovery is not enabled on this cluster");
  MutexLock guard(rt.shards[0]->mutex);
  return rt.stale_drops;
}

void ThreadCluster::apply(NodeRuntime& rt, Shard& shard, LockId lock,
                          Effects&& effects) {
  // One Lamport tick per automaton step; every event of the step shares it,
  // every send ticks further (obs/lamport.hpp).
  const std::uint64_t step_time = rt.clock.tick();
  // Events are sunk before the step's messages go out so the sink's global
  // order respects causality (see set_event_sink). The sink slot is only
  // readable under event_mutex_ — checking it unguarded raced with
  // set_event_sink().
  if (!effects.events.empty()) {
    const auto elapsed = std::chrono::steady_clock::now() - started_;
    const SimTime at = SimTime::ns(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
    MutexLock sink_guard(event_mutex_);
    if (event_sink_) {
      for (trace::TraceEvent& event : effects.events) {
        event.at = at;
        event.lamport = step_time;
        event_sink_(std::move(event));
      }
    }
  }
  if (!effects.messages.empty()) {
    for (proto::Message& message : effects.messages) {
      message.lamport = rt.clock.tick();
    }
    // One transport call for the whole step: the transport coalesces
    // same-destination runs into batch frames (when batching is on) and
    // falls back to per-message sends otherwise.
    transport_->send_batch(std::move(effects.messages));
  }
  bool notify = false;
  if (effects.entered_cs) {
    shard.granted.insert(lock);
    notify = true;
  }
  if (effects.upgraded) {
    shard.upgraded.insert(lock);
    notify = true;
  }
  if (notify) shard.cv.notify_all();
  // Refresh the shard's depth gauges after every step, under the shard
  // mutex we already hold — value gauges rather than snapshot callbacks to
  // keep the registry mutex out of the shard-lock order (see Shard).
  if (shard.queue_depth != nullptr) {
    shard.queue_depth->set(
        static_cast<double>(shard.engine->queued_requests()));
    shard.tokens_held->set(static_cast<double>(shard.engine->tokens_held()));
  }
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
  // Halted nodes (suspicion raised, fences pending) block application
  // progress until recovery completes; a crash or teardown while waiting
  // returns spuriously, same as the destructor contract.
  wait_unhalted(rt, shard);
  if (stopping_ || !rt.alive.load(std::memory_order_acquire)) {
    if (watchdog_ != nullptr) watchdog_->end(stall_key);
    return;
  }
  Effects effects = shard.engine->request(lock, mode, priority);
  apply(rt, shard, lock, std::move(effects));
  ++shard.waiters;
  while (!stopping_ && rt.alive.load(std::memory_order_acquire) &&
         shard.granted.count(lock) == 0) {
    shard.cv.wait(shard.mutex);
  }
  shard.granted.erase(lock);
  --shard.waiters;
  shard.cv.notify_all();  // a tearing-down destructor may drain waiters
  if (watchdog_ != nullptr) watchdog_->end(stall_key);
}

void ThreadCluster::unlock(NodeId node, LockId lock) {
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = shard_of(rt, lock);
  MutexLock guard(shard.mutex);
  HLOCK_REQUIRE(rt.alive.load(std::memory_order_acquire),
                "node has crash-stopped");
  wait_unhalted(rt, shard);
  if (stopping_ || !rt.alive.load(std::memory_order_acquire)) return;
  Effects effects = shard.engine->release(lock);
  apply(rt, shard, lock, std::move(effects));
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
  wait_unhalted(rt, shard);
  if (stopping_ || !rt.alive.load(std::memory_order_acquire)) {
    if (watchdog_ != nullptr) watchdog_->end(stall_key);
    return;
  }
  Effects effects = shard.engine->upgrade(lock);
  apply(rt, shard, lock, std::move(effects));
  ++shard.waiters;
  while (!stopping_ && rt.alive.load(std::memory_order_acquire) &&
         shard.upgraded.count(lock) == 0) {
    shard.cv.wait(shard.mutex);
  }
  shard.upgraded.erase(lock);
  --shard.waiters;
  shard.cv.notify_all();  // a tearing-down destructor may drain waiters
  if (watchdog_ != nullptr) watchdog_->end(stall_key);
}

bool ThreadCluster::holds(NodeId node, LockId lock) {
  NodeRuntime& rt = runtime_of(node);
  Shard& shard = shard_of(rt, lock);
  MutexLock guard(shard.mutex);
  return shard.engine->holds(lock);
}

}  // namespace hlock::runtime
