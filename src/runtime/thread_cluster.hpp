// A cluster of protocol nodes on real threads with a blocking client API.
//
// Each node owns a receiver thread that drains its transport mailbox and
// feeds the protocol engine; application threads call lock()/unlock()/
// upgrade() and block until the grant arrives. Per-node protocol state is
// sharded by lock id: each shard owns its own NodeCore (and therefore its
// own engine with a lazily-created per-lock automaton map) behind its own
// mutex, so operations on different locks — the airline workload's table
// lock vs its entry locks — proceed concurrently instead of serializing on
// one node mutex. Within a shard the automatons' single-threaded contract
// holds exactly as before, and a given lock maps to the same shard index on
// every node, so a lock's entire causal chain stays on one shard per node.
//
// The receiver drains every deliverable message in one transport call
// (recv_ready) and dispatches consecutive same-shard runs under a single
// shard lock acquisition; each step's outgoing messages leave through one
// Transport::send_batch call. Over an InProcTransport — a fault plan's
// wire in front of it or not — a node's first lock()/upgrade() call
// blocked on its grant enlists as the inbox's caller: with its shard lock
// dropped it applies its node's messages on its own thread, its own grant
// included, so a push wakes the waiting call instead of the receiver —
// or, since the call spins on its inbox before it parks, reaches it
// without a wake-up. The mailbox's drain claim keeps one thread at a time
// applying a node's messages, in push order, and only the node's own
// receiver or its own blocked call applies them. See docs/performance.md.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/hier_config.hpp"
#include "obs/lamport.hpp"
#include "recovery/manager.hpp"
#include "runtime/engine.hpp"
#include "runtime/node_core.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/watchdog.hpp"
#include "trace/event.hpp"
#include "transport/faulty_transport.hpp"
#include "transport/inproc_transport.hpp"
#include "transport/tcp_transport.hpp"
#include "util/sync.hpp"

namespace hlock::runtime {

/// Which transport carries the cluster's messages.
enum class TransportKind {
  kInProc,  ///< in-process mailboxes (fast; immediate delivery)
  kTcp,     ///< real TCP sockets over loopback (paper's Linux testbed)
};

/// Construction parameters of a threaded cluster.
struct ThreadClusterOptions {
  std::size_t node_count = 2;
  Protocol protocol = Protocol::kHierarchical;
  core::HierConfig hier_config = {};
  TransportKind transport = TransportKind::kInProc;
  std::uint64_t seed = 1;
  /// Fault-injection plan; when it injects anything the chosen transport is
  /// wrapped in a transport::FaultyTransport, whose wire delays messages but
  /// keeps every channel FIFO, so the cluster still makes progress (see
  /// docs/faults.md). A zero plan seed inherits the cluster seed.
  transport::FaultPlan faults;
  /// When set, the cluster instruments itself into this registry: the
  /// shards count every engine step (requests, grants, messages by kind,
  /// wait and hold times), per-shard queue-depth / tokens-held gauges and
  /// per-node mailbox-depth and receive-batch series appear, and the
  /// transport counters are exported as callback series (docs/telemetry.md
  /// lists the catalog). The registry must outlive the cluster. nullptr =
  /// zero telemetry overhead beyond a pointer test per operation.
  telemetry::Registry* metrics = nullptr;
  /// When set, every blocking lock()/upgrade() call brackets its wait with
  /// the stall watchdog, so requests waiting far beyond the observed p99
  /// are flagged. Must outlive the cluster; independent of `metrics` (the
  /// watchdog carries its own registry reference).
  telemetry::StallWatchdog* watchdog = nullptr;
  /// Crash-recovery configuration (docs/recovery.md). When enabled, every
  /// node runs a recovery::Manager driven by a cluster ticker thread,
  /// crash_stop() becomes available, and (with `metrics` set) the
  /// hlock_epoch / hlock_recovery_ms / hlock_stale_drops_total series
  /// export. Each node then runs one engine shard — the manager reports
  /// over the node's whole lock space, which must live in one engine.
  /// Not supported for the Raymond baseline.
  recovery::Options recovery;
};

/// Engine shards per node (lock ids route to shard `lock % shards`);
/// a cluster with recovery enabled runs one.
inline constexpr std::size_t kDefaultEngineShards = 8;

/// See file comment.
class ThreadCluster {
 public:
  /// Every lock's token starts at node 0.
  static constexpr NodeId kInitialRoot{0};
  explicit ThreadCluster(const ThreadClusterOptions& options);

  /// Shuts down and joins all receiver threads. Outstanding blocked client
  /// calls are woken with an exception-free spurious return, and the
  /// destructor waits until every such call has left its wait before
  /// tearing the node state down.
  ~ThreadCluster();

  /// Acquires `lock` in `mode` on behalf of `node`; blocks until granted.
  /// Higher `priority` requests overtake queued lower-priority waiters
  /// (never current holders). While the node is halted for a crash
  /// recovery, application calls are queued and issued when it unhalts
  /// (docs/recovery.md); lock() and upgrade() still block until granted.
  void lock(NodeId node, LockId lock, LockMode mode,
            std::uint8_t priority = 0);

  /// Releases `lock` held by `node` (while the node is halted: returns
  /// once the release is queued).
  void unlock(NodeId node, LockId lock);

  /// Upgrades `node`'s U hold on `lock` to W; blocks until complete
  /// (hierarchical protocol only).
  void upgrade(NodeId node, LockId lock);

  /// True if `node` currently holds `lock`.
  bool holds(NodeId node, LockId lock);

  /// Total protocol messages sent so far.
  std::uint64_t messages_sent() const { return transport_->messages_sent(); }

  /// Total encoded wire bytes shipped so far.
  std::uint64_t bytes_sent() const { return transport_->bytes_sent(); }

  std::size_t node_count() const { return nodes_.size(); }

  /// Engine shards per node this cluster runs with.
  std::size_t engine_shards() const { return shard_count_; }

  /// Fault counters of the faulty transport (nullptr without one).
  const stats::FaultCounters* fault_counters() const {
    return faulty_ == nullptr ? nullptr : &faulty_->counters();
  }

  /// Retry, reconnect and bad-frame counters of the TCP transport, fault
  /// plan or not (nullptr unless TCP carries the cluster).
  const stats::TcpCounters* tcp_counters() const {
    return tcp_ == nullptr ? nullptr : &tcp_->counters();
  }

  /// Exceptions caught (and survived) on receiver threads and the recovery
  /// ticker so far.
  std::uint64_t receiver_errors() const {
    return receiver_errors_.load(std::memory_order_relaxed);
  }

  /// Receives every structured protocol event (hier config must enable
  /// trace_events), stamped with wall time since cluster start. Calls are
  /// serialized by an internal mutex, and each step's events are sunk
  /// BEFORE its messages are transmitted, so the sink observes a causally
  /// consistent global order (an exit-cs always precedes the enter-cs it
  /// enables). It runs on whichever thread takes the step: the node's own
  /// receiver, an application thread inside lock()/upgrade()/unlock() on
  /// that node — a blocked call applies its node's messages — or, with
  /// recovery enabled, the cluster's ticker. May be (re)set while
  /// operations are in flight; the sink must not call back into the
  /// cluster.
  using EventSink = std::function<void(trace::TraceEvent event)>;
  void set_event_sink(EventSink sink) HLOCK_EXCLUDES(event_mutex_);

  // ---- Crash-stop failure injection (docs/recovery.md; requires the
  //      recovery option to be enabled) ----

  /// Crash-stops `node`: its receiver thread exits on its next wake-up,
  /// pending and future messages to it are discarded unread, its manager
  /// stops ticking, and application calls on it throw UsageError. The
  /// survivors detect the silence and run an epoch-fenced recovery.
  void crash_stop(NodeId node);

  /// False once crash_stop(node) has been called.
  bool alive(NodeId node) const;

  /// Snapshot of `node`'s recovery state (taken under its shard mutex).
  std::uint32_t recovery_epoch_of(NodeId node);
  recovery::RecoveryCounters recovery_counters(NodeId node);
  /// Protocol messages `node` dropped for carrying a pre-fence epoch.
  std::uint64_t stale_drops(NodeId node);

 private:
  using Clock = std::chrono::steady_clock;

  /// One node's engine series (hlock_engine_*, hlock_messages_sent_total,
  /// hlock_wait_ms, hlock_hold_ms; docs/telemetry.md), shared by its
  /// shards. Every protocol step crosses a shard's NodePort, so the shards
  /// count all three engines alike.
  struct EngineSeries {
    EngineSeries(telemetry::Registry& registry, Protocol protocol,
                 NodeId node);

    std::array<telemetry::Counter*, proto::kModeCount> requests{};
    std::array<telemetry::Counter*, proto::kModeCount> grants{};
    std::array<telemetry::Counter*, proto::kMessageKindCount> sent{};
    telemetry::Counter* releases = nullptr;
    telemetry::Counter* upgrades = nullptr;
    telemetry::Counter* forwards = nullptr;
    telemetry::Counter* freezes = nullptr;
    telemetry::Histogram* wait_ms = nullptr;
    telemetry::Histogram* hold_ms = nullptr;
  };

  /// One lock-id shard of a node: its own NodeCore (engine, per-lock
  /// automaton map and — on a node's single shard under recovery — the
  /// recovery state), grant bookkeeping and mutex, preserving the
  /// automatons' single-threaded contract per shard while shards run
  /// concurrently. The shard is its core's NodePort.
  struct Shard final : NodePort {
    Shard(ThreadCluster& owner, NodeId self,
          std::unique_ptr<LockEngine> engine, obs::AtomicLamportClock& clock,
          const ThreadClusterOptions& options);

    SimTime now() override;
    /// Counts the step's messages into the engine series, then hands the
    /// whole step to Transport::send_batch, which sends each message on its
    /// own. Runs under the shard mutex; a TCP send may wait for socket
    /// room, but while it waits it drains its own node's sockets, so the
    /// peer it waits on always makes progress and holding the shard mutex
    /// cannot deadlock (docs/transports.md §3).
    void send(std::vector<proto::Message>&& messages) override
        HLOCK_REQUIRES(mutex);
    /// Sinks before the step's messages go out (NodeCore's order), so the
    /// sink's global order respects causality (see set_event_sink).
    void sink(std::vector<trace::TraceEvent>&& events) override
        HLOCK_EXCLUDES(cluster.event_mutex_);
    /// Wakes the blocked client call — on the condvar, or by a signal when
    /// it is the node's inbox waiter — and counts the grant (closing its
    /// wait) or the upgrade.
    void granted(LockId lock, bool upgraded) override HLOCK_REQUIRES(mutex);
    /// Refreshes the shard's telemetry after core calls: the depth gauges,
    /// and the recovery series when this shard carries them. Value gauges
    /// set under the shard mutex, not snapshot callbacks: a callback would
    /// acquire shard mutexes under the registry mutex, the reverse of the
    /// order send() takes them in when it registers a lock's token gauge
    /// — a lock-order cycle.
    void publish_telemetry() HLOCK_REQUIRES(mutex);

    ThreadCluster& cluster;
    const NodeId node;
    Mutex mutex;
    CondVar cv;
    NodeCore core HLOCK_GUARDED_BY(mutex);
    /// Locks whose grant / upgrade-completion arrived but has not been
    /// consumed by the blocked client call yet.
    std::unordered_set<LockId> grants HLOCK_GUARDED_BY(mutex);
    std::unordered_set<LockId> upgrades HLOCK_GUARDED_BY(mutex);
    /// Client calls currently blocked, on `cv` or on the node's inbox; the
    /// destructor waits for this to reach zero so a woken call never
    /// touches freed node state.
    int waiters HLOCK_GUARDED_BY(mutex) = 0;
    /// The lock the node's inbox waiter awaits, when that call is on this
    /// shard: its grant ends the waiter's inbox wait by a signal.
    std::optional<LockId> inbox_waiter HLOCK_GUARDED_BY(mutex);

    // Telemetry series (nullptr without a registry; the recovery ones also
    // without recovery), set before any thread runs and never changed.
    const EngineSeries* series = nullptr;
    telemetry::Gauge* queue_depth = nullptr;
    telemetry::Gauge* tokens_held = nullptr;
    telemetry::Gauge* epoch_gauge = nullptr;
    telemetry::Counter* suspicions = nullptr;
    telemetry::Counter* fences = nullptr;
    telemetry::Counter* recoveries = nullptr;
    telemetry::Counter* stale_drops_metric = nullptr;
    telemetry::Histogram* recovery_ms = nullptr;
    /// Cumulative values already published to the recovery series (the
    /// manager's counters only grow).
    recovery::RecoveryCounters published HLOCK_GUARDED_BY(mutex);
    std::size_t published_samples HLOCK_GUARDED_BY(mutex) = 0;
    std::uint64_t published_stale HLOCK_GUARDED_BY(mutex) = 0;
    /// Open waits and holds by lock, for hlock_wait_ms and hlock_hold_ms.
    struct Wait {
      LockMode mode = LockMode::kNL;
      Clock::time_point since;
    };
    std::unordered_map<LockId, Wait> waits HLOCK_GUARDED_BY(mutex);
    std::unordered_map<LockId, Clock::time_point> held_since
        HLOCK_GUARDED_BY(mutex);
    /// hlock_token_location per lock, registered on its first token send.
    std::unordered_map<LockId, telemetry::Gauge*> token_gauges
        HLOCK_GUARDED_BY(mutex);
  };

  struct NodeRuntime {
    /// The node's Lamport clock: ticked per step/send, merged per delivery,
    /// stamped onto every event and message (obs/lamport.hpp). Shared by
    /// every shard's core, hence the lock-free clock.
    obs::AtomicLamportClock clock;
    std::vector<std::unique_ptr<Shard>> shards;
    /// sched::Thread (not std::thread) so the schedule explorer can
    /// control receiver interleavings (docs/sched.md); identical to
    /// std::thread when no observer is installed.
    sched::Thread receiver;
    /// Receive-batch-size histogram (nullptr without a registry); set
    /// before the receiver threads start, recorded for every batch applied
    /// at the node, by its own receiver or its inbox waiter.
    telemetry::Histogram* recv_batch = nullptr;
    /// The shards' engine series (null without a registry).
    std::unique_ptr<const EngineSeries> series;
    /// False after crash_stop(); read by receiver, ticker and clients.
    std::atomic<bool> alive{true};
  };

  void receiver_loop(NodeId node);
  /// Applies one batch of `node`'s messages, each same-shard run under one
  /// shard lock acquisition. Returns false, the rest of the batch
  /// discarded unread, once the node has crash-stopped. Takes shard locks
  /// of `node` only, one at a time: the caller holds none. Runs on
  /// receivers and on a node's inbox waiter.
  bool dispatch(NodeRuntime& rt, NodeId node,
                const std::vector<proto::Message>& batch);
  /// Registers the transport-level callback series (message/byte totals,
  /// fault/retry counters, per-node mailbox depths) into metrics_.
  void register_transport_metrics(std::size_t node_count);
  /// Wall-clock time since cluster start as a SimTime (the recovery
  /// manager's clock domain in this runtime).
  SimTime wall_now() const;
  /// Drives every live node's failure detector roughly each heartbeat
  /// interval; exits when the destructor raises stopping_.
  void ticker_loop();
  /// Blocks a client call until `lock` shows up in `done` (consuming it),
  /// the node crash-stops or the cluster tears down.
  void await(NodeRuntime& rt, Shard& shard, std::unordered_set<LockId>& done,
             LockId lock) HLOCK_REQUIRES(shard.mutex);
  /// One wait of a blocked call as its node's inbox waiter: enlists with
  /// the shard lock held, drops it, applies the node's messages until a
  /// signal (its grant, a crash-stop) or teardown ends the wait, then
  /// re-takes the shard lock. False, without waiting, over TCP or when the
  /// node has an inbox waiter already.
  bool drain_own_inbox(NodeRuntime& rt, Shard& shard, LockId lock)
      HLOCK_REQUIRES(shard.mutex);
  /// The node's single shard, which carries its recovery state.
  /// Precondition: recovery is enabled.
  Shard& recovery_shard(NodeId node);
  NodeRuntime& runtime_of(NodeId node);
  Shard& shard_of(NodeRuntime& rt, LockId lock) {
    return *rt.shards[lock.value() % shard_count_];
  }

  std::unique_ptr<transport::Transport> transport_;
  /// Serializes event_sink_ calls across nodes and guards the sink slot
  /// itself, so installing a sink is safe while receivers run.
  Mutex event_mutex_;
  EventSink event_sink_ HLOCK_GUARDED_BY(event_mutex_);
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  /// Non-owning view of transport_ when the options wrapped it in faults.
  transport::FaultyTransport* faulty_ = nullptr;
  /// Non-owning view of the in-process transport when it carries the
  /// cluster, possibly underneath the faulty wrapper — the inbox waiters'
  /// path (null over TCP). A fault plan's pump pushes into the same
  /// mailboxes, and a push wakes the enlisted call as a direct send does.
  transport::InProcTransport* inproc_ = nullptr;
  /// Non-owning view of the TCP transport when one carries the cluster
  /// (possibly underneath the faulty wrapper) — its counters export.
  transport::TcpTransport* tcp_ = nullptr;
  /// Telemetry hooks from the options (nullptr = uninstrumented).
  telemetry::Registry* metrics_ = nullptr;
  telemetry::StallWatchdog* watchdog_ = nullptr;
  const std::size_t shard_count_;
  /// Recovery configuration; recovery_.enabled gates every recovery path.
  recovery::Options recovery_;
  /// Heartbeat ticker (joinable only when recovery is enabled); its cv
  /// exists so the destructor can cut a sleep short.
  sched::Thread ticker_;
  Mutex ticker_mutex_;
  CondVar ticker_cv_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  /// Read by client threads in cv predicates under shard mutexes while
  /// the destructor writes it: atomic, not mutex-protected.
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> receiver_errors_{0};
};

}  // namespace hlock::runtime
