#include "runtime/node_core.hpp"

#include <utility>

namespace hlock::runtime {

NodeCore::NodeCore(NodeId self, std::size_t node_count,
                   std::unique_ptr<LockEngine> engine,
                   const recovery::Options& recovery,
                   obs::AtomicLamportClock& clock, NodePort& port)
    : engine_(std::move(engine)), clock_(clock), port_(port) {
  if (recovery.enabled) {
    manager_ = std::make_unique<recovery::Manager>(self, node_count, recovery,
                                                   engine_.get());
  }
}

void NodeCore::request(LockId lock, LockMode mode, std::uint8_t priority) {
  if (halted()) {
    ops_.push_back({Op::Kind::kRequest, lock, mode, priority});
    return;
  }
  apply(lock, engine_->request(lock, mode, priority));
}

void NodeCore::release(LockId lock) {
  if (halted()) {
    ops_.push_back({Op::Kind::kRelease, lock});
    return;
  }
  apply(lock, engine_->release(lock));
}

void NodeCore::upgrade(LockId lock) {
  if (halted()) {
    ops_.push_back({Op::Kind::kUpgrade, lock});
    return;
  }
  apply(lock, engine_->upgrade(lock));
}

void NodeCore::deliver(const proto::Message& message) {
  clock_.observe(message.lamport);
  if (manager_ != nullptr) {
    // Any delivery is liveness evidence: messages a node sent before its
    // crash still refresh its detector entry, as over a real network.
    manager_->note_alive(message.from, port_.now());
    const recovery::Route route = manager_->route(message);
    if (route == recovery::Route::kManager) {
      apply(manager_->on_message(message, port_.now()));
      return;
    }
    if (route != recovery::Route::kEngine) {
      backlog_.hold(route, message);
      return;
    }
  }
  Effects effects = engine_->deliver(message);
  if (effects.stale_drop) ++stale_drops_;
  apply(message.lock, std::move(effects));
}

void NodeCore::tick() { apply(manager_->on_tick(port_.now())); }

void NodeCore::crash() {
  backlog_.clear();
  ops_.clear();
}

void NodeCore::publish(std::vector<trace::TraceEvent>&& events,
                       std::vector<proto::Message>&& messages) {
  // One Lamport tick per step; every event of the step shares it, every
  // send ticks further (obs/lamport.hpp).
  const std::uint64_t step_time = clock_.tick();
  if (!events.empty()) {
    const SimTime at = port_.now();
    for (trace::TraceEvent& event : events) {
      event.at = at;
      event.lamport = step_time;
    }
    port_.sink(std::move(events));
  }
  if (!messages.empty()) {
    for (proto::Message& message : messages) message.lamport = clock_.tick();
    port_.send(std::move(messages));
  }
}

void NodeCore::apply(LockId lock, Effects&& effects) {
  publish(std::move(effects.events), std::move(effects.messages));
  if (effects.entered_cs || effects.upgraded) {
    port_.granted(lock, effects.upgraded);
  }
}

void NodeCore::apply(recovery::Outcome&& outcome) {
  publish(std::move(outcome.events), std::move(outcome.messages));
  for (auto& [lock, effects] : outcome.fence_effects) {
    apply(lock, std::move(effects));
  }
  if (!outcome.unhalted) return;
  // Everything goes back through the normal paths, so a message can be
  // held again (or an operation re-buffered) if another campaign began.
  std::vector<proto::Message> held = backlog_.take();
  std::vector<Op> ops = std::move(ops_);
  ops_.clear();
  for (const proto::Message& message : held) deliver(message);
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::Kind::kRequest:
        request(op.lock, op.mode, op.priority);
        break;
      case Op::Kind::kRelease:
        release(op.lock);
        break;
      case Op::Kind::kUpgrade:
        upgrade(op.lock);
        break;
    }
  }
}

}  // namespace hlock::runtime
