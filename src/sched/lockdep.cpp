#include "sched/lockdep.hpp"

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <sstream>

#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define HLOCK_SCHED_HAVE_BACKTRACE 1
#endif

namespace hlock::sched {

namespace {

/// Captures and symbolizes the current call stack (best effort; empty
/// where the platform offers no backtrace). Only runs when an edge is
/// recorded for the first time, never on the per-acquire fast path.
std::string capture_stack() {
#ifdef HLOCK_SCHED_HAVE_BACKTRACE
  void* frames[32];
  const int depth = backtrace(frames, 32);
  char** symbols = backtrace_symbols(frames, depth);
  if (symbols == nullptr) return {};
  std::ostringstream out;
  // Skip the capture machinery itself (this function + the hook).
  for (int i = 2; i < depth; ++i) out << "    " << symbols[i] << "\n";
  std::free(symbols);
  return out.str();
#else
  return {};
#endif
}

/// "file.cpp:123" (basename only) or the explicit name.
std::string display_name(const SyncId& id) {
  if (id.name != nullptr) return id.name;
  std::string file = id.file;
  const std::size_t slash = file.find_last_of('/');
  if (slash != std::string::npos) file.erase(0, slash + 1);
  return file + ":" + std::to_string(id.line);
}

}  // namespace

struct Lockdep::ClassInfo {
  std::string name;
  std::vector<std::size_t> out;  ///< adjacency: classes acquired after this
};

struct Lockdep::Edge {
  std::string stack;     ///< acquisition stack of the first occurrence
  bool reported = false; ///< a cycle through this edge was already reported
};

namespace {

/// One lock currently held by a thread, tagged with the recorder that saw
/// the acquire (a thread can outlive or predate any given Lockdep).
struct HeldLock {
  const Lockdep* owner;
  const void* object;
  std::size_t cls;
};

thread_local std::vector<HeldLock> t_held;

}  // namespace

std::string LockdepReport::render() const {
  std::ostringstream out;
  out << "lockdep: POTENTIAL DEADLOCK (lock-order inversion)\n  cycle: ";
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (i != 0) out << " -> ";
    out << cycle[i];
  }
  out << "\n  order recorded earlier at:\n"
      << (forward_stack.empty() ? "    (no backtrace available)\n"
                                : forward_stack)
      << "  inverse order at:\n"
      << (inverse_stack.empty() ? "    (no backtrace available)\n"
                                : inverse_stack);
  return out.str();
}

Lockdep::Lockdep(std::function<void(const LockdepReport&)> on_report)
    : on_report_(std::move(on_report)) {
  if (!on_report_) {
    on_report_ = [](const LockdepReport& report) {
      std::fprintf(stderr, "%s", report.render().c_str());
    };
  }
}

Lockdep::~Lockdep() = default;

std::size_t Lockdep::class_of(const SyncId& id) {
  const auto site_key = id.name != nullptr
                            ? std::make_pair(
                                  static_cast<const void*>(id.name), 0u)
                            : std::make_pair(
                                  static_cast<const void*>(id.file), id.line);
  if (const auto hit = site_index_.find(site_key);
      hit != site_index_.end()) {
    return hit->second;
  }
  std::string key = id.name != nullptr
                        ? std::string("n:") + id.name
                        : std::string(id.file) + ":" +
                              std::to_string(id.line);
  const auto [it, inserted] = class_index_.try_emplace(
      std::move(key), classes_.size());
  if (inserted) classes_.push_back(ClassInfo{display_name(id), {}});
  site_index_.emplace(site_key, it->second);
  return it->second;
}

bool Lockdep::reaches(std::size_t to, std::size_t from) const {
  if (to == from) return true;
  std::vector<bool> seen(classes_.size(), false);
  std::deque<std::size_t> frontier{to};
  seen[to] = true;
  while (!frontier.empty()) {
    const std::size_t at = frontier.front();
    frontier.pop_front();
    for (const std::size_t next : classes_[at].out) {
      if (next == from) return true;
      if (!seen[next]) {
        seen[next] = true;
        frontier.push_back(next);
      }
    }
  }
  return false;
}

void Lockdep::acquiring(const SyncId& id) {
  // Snapshot this thread's held locks (ours only) before taking mu_ so the
  // graph mutex is never held while touching thread-local state.
  std::vector<std::pair<const void*, std::size_t>> held;
  for (const HeldLock& h : t_held) {
    if (h.owner == this) held.emplace_back(h.object, h.cls);
  }
  if (held.empty()) return;

  std::lock_guard<std::mutex> guard(mu_);
  const std::size_t cls = class_of(id);
  for (const auto& [object, from] : held) {
    if (object == id.object) continue;  // relocking the same instance: UB
                                        // elsewhere, not an ordering fact
    const auto edge_key = std::make_pair(from, cls);
    auto it = edges_.find(edge_key);
    const bool is_new = it == edges_.end();
    if (is_new) {
      // Cycle check BEFORE inserting: does the new from -> cls edge close
      // a loop, i.e. does cls already reach from?
      const bool cycle = reaches(cls, from);
      it = edges_.emplace(edge_key, Edge{capture_stack(), false}).first;
      classes_[from].out.push_back(cls);
      if (cycle && !it->second.reported) {
        it->second.reported = true;
        ++violations_;
        LockdepReport report;
        report.cycle = {classes_[from].name, classes_[cls].name,
                        classes_[from].name};
        // The earlier, opposite-order edge. For a 2-cycle it is (cls,
        // from) directly; for longer cycles the first hop out of cls that
        // reaches from still carries the representative stack.
        const auto reverse = edges_.find(std::make_pair(cls, from));
        if (reverse != edges_.end()) {
          report.forward_stack = reverse->second.stack;
        } else {
          for (const std::size_t next : classes_[cls].out) {
            const auto hop = edges_.find(std::make_pair(cls, next));
            if (hop != edges_.end() && reaches(next, from)) {
              report.cycle = {classes_[from].name, classes_[cls].name,
                              classes_[next].name, "...",
                              classes_[from].name};
              report.forward_stack = hop->second.stack;
              break;
            }
          }
        }
        report.inverse_stack = it->second.stack;
        if (reports_.size() < 32) reports_.push_back(report);
        on_report_(report);
      }
    }
  }
}

void Lockdep::acquired(const SyncId& id) {
  std::size_t cls;
  {
    std::lock_guard<std::mutex> guard(mu_);
    cls = class_of(id);
  }
  t_held.push_back(HeldLock{this, id.object, cls});
}

void Lockdep::released(const SyncId& id) {
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->owner == this && it->object == id.object) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
}

std::size_t Lockdep::violation_count() const {
  std::lock_guard<std::mutex> guard(mu_);
  return violations_;
}

std::vector<LockdepReport> Lockdep::reports() const {
  std::lock_guard<std::mutex> guard(mu_);
  return reports_;
}

void Lockdep::reset() {
  std::lock_guard<std::mutex> guard(mu_);
  for (ClassInfo& cls : classes_) cls.out.clear();
  edges_.clear();
  reports_.clear();
  violations_ = 0;
}

Lockdep* install_global_lockdep() {
  // Deliberately leaked: threads may hit sync hooks during static
  // destruction, after any destructor order we could arrange.
  static Lockdep* const instance = new Lockdep();  // NOLINT
  SyncObserver* expected = nullptr;
  if (g_sync_observer.compare_exchange_strong(expected, instance,
                                              std::memory_order_acq_rel)) {
    return instance;
  }
  return expected == instance ? instance : nullptr;
}

}  // namespace hlock::sched
