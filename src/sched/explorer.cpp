#include "sched/explorer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>

namespace hlock::sched {

namespace {

/// "file.cpp:123" (basename) or the explicit name — mirrors lockdep's
/// display convention.
std::string display(const SyncId& id) {
  if (id.name != nullptr) return id.name;
  std::string file = id.file;
  const std::size_t slash = file.find_last_of('/');
  if (slash != std::string::npos) file.erase(0, slash + 1);
  return file + ":" + std::to_string(id.line);
}

/// Keep at most this many trace lines in memory; the fingerprint covers
/// the full schedule regardless.
constexpr std::size_t kTraceKeep = 4096;

/// With no thread ready and no blocking region pending, a schedule whose
/// earliest timed wait ends further away than this is declared stalled
/// instead of being waited out in real time: the decision budget counts
/// scheduling decisions, which a parked schedule does not spend, so a
/// lost wake-up behind a periodic timer would otherwise hang the seed. It
/// must exceed every deadline a scenario waits out on purpose (the longest
/// today is a 250 ms pop deadline, in MailboxPopUntilRacesPushAndClose),
/// and stay below the 60 s heartbeats the recovery scenarios set, so that
/// only a lost wake-up leaves them idle.
constexpr std::chrono::seconds kStallHorizon{10};

}  // namespace

struct Explorer::ThreadRec {
  enum class State {
    kReady,      ///< runnable, waiting for the processor
    kRunning,    ///< the single granted thread
    kMutexWait,  ///< try_lock failed; parked until the owner releases
    kCvWait,     ///< parked in a condvar wait (timed when `timed`)
    kJoinWait,   ///< parked in sched::Thread::join until the target finishes
    kExternal,   ///< inside a BlockingRegion; runs outside the schedule
    kFinished,
  };

  Explorer* owner = nullptr;
  int id = 0;
  std::string name;
  State state = State::kReady;
  std::uint64_t priority = 0;
  const void* wait_obj = nullptr;
  bool timed = false;
  std::chrono::steady_clock::time_point deadline{};
  bool woke_by_timeout = false;
  int external_depth = 0;
  std::string op_label = "start";
  std::vector<SyncId> held;
};

namespace {

/// The calling thread's registration. Owner-checked in self(): a pointer
/// left over from a completed exploration never aliases into a new one.
thread_local Explorer::ThreadRec* t_rec = nullptr;

const char* state_name(Explorer::ThreadRec::State state) {
  using State = Explorer::ThreadRec::State;
  switch (state) {
    case State::kReady: return "ready";
    case State::kRunning: return "running";
    case State::kMutexWait: return "blocked-on-mutex";
    case State::kCvWait: return "waiting-on-condvar";
    case State::kJoinWait: return "waiting-on-join";
    case State::kExternal: return "external";
    case State::kFinished: return "finished";
  }
  return "?";
}

void erase_held(std::vector<SyncId>& held, const void* object) {
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->object == object) {
      held.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace

Explorer::Explorer(const ExplorerOptions& options)
    : options_(options), rng_(options.seed) {
  next_change_ = options_.change_interval == 0
                     ? ~std::uint64_t{0}
                     : 1 + rng_.below(2ull * options_.change_interval);
  if (options_.lockdep) {
    lockdep_ = std::make_unique<Lockdep>([this](const LockdepReport& report) {
      std::fprintf(stderr, "[sched seed %llu] %s",
                   static_cast<unsigned long long>(options_.seed),
                   report.render().c_str());
    });
  }
}

Explorer::~Explorer() = default;

Explorer::ThreadRec* Explorer::self() const {
  ThreadRec* rec = t_rec;
  return rec != nullptr && rec->owner == this ? rec : nullptr;
}

void Explorer::record(const ThreadRec& rec) {
  std::ostringstream line;
  line << "#" << steps_ << " " << rec.name << " " << rec.op_label;
  std::string text = line.str();
  for (const char c : text) {
    fingerprint_ ^= static_cast<unsigned char>(c);
    fingerprint_ *= 0x100000001b3ull;
  }
  fingerprint_ ^= '\n';
  fingerprint_ *= 0x100000001b3ull;
  if (trace_.size() >= 2 * kTraceKeep) {
    trace_.erase(trace_.begin(),
                 trace_.begin() + static_cast<std::ptrdiff_t>(kTraceKeep));
    trace_dropped_ += kTraceKeep;
  }
  trace_.push_back(std::move(text));
}

void Explorer::declare_deadlock(std::unique_lock<std::mutex>& lk) {
  std::ostringstream header;
  header << "sched: DEADLOCK under seed " << options_.seed << " after "
         << steps_ << " scheduling decisions\n";
  // The schedule is wedged by construction — every participant is blocked
  // and no wake-up source exists. A process in that state cannot be
  // unwound (threads are parked inside locked destructors and waits); the
  // harness runs each seed in a subprocess and classifies this exit code.
  // See docs/sched.md.
  report_and_exit(lk, header.str(), kSchedDeadlockExit);
}

void Explorer::declare_stall(std::unique_lock<std::mutex>& lk,
                             std::chrono::steady_clock::duration idle) {
  std::ostringstream header;
  header << "sched: STALLED under seed " << options_.seed << " after "
         << steps_ << " scheduling decisions: no thread is ready, and the "
         << "earliest timed wait ends in "
         << std::chrono::duration_cast<std::chrono::milliseconds>(idle)
                .count()
         << " ms (a lost wake-up behind a timer?)\n";
  report_and_exit(lk, header.str(), kSchedBudgetExit);
}

void Explorer::report_and_exit(std::unique_lock<std::mutex>& lk,
                               const std::string& header, int status) {
  (void)lk;  // held by contract; the process ends here
  std::ostringstream out;
  out << header;
  for (const auto& t : threads_) {
    if (t->state == ThreadRec::State::kFinished) continue;
    out << "  thread " << t->name << ": " << state_name(t->state) << " ("
        << t->op_label << ")";
    if (!t->held.empty()) {
      out << ", holding";
      for (const SyncId& id : t->held) out << " " << display(id);
    }
    out << "\n";
  }
  const std::size_t tail = trace_.size() > 16 ? trace_.size() - 16 : 0;
  out << "  last scheduling decisions:\n";
  for (std::size_t i = tail; i < trace_.size(); ++i) {
    out << "    " << trace_[i] << "\n";
  }
  out << "  schedule fingerprint: " << fingerprint_ << "\n"
      << "  replay: --sched-seed " << options_.seed
      << " (HLOCK_SCHED_SEED=" << options_.seed << ")\n";
  report_ = out.str();
  std::fputs(report_.c_str(), stderr);
  std::fflush(stderr);
  std::fflush(stdout);
  std::_Exit(status);
}

void Explorer::grant_next(std::unique_lock<std::mutex>& lk) {
  auto pick = [this]() -> ThreadRec* {
    ThreadRec* best = nullptr;
    for (const auto& t : threads_) {
      if (t->state == ThreadRec::State::kReady &&
          (best == nullptr || t->priority > best->priority)) {
        best = t.get();
      }
    }
    return best;
  };
  ThreadRec* chosen = pick();
  if (chosen != nullptr) {
    ++steps_;
    if (steps_ >= options_.max_steps) {
      std::fprintf(stderr,
                   "sched: schedule exceeded %llu decisions under seed %llu "
                   "(livelock?); aborting\n",
                   static_cast<unsigned long long>(options_.max_steps),
                   static_cast<unsigned long long>(options_.seed));
      std::fflush(stderr);
      std::_Exit(kSchedBudgetExit);
    }
    if (steps_ >= next_change_) {
      // PCT priority-change point: demote the would-be winner below every
      // priority handed out so far, then re-pick.
      next_change_ = steps_ + 1 + rng_.below(2ull * options_.change_interval);
      chosen->priority = demote_floor_--;
      if (ThreadRec* other = pick(); other != nullptr) chosen = other;
    }
    current_ = chosen;
    chosen->state = ThreadRec::State::kRunning;
    record(*chosen);
    cv_.notify_all();
    return;
  }
  bool timed = false;
  bool external = false;
  bool blocked = false;
  auto earliest = std::chrono::steady_clock::time_point::max();
  for (const auto& t : threads_) {
    switch (t->state) {
      case ThreadRec::State::kExternal:
        external = true;
        break;
      case ThreadRec::State::kCvWait:
        (t->timed ? timed : blocked) = true;
        if (t->timed) earliest = std::min(earliest, t->deadline);
        break;
      case ThreadRec::State::kMutexWait:
      case ThreadRec::State::kJoinWait:
        blocked = true;
        break;
      default:
        break;
    }
  }
  current_ = nullptr;
  if (blocked && !timed && !external) {
    declare_deadlock(lk);  // does not return
  }
  if (timed && !external) {
    const auto idle = earliest - std::chrono::steady_clock::now();
    if (idle > kStallHorizon) declare_stall(lk, idle);  // does not return
  }
  // A timed wait fires on its real deadline, an external region returns on
  // its own; either triggers the next decision.
  cv_.notify_all();
}

void Explorer::park(std::unique_lock<std::mutex>& lk, ThreadRec* rec) {
  while (current_ != rec) {
    if (rec->state == ThreadRec::State::kCvWait && rec->timed) {
      if (cv_.wait_until(lk, rec->deadline) == std::cv_status::timeout &&
          rec->state == ThreadRec::State::kCvWait) {
        rec->woke_by_timeout = true;
        rec->state = ThreadRec::State::kReady;
        rec->op_label += " [deadline]";
        if (current_ == nullptr) grant_next(lk);
      }
    } else {
      cv_.wait(lk);
    }
  }
}

void Explorer::reschedule(std::unique_lock<std::mutex>& lk, ThreadRec* rec,
                          const char* op, const SyncId* obj) {
  rec->op_label =
      obj == nullptr ? std::string(op) : std::string(op) + " " + display(*obj);
  rec->state = ThreadRec::State::kReady;
  grant_next(lk);
  park(lk, rec);
}

void Explorer::run(const std::function<void()>& body) {
  ThreadRec* main_rec = nullptr;
  {
    std::unique_lock<std::mutex> lk(mu_);
    auto rec = std::make_unique<ThreadRec>();
    rec->owner = this;
    rec->id = static_cast<int>(threads_.size());
    rec->name = "main";
    rec->priority = rng_();
    rec->state = ThreadRec::State::kRunning;
    main_rec = rec.get();
    threads_.push_back(std::move(rec));
    current_ = main_rec;
  }
  t_rec = main_rec;
  SyncObserver* previous = exchange_sync_observer(this);
  try {
    body();
  } catch (...) {
    exchange_sync_observer(previous);
    t_rec = nullptr;
    throw;
  }
  exchange_sync_observer(previous);
  t_rec = nullptr;
  std::unique_lock<std::mutex> lk(mu_);
  main_rec->state = ThreadRec::State::kFinished;
  if (current_ == main_rec) {
    current_ = nullptr;
    grant_next(lk);
  }
}

std::string Explorer::report() const {
  std::lock_guard<std::mutex> lk(mu_);
  return report_;
}

std::vector<std::string> Explorer::schedule() const {
  std::lock_guard<std::mutex> lk(mu_);
  return trace_;
}

std::uint64_t Explorer::schedule_fingerprint() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fingerprint_;
}

std::uint64_t Explorer::steps() const {
  std::lock_guard<std::mutex> lk(mu_);
  return steps_;
}

// ---------------------------------------------------------------------------
// SyncObserver hooks
// ---------------------------------------------------------------------------

void Explorer::acquiring(const SyncId& id) {
  if (lockdep_) lockdep_->acquiring(id);
}

bool Explorer::acquire(const SyncId& id, std::mutex& mu) {
  ThreadRec* rec = self();
  if (rec == nullptr || rec->state != ThreadRec::State::kRunning) {
    return false;  // uncontrolled or external: real blocking lock
  }
  std::unique_lock<std::mutex> lk(mu_);
  reschedule(lk, rec, "acquire", &id);
  while (!mu.try_lock()) {
    // The holder is visible to the scheduler (its release hook wakes us),
    // so this thread parks instead of blocking opaquely — which is what
    // makes deadlocks detectable and schedules preemptible.
    rec->state = ThreadRec::State::kMutexWait;
    rec->wait_obj = id.object;
    rec->op_label = "blocked-on " + display(id);
    grant_next(lk);
    park(lk, rec);
  }
  rec->wait_obj = nullptr;
  return true;
}

bool Explorer::try_acquire(const SyncId& id, std::mutex& mu) {
  ThreadRec* rec = self();
  if (rec == nullptr || rec->state != ThreadRec::State::kRunning) {
    return mu.try_lock();
  }
  std::unique_lock<std::mutex> lk(mu_);
  reschedule(lk, rec, "try-acquire", &id);
  return mu.try_lock();
}

void Explorer::acquired(const SyncId& id) {
  if (lockdep_) lockdep_->acquired(id);
  ThreadRec* rec = self();
  std::lock_guard<std::mutex> lk(mu_);
  mutex_owner_[id.object] = rec;
  if (rec != nullptr) rec->held.push_back(id);
}

void Explorer::released(const SyncId& id) {
  if (lockdep_) lockdep_->released(id);
  ThreadRec* rec = self();
  std::unique_lock<std::mutex> lk(mu_);
  mutex_owner_.erase(id.object);
  if (rec != nullptr) erase_held(rec->held, id.object);
  bool woke = false;
  for (const auto& t : threads_) {
    if (t->state == ThreadRec::State::kMutexWait && t->wait_obj == id.object) {
      t->state = ThreadRec::State::kReady;
      t->op_label = "acquire-retry";
      woke = true;
    }
  }
  if (rec != nullptr && rec->state == ThreadRec::State::kRunning) {
    reschedule(lk, rec, "release", &id);  // a release is a schedule point
  } else if (woke && current_ == nullptr) {
    grant_next(lk);
  }
}

bool Explorer::wait(const SyncId& cv, const SyncId& mu_id, std::mutex& mu) {
  std::cv_status ignored = std::cv_status::no_timeout;
  return wait_common(cv, mu_id, mu, /*timed=*/false, {}, &ignored);
}

bool Explorer::wait_until(const SyncId& cv, const SyncId& mu_id,
                          std::mutex& mu,
                          std::chrono::steady_clock::time_point deadline,
                          std::cv_status* status) {
  // A deadline "never" is an untimed wait (and keeps the scheduler's real
  // wait_until clear of time_point overflow).
  const bool timed = deadline < std::chrono::steady_clock::time_point::max();
  return wait_common(cv, mu_id, mu, timed, deadline, status);
}

bool Explorer::wait_common(const SyncId& cv, const SyncId& mu_id,
                           std::mutex& mu, bool timed,
                           std::chrono::steady_clock::time_point deadline,
                           std::cv_status* status) {
  ThreadRec* rec = self();
  if (rec == nullptr || rec->state != ThreadRec::State::kRunning) {
    return false;  // uncontrolled: real condvar wait
  }
  if (lockdep_) lockdep_->released(mu_id);
  std::unique_lock<std::mutex> lk(mu_);
  // Drop the caller's mutex while holding the scheduler lock: a notify
  // from any other thread must serialize after this thread is parked, so
  // no wake-up can fall between unlock and park (the classic lost-wakeup
  // window).
  mutex_owner_.erase(mu_id.object);
  erase_held(rec->held, mu_id.object);
  mu.unlock();
  for (const auto& t : threads_) {
    if (t->state == ThreadRec::State::kMutexWait &&
        t->wait_obj == mu_id.object) {
      t->state = ThreadRec::State::kReady;
      t->op_label = "acquire-retry";
    }
  }
  rec->state = ThreadRec::State::kCvWait;
  rec->wait_obj = cv.object;
  rec->timed = timed;
  rec->deadline = deadline;
  rec->woke_by_timeout = false;
  rec->op_label = (timed ? "timed-wait " : "wait ") + display(cv);
  grant_next(lk);
  park(lk, rec);
  *status = rec->woke_by_timeout ? std::cv_status::timeout
                                 : std::cv_status::no_timeout;
  rec->timed = false;
  rec->wait_obj = nullptr;
  // Reacquire the caller's mutex under the scheduler, exactly like lock().
  if (lockdep_) lockdep_->acquiring(mu_id);
  while (!mu.try_lock()) {
    rec->state = ThreadRec::State::kMutexWait;
    rec->wait_obj = mu_id.object;
    rec->op_label = "relock-after-wait " + display(mu_id);
    grant_next(lk);
    park(lk, rec);
    rec->wait_obj = nullptr;
  }
  mutex_owner_[mu_id.object] = rec;
  rec->held.push_back(mu_id);
  if (lockdep_) lockdep_->acquired(mu_id);
  return true;
}

void Explorer::notify(const SyncId& cv, bool all) {
  ThreadRec* rec = self();
  std::unique_lock<std::mutex> lk(mu_);
  std::vector<ThreadRec*> waiters;
  for (const auto& t : threads_) {
    if (t->state == ThreadRec::State::kCvWait && t->wait_obj == cv.object) {
      waiters.push_back(t.get());
    }
  }
  bool woke = false;
  if (!waiters.empty()) {
    if (!all) {
      // Seeded choice of which waiter the notify_one wakes — part of the
      // explored schedule space.
      waiters = {waiters[rng_.below(waiters.size())]};
    }
    for (ThreadRec* w : waiters) {
      w->state = ThreadRec::State::kReady;
      w->woke_by_timeout = false;
      w->op_label = "notified " + display(cv);
    }
    woke = true;
  }
  if (rec != nullptr && rec->state == ThreadRec::State::kRunning) {
    reschedule(lk, rec, all ? "notify-all" : "notify-one", &cv);
  } else if (woke && current_ == nullptr) {
    grant_next(lk);
  }
}

void Explorer::yield(const char* site) {
  ThreadRec* rec = self();
  if (rec == nullptr || rec->state != ThreadRec::State::kRunning) return;
  std::unique_lock<std::mutex> lk(mu_);
  rec->op_label = std::string("yield ") + site;
  rec->state = ThreadRec::State::kReady;
  grant_next(lk);
  park(lk, rec);
}

void* Explorer::thread_spawning(const char* name) {
  std::unique_lock<std::mutex> lk(mu_);
  auto rec = std::make_unique<ThreadRec>();
  rec->owner = this;
  rec->id = static_cast<int>(threads_.size());
  rec->name = name != nullptr && name[0] != '\0'
                  ? name
                  : "thread-" + std::to_string(rec->id);
  rec->priority = rng_();
  rec->state = ThreadRec::State::kReady;
  ThreadRec* handle = rec.get();
  threads_.push_back(std::move(rec));
  if (current_ == nullptr) grant_next(lk);
  return handle;
}

void Explorer::thread_started(void* handle) {
  auto* rec = static_cast<ThreadRec*>(handle);
  t_rec = rec;
  std::unique_lock<std::mutex> lk(mu_);
  park(lk, rec);
}

void Explorer::thread_finished(void* handle) {
  auto* rec = static_cast<ThreadRec*>(handle);
  t_rec = nullptr;
  std::unique_lock<std::mutex> lk(mu_);
  rec->state = ThreadRec::State::kFinished;
  rec->op_label = "finished";
  bool woke = false;
  for (const auto& t : threads_) {
    if (t->state == ThreadRec::State::kJoinWait && t->wait_obj == rec) {
      t->state = ThreadRec::State::kReady;
      t->op_label = "join-complete";
      woke = true;
    }
  }
  if (current_ == rec) {
    current_ = nullptr;
    grant_next(lk);
  } else if (woke && current_ == nullptr) {
    grant_next(lk);
  }
  cv_.notify_all();
}

void Explorer::thread_joining(void* handle) {
  ThreadRec* rec = self();
  auto* target = static_cast<ThreadRec*>(handle);
  if (rec == nullptr || target == nullptr || target->owner != this ||
      rec->state != ThreadRec::State::kRunning) {
    return;  // uncontrolled joiner: the real join blocks on its own
  }
  std::unique_lock<std::mutex> lk(mu_);
  while (target->state != ThreadRec::State::kFinished) {
    rec->state = ThreadRec::State::kJoinWait;
    rec->wait_obj = target;
    rec->op_label = "join " + target->name;
    grant_next(lk);
    park(lk, rec);
    rec->wait_obj = nullptr;
  }
}

void* Explorer::blocking_region_enter() {
  ThreadRec* rec = self();
  if (rec == nullptr) return nullptr;
  if (rec->external_depth++ > 0) return rec;
  std::unique_lock<std::mutex> lk(mu_);
  rec->state = ThreadRec::State::kExternal;
  rec->op_label = "external";
  if (current_ == rec) {
    current_ = nullptr;
    grant_next(lk);
  }
  return rec;
}

void Explorer::blocking_region_exit(void* token) {
  auto* rec = static_cast<ThreadRec*>(token);
  if (--rec->external_depth > 0) return;
  std::unique_lock<std::mutex> lk(mu_);
  rec->state = ThreadRec::State::kReady;
  rec->op_label = "external-return";
  if (current_ == nullptr) grant_next(lk);
  park(lk, rec);
}

}  // namespace hlock::sched
