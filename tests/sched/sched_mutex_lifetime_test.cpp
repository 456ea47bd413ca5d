// Regression: hlock::Mutex::unlock() must hand SyncObserver::released() an
// identity that outlives the mutex. The thread a release wakes may destroy
// the mutex straight away — ThreadCluster's destructor frees a Shard as
// soon as its last blocked client has left the wait — so a released() hook
// reading the mutex's own SyncId member would read freed memory (TSan
// reported exactly that in ThreadCluster.DestructorWakesAndDrainsBlocked-
// Clients). The observer below makes the window deterministic: inside
// released() a second thread destroys the mutex and scribbles over its
// storage before the hook looks at the id it was given.
#include <cstring>
#include <new>
#include <thread>

#include <gtest/gtest.h>

#include "util/sync.hpp"
#include "util/sync_observer.hpp"

namespace hlock {
namespace {

class DestroyOnRelease : public sched::SyncObserver {
 public:
  explicit DestroyOnRelease(unsigned char* storage) : storage_(storage) {}

  void released(const sched::SyncId& id) override {
    if (id.object != storage_ || done) return;
    done = true;
    std::thread destroyer([this] {
      std::launder(reinterpret_cast<Mutex*>(storage_))->~Mutex();
      std::memset(storage_, 0xA5, sizeof(Mutex));
    });
    destroyer.join();
    seen_file = id.file;
    seen_line = id.line;
  }

  bool done = false;
  const char* seen_file = nullptr;
  unsigned seen_line = 0;

 private:
  unsigned char* const storage_;
};

TEST(MutexLifetime, ReleasedHookSurvivesTheMutexBeingFreed) {
  alignas(Mutex) unsigned char storage[sizeof(Mutex)];
  const unsigned site_line = __LINE__ + 1;
  Mutex* mutex = new (storage) Mutex();
  const sched::SyncId expected = mutex->id();
  ASSERT_EQ(expected.line, site_line);

  DestroyOnRelease observer(storage);
  sched::SyncObserver* previous = sched::exchange_sync_observer(&observer);
  mutex->lock();
  mutex->unlock();  // the observer destroys *mutex inside this call
  sched::exchange_sync_observer(previous);

  ASSERT_TRUE(observer.done);
  // Pointer and number comparisons only: at a broken unlock() these fields
  // come from the scribbled storage and must not be dereferenced.
  EXPECT_EQ(observer.seen_file, expected.file);
  EXPECT_EQ(observer.seen_line, site_line);
}

}  // namespace
}  // namespace hlock
