// CondVar timed-wait path coverage under the deterministic scheduler —
// replacing sleep-based timing tests. Under the explorer a timed waiter
// parks in the scheduler and self-wakes on its real deadline, so "the
// deadline expired" and "a wakeup won the race" are *schedules*, not
// outcomes of sleep lotteries: the expiry case needs no generous margins
// (nothing else is runnable, so the deadline fires as soon as it is due)
// and the race case is explored across seeds instead of being timed just
// so. See docs/sched.md.
#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "tests/sched/sched_test.hpp"
#include "transport/mailbox.hpp"
#include "util/sync.hpp"
#include "util/sync_observer.hpp"

namespace hlock {
namespace {

using transport::Mailbox;

proto::Message make_message(std::uint64_t seq) {
  return proto::Message{proto::NodeId{0}, proto::NodeId{1}, proto::LockId{0},
                        proto::NaimiRequest{proto::NodeId{0}, seq}};
}

TEST(SchedTimedWait, PopUntilDeadlineExpiresWithNoProducer) {
  sched_test::ExploreOptions options;
  options.seeds = 4;  // no race to vary: every schedule must time out
  sched_test::explore(
      [] {
        Mailbox mailbox;
        const auto before = Mailbox::Clock::now();
        const auto deadline = before + std::chrono::milliseconds(20);
        EXPECT_TRUE(mailbox.pop_all_ready(deadline).empty());
        EXPECT_GE(Mailbox::Clock::now(), deadline);
      },
      options);
}

TEST(SchedTimedWait, PopUntilDeadlineVersusWakeupRace) {
  sched_test::explore([] {
    Mailbox mailbox;
    std::vector<proto::Message> popped;
    sched::Thread consumer("consumer", [&mailbox, &popped] {
      popped = mailbox.pop_all_ready(Mailbox::Clock::now() +
                                     std::chrono::milliseconds(200));
    });
    // The push races the consumer's wait. Schedules where the push lands
    // first hand the message over without any wait; schedules where the
    // consumer parks first must wake it via the push's notify — 200ms of
    // deadline means a lost wakeup would surface as the expiry path
    // (an empty batch), which the assertion below rejects.
    mailbox.push(make_message(42));
    consumer.join();
    ASSERT_EQ(popped.size(), 1u) << "wakeup lost: deadline won a race "
                                    "it should never win";
    EXPECT_EQ(std::get<proto::NaimiRequest>(popped[0].payload).seq, 42u);
  });
}

TEST(SchedTimedWait, CondVarWaitForTimesOutUnderTheScheduler) {
  sched_test::ExploreOptions options;
  options.seeds = 4;
  sched_test::explore(
      [] {
        Mutex mu{"timed.mu"};
        CondVar cv{"timed.cv"};
        MutexLock lock(mu);
        // Nothing will ever notify: the only exit is the deadline.
        const auto status =
            cv.wait_for(mu, std::chrono::milliseconds(15));
        EXPECT_EQ(status, std::cv_status::timeout);
      },
      options);
}

}  // namespace
}  // namespace hlock
