// Concurrent stress over the two internally synchronized building blocks
// the threaded runtime leans on hardest: trace::TraceRecorder (shared by
// receiver threads as the cluster's event sink) and transport::Mailbox
// (multi-producer delivery with close() racing pop_all_ready()). These run in
// both the ASan/UBSan and TSan CI jobs; under TSan they double as the
// dynamic counterpart of the compile-time capability annotations
// (docs/static-analysis.md).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "trace/recorder.hpp"
#include "transport/mailbox.hpp"

namespace hlock {
namespace {

using namespace std::chrono_literals;

TEST(ConcurrencyStress, TraceRecorderHammeredFromManyThreads) {
  // Writers record through every convenience entry point while readers
  // render, snapshot, and histogram the live recorder.
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr std::uint64_t kPerWriter = 5000;
  static constexpr std::size_t kCapacity = 1024;  // ring-buffer eviction
  trace::TraceRecorder recorder{kCapacity};

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&recorder, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto events = recorder.events();
        EXPECT_LE(events.size(), kCapacity);
        std::size_t histogram_total = 0;
        for (const std::size_t n : recorder.histogram()) {
          histogram_total += n;
        }
        EXPECT_LE(histogram_total, kCapacity);
        (void)recorder.render();
        (void)recorder.truncated();
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      const proto::NodeId node{static_cast<std::uint32_t>(w)};
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(kPerWriter);
           ++i) {
        switch (i % 4) {
          case 0:
            recorder.record_enter_cs(SimTime::us(i), node);
            break;
          case 1:
            recorder.record_exit_cs(SimTime::us(i), node);
            break;
          case 2:
            recorder.record_upgrade(SimTime::us(i), node);
            break;
          default:
            recorder.note(SimTime::us(i), node, "stress");
            break;
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(recorder.total_recorded(), kWriters * kPerWriter);
  EXPECT_EQ(recorder.events().size(), kCapacity);
  EXPECT_TRUE(recorder.truncated());
}

TEST(ConcurrencyStress, MailboxPopUntilUnderConcurrentPushAndClose) {
  // Multi-producer traffic while the (single) consumer alternates between
  // deadline-bounded and blocking drains, and a fourth thread closes the
  // mailbox mid-stream. Close keeps pending messages poppable and drops
  // later pushes, so however the race lands, drained == accepted.
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPerProducer = 4000;
  transport::Mailbox box;

  std::vector<std::thread> producers;
  std::atomic<int> producers_done{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, &producers_done, p] {
      proto::Message message;
      message.from = proto::NodeId{static_cast<std::uint32_t>(p)};
      message.to = proto::NodeId{0};
      message.lock = proto::LockId{0};
      for (std::uint64_t i = 0; i < kPerProducer; ++i) box.push(message);
      producers_done.fetch_add(1, std::memory_order_relaxed);
    });
  }

  std::thread closer([&box, &producers_done] {
    // Let the producers race the close: some pushes land before it (kept,
    // poppable), the rest are dropped.
    while (producers_done.load(std::memory_order_relaxed) < 1) {
      std::this_thread::yield();
    }
    box.close();
  });

  std::uint64_t drained = 0;
  for (std::uint64_t round = 0;; ++round) {
    const bool timed = round % 2 == 0;
    const std::size_t batch =
        timed ? box.pop_all_ready(transport::Mailbox::Clock::now() + 1ms)
                    .size()
              : box.pop_all_ready().size();
    drained += batch;
    // An empty untimed drain means closed and empty: nothing lands after
    // the close. An empty timed one may only have timed out.
    if (batch == 0 && !timed) break;
  }
  for (std::thread& producer : producers) producer.join();
  closer.join();
  EXPECT_TRUE(box.pop_all_ready().empty()) << "a push landed after the close";

  EXPECT_EQ(drained, box.pushed());
  EXPECT_LE(box.pushed(), kProducers * kPerProducer);
  EXPECT_GE(box.pushed(), kPerProducer);  // at least one producer landed
}

}  // namespace
}  // namespace hlock
