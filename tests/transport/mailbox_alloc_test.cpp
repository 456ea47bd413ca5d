// Allocation accounting for the Mailbox hot path.
//
// A delivered message must move through the mailbox, never be deep-copied:
// a copy would duplicate the payload buffer of every token handover. These
// tests pin that with two independent instruments: a global operator
// new/delete counter proving a take — the receiver's drain or the enlisted
// caller's take — makes one allocation, for the batch vector, and pointer
// identity on a token queue's buffer proving the very same heap block that
// was pushed comes back out.
//
// This file replaces the global allocator, so it must stay its own test
// binary — linking it into another test would count that test's
// allocations too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "transport/mailbox.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

// Counting replacements for the global allocator. Deliberately minimal:
// count, then defer to malloc/free (the replaceable-function contract).
// The deletes stay out of line: inlined into a caller, g++ 12's
// -Wmismatched-new-delete sees free() on a pointer from operator new and
// fails a -Werror build.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace hlock::transport {
namespace {

proto::Message token_message(std::size_t queue_entries) {
  proto::HierToken token{proto::LockMode::kW, proto::LockMode::kNL, {}};
  for (std::size_t i = 0; i < queue_entries; ++i) {
    token.queue.push_back(proto::QueuedRequest{
        proto::NodeId{static_cast<std::uint32_t>(i)}, proto::LockMode::kR,
        i, 0});
  }
  return proto::Message{proto::NodeId{0}, proto::NodeId{1}, proto::LockId{7},
                        proto::Payload{std::move(token)}};
}

const std::vector<proto::QueuedRequest>& queue_of(const proto::Message& m) {
  return std::get<proto::HierToken>(m.payload).queue;
}

TEST(MailboxAlloc, PopMovesThePayloadBufferInsteadOfCopyingIt) {
  Mailbox mailbox;
  proto::Message message = token_message(64);
  const proto::QueuedRequest* buffer = queue_of(message).data();
  mailbox.push(std::move(message));

  const std::vector<proto::Message> popped = mailbox.pop_all_ready();
  ASSERT_EQ(popped.size(), 1u);
  EXPECT_EQ(queue_of(popped[0]).size(), 64u);
  // The exact heap block that went in comes back out: every hop — push
  // into the queue, the drain, return by value — was a move.
  EXPECT_EQ(queue_of(popped[0]).data(), buffer);
}

TEST(MailboxAlloc, PopAllReadyMakesOneAllocationForTheBatchVector) {
  Mailbox mailbox;
  std::vector<const proto::QueuedRequest*> buffers;
  for (int i = 0; i < 16; ++i) {
    proto::Message message = token_message(16);
    buffers.push_back(queue_of(message).data());
    mailbox.push(std::move(message));
  }

  const std::uint64_t before = allocations();
  const std::vector<proto::Message> drained = mailbox.pop_all_ready();
  const std::uint64_t during = allocations() - before;
  ASSERT_EQ(drained.size(), 16u);
  // One allocation for the returned vector; the messages themselves move.
  EXPECT_LE(during, 2u);
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(queue_of(drained[i]).data(), buffers[i])
        << "message " << i << " was deep-copied on the way through";
  }
}

// The enlisted caller takes the same way, with and without the claim
// already held.
TEST(MailboxAlloc, CallerTakeMovesPayloadsWithOneAllocationPerTake) {
  Mailbox mailbox;
  std::vector<const proto::QueuedRequest*> buffers;
  const auto push_tokens = [&](int count) {
    for (int i = 0; i < count; ++i) {
      proto::Message message = token_message(16);
      buffers.push_back(queue_of(message).data());
      mailbox.push(std::move(message));
    }
  };
  std::size_t taken = 0;
  const auto expect_moved = [&](const std::vector<proto::Message>& batch) {
    for (const proto::Message& message : batch) {
      EXPECT_EQ(queue_of(message).data(), buffers[taken])
          << "message " << taken << " was deep-copied on the way through";
      ++taken;
    }
  };
  const std::optional<std::uint64_t> generation = mailbox.enlist_caller();
  ASSERT_TRUE(generation.has_value());

  push_tokens(16);
  std::uint64_t before = allocations();
  const std::vector<proto::Message> first =
      mailbox.take_for_caller(*generation);
  EXPECT_LE(allocations() - before, 2u);
  ASSERT_EQ(first.size(), 16u);
  expect_moved(first);

  push_tokens(8);
  before = allocations();
  const std::vector<proto::Message> next =
      mailbox.take_for_caller(*generation);
  EXPECT_LE(allocations() - before, 2u);
  ASSERT_EQ(next.size(), 8u);
  expect_moved(next);
  mailbox.signal_caller();
  EXPECT_TRUE(mailbox.take_for_caller(*generation).empty());
}

}  // namespace
}  // namespace hlock::transport
