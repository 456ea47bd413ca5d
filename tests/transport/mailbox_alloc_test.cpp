// Allocation accounting for the Mailbox hot path.
//
// The delivery path used to deep-copy every popped message out of a
// std::priority_queue (the adapter only exposes a const top()), which
// duplicated the payload buffer of every token handover. These tests pin
// the fix with two independent instruments: a global operator new/delete
// counter proving the pop path allocates nothing, and pointer identity on a
// token queue's buffer proving the very same heap block that was pushed
// comes back out.
//
// This file replaces the global allocator, so it must stay its own test
// binary — linking it into another test would count that test's
// allocations too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "transport/mailbox.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

// Counting replacements for the global allocator. Deliberately minimal:
// count, then defer to malloc/free (the replaceable-function contract).
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
  mailbox.push(std::move(message), Mailbox::Clock::now());

  const auto popped = mailbox.pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(queue_of(*popped).size(), 64u);
  // The exact heap block that went in comes back out: every hop —
  // push into the heap entry, extraction, return by value — was a move.
  EXPECT_EQ(queue_of(*popped).data(), buffer);
}

TEST(MailboxAlloc, PopAllocatesNothing) {
  Mailbox mailbox;
  for (int i = 0; i < 8; ++i) {
    mailbox.push(token_message(32), Mailbox::Clock::now());
  }

  const std::uint64_t before = allocations();
  proto::Message first = *mailbox.pop();
  proto::Message second = *mailbox.pop();
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(during, 0u)
      << "popping made " << during
      << " allocation(s); extraction must move, never deep-copy";
  EXPECT_EQ(queue_of(first).size(), 32u);
  EXPECT_EQ(queue_of(second).size(), 32u);
}

TEST(MailboxAlloc, PopAllReadyMakesOneAllocationForTheBatchVector) {
  Mailbox mailbox;
  std::vector<const proto::QueuedRequest*> buffers;
  const Mailbox::Clock::time_point now = Mailbox::Clock::now();
  for (int i = 0; i < 16; ++i) {
    proto::Message message = token_message(16);
    buffers.push_back(queue_of(message).data());
    mailbox.push(std::move(message), now);
  }

  const std::uint64_t before = allocations();
  const std::vector<proto::Message> drained = mailbox.pop_all_ready();
  const std::uint64_t during = allocations() - before;
  ASSERT_EQ(drained.size(), 16u);
  // One reserve for the returned vector; the messages themselves move.
  EXPECT_LE(during, 2u);
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(queue_of(drained[i]).data(), buffers[i])
        << "message " << i << " was deep-copied on the way through";
  }
}

}  // namespace
}  // namespace hlock::transport
