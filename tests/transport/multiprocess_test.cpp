// The protocol across REAL OS PROCESSES.
//
// The parent binds one loopback listener per node (so every port is known
// before any child exists), then forks one child per node. Each child
// adopts its listener, builds a one-node TcpTransport + HierEngine, and
// runs a small event loop: serve incoming protocol messages, perform K
// exclusive critical sections of its own, and keep serving until every
// process is done. Mutual exclusion is verified the only way that matters across
// processes: a non-atomic counter in a MAP_SHARED page. Any overlap of
// critical sections loses increments.
//
// Processes share no protocol state whatsoever — only sockets and the
// audited counter page.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <vector>

#include "runtime/engine.hpp"
#include "tests/transport/receive.hpp"
#include "transport/tcp_socket.hpp"
#include "transport/tcp_transport.hpp"
#include "util/check.hpp"

namespace hlock::transport {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;

constexpr std::size_t kProcesses = 4;
constexpr long kIncrementsPerProcess = 25;
const LockId kLock{0};

/// The audited cross-process state.
struct SharedPage {
  volatile long counter;
  volatile long done_processes;
};

/// One child process's whole life. Never returns; _exit()s with 0 on
/// success, 1 on any protocol error.
[[noreturn]] void child_main(std::uint32_t self_value, int listen_fd,
                             const std::vector<std::uint16_t>& ports,
                             SharedPage* shared) {
  const NodeId self{self_value};
  try {
    TcpTransport transport{self, listen_fd, ports};
    runtime::HierEngine engine{self, NodeId{0}};

    bool in_cs = false;
    bool waiting = false;
    long completed = 0;

    auto apply = [&](core::Effects&& fx) {
      for (const proto::Message& message : fx.messages) {
        transport.send(message);
      }
      if (fx.entered_cs) {
        in_cs = true;
        waiting = false;
      }
    };

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      if (std::chrono::steady_clock::now() > deadline) _exit(1);

      if (in_cs) {
        // The audited critical section: a racy read-modify-write that
        // only stays correct under true mutual exclusion.
        const long snapshot = shared->counter;
        for (int spin = 0; spin < 500; ++spin) {
          __asm__ volatile("" ::: "memory");
        }
        shared->counter = snapshot + 1;
        apply(engine.release(kLock));
        in_cs = false;
        if (++completed == kIncrementsPerProcess) {
          __atomic_add_fetch(
              const_cast<long*>(&shared->done_processes), 1,
              __ATOMIC_SEQ_CST);
        }
      } else if (!waiting && completed < kIncrementsPerProcess) {
        waiting = true;
        apply(engine.request(kLock, LockMode::kW));
        continue;  // the request may have been self-granted synchronously
      }

      // Serve protocol traffic (also our only wait point).
      const std::vector<proto::Message> batch = transport.recv_ready(
          self, transport_test::after(std::chrono::milliseconds(20)));
      for (const proto::Message& message : batch) {
        apply(engine.deliver(message));
      }
      if (batch.empty() && completed >= kIncrementsPerProcess &&
          __atomic_load_n(const_cast<long*>(&shared->done_processes),
                          __ATOMIC_SEQ_CST) == static_cast<long>(kProcesses)) {
        // Everyone finished and the wire went quiet: safe to leave.
        break;
      }
    }
    _exit(0);
  } catch (...) {
    _exit(1);
  }
}

TEST(MultiProcess, MutualExclusionAcrossForkedProcesses) {
  // The shared, audited page.
  void* page = ::mmap(nullptr, sizeof(SharedPage), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* shared = new (page) SharedPage{0, 0};

  // Bind every listener in the parent so all ports are known pre-fork.
  std::vector<int> listeners;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < kProcesses; ++i) {
    listeners.push_back(listen_loopback(0));
    ports.push_back(local_port(listeners.back()));
  }

  std::vector<pid_t> children;
  for (std::uint32_t i = 0; i < kProcesses; ++i) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: keep only our own listener.
      for (std::uint32_t k = 0; k < kProcesses; ++k) {
        if (k != i) ::close(listeners[k]);
      }
      child_main(i, listeners[i], ports, shared);  // never returns
    }
    children.push_back(pid);
  }
  // Parent: the children own the listeners now.
  for (int fd : listeners) ::close(fd);

  bool all_ok = true;
  for (pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    all_ok &= WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  EXPECT_TRUE(all_ok) << "a child process failed or timed out";
  EXPECT_EQ(shared->counter,
            static_cast<long>(kProcesses) * kIncrementsPerProcess)
      << "lost increments: mutual exclusion was violated across processes";
  ::munmap(page, sizeof(SharedPage));
}

TEST(TcpTransportOneNode, PairwiseMessagingWithinOneProcess) {
  // Two one-node transports, no shared state beyond the port table.
  const int listen_a = listen_loopback(0);
  const int listen_b = listen_loopback(0);
  const std::vector<std::uint16_t> ports{local_port(listen_a),
                                         local_port(listen_b)};
  TcpTransport a{NodeId{0}, listen_a, ports};
  TcpTransport b{NodeId{1}, listen_b, ports};

  a.send(proto::Message{NodeId{0}, NodeId{1}, kLock,
                        proto::NaimiRequest{NodeId{0}, 1}});
  ASSERT_EQ(transport_test::receive(b, NodeId{1}, 1).size(), 1u);
  b.send(proto::Message{NodeId{1}, NodeId{0}, kLock, proto::NaimiToken{}});
  const std::vector<proto::Message> at_a =
      transport_test::receive(a, NodeId{0}, 1);
  ASSERT_EQ(at_a.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<proto::NaimiToken>(at_a[0].payload));
}

TEST(TcpTransportOneNode, Contracts) {
  const int listen_fd = listen_loopback(0);
  std::vector<std::uint16_t> ports(4, 0);
  ports[3] = local_port(listen_fd);
  TcpTransport node{NodeId{3}, listen_fd, ports};
  EXPECT_THROW(node.recv_ready(NodeId{1}, transport_test::after(
                                              std::chrono::milliseconds(1))),
               UsageError)
      << "receiving for a remote node";
  EXPECT_THROW(node.send(proto::Message{NodeId{1}, NodeId{3}, kLock,
                                        proto::NaimiToken{}}),
               UsageError)
      << "sending another node's message";
  EXPECT_THROW(node.send(proto::Message{NodeId{3}, NodeId{9}, kLock,
                                        proto::NaimiToken{}}),
               UsageError)
      << "unknown destination";
  EXPECT_THROW((TcpTransport{NodeId{4}, listen_loopback(0), ports}),
               UsageError)
      << "self outside the port table";
  EXPECT_EQ(node.port_of(NodeId{3}), ports[3]);
  EXPECT_EQ(node.node_count(), 4u);
}

}  // namespace
}  // namespace hlock::transport
