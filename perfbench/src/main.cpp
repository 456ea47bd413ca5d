// hlock_perfbench: runs one workload of the lock benchmark and prints its
// metrics, ending with the result object on the last line of standard
// output. perfbench/run.py builds and invokes it; README.md describes the
// workloads and metrics.
//
//   hlock_perfbench --workload tcp-ring --seed 7 --seconds 10 --trace 0
//                   [--small]
//
// Exit status: 0 when every correctness check passed, 1 on a violation,
// 2 on a usage error.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunOptions;

constexpr const char* kUsage =
    "usage: hlock_perfbench --workload sim-airline|inproc-airline|tcp-ring "
    "--seed N --seconds S --trace 0|1 [--small]\n";

/// Hard cap on a run's wall time: a hung run is killed by SIGALRM.
constexpr double kMaxRunSeconds = 170;

int usage(const std::string& why) {
  std::fprintf(stderr, "hlock_perfbench: %s\n%s", why.c_str(), kUsage);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--small") {
        options.small = true;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception& error) {
    return usage(error.what());
  }
  const bool threaded = options.workload == "inproc-airline" ||
                        options.workload == "tcp-ring";
  if (!threaded && options.workload != "sim-airline") {
    return usage("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0) || options.seconds > 60) {
    return usage("--seconds must be within (0, 60]");
  }
  // No more client threads than CPUs, judged on the mask the process was
  // started with.
  if (threaded && perfbench::allowed_cpu_count() < perfbench::kThreadedClients) {
    return usage("the threaded workloads need at least " +
                 std::to_string(perfbench::kThreadedClients) + " CPUs");
  }
  alarm(static_cast<unsigned>(
      std::min(kMaxRunSeconds, options.seconds * 3 + 120)));

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d cpus=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, perfbench::allowed_cpu_count(),
              options.small ? " (self-check size)" : "");
  perfbench::Report report;
  try {
    if (threaded) {
      perfbench::run_threaded(options, report);
    } else {
      perfbench::run_sim_airline(options, report);
    }
  } catch (const std::exception& error) {
    report.fail(std::string("run aborted: ") + error.what());
  }
  if (report.attempted() == 0) report.fail("no acquisition was attempted");
  report.print();
  return report.correct() ? 0 : 1;
}
