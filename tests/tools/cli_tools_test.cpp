// End-to-end tests of the CLI tools as a user runs them: spawn the real
// binaries, capture stdout, assert on the output. Binaries are located
// relative to this test's own path (build/tests/ -> build/tools/).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <regex>
#include <set>
#include <string>

namespace {

/// Runs a command, returns (exit status, stdout+stderr).
std::pair<int, std::string> run_command(const std::string& command) {
  std::array<char, 4096> buffer{};
  std::string output;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int status = ::pclose(pipe);
  return {status, output};
}

std::string tool(const std::string& name) {
  // ctest runs with CWD build/tests; the tools live in build/tools.
  return "../tools/" + name;
}

TEST(HlockSimCli, TextOutputContainsTheMetrics) {
  const auto [status, output] =
      run_command(tool("hlock_sim") + " --nodes 8 --ops 20 --ratio 5");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("messages/request"), std::string::npos);
  EXPECT_NE(output.find("hierarchical, 8 nodes"), std::string::npos);
}

TEST(HlockSimCli, CsvOutputIsParseable) {
  const auto [status, output] = run_command(
      tool("hlock_sim") + " --protocol naimi-pure --nodes 6 --ops 15 --csv");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("protocol,nodes,ops,msgs_per_request"),
            std::string::npos);
  EXPECT_NE(output.find("naimi-pure,6,90,"), std::string::npos);
}

TEST(HlockSimCli, HistogramFlagPrintsBuckets) {
  const auto [status, output] = run_command(
      tool("hlock_sim") + " --nodes 6 --ops 20 --histogram 4");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("request latency distribution"), std::string::npos);
  EXPECT_NE(output.find('#'), std::string::npos);
}

TEST(HlockSimCli, ChaosModeReportsMutualExclusionAndFaults) {
  const auto [status, output] = run_command(
      tool("hlock_sim") + " --chaos --nodes 4 --ops 10 --fault-drop 0.1"
                          " --fault-delay 0.1 --partition-ms 30 --seed 9");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("mutual exclusion OK"), std::string::npos) << output;
  EXPECT_NE(output.find("faults{"), std::string::npos);
}

TEST(HlockSimCli, ChaosModeRejectsBadTransport) {
  // Both live-cluster modes: --chaos and the schedule explorer.
  for (const char* mode : {" --chaos", " --sched-seeds 1 --nodes 2 --ops 1"}) {
    const auto [status, output] = run_command(
        tool("hlock_sim") + mode + " --chaos-transport carrier-pigeon");
    EXPECT_NE(status, 0) << mode;
    EXPECT_NE(output.find("--chaos-transport must be"), std::string::npos)
        << mode;
  }
}

TEST(HlockSimCli, ChaosRefusesTheSimulatorsFlags) {
  // --chaos runs the hierarchical protocol on live threads: a protocol
  // choice, CSV, seed averaging or a histogram would be silently ignored,
  // so the run refuses to start, and its trace dump is never written.
  const auto [status, output] = run_command(
      "(rm -f refused_cli.dump && " + tool("hlock_sim") +
      " --chaos --protocol naimi-pure --trace-dump refused_cli.dump --csv"
      " --seeds 3 --histogram 5; echo exit=$?; test ! -e refused_cli.dump)");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("exit=2"), std::string::npos) << output;
  EXPECT_NE(output.find("not used by this run: --protocol, --seeds, --csv, "
                        "--histogram"),
            std::string::npos)
      << output;
  EXPECT_EQ(output.find("messages sent"), std::string::npos)
      << "the run started";
}

TEST(HlockSimCli, SimulatorRefusesTheLiveClustersFlags) {
  const auto [status, output] = run_command(
      tool("hlock_sim") + " --nodes 4 --ops 5 --fault-drop 0.5 --kill-rate 2"
                          " --watchdog --chaos-transport tcp");
  EXPECT_EQ(WEXITSTATUS(status), 2) << output;
  EXPECT_NE(output.find("not used by this run: --chaos-transport, "
                        "--fault-drop, --kill-rate, --watchdog"),
            std::string::npos)
      << output;
}

TEST(HlockSimCli, ScheduleExplorationRefusesKills) {
  // Kills fire on a real-time dice roll the explorer cannot drive; the
  // other flags of this command are honored, but the run never starts.
  const auto [status, output] = run_command(
      "(rm -f refused_cli.prom && " + tool("hlock_sim") +
      " --sched-seeds 2 --nodes 3 --ops 1 --fault-drop 0.5 --lint --spans"
      " --kill-rate 1 --metrics-out refused_cli.prom; echo exit=$?;"
      " test ! -e refused_cli.prom)");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("exit=2"), std::string::npos) << output;
  EXPECT_NE(output.find("--kill-rate cannot be explored"), std::string::npos)
      << output;
}

TEST(HlockSimCli, ExploredScheduleRunsTheChaosFaultsAndLint) {
  // --sched-seed replays the --chaos run these flags configure: its delay
  // faults fire and its lint runs.
  const auto [status, output] = run_command(
      tool("hlock_sim") + " --sched-seed 1 --nodes 3 --ops 2"
                          " --fault-delay 0.5 --fault-delay-us 100 --lint");
  EXPECT_EQ(status, 0) << output;
  EXPECT_TRUE(std::regex_search(output, std::regex{"delays=[1-9]"}))
      << output;
  EXPECT_NE(output.find("events conform to the spec"), std::string::npos)
      << output;
  EXPECT_NE(output.find("mutual exclusion OK"), std::string::npos) << output;
  EXPECT_NE(output.find("workload OK"), std::string::npos) << output;
}

TEST(HlockSimCli, ExploredSeedsShareNoTraceDump) {
  // N explored seeds would write N runs into one file, so the exploration
  // refuses the dump; replaying one seed writes a trace that lints clean.
  const auto [refused_status, refused_output] = run_command(
      "(rm -f sched_cli.trace && " + tool("hlock_sim") +
      " --sched-seeds 2 --nodes 3 --ops 2 --trace-dump sched_cli.trace;"
      " echo exit=$?; test ! -e sched_cli.trace)");
  EXPECT_EQ(refused_status, 0) << refused_output;
  EXPECT_NE(refused_output.find("exit=2"), std::string::npos)
      << refused_output;
  EXPECT_NE(refused_output.find("--sched-seed"), std::string::npos)
      << refused_output;

  const auto [status, output] = run_command(
      "(" + tool("hlock_sim") +
      " --sched-seed 1 --nodes 3 --ops 2 --trace-dump sched_cli.trace && " +
      tool("hlock_lint") + " sched_cli.trace)");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("-> sched_cli.trace"), std::string::npos) << output;
  EXPECT_NE(output.find("conform to the spec"), std::string::npos) << output;
}

TEST(HlockSimCli, ExploredSeedsEachLeaveTheirOwnArtifacts) {
  // Every seed runs in a forked child and flags the doctored stall, so
  // each leaves flight records and a Chrome trace of its own; none may
  // overwrite another seed's.
  const auto [status, output] = run_command(
      "(rm -rf sched_obs_cli && " + tool("hlock_sim") +
      " --sched-seeds 4 --nodes 3 --ops 2 --doctor-stall-ms 300"
      " --watchdog-floor-ms 50 --obs-out sched_obs_cli > /dev/null &&"
      " echo records=$(ls sched_obs_cli/flight-*.txt | wc -l)"
      " traces=$(ls sched_obs_cli/chaos-trace-*.json | wc -l))");
  EXPECT_EQ(status, 0) << output;
  std::smatch match;
  ASSERT_TRUE(std::regex_search(
      output, match, std::regex{"records=([0-9]+) traces=([0-9]+)"}))
      << output;
  EXPECT_GE(std::stoi(match[1]), 4) << output;
  EXPECT_EQ(std::stoi(match[2]), 4) << output;
}

TEST(HlockSimCli, ScheduleReplayIsExactAcrossProcesses) {
  // The replay example of docs/sched.md: five separate processes replaying
  // the same seed must take the same scheduling decisions.
  const std::regex line{"complete after [0-9]+ decisions, fingerprint [0-9]+"};
  std::set<std::string> schedules;
  for (int run = 0; run < 5; ++run) {
    const auto [status, output] = run_command(
        tool("hlock_sim") + " --sched-seed 17 --nodes 2 --ops 2");
    ASSERT_EQ(status, 0) << output;
    std::smatch match;
    ASSERT_TRUE(std::regex_search(output, match, line)) << output;
    schedules.insert(match[0]);
  }
  EXPECT_EQ(schedules.size(), 1u) << *schedules.begin() << " and "
                                  << *schedules.rbegin();
}

TEST(HlockSimCli, BadArgumentsFailWithHelp) {
  const auto [status, output] =
      run_command(tool("hlock_sim") + " --bogus 1");
  EXPECT_NE(status, 0);
  EXPECT_NE(output.find("unknown option"), std::string::npos);
  EXPECT_NE(output.find("--protocol"), std::string::npos) << "help shown";
}

TEST(HlockSimCli, HelpExitsZero) {
  const auto [status, output] = run_command(tool("hlock_sim") + " --help");
  EXPECT_EQ(status, 0);
  EXPECT_NE(output.find("run one hlock experiment"), std::string::npos);
}

TEST(HlockCheckCli, VerifiesAScenario) {
  const auto [status, output] = run_command(
      tool("hlock_check") + " --scenario upgrade --nodes 3");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("verdict         : OK"), std::string::npos);
  EXPECT_NE(output.find("states explored"), std::string::npos);
}

TEST(HlockCheckCli, AllProtocolsWork) {
  for (const char* protocol : {"hier", "naimi", "raymond"}) {
    const auto [status, output] =
        run_command(tool("hlock_check") + " --protocol " + protocol +
                    " --scenario exclusive --nodes 3");
    EXPECT_EQ(status, 0) << protocol << ": " << output;
    EXPECT_NE(output.find("OK"), std::string::npos) << protocol;
  }
}

TEST(HlockTraceCli, PrintsATimeline) {
  const auto [status, output] = run_command(
      tool("hlock_trace") + " --scenario readers-writer --nodes 4");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("enter-cs"), std::string::npos);
  EXPECT_NE(output.find("REQUEST"), std::string::npos);
  EXPECT_NE(output.find("protocol messages"), std::string::npos);
}

TEST(HlockTraceCli, NodeFilterNarrowsTheView) {
  const auto [status, output] = run_command(
      tool("hlock_trace") + " --scenario upgrade --node-filter 2");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("upgraded"), std::string::npos);
}

TEST(HlockTraceCli, DumpRefusesTheNodeFilter) {
  // The dump is every event, for hlock_lint; a filter would be ignored.
  const auto [status, output] =
      run_command(tool("hlock_trace") + " --dump --node-filter 2");
  EXPECT_EQ(WEXITSTATUS(status), 2) << output;
  EXPECT_NE(output.find("not used by this run: --node-filter"),
            std::string::npos)
      << output;
}

TEST(HlockSimCli, LintFlagReportsConformance) {
  const auto [status, output] =
      run_command(tool("hlock_sim") + " --nodes 6 --ops 12 --lint");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("events conform to the spec"), std::string::npos);
}

TEST(HlockSimCli, LintRejectsNonHierProtocols) {
  const auto [status, output] =
      run_command(tool("hlock_sim") + " --protocol naimi --lint");
  EXPECT_NE(status, 0);
  EXPECT_NE(output.find("hier"), std::string::npos) << output;
}

TEST(HlockSimCli, ChaosLintWithDelayFaultsIsClean) {
  // Delay faults are masked by the protocol's FIFO assumption staying
  // intact, so the lint verdict must be clean; lossy runs are excluded
  // (a dropped grant genuinely breaks the recorded causality).
  const auto [status, output] = run_command(
      tool("hlock_sim") + " --chaos --nodes 4 --ops 8 --fault-delay 0.3"
                          " --fault-delay-us 200 --lint --seed 5");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("mutual exclusion OK"), std::string::npos) << output;
  EXPECT_NE(output.find("events conform to the spec"), std::string::npos)
      << output;
}

TEST(HlockCheckCli, LintedScenarioConforms) {
  const auto [status, output] = run_command(
      tool("hlock_check") + " --scenario mixed --nodes 3 --lint");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("every linted path conforms"), std::string::npos);
}

TEST(HlockCheckCli, ReductionsCrossValidateOnTheReferenceScenario) {
  const auto [status, output] = run_command(
      tool("hlock_check") +
      " --scenario contend --nodes 3 --por --symmetry --cross-validate"
      " --stats");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("cross-validate  : verdicts agree"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("por reduced states"), std::string::npos);
  EXPECT_NE(output.find("symmetry permutations : 6"), std::string::npos);
}

TEST(HlockCheckCli, StateLimitAbortExitsThree) {
  const auto [status, output] = run_command(
      tool("hlock_check") + " --scenario exclusive --nodes 3"
      " --max-states 25");
  EXPECT_EQ(WEXITSTATUS(status), 3) << output;
  EXPECT_NE(output.find("ABORTED"), std::string::npos);
  EXPECT_NE(output.find("state budget"), std::string::npos)
      << "watermark line missing: " << output;
}

TEST(HlockCheckCli, DoctoredConflictIsFoundAndMinimized) {
  const auto [status, output] = run_command(
      tool("hlock_check") +
      " --scenario mixed --nodes 3 --doctor conflict --minimize");
  EXPECT_EQ(WEXITSTATUS(status), 1) << output;
  EXPECT_NE(output.find("VIOLATION (safety)"), std::string::npos) << output;
  EXPECT_NE(output.find("fingerprint     : incompatible:IR+R"),
            std::string::npos)
      << output;
}

TEST(HlockCheckCli, DoctoredStarveYieldsALasso) {
  const auto [status, output] = run_command(
      tool("hlock_check") +
      " --scenario exclusive --nodes 3 --doctor starve --liveness");
  EXPECT_EQ(WEXITSTATUS(status), 1) << output;
  EXPECT_NE(output.find("VIOLATION (starvation)"), std::string::npos)
      << output;
  EXPECT_NE(output.find("cycle (repeats forever)"), std::string::npos)
      << output;
}

TEST(HlockCheckCli, StatsOutWritesParseableJson) {
  const auto [status, output] = run_command(
      tool("hlock_check") +
      " --scenario contend --nodes 3 --por --symmetry"
      " --stats-out check_stats.json && cat check_stats.json");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("\"states_explored\""), std::string::npos);
  EXPECT_NE(output.find("\"symmetry_permutations\": 6"), std::string::npos);
  EXPECT_NE(output.find("\"verdict\": \"ok\""), std::string::npos);
}

TEST(HlockCheckCli, ObsOutNeedsTheHierarchicalExplorer) {
  // Only the hierarchical explorer records a counterexample's events.
  const auto [status, output] = run_command(
      "(rm -rf naimi_obs_cli && " + tool("hlock_check") +
      " --protocol naimi --obs-out naimi_obs_cli; echo exit=$?;"
      " test ! -e naimi_obs_cli)");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("exit=2"), std::string::npos) << output;
  EXPECT_NE(output.find("not used by this run: --obs-out"), std::string::npos)
      << output;
}

TEST(HlockCheckCli, ReductionFlagsAreHierOnly) {
  const auto [status, output] = run_command(
      tool("hlock_check") + " --protocol naimi --scenario exclusive --por");
  EXPECT_EQ(WEXITSTATUS(status), 2) << output;
  EXPECT_NE(output.find("hier only"), std::string::npos);
}

TEST(HlockLintCli, DumpedSimTraceLintsClean) {
  const auto [status, output] = run_command(
      tool("hlock_sim") + " --nodes 5 --ops 10 --trace-dump sim_cli.trace" +
      " && " + tool("hlock_lint") + " sim_cli.trace");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("trace dump"), std::string::npos);
  EXPECT_NE(output.find("conform to the spec"), std::string::npos);
}

TEST(HlockLintCli, DumpedChaosTraceLintsLikeTheRun) {
  // A threaded run's dump is the stream its own lint checked: hlock_lint
  // must reach the same verdict over the same number of events.
  const std::regex conform{"lint: ok [^0-9]+([0-9]+) events conform"};
  const auto [run_status, run_output] = run_command(
      tool("hlock_sim") + " --chaos --nodes 6 --ops 20 --fault-drop 0.05"
                          " --fault-delay 0.1 --lint"
                          " --trace-dump chaos_cli.trace");
  ASSERT_EQ(run_status, 0) << run_output;
  std::smatch run_match;
  ASSERT_TRUE(std::regex_search(run_output, run_match, conform)) << run_output;

  const auto [lint_status, lint_output] =
      run_command(tool("hlock_lint") + " chaos_cli.trace");
  EXPECT_EQ(lint_status, 0) << lint_output;
  std::smatch lint_match;
  ASSERT_TRUE(std::regex_search(lint_output, lint_match, conform))
      << lint_output;
  EXPECT_EQ(run_match[1], lint_match[1]);
  EXPECT_NE(run_output.find("trace dump    : " + run_match[1].str() +
                            " events -> chaos_cli.trace"),
            std::string::npos)
      << run_output;
}

TEST(HlockLintCli, DumpedScenarioTraceLintsClean) {
  const auto [status, output] = run_command(
      tool("hlock_trace") + " --scenario upgrade --dump > upgrade_cli.trace"
      " && " + tool("hlock_lint") + " upgrade_cli.trace");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("conform to the spec"), std::string::npos);
}

TEST(HlockLintCli, FlagsAHandCraftedViolation) {
  // Two incompatible concurrent holds, written straight in wire format.
  const auto [status, output] = run_command(
      "printf '1 enter-cs 1 - 0 R NL 0 . 0 0 |\\n"
      "2 enter-cs 2 - 0 W NL 0 T 0 0 |\\n' > bad_cli.trace && " +
      tool("hlock_lint") + " bad_cli.trace");
  EXPECT_EQ(WEXITSTATUS(status), 1) << output;
  EXPECT_NE(output.find("VIOLATION incompatible-holds"), std::string::npos)
      << output;
}

TEST(HlockLintCli, RejectsMissingAndMalformedTraces) {
  const auto [missing_status, missing_output] =
      run_command(tool("hlock_lint") + " does_not_exist.trace");
  EXPECT_EQ(WEXITSTATUS(missing_status), 2) << missing_output;
  EXPECT_NE(missing_output.find("cannot open"), std::string::npos);

  const auto [bad_status, bad_output] = run_command(
      "echo garbage > malformed_cli.trace && " + tool("hlock_lint") +
      " malformed_cli.trace");
  EXPECT_EQ(WEXITSTATUS(bad_status), 2) << bad_output;
  EXPECT_NE(bad_output.find("malformed event at line 1"), std::string::npos);
}

TEST(HlockSimCli, SpansFlagPrintsThePhaseBreakdown) {
  const auto [status, output] =
      run_command(tool("hlock_sim") + " --nodes 6 --ops 12 --spans");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("phase-latency breakdown"), std::string::npos);
  EXPECT_NE(output.find("acquire (issued->cs-enter)"), std::string::npos);
}

TEST(HlockSimCli, SpansRequireASingleSeed) {
  // Every per-run artifact; a dump of two seeds would join their event
  // streams into one the offline linter rejects, so none is written.
  for (const char* artifact : {" --spans", " --obs-out seeds_obs_cli",
                               " --trace-dump seeds_cli.trace"}) {
    const auto [status, output] = run_command(
        "(rm -rf seeds_obs_cli seeds_cli.trace && " + tool("hlock_sim") +
        " --nodes 4 --ops 10 --seeds 2" + artifact +
        "; echo exit=$?; test ! -e seeds_obs_cli -a ! -e seeds_cli.trace)");
    EXPECT_EQ(status, 0) << artifact << ": " << output;
    EXPECT_NE(output.find("exit=2"), std::string::npos) << artifact;
    EXPECT_NE(output.find("--seeds 1"), std::string::npos) << output;
  }
}

TEST(HlockSimCli, ObsOutWritesAChromeTrace) {
  const auto [status, output] = run_command(
      tool("hlock_sim") + " --nodes 5 --ops 10 --obs-out obs_cli"
      " && test -s obs_cli/sim-trace.json");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("chrome trace"), std::string::npos);
  EXPECT_NE(output.find("sim-trace.json"), std::string::npos);
}

TEST(HlockSimCli, ChaosModeHonorsTheObservabilityKnobs) {
  const auto [status, output] = run_command(
      tool("hlock_sim") + " --chaos --nodes 4 --ops 8 --fault-delay 0.2"
      " --seed 7 --spans --obs-out chaos_obs_cli"
      " && test -s chaos_obs_cli/chaos-trace.json");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("mutual exclusion OK"), std::string::npos) << output;
  EXPECT_NE(output.find("phase-latency breakdown"), std::string::npos);
  EXPECT_NE(output.find("chaos-trace.json"), std::string::npos);
}

TEST(HlockTraceCli, ExportChromeWritesTheSpanFile) {
  // Parenthesized so run_command's stderr redirection covers the whole
  // chain, not just the trailing `test`.
  const auto [status, output] = run_command(
      "(" + tool("hlock_trace") +
      " --scenario upgrade --export-chrome up_cli.json"
      " && test -s up_cli.json)");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("chrome trace:"), std::string::npos) << output;
}

TEST(HlockSimCli, MetricsOutWritesACleanExposition) {
  const auto [status, output] = run_command(
      "(" + tool("hlock_sim") + " --nodes 5 --ops 10 --metrics-out"
      " sim_cli.prom && " + tool("hlock_metrics_check") + " sim_cli.prom)");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("0 violation(s)"), std::string::npos) << output;
  EXPECT_NE(output.find("metrics"), std::string::npos);
}

TEST(HlockSimCli, ChaosMetricsOutSurvivesTheChecker) {
  const auto [status, output] = run_command(
      "(" + tool("hlock_sim") + " --chaos --nodes 4 --ops 10 --seed 3"
      " --metrics-out chaos_cli.prom"
      " && " + tool("hlock_metrics_check") + " chaos_cli.prom"
      " --expect-nonzero"
      " hlock_engine_grants_total,hlock_messages_sent_total)");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("0 violation(s)"), std::string::npos) << output;
  EXPECT_NE(output.find("expect-nonzero: hlock_engine_grants_total"),
            std::string::npos)
      << output;
}

TEST(HlockSimCli, DoctoredStallTripsTheWatchdog) {
  // --doctor-stall-ms parks the first critical section, so the watchdog
  // must flag at least one stall (the CI telemetry-smoke assertion), and
  // the stall's flight record must carry the telemetry exposition, whose
  // stall counter the watchdog bumps before it dumps the record.
  // Parenthesized so the watchdog's stderr report is captured too.
  const auto [status, output] = run_command(
      "(rm -rf stall_obs_cli && " + tool("hlock_sim") +
      " --chaos --nodes 3 --ops 6 --seed 2"
      " --doctor-stall-ms 400 --watchdog-floor-ms 50"
      " --metrics-out stall_cli.prom --obs-out stall_obs_cli"
      " && " + tool("hlock_metrics_check") + " stall_cli.prom"
      " --expect-nonzero hlock_stalled_requests_total"
      " && grep -H '^hlock_stalled_requests_total [1-9]'"
      " stall_obs_cli/flight-*.txt)");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("WATCHDOG:"), std::string::npos) << output;
  EXPECT_NE(output.find("expect-nonzero: hlock_stalled_requests_total"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("stall_obs_cli/flight-"), std::string::npos)
      << output;
}

TEST(HlockMetricsCheckCli, FlagsADoctoredExposition) {
  const auto [status, output] = run_command(
      "printf '# TYPE hlock_x_total counter\\nhlock_x_total -1\\n"
      "hlock_x_total 2\\n' > bad_metrics_cli.prom && " +
      tool("hlock_metrics_check") + " bad_metrics_cli.prom");
  EXPECT_EQ(WEXITSTATUS(status), 1) << output;
  EXPECT_NE(output.find("FAIL"), std::string::npos);
  EXPECT_NE(output.find("duplicate series"), std::string::npos) << output;
  EXPECT_NE(output.find("negative counter"), std::string::npos) << output;
}

TEST(HlockMetricsCheckCli, TwoFilesCheckCounterMonotonicity) {
  const auto [status, output] = run_command(
      "printf '# TYPE hlock_x_total counter\\nhlock_x_total 10\\n'"
      " > earlier_cli.prom && "
      "printf '# TYPE hlock_x_total counter\\nhlock_x_total 4\\n'"
      " > later_cli.prom && " +
      tool("hlock_metrics_check") + " earlier_cli.prom later_cli.prom");
  EXPECT_EQ(WEXITSTATUS(status), 1) << output;
  EXPECT_NE(output.find("counter decreased"), std::string::npos) << output;
}

TEST(HlockMetricsCheckCli, FilesRefuseTheScrapeFlags) {
  // Retries and a rescrape only apply to --scrape; reading a file would
  // silently skip the second look and its monotonicity check.
  const auto [status, output] = run_command(
      "printf '# TYPE hlock_x_total counter\\nhlock_x_total 1\\n'"
      " > scrape_flags_cli.prom && " +
      tool("hlock_metrics_check") +
      " scrape_flags_cli.prom --retries 5 --rescrape-ms 300");
  EXPECT_EQ(WEXITSTATUS(status), 2) << output;
  EXPECT_NE(output.find("not used by this run: --retries, --rescrape-ms"),
            std::string::npos)
      << output;
}

TEST(HlockMetricsCheckCli, RejectsMissingFilesWithUsage) {
  const auto [status, output] =
      run_command(tool("hlock_metrics_check") + " does_not_exist.prom");
  EXPECT_EQ(WEXITSTATUS(status), 2) << output;
  EXPECT_NE(output.find("cannot read"), std::string::npos);
}

TEST(HlockTopCli, RendersAOneShotFrameFromAFile) {
  const auto [status, output] = run_command(
      tool("hlock_sim") + " --chaos --nodes 4 --ops 12 --seed 4"
      " --metrics-out top_cli.prom"
      " && " + tool("hlock_top") +
      " --from top_cli.prom --iterations 1 --no-clear");
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("hlock_top —"), std::string::npos) << output;
  EXPECT_NE(output.find("requests"), std::string::npos);
  EXPECT_NE(output.find("grants"), std::string::npos);
  EXPECT_NE(output.find("wait time"), std::string::npos) << output;
  EXPECT_NE(output.find("tokens:"), std::string::npos) << output;
}

TEST(HlockTopCli, RequiresExactlyOneSource) {
  const auto [status, output] = run_command(tool("hlock_top"));
  EXPECT_EQ(WEXITSTATUS(status), 2) << output;
  EXPECT_NE(output.find("exactly one of --from or --connect"),
            std::string::npos)
      << output;
}

TEST(HlockLintCli, HelpNamesThePositionalArgument) {
  const auto [status, output] = run_command(tool("hlock_lint") + " --help");
  EXPECT_EQ(status, 0);
  EXPECT_NE(output.find("TRACE-FILE"), std::string::npos);
  EXPECT_NE(output.find("--freezing"), std::string::npos);
}

}  // namespace
