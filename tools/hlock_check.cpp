// hlock_check — run the exhaustive model checker from the command line.
//
// Explores every interleaving of a small scripted scenario and reports the
// state count, or the violation with its action trace. With --lint (hier
// only) every first-visit terminal path is additionally checked against the
// paper's Tables 1(a)-(d) by the conformance linter, and a counterexample's
// structured event trace is dumped and re-linted post hoc.
//
// State-space reductions (hier only; docs/modelcheck.md):
//   --por        partial-order reduction (persistent sets)
//   --symmetry   canonicalize states modulo node-id permutations
//   --liveness   search the explored graph for starvation lassos
//   --minimize   BFS order, so counterexamples are depth-minimal
//   --cross-validate   run the same scenario unreduced and assert both
//                      agree on the verdict and violation fingerprint
//   --doctor starve|conflict   seed a known-bad spec corruption (checker
//                              self-test: the run SHOULD find a violation)
//
// Exit codes: 0 ok, 1 violation found, 2 usage error, 3 state budget
// exhausted, 4 internal error or cross-validation mismatch.
//
// Crash-stop exploration (docs/recovery.md): --crash lists victims that
// may crash at ANY reachable state; the explorer then interleaves failure
// detection, the epoch-fence campaign and protocol traffic exhaustively,
// checking per-epoch token conservation and that every SURVIVOR's script
// completes (no lost waiter). --crash-doctored seeds the double-
// regeneration bug (two same-epoch roots) that the per-epoch check must
// catch — an expect-violation run, like --doctor.
//
//   hlock_check --protocol hier --scenario mixed --nodes 3
//   hlock_check --protocol raymond --scenario exclusive --nodes 5
//   hlock_check --scenario contend --nodes 3 --por --symmetry --stats
//   hlock_check --scenario exclusive --doctor starve --liveness
//   hlock_check --scenario hold --nodes 3 --crash 0 --por --cross-validate
//   hlock_check --scenario hold --nodes 3 --crash 0 --crash-doctored
#include <cstdio>
#include <exception>
#include <fstream>

#include "lint/checker.hpp"
#include "modelcheck/explorer.hpp"
#include "obs/run_artifacts.hpp"
#include "trace/event.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

using namespace hlock;
using modelcheck::ExploreOptions;
using modelcheck::ExploreResult;
using modelcheck::Script;
using modelcheck::ScriptOp;
using modelcheck::Verdict;
using proto::LockMode;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitViolation = 1;
constexpr int kExitStateLimit = 3;
constexpr int kExitInternal = 4;

std::vector<Script> build_scripts(const std::string& scenario,
                                  std::size_t nodes) {
  const Script exclusive{ScriptOp::acquire(LockMode::kW),
                         ScriptOp::release()};
  if (scenario == "exclusive") {
    return std::vector<Script>(nodes, exclusive);
  }
  if (scenario == "mixed") {
    std::vector<Script> scripts;
    const LockMode modes[] = {LockMode::kIR, LockMode::kR, LockMode::kW,
                              LockMode::kIW, LockMode::kU};
    for (std::size_t i = 0; i < nodes; ++i) {
      scripts.push_back({ScriptOp::acquire(modes[i % 5]),
                         ScriptOp::release()});
    }
    return scripts;
  }
  if (scenario == "upgrade") {
    std::vector<Script> scripts(nodes, {ScriptOp::acquire(LockMode::kIR),
                                        ScriptOp::release()});
    scripts[0] = {ScriptOp::acquire(LockMode::kU), ScriptOp::upgrade(),
                  ScriptOp::release()};
    return scripts;
  }
  if (scenario == "repeat") {
    return std::vector<Script>(
        nodes, {ScriptOp::acquire(LockMode::kR), ScriptOp::release(),
                ScriptOp::acquire(LockMode::kW), ScriptOp::release()});
  }
  if (scenario == "hold") {
    // Crash-during-hold: node 0 takes W and NEVER releases — pair with
    // --crash 0. Every other node contends for W, so the token must be
    // regenerated (epoch fence) for the survivors' scripts to complete;
    // without --crash the waiters never resolve and the run reports the
    // (expected) deadlock.
    std::vector<Script> scripts(nodes, exclusive);
    scripts[0] = {ScriptOp::acquire(LockMode::kW)};
    return scripts;
  }
  if (scenario == "contend") {
    // Re-acquisition under contention: every node requests twice, so the
    // token keeps circulating. The docs/modelcheck.md reference
    // configuration for measuring the reductions.
    return std::vector<Script>(
        nodes, {ScriptOp::acquire(LockMode::kU), ScriptOp::release(),
                ScriptOp::acquire(LockMode::kIR)});
  }
  throw UsageError("unknown scenario: " + scenario +
                   " (exclusive | mixed | upgrade | repeat | contend | "
                   "hold)");
}

std::vector<proto::NodeId> parse_victims(const std::string& spec,
                                         std::size_t nodes) {
  std::vector<proto::NodeId> victims;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    std::size_t used = 0;
    unsigned long value = 0;
    try {
      value = std::stoul(item, &used);
    } catch (const std::exception&) {
      throw UsageError("malformed --crash entry: '" + item + "'");
    }
    if (used != item.size() || value >= nodes) {
      throw UsageError("--crash victim out of range: '" + item + "'");
    }
    victims.push_back(proto::NodeId{static_cast<std::uint32_t>(value)});
    pos = comma + 1;
  }
  if (victims.empty()) throw UsageError("--crash lists no victims");
  if (victims.size() > nodes - 1) {
    throw UsageError("--crash must leave at least one survivor");
  }
  return victims;
}

modelcheck::DoctoredSpec build_doctor(const std::string& kind,
                                      std::size_t nodes) {
  modelcheck::DoctoredSpec doctor;
  if (kind == "none") return doctor;
  if (kind == "starve") {
    // Bounce the last node's requests at the network layer: its request
    // orbits forever, a seeded starvation cycle for --liveness.
    doctor.bounce = proto::NodeId{static_cast<std::uint32_t>(nodes - 1)};
    return doctor;
  }
  if (kind == "conflict") {
    // Flip Table 1(a) for a pair that genuinely co-occurs, turning a
    // reachable good state into a seeded safety violation.
    doctor.conflicts.push_back({LockMode::kR, LockMode::kIR});
    doctor.conflicts.push_back({LockMode::kR, LockMode::kR});
    return doctor;
  }
  throw UsageError("unknown --doctor: " + kind +
                   " (none | starve | conflict)");
}

void print_stats(const modelcheck::ExploreStats& stats) {
  const auto u64 = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::printf("stats:\n");
  std::printf("  revisits              : %llu\n", u64(stats.revisits));
  std::printf("  por reduced states    : %llu\n",
              u64(stats.por_reduced_states));
  std::printf("  por pruned actions    : %llu\n",
              u64(stats.por_pruned_actions));
  std::printf("  por reject saturated  : %llu\n",
              u64(stats.por_reject_saturated));
  std::printf("  por reject visible    : %llu\n",
              u64(stats.por_reject_visible));
  std::printf("  por ignoring repairs  : %llu\n",
              u64(stats.por_ignoring_repairs));
  std::printf("  symmetry permutations : %llu\n",
              u64(stats.symmetry_permutations));
  std::printf("  peak frontier         : %llu\n", u64(stats.peak_frontier));
  std::printf("  max depth             : %llu\n", u64(stats.max_depth));
}

void write_stats_json(const std::string& path, const ExploreResult& result) {
  std::ofstream out(path);
  if (!out) throw UsageError("cannot write --stats-out file: " + path);
  const auto field = [&out](const char* name, std::uint64_t v,
                            bool last = false) {
    out << "  \"" << name << "\": " << v << (last ? "\n" : ",\n");
  };
  out << "{\n";
  out << "  \"verdict\": \"" << modelcheck::to_string(result.verdict)
      << "\",\n";
  out << "  \"violation_fingerprint\": \"" << result.violation_fingerprint
      << "\",\n";
  field("states_explored", result.states_explored);
  field("transitions", result.transitions);
  field("terminal_states", result.terminal_states);
  field("revisits", result.stats.revisits);
  field("por_reduced_states", result.stats.por_reduced_states);
  field("por_pruned_actions", result.stats.por_pruned_actions);
  field("por_reject_saturated", result.stats.por_reject_saturated);
  field("por_reject_visible", result.stats.por_reject_visible);
  field("por_ignoring_repairs", result.stats.por_ignoring_repairs);
  field("symmetry_permutations", result.stats.symmetry_permutations);
  field("peak_frontier", result.stats.peak_frontier);
  field("max_depth", result.stats.max_depth, true);
  out << "}\n";
}

void print_trace(const ExploreResult& result) {
  const std::size_t stem =
      result.trace.size() -
      static_cast<std::size_t>(result.lasso_cycle_length);
  std::printf("trace:\n");
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    if (result.lasso_cycle_length > 0 && i == stem) {
      std::printf("  -- cycle (repeats forever) --\n");
    }
    std::printf("  %s\n", result.trace[i].c_str());
  }
}

/// Runs the checker as `cli` asks; returns the tool's exit code.
int check(const CliParser& cli) {
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes", 1, 8));
  const auto budget = static_cast<std::uint64_t>(
      cli.get_int("max-states", 1, 1'000'000'000));
  const std::string protocol = cli.get_string("protocol");
  if (protocol != "hier" && protocol != "naimi" && protocol != "raymond") {
    throw UsageError("unknown protocol: " + protocol);
  }
  const auto scripts = build_scripts(cli.get_string("scenario"), nodes);

  const bool lint = cli.get_flag("lint");
  const bool cross_validate = cli.get_flag("cross-validate");
  ExploreOptions options;
  options.max_states = budget;
  options.lint = lint;
  options.por = cli.get_flag("por");
  options.symmetry = cli.get_flag("symmetry");
  options.liveness = cli.get_flag("liveness");
  options.minimize = cli.get_flag("minimize");
  options.doctor = build_doctor(cli.get_string("doctor"), nodes);
  const std::string crash_spec = cli.get_string("crash");
  if (!crash_spec.empty()) {
    options.crash.victims = parse_victims(crash_spec, nodes);
    options.crash.recovery.doctor_double_fence =
        cli.get_flag("crash-doctored");
  } else if (cli.get_flag("crash-doctored")) {
    throw UsageError("--crash-doctored requires --crash");
  }
  const bool hier_only_features = lint || options.por ||
                                  options.symmetry || options.liveness ||
                                  options.minimize ||
                                  options.doctor.active() ||
                                  options.crash.active() ||
                                  cross_validate;
  if (hier_only_features && protocol != "hier") {
    throw UsageError(
        "--lint/--por/--symmetry/--liveness/--minimize/--doctor/"
        "--crash/--cross-validate apply to --protocol hier only");
  }
  const bool stats = cli.get_flag("stats");
  const std::string stats_out = cli.get_string("stats-out");
  // Only the hierarchical explorer records a counterexample's events.
  const std::string obs_out =
      protocol == "hier" ? cli.get_string("obs-out") : "";
  cli.reject_unread();

  ExploreResult result;
  if (protocol == "hier") {
    result = modelcheck::explore(scripts, options);
  } else if (protocol == "naimi") {
    result = modelcheck::explore_naimi(scripts, budget);
  } else {
    result = modelcheck::explore_raymond(scripts, budget);
  }

  std::printf("states explored : %llu\n",
              static_cast<unsigned long long>(result.states_explored));
  std::printf("transitions     : %llu\n",
              static_cast<unsigned long long>(result.transitions));
  std::printf("terminal states : %llu\n",
              static_cast<unsigned long long>(result.terminal_states));
  std::printf("state budget    : %llu of %llu used\n",
              static_cast<unsigned long long>(result.states_explored),
              static_cast<unsigned long long>(budget));
  if (stats) print_stats(result.stats);
  if (!stats_out.empty()) write_stats_json(stats_out, result);

  if (cross_validate) {
    // Same scenario, reductions off. Counterexample PATHS may differ
    // (exploration order), so compare the order-independent summary:
    // verdict plus violation fingerprint.
    ExploreOptions plain = options;
    plain.por = false;
    plain.symmetry = false;
    plain.minimize = false;
    const ExploreResult unreduced = modelcheck::explore(scripts, plain);
    std::printf("cross-validate  : reduced %llu states, unreduced %llu\n",
                static_cast<unsigned long long>(result.states_explored),
                static_cast<unsigned long long>(
                    unreduced.states_explored));
    if (unreduced.verdict != result.verdict ||
        unreduced.violation_fingerprint != result.violation_fingerprint) {
      std::printf("cross-validate  : MISMATCH — reduced %s [%s] vs "
                  "unreduced %s [%s]\n",
                  modelcheck::to_string(result.verdict).c_str(),
                  result.violation_fingerprint.c_str(),
                  modelcheck::to_string(unreduced.verdict).c_str(),
                  unreduced.violation_fingerprint.c_str());
      return kExitInternal;
    }
    std::printf("cross-validate  : verdicts agree (%s)\n",
                modelcheck::to_string(result.verdict).c_str());
  }

  if (result.ok) {
    std::printf("verdict         : OK — every interleaving is safe, "
                "live and convergent%s\n",
                lint ? " (and every linted path conforms to the spec "
                       "tables)"
                     : "");
    return kExitOk;
  }
  if (result.verdict == Verdict::kStateLimit) {
    std::printf("verdict         : ABORTED — %s\n",
                result.violation.c_str());
    return kExitStateLimit;
  }
  std::printf("verdict         : VIOLATION (%s) — %s\n",
              modelcheck::to_string(result.verdict).c_str(),
              result.violation.c_str());
  std::printf("fingerprint     : %s\n",
              result.violation_fingerprint.c_str());
  print_trace(result);
  if (!result.events.empty()) {
    // Post-hoc conformance lint of the counterexample: the structured
    // events pinpoint which rule/table broke, with event context.
    std::printf("counterexample events:\n");
    for (const trace::TraceEvent& event : result.events) {
      std::printf("  %s\n", trace::format_event(event).c_str());
    }
    // Defaults of LintOptions mirror the default HierConfig this tool
    // explores with; only the initial token holder needs pinning.
    lint::LintOptions lint_options;
    lint_options.initial_token = proto::NodeId{0};
    const lint::LintReport report =
        lint::check(result.events, lint_options);
    std::fputs(report.render().c_str(), stdout);
  }
  if (!obs_out.empty() && !result.events.empty()) {
    // Ship the counterexample as a flight record: the rendered ring plus
    // spans/Chrome trace make the violating interleaving replayable in a
    // trace viewer instead of a wall of event lines.
    obs::RunArtifacts artifacts{{.obs_out = obs_out, .node_count = nodes}};
    for (const trace::TraceEvent& event : result.events) {
      artifacts.observe(event);
    }
    const std::string record =
        artifacts.flight_record("model-check violation: " + result.violation);
    if (!record.empty()) {
      std::printf("flight record   : %s\n", record.c_str());
    }
  }
  return kExitViolation;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli{"hlock_check",
                "exhaustively model-check a scripted lock scenario"};
  cli.add_option("protocol", "hier", "hier | naimi | raymond");
  cli.add_option("scenario", "mixed",
                 "exclusive | mixed | upgrade | repeat | contend");
  cli.add_option("nodes", "3", "number of nodes (1-8; state spaces grow "
                               "factorially)");
  cli.add_option("max-states", "5000000", "exploration budget");
  cli.add_flag("lint",
               "conformance-lint every terminal path against the paper's "
               "spec tables (hier only)");
  cli.add_flag("por", "partial-order reduction (hier only)");
  cli.add_flag("symmetry",
               "canonicalize states modulo node permutations (hier only)");
  cli.add_flag("liveness",
               "detect starvation lassos in the explored graph (hier only)");
  cli.add_flag("minimize",
               "breadth-first search for depth-minimal counterexamples "
               "(hier only)");
  cli.add_flag("stats", "print reduction/search counters");
  cli.add_option("stats-out", "", "write the counters as JSON to this file");
  cli.add_flag("cross-validate",
               "also run unreduced and require identical verdict and "
               "violation fingerprint (hier only)");
  cli.add_option("doctor", "none",
                 "seed a spec corruption: none | starve | conflict "
                 "(hier only; the run should FIND the seeded violation)");
  cli.add_option("crash", "",
                 "comma-separated node ids that may crash-stop at any "
                 "point; explores epoch-fenced recovery exhaustively "
                 "(hier only)");
  cli.add_flag("crash-doctored",
               "with --crash: seed the double-regeneration bug (two "
               "same-epoch fence roots); the run should FIND the "
               "violation");
  cli.add_option("obs-out", "",
                 "on a violation, export the counterexample's event trace "
                 "as a flight record (plus Chrome trace JSON) under this "
                 "directory");

  return cli.run(argc, argv, [&cli] {
    try {
      return check(cli);
    } catch (const UsageError&) {
      throw;  // run() reports it with the help text
    } catch (const std::exception& error) {
      std::fprintf(stderr, "internal error: %s\n", error.what());
      return kExitInternal;
    }
  });
}
