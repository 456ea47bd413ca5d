// hlock_lint — conformance-lint a dumped protocol trace.
//
// Reads a trace file of format_event() lines (one event per line, as
// produced by `hlock_trace --dump` or any TraceRecorder dump), replays it
// against the paper's spec tables (src/lint) and reports every violation of
// Rules 1-7 / Tables 1(a)-(d) with its offending event window. Exits 0 on
// a conforming trace, 1 on violations, 2 on usage/parse errors.
//
//   hlock_trace --scenario priority --dump > priority.trace
//   hlock_lint priority.trace
//   hlock_lint --freezing 0 unfair.trace   # run had freezing disabled
#include <cstdio>
#include <fstream>
#include <string>

#include "lint/checker.hpp"
#include "trace/event.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

using namespace hlock;

int main(int argc, char** argv) {
  CliParser cli{"hlock_lint",
                "check a dumped event trace against the paper's spec"};
  cli.add_option("initial-token", "-1",
                 "node holding the token at trace start (-1 = infer from "
                 "the first token-flagged event)");
  cli.add_option("local-queueing", "1",
                 "the traced run had Table 1(c) local queueing on");
  cli.add_option("child-grants", "1",
                 "the traced run had Table 1(b) non-token grants on");
  cli.add_option("path-compression", "1",
                 "the traced run had dynamic path compression on");
  cli.add_option("freezing", "1",
                 "the traced run had Rule 6 freezing on (0 waives the "
                 "fairness checks)");
  cli.add_option("starvation-limit", "50000",
                 "events a request may wait before being reported starved");
  cli.allow_positionals("TRACE-FILE");

  return cli.run(argc, argv, [&] {
    const std::vector<std::string>& files = cli.positional();
    if (files.size() != 1) {
      throw UsageError("expected exactly one trace file argument");
    }

    lint::LintOptions options;
    const std::int64_t token = cli.get_int("initial-token", -1, 1 << 20);
    if (token >= 0) {
      options.initial_token = proto::NodeId{static_cast<std::uint32_t>(token)};
    }
    options.local_queueing = cli.get_int("local-queueing", 0, 1) != 0;
    options.child_grants = cli.get_int("child-grants", 0, 1) != 0;
    options.path_compression = cli.get_int("path-compression", 0, 1) != 0;
    options.freezing = cli.get_int("freezing", 0, 1) != 0;
    options.starvation_limit = static_cast<std::size_t>(
        cli.get_int("starvation-limit", 1, 1'000'000'000));

    std::ifstream in{files.front()};
    if (!in) throw UsageError("cannot open trace file: " + files.front());

    lint::Checker checker{options};
    std::size_t line_number = 0;
    std::size_t parsed = 0;
    std::string line;
    while (std::getline(in, line)) {
      ++line_number;
      if (line.empty() || line.front() == '#') continue;
      const auto event = trace::parse_event(line);
      if (!event) {
        throw UsageError("malformed event at line " +
                         std::to_string(line_number) + ": " + line);
      }
      checker.add(*event);
      ++parsed;
    }
    if (parsed == 0) throw UsageError("trace file holds no events");

    const lint::LintReport report = checker.finish();
    std::fputs(report.render().c_str(), stdout);
    return report.ok() ? 0 : 1;
  });
}
