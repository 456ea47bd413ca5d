// Every `--flag` the user documentation names must be one a tool accepts:
// the tools reject unknown options, so a stale flag in the docs is a
// command that fails. The test collects the `--name` tokens of docs/*.md,
// README.md and EXPERIMENTS.md and looks each one up in the options the
// six tools' --help declares, or in the short list of flags that belong to
// the other programs the docs show. Tools are located like the CLI tests'
// (build/tests/ -> build/tools/).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

/// cmake (--build), ctest (--test-dir), googletest (--gtest_filter), gcc
/// (--coverage), scan-build (--status-bugs) and perfbench/run.py
/// (--workload, --seconds, --trace).
const std::set<std::string> kOtherProgramsFlags{
    "--build",       "--test-dir", "--gtest_filter", "--coverage",
    "--status-bugs", "--workload", "--seconds",      "--trace"};

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in{path};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The options `tool --help` declares: its lines that start "  --name".
std::set<std::string> declared_flags(const std::string& tool) {
  std::set<std::string> flags;
  FILE* pipe = ::popen(("../tools/" + tool + " --help").c_str(), "r");
  if (pipe == nullptr) return flags;
  std::array<char, 4096> line{};
  const std::regex option{R"(^  (--[a-z0-9-]+)\b.*\n?$)"};
  std::smatch match;
  while (std::fgets(line.data(), line.size(), pipe) != nullptr) {
    const std::string text = line.data();
    if (std::regex_match(text, match, option)) flags.insert(match[1]);
  }
  ::pclose(pipe);
  return flags;
}

TEST(DocumentedFlags, EveryFlagIsOneSomeToolAccepts) {
  std::set<std::string> accepted = kOtherProgramsFlags;
  for (const char* tool : {"hlock_sim", "hlock_check", "hlock_trace",
                           "hlock_lint", "hlock_top",
                           "hlock_metrics_check"}) {
    const std::set<std::string> flags = declared_flags(tool);
    EXPECT_FALSE(flags.empty()) << tool << " --help declared no options";
    accepted.insert(flags.begin(), flags.end());
  }

  const std::filesystem::path root{HLOCK_SOURCE_DIR};
  std::vector<std::filesystem::path> documents{root / "README.md",
                                               root / "EXPERIMENTS.md"};
  for (const auto& entry :
       std::filesystem::directory_iterator{root / "docs"}) {
    if (entry.path().extension() == ".md") documents.push_back(entry.path());
  }

  // A flag is `--` after a non-word character, then a lowercase name.
  const std::regex flag{R"((?:^|[^\w-])(--[a-z][a-z0-9_-]*))"};
  std::set<std::pair<std::string, std::string>> unknown;  // (doc, flag)
  std::size_t checked = 0;
  for (const std::filesystem::path& document : documents) {
    const std::string text = read_file(document);
    for (auto it = std::sregex_iterator(text.begin(), text.end(), flag);
         it != std::sregex_iterator(); ++it) {
      ++checked;
      const std::string name = (*it)[1];
      if (!accepted.count(name)) {
        unknown.emplace(document.filename().string(), name);
      }
    }
  }
  EXPECT_GT(checked, 100u) << "the scan found almost no flags";
  for (const auto& [document, name] : unknown) {
    ADD_FAILURE() << document << " names " << name
                  << ", which no tool's --help declares";
  }
}

}  // namespace
