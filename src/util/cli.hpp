// Minimal command-line option parser for the tools and benchmarks.
//
// Supports `--name value`, `--name=value` and boolean `--flag` syntax,
// typed access with range validation, automatic --help text, and strict
// rejection of unknown options (a typo in an experiment sweep must fail
// loudly, not silently fall back to defaults). The typed getters record
// which options a tool read, so an option given for a mode that ignores it
// fails just as loudly (reject_unread).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hlock {

/// See file comment. Declare options, then parse(), then read values.
class CliParser {
 public:
  /// `program` and `description` head the --help output.
  CliParser(std::string program, std::string description);

  /// Declares a string option with a default value.
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Declares a boolean flag (false unless given; accepts --name,
  /// --name=true/false).
  void add_flag(const std::string& name, const std::string& help);

  /// Allows bare (non `--`) arguments; `placeholder` names them in the
  /// help text (e.g. "TRACE-FILE"). Without this call they are rejected.
  void allow_positionals(const std::string& placeholder);

  /// Parses argv. Returns false if --help was requested (help_text() is
  /// ready to print) — callers should then exit 0. Throws UsageError on
  /// unknown options, missing values or malformed input.
  bool parse(int argc, const char* const* argv);

  /// parse(), then `body`, under the tools' exit protocol: --help prints
  /// help_text() to stdout and returns 0; a UsageError from parse() or
  /// `body` prints "error: <what>" and the help text to stderr and returns
  /// 2; otherwise returns body()'s exit code. Other exceptions propagate.
  int run(int argc, const char* const* argv,
          const std::function<int()>& body);

  /// Typed access; all throw UsageError on conversion/range failure. Each
  /// call marks the option read (see reject_unread).
  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name, std::int64_t min,
                       std::int64_t max) const;
  double get_double(const std::string& name, double min, double max) const;
  bool get_flag(const std::string& name) const;

  /// True if the option was given explicitly (not defaulted). Does not
  /// mark it read.
  bool was_set(const std::string& name) const;

  /// Throws UsageError naming every option given on the command line that
  /// no getter has read: the run about to start would ignore it. A tool
  /// calls this once it has read everything its chosen mode uses, before
  /// the run starts.
  void reject_unread() const;

  /// Bare arguments in command-line order (allow_positionals required).
  const std::vector<std::string>& positional() const { return positionals_; }

  /// The rendered --help text.
  std::string help_text() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
    std::optional<std::string> value;
    mutable bool read = false;
  };
  const Option& find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> declaration_order_;
  /// Empty = positionals rejected; otherwise their help placeholder.
  std::string positional_placeholder_;
  std::vector<std::string> positionals_;
};

}  // namespace hlock
