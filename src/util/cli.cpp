#include "util/cli.hpp"

#include <charconv>
#include <cstdio>

#include "util/check.hpp"

namespace hlock {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  HLOCK_REQUIRE(!options_.count(name), "duplicate option declaration");
  options_[name] = Option{default_value, help, /*is_flag=*/false, {}};
  declaration_order_.push_back(name);
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  HLOCK_REQUIRE(!options_.count(name), "duplicate option declaration");
  options_[name] = Option{"false", help, /*is_flag=*/true, {}};
  declaration_order_.push_back(name);
}

void CliParser::allow_positionals(const std::string& placeholder) {
  HLOCK_REQUIRE(!placeholder.empty(), "positionals need a help placeholder");
  positional_placeholder_ = placeholder;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return false;
    if (arg.rfind("--", 0) != 0) {
      HLOCK_REQUIRE(!positional_placeholder_.empty(),
                    "expected --option syntax, got: " + arg);
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);

    std::string name = arg;
    std::optional<std::string> inline_value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    auto it = options_.find(name);
    HLOCK_REQUIRE(it != options_.end(), "unknown option: --" + name);
    Option& option = it->second;

    if (inline_value) {
      option.value = *inline_value;
    } else if (option.is_flag) {
      option.value = "true";
    } else {
      HLOCK_REQUIRE(i + 1 < argc, "missing value for --" + name);
      option.value = argv[++i];
    }
  }
  return true;
}

const CliParser::Option& CliParser::find(const std::string& name) const {
  auto it = options_.find(name);
  HLOCK_REQUIRE(it != options_.end(), "undeclared option queried: " + name);
  return it->second;
}

std::string CliParser::get_string(const std::string& name) const {
  const Option& option = find(name);
  option.read = true;
  return option.value.value_or(option.default_value);
}

std::int64_t CliParser::get_int(const std::string& name, std::int64_t min,
                                std::int64_t max) const {
  const std::string text = get_string(name);
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  HLOCK_REQUIRE(ec == std::errc{} && ptr == text.data() + text.size(),
                "--" + name + " expects an integer, got: " + text);
  HLOCK_REQUIRE(value >= min && value <= max,
                "--" + name + " out of range [" + std::to_string(min) + ", " +
                    std::to_string(max) + "]: " + text);
  return value;
}

double CliParser::get_double(const std::string& name, double min,
                             double max) const {
  const std::string text = get_string(name);
  std::size_t consumed = 0;
  double value = 0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  HLOCK_REQUIRE(consumed == text.size() && !text.empty(),
                "--" + name + " expects a number, got: " + text);
  HLOCK_REQUIRE(value >= min && value <= max,
                "--" + name + " out of range: " + text);
  return value;
}

bool CliParser::get_flag(const std::string& name) const {
  const Option& option = find(name);
  HLOCK_REQUIRE(option.is_flag, "--" + name + " is not a flag");
  const std::string text = get_string(name);
  if (text == "true" || text == "1") return true;
  if (text == "false" || text == "0") return false;
  throw UsageError("--" + name + " expects true/false, got: " + text);
}

bool CliParser::was_set(const std::string& name) const {
  return find(name).value.has_value();
}

void CliParser::reject_unread() const {
  std::string unread;
  for (const std::string& name : declaration_order_) {
    const Option& option = options_.at(name);
    if (!option.value || option.read) continue;
    unread += (unread.empty() ? "--" : ", --") + name;
  }
  if (!unread.empty()) throw UsageError("not used by this run: " + unread);
}

std::string CliParser::help_text() const {
  std::string text = program_ + " — " + description_ + "\n";
  if (!positional_placeholder_.empty()) {
    text += "\nusage: " + program_ + " [options] " + positional_placeholder_ +
            "\n";
  }
  text += "\noptions:\n";
  for (const std::string& name : declaration_order_) {
    const Option& option = options_.at(name);
    text += "  --" + name;
    if (!option.is_flag) text += " <value>";
    text += "\n      " + option.help;
    if (!option.is_flag) text += " (default: " + option.default_value + ")";
    text += "\n";
  }
  text += "  --help\n      print this text\n";
  return text;
}

int CliParser::run(int argc, const char* const* argv,
                   const std::function<int()>& body) {
  try {
    if (!parse(argc, argv)) {
      std::fputs(help_text().c_str(), stdout);
      return 0;
    }
    return body();
  } catch (const UsageError& error) {
    std::fprintf(stderr, "error: %s\n\n%s", error.what(), help_text().c_str());
    return 2;
  }
}

}  // namespace hlock
