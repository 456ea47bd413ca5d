#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "util/check.hpp"

namespace hlock::obs {

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Microsecond timestamp field from a nanosecond SimTime stamp.
std::string ts_us(SimTime at) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(at.count_ns()) / 1000.0);
  return buf;
}

/// Appends one JSON event object, managing the leading comma.
class EventList {
 public:
  explicit EventList(std::ostringstream& os) : os_(os) {}

  std::ostringstream& next() {
    if (!first_) os_ << ",\n";
    first_ = false;
    return os_;
  }

 private:
  std::ostringstream& os_;
  bool first_ = true;
};

}  // namespace

std::string chrome_trace_json(const std::vector<RequestSpan>& spans,
                              std::size_t node_count) {
  // The set of node tracks: every declared node plus every node any span
  // event touched (so an undeclared node still gets a named track).
  std::set<std::uint32_t> nodes;
  for (std::size_t i = 0; i < node_count; ++i) {
    nodes.insert(static_cast<std::uint32_t>(i));
  }
  for (const RequestSpan& span : spans) {
    if (!span.id.origin.is_none()) nodes.insert(span.id.origin.value());
    for (const SpanEvent& event : span.events) {
      if (!event.node.is_none()) nodes.insert(event.node.value());
    }
  }

  std::ostringstream os;
  os << "{\"traceEvents\": [\n";
  EventList events{os};

  for (std::uint32_t node : nodes) {
    events.next() << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
                  << node << ", \"tid\": 0, \"args\": {\"name\": \"node"
                  << node << "\"}}";
  }

  for (const RequestSpan& span : spans) {
    if (span.events.empty()) continue;
    // Chrome correlates async b/e pairs by (cat, id): scope the id by lock,
    // since per-lock sequence counters make bare RequestIds collide across
    // locks.
    const std::string id =
        json_escape("lock" + std::to_string(span.lock.value()) + "/" +
                    to_string(span.id));
    const std::string name =
        json_escape("lock" + std::to_string(span.lock.value()) + " " +
                    to_string(span.mode) + " " + to_string(span.id));
    const std::uint32_t pid =
        span.id.origin.is_none() ? 0 : span.id.origin.value();

    // One async span per request on the origin node's track, opened at the
    // first observed phase and closed at the last (cs-exit when complete).
    const SpanEvent& first = span.events.front();
    const SpanEvent& last = span.events.back();
    events.next() << "{\"name\": \"" << name
                  << "\", \"cat\": \"request\", \"ph\": \"b\", \"id\": \""
                  << id << "\", \"pid\": " << pid
                  << ", \"tid\": 0, \"ts\": " << ts_us(first.at)
                  << ", \"args\": {\"mode\": \"" << to_string(span.mode)
                  << "\", \"priority\": "
                  << static_cast<unsigned>(span.priority) << "}}";
    events.next() << "{\"name\": \"" << name
                  << "\", \"cat\": \"request\", \"ph\": \"e\", \"id\": \""
                  << id << "\", \"pid\": " << pid
                  << ", \"tid\": 0, \"ts\": " << ts_us(last.at)
                  << ", \"args\": {\"complete\": "
                  << (span.complete() ? "true" : "false") << "}}";

    // One instant per phase transition on the acting node's track.
    for (const SpanEvent& event : span.events) {
      const std::uint32_t event_pid =
          event.node.is_none() ? pid : event.node.value();
      events.next() << "{\"name\": \"" << to_string(event.phase)
                    << "\", \"cat\": \"phase\", \"ph\": \"i\", \"s\": \"t\""
                    << ", \"pid\": " << event_pid
                    << ", \"tid\": 0, \"ts\": " << ts_us(event.at)
                    << ", \"args\": {\"request\": \"" << id
                    << "\", \"lamport\": " << event.lamport << "}}";
    }

    // Critical-section slice on the requester's track.
    const SpanEvent* enter = span.find(Phase::kCsEntered);
    const SpanEvent* exit = span.find(Phase::kCsExited);
    if (enter != nullptr && exit != nullptr && exit->at >= enter->at) {
      events.next() << "{\"name\": \"CS lock"
                    << span.lock.value() << " " << to_string(span.mode)
                    << "\", \"cat\": \"cs\", \"ph\": \"X\", \"pid\": " << pid
                    << ", \"tid\": 0, \"ts\": " << ts_us(enter->at)
                    << ", \"dur\": " << ts_us(exit->at - enter->at)
                    << ", \"args\": {\"request\": \"" << id << "\"}}";
    }
  }

  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return os.str();
}

namespace {

/// Recursive-descent RFC 8259 validator. No allocation, no extension
/// syntax; nesting capped so hostile input cannot exhaust the stack.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  static constexpr int kMaxDepth = 256;

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  bool consume(char c) {
    if (eof() || peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value() {
    if (eof() || depth_ > kMaxDepth) return false;
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++depth_;
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return --depth_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return --depth_, true;
      return false;
    }
  }

  bool array() {
    ++depth_;
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return --depth_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return --depth_, true;
      return false;
    }
  }

  bool string() {
    if (!consume('"')) return false;
    while (!eof()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return false;  // raw control characters are invalid
      if (c == '\\') {
        ++pos_;
        if (eof()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          ++pos_;
          for (int i = 0; i < 4; ++i, ++pos_) {
            if (eof() || std::isxdigit(static_cast<unsigned char>(
                             text_[pos_])) == 0) {
              return false;
            }
          }
          continue;
        }
        if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
            esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
        ++pos_;
        continue;
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool digits() {
    if (eof() || std::isdigit(static_cast<unsigned char>(peek())) == 0) {
      return false;
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek())) != 0) {
      ++pos_;
    }
    return true;
  }

  bool number() {
    consume('-');
    if (consume('0')) {
      // leading zero: no further integer digits allowed
    } else if (!digits()) {
      return false;
    }
    if (consume('.') && !digits()) return false;
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digits()) return false;
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

void write_chrome_trace(const std::string& path,
                        const std::vector<RequestSpan>& spans,
                        std::size_t node_count) {
  const std::string json = chrome_trace_json(spans, node_count);
  HLOCK_INVARIANT(validate_json(json),
                  "chrome trace exporter produced invalid JSON");
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << json;
  if (!out.good()) throw UsageError("cannot write chrome trace: " + path);
}

bool validate_json(std::string_view text) {
  return JsonValidator{text}.valid();
}

}  // namespace hlock::obs
