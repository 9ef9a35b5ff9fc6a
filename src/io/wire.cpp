#include "io/wire.hpp"

#include <cctype>
#include <charconv>
#include <cstring>
#include <limits>
#include <sstream>

#include "io/system_format.hpp"
#include "util/expect.hpp"
#include "util/strings.hpp"

namespace wharf::io {

// ---------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------

void LineAssembler::feed(const char* data, std::size_t n) {
  if (!discarding_) {
    buffer_.append(data, n);
    return;
  }
  // Inside an oversized line: only the tail after the next newline may
  // be kept — everything before it belongs to the line being discarded.
  const char* nl = static_cast<const char*>(std::memchr(data, '\n', n));
  if (nl == nullptr) return;  // still discarding; drop the whole chunk
  discarding_ = false;
  buffer_.append(nl + 1, static_cast<std::size_t>(data + n - (nl + 1)));
}

LineAssembler::Result LineAssembler::next(std::string& line) {
  const std::size_t nl = buffer_.find('\n');
  if (nl == std::string::npos) {
    if (buffer_.size() > max_line_) {
      // The line is already over the bound with no end in sight: report
      // it now and discard until its newline eventually arrives.
      buffer_.clear();
      discarding_ = true;
      return Result::kOversized;
    }
    return Result::kNone;
  }
  if (nl > max_line_) {
    buffer_.erase(0, nl + 1);
    return Result::kOversized;
  }
  line.assign(buffer_, 0, nl);
  buffer_.erase(0, nl + 1);
  return Result::kLine;
}

bool read_line_bounded(std::istream& in, std::string& line, std::size_t max_line_bytes,
                       bool& oversized) {
  line.clear();
  oversized = false;
  char c = 0;
  while (in.get(c)) {
    if (c == '\n') return true;
    if (line.size() >= max_line_bytes) {
      // Over the bound: stop storing, eat the rest of the line so the
      // stream stays framed, and report the line as oversized.
      oversized = true;
      line.clear();
      while (in.get(c) && c != '\n') {
      }
      return true;
    }
    line += c;
  }
  return !line.empty();  // EOF: deliver a final unterminated line, if any
}

std::string oversized_line_error(std::size_t max_line_bytes) {
  return wire_protocol_error(Status::invalid_argument(
      util::cat("request line exceeds the ", max_line_bytes, "-byte protocol bound")));
}

bool blank_line(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

// ---------------------------------------------------------------------
// JsonValue accessors
// ---------------------------------------------------------------------

bool JsonValue::as_bool() const {
  WHARF_EXPECT(kind_ == Kind::kBool, "expected a JSON boolean");
  return bool_;
}

long long JsonValue::as_int() const {
  WHARF_EXPECT(kind_ == Kind::kNumber && integral_, "expected a JSON integer");
  return int_;
}

double JsonValue::as_double() const {
  WHARF_EXPECT(kind_ == Kind::kNumber, "expected a JSON number");
  return integral_ ? static_cast<double>(int_) : double_;
}

const std::string& JsonValue::as_string() const {
  WHARF_EXPECT(kind_ == Kind::kString, "expected a JSON string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  WHARF_EXPECT(kind_ == Kind::kArray, "expected a JSON array");
  return items_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  WHARF_EXPECT(kind_ == Kind::kObject, "expected a JSON object");
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* found = find(key);
  WHARF_EXPECT(found != nullptr, "missing required field '" << key << "'");
  return *found;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  WHARF_EXPECT(kind_ == Kind::kObject, "expected a JSON object");
  return members_;
}

// ---------------------------------------------------------------------
// JSON parsing (recursive descent; protocol documents are one line)
// ---------------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(message + " (at offset " + std::to_string(pos_) + ")", 1);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          fail("JSON nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
        }
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kBool;
        if (consume_literal("true")) {
          v.bool_ = true;
        } else if (consume_literal("false")) {
          v.bool_ = false;
        } else {
          fail("malformed literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("malformed literal");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("malformed \\u escape");
              }
            }
            // UTF-8 encode the BMP code point (the protocol is ASCII in
            // practice; surrogate pairs are out of scope).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);

    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    if (token.find_first_of(".eE") == std::string::npos) {
      long long parsed = 0;
      const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), parsed);
      if (ec != std::errc() || end != token.data() + token.size()) fail("malformed integer");
      v.integral_ = true;
      v.int_ = parsed;
    } else {
      // from_chars, not stod: the whole token must parse ("1.2.3" is a
      // protocol error, not 1.2).
      double parsed = 0;
      const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), parsed);
      if (ec != std::errc() || end != token.data() + token.size()) fail("malformed number");
      v.double_ = parsed;
    }
    return v;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']'");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') fail("expected a string key");
      std::string key = parse_string();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open arrays/objects around the cursor
};

JsonValue parse_json(const std::string& text) { return JsonParser(text).parse(); }

// ---------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------

const char* to_string(WireKind kind) {
  switch (kind) {
    case WireKind::kOpenSession: return "open_session";
    case WireKind::kApplyDelta: return "apply_delta";
    case WireKind::kQuery: return "query";
    case WireKind::kEvaluate: return "evaluate";
    case WireKind::kDiagnostics: return "diagnostics";
    case WireKind::kClose: return "close";
    case WireKind::kShutdown: return "shutdown";
  }
  return "unknown";
}

namespace {

std::vector<Count> parse_count_array(const JsonValue& value, const char* what) {
  std::vector<Count> out;
  for (const JsonValue& item : value.items()) {
    const long long v = item.as_int();
    WHARF_EXPECT(v >= 1, what << " values must be >= 1, got " << v);
    out.push_back(v);
  }
  return out;
}

std::vector<std::string> parse_string_array(const JsonValue& value) {
  std::vector<std::string> out;
  for (const JsonValue& item : value.items()) out.push_back(item.as_string());
  return out;
}

Delta parse_delta(const JsonValue& value) {
  const std::string& kind = value.at("kind").as_string();
  if (kind == "set_priority") {
    return SetPriorityDelta{value.at("task").as_string(),
                            static_cast<Priority>(value.at("priority").as_int())};
  }
  if (kind == "set_wcet") {
    return SetWcetDelta{value.at("task").as_string(), value.at("wcet").as_int()};
  }
  if (kind == "set_deadline") {
    SetDeadlineDelta delta;
    delta.chain = value.at("chain").as_string();
    const JsonValue* deadline = value.find("deadline");
    if (deadline != nullptr && !deadline->is_null()) delta.deadline = deadline->as_int();
    return delta;
  }
  if (kind == "set_arrival") {
    return SetArrivalDelta{value.at("chain").as_string(), value.at("arrival").as_string()};
  }
  if (kind == "add_chain") {
    return AddChainDelta{parse_chain(value.at("chain").as_string())};
  }
  if (kind == "remove_chain") {
    return RemoveChainDelta{value.at("chain").as_string()};
  }
  throw InvalidArgument(util::cat("unknown delta kind '", kind, "'"));
}

Query parse_query(const JsonValue& value) {
  const std::string& kind = value.at("kind").as_string();
  if (kind == "latency") {
    LatencyQuery q;
    q.chain = value.at("chain").as_string();
    if (const JsonValue* flag = value.find("without_overload")) {
      q.without_overload = flag->as_bool();
    }
    return q;
  }
  if (kind == "dmm") {
    DmmQuery q;
    q.chain = value.at("chain").as_string();
    if (const JsonValue* ks = value.find("ks")) q.ks = parse_count_array(*ks, "k");
    return q;
  }
  if (kind == "weakly_hard") {
    WeaklyHardQuery q;
    q.chain = value.at("chain").as_string();
    if (const JsonValue* m = value.find("m")) q.m = m->as_int();
    if (const JsonValue* k = value.find("k")) q.k = k->as_int();
    return q;
  }
  if (kind == "simulation") {
    SimulationQuery q;
    if (const JsonValue* horizon = value.find("horizon")) q.horizon = horizon->as_int();
    if (const JsonValue* seed = value.find("seed")) {
      q.seed = static_cast<std::uint64_t>(seed->as_int());
    }
    if (const JsonValue* gap = value.find("extra_gap")) q.extra_gap = gap->as_double();
    if (const JsonValue* check = value.find("check_k")) q.check_k = check->as_int();
    if (const JsonValue* cross = value.find("cross_validate")) {
      q.cross_validate = cross->as_bool();
    }
    return q;
  }
  if (kind == "priority_search") {
    PrioritySearchQuery q;
    if (const JsonValue* strategy = value.find("strategy")) {
      const std::string& name = strategy->as_string();
      if (name == "random") {
        q.strategy = PrioritySearchQuery::Strategy::kRandom;
      } else if (name == "hill" || name == "climb") {
        q.strategy = PrioritySearchQuery::Strategy::kHillClimb;
      } else if (name == "exhaustive") {
        q.strategy = PrioritySearchQuery::Strategy::kExhaustive;
      } else {
        throw InvalidArgument(util::cat("unknown search strategy '", name, "'"));
      }
    }
    if (const JsonValue* k = value.find("k")) q.k = k->as_int();
    if (const JsonValue* budget = value.find("budget")) {
      q.budget = static_cast<int>(budget->as_int());
    }
    if (const JsonValue* restarts = value.find("restarts")) {
      q.restarts = static_cast<int>(restarts->as_int());
    }
    if (const JsonValue* seed = value.find("seed")) {
      q.seed = static_cast<std::uint64_t>(seed->as_int());
    }
    if (const JsonValue* cap = value.find("max_permutations")) {
      q.max_permutations = cap->as_int();
    }
    return q;
  }
  if (kind == "path_latency") {
    return PathLatencyQuery{parse_string_array(value.at("chains"))};
  }
  if (kind == "path_dmm") {
    PathDmmQuery q;
    q.chains = parse_string_array(value.at("chains"));
    q.deadline = value.at("deadline").as_int();
    if (const JsonValue* budgets = value.find("budgets")) {
      for (const JsonValue& b : budgets->items()) q.budgets.push_back(b.as_int());
    }
    if (const JsonValue* ks = value.find("ks")) q.ks = parse_count_array(*ks, "k");
    return q;
  }
  throw InvalidArgument(util::cat("unknown query kind '", kind, "'"));
}

}  // namespace

TwcaOptions parse_twca_options(const JsonValue& value) {
  TwcaOptions options;
  for (const auto& [key, field] : value.members()) {
    if (key == "criterion") {
      const std::string& name = field.as_string();
      if (name == "sufficient_eq5") {
        options.criterion = SchedulabilityCriterion::kSufficientEq5;
      } else if (name == "exact_eq3") {
        options.criterion = SchedulabilityCriterion::kExactEq3;
      } else {
        throw InvalidArgument(util::cat("unknown criterion '", name,
                                        "' (use sufficient_eq5|exact_eq3)"));
      }
    } else if (key == "max_combinations") {
      const long long v = field.as_int();
      WHARF_EXPECT(v >= 1, "max_combinations must be >= 1, got " << v);
      options.max_combinations = static_cast<std::size_t>(v);
    } else if (key == "cap_at_k") {
      options.cap_at_k = field.as_bool();
    } else if (key == "max_busy_windows") {
      const long long v = field.as_int();
      WHARF_EXPECT(v >= 1, "max_busy_windows must be >= 1, got " << v);
      options.analysis.max_busy_windows = v;
    } else if (key == "max_fixed_point_iterations") {
      const long long v = field.as_int();
      WHARF_EXPECT(v >= 1 && v <= std::numeric_limits<int>::max(),
                   "max_fixed_point_iterations must be in [1, 2^31), got " << v);
      options.analysis.max_fixed_point_iterations = static_cast<int>(v);
    } else if (key == "divergence_guard") {
      const long long v = field.as_int();
      WHARF_EXPECT(v >= 1, "divergence_guard must be >= 1, got " << v);
      options.analysis.divergence_guard = v;
    } else if (key == "naive_arbitrary") {
      options.analysis.naive_arbitrary = field.as_bool();
    } else {
      throw InvalidArgument(util::cat("unknown analysis option '", key, "'"));
    }
  }
  return options;
}

void write_twca_options(JsonWriter& w, const TwcaOptions& options) {
  w.begin_object();
  w.key("criterion");
  w.value(options.criterion == SchedulabilityCriterion::kExactEq3 ? "exact_eq3"
                                                                  : "sufficient_eq5");
  w.key("max_combinations");
  w.value(static_cast<long long>(options.max_combinations));
  w.key("cap_at_k");
  w.value(options.cap_at_k);
  w.key("max_busy_windows");
  w.value(options.analysis.max_busy_windows);
  w.key("max_fixed_point_iterations");
  w.value(options.analysis.max_fixed_point_iterations);
  w.key("divergence_guard");
  w.value(options.analysis.divergence_guard);
  w.key("naive_arbitrary");
  w.value(options.analysis.naive_arbitrary);
  w.end_object();
}

Expected<WireRequest> parse_request(const std::string& line) {
  return capture([&] {
    const JsonValue root = parse_json(line);
    WireRequest request;
    if (const JsonValue* id = root.find("id")) {
      request.id = id->as_int();
      request.has_id = true;
    }
    if (const JsonValue* deadline = root.find("deadline_ms")) {
      const long long v = deadline->as_int();
      WHARF_EXPECT(v >= 1, "deadline_ms must be >= 1, got " << v);
      request.deadline_ms = v;
    }
    const std::string& type = root.at("type").as_string();
    if (type == "open_session") {
      request.kind = WireKind::kOpenSession;
    } else if (type == "apply_delta") {
      request.kind = WireKind::kApplyDelta;
    } else if (type == "query") {
      request.kind = WireKind::kQuery;
    } else if (type == "evaluate") {
      request.kind = WireKind::kEvaluate;
    } else if (type == "diagnostics") {
      request.kind = WireKind::kDiagnostics;
    } else if (type == "close") {
      request.kind = WireKind::kClose;
    } else if (type == "shutdown") {
      request.kind = WireKind::kShutdown;
      return request;
    } else {
      throw InvalidArgument(util::cat("unknown request type '", type, "'"));
    }

    request.session = root.at("session").as_string();
    WHARF_EXPECT(!request.session.empty(), "session name must not be empty");
    switch (request.kind) {
      case WireKind::kOpenSession:
        request.system_text = root.at("system").as_string();
        if (const JsonValue* options = root.find("options")) {
          request.options = parse_twca_options(*options);
        }
        break;
      case WireKind::kApplyDelta:
        for (const JsonValue& d : root.at("deltas").items()) {
          request.deltas.push_back(parse_delta(d));
        }
        break;
      case WireKind::kQuery:
        for (const JsonValue& q : root.at("queries").items()) {
          request.queries.push_back(parse_query(q));
        }
        if (const JsonValue* stream = root.find("stream")) {
          request.stream = stream->as_bool();
        }
        break;
      case WireKind::kEvaluate: {
        const long long unit = root.at("unit").as_int();
        WHARF_EXPECT(unit >= 0, "unit must be >= 0, got " << unit);
        request.unit = static_cast<std::uint64_t>(unit);
        for (const JsonValue& candidate : root.at("candidates").items()) {
          std::vector<Priority> priorities;
          for (const JsonValue& p : candidate.items()) {
            priorities.push_back(static_cast<Priority>(p.as_int()));
          }
          request.candidates.push_back(std::move(priorities));
        }
        WHARF_EXPECT(!request.candidates.empty(), "candidates must not be empty");
        if (const JsonValue* k = root.find("k")) {
          const long long v = k->as_int();
          WHARF_EXPECT(v >= 1, "k must be >= 1, got " << v);
          request.eval_k = static_cast<Count>(v);
        }
        break;
      }
      default: break;
    }
    return request;
  });
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

namespace {

void write_envelope(JsonWriter& w, const WireRequest& request, const Status& status) {
  if (request.has_id) {
    w.key("id");
    w.value(request.id);
  }
  w.key("type");
  w.value(to_string(request.kind));
  if (!request.session.empty()) {
    w.key("session");
    w.value(request.session);
  }
  w.key("status");
  w.value(to_string(status.code()));
  if (!status.message().empty()) {
    w.key("reason");
    w.value(status.message());
  }
}

}  // namespace

std::string wire_response(const WireRequest& request, const Status& status,
                          const std::function<void(JsonWriter&)>& extra) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  write_envelope(w, request, status);
  if (extra) extra(w);
  w.end_object();
  return os.str();
}

std::string wire_protocol_error(const Status& status) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("type");
  w.value("error");
  w.key("status");
  w.value(to_string(status.code()));
  if (!status.message().empty()) {
    w.key("reason");
    w.value(status.message());
  }
  w.end_object();
  return os.str();
}

}  // namespace wharf::io
