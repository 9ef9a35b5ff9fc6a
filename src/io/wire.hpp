/// \file wire.hpp
/// The NDJSON wire protocol of `wharf serve` plus the transport
/// primitives the server is built on.  The *normative* protocol
/// specification — every request/response field, the error envelope,
/// the exit-code contract, concurrency semantics — lives in
/// docs/serve-protocol.md; this header documents the C++ surface.
///
/// Requests (`id` is an optional client correlation token, echoed back;
/// `session` names a session within one connection's conversation):
///
///   {"id":1,"type":"open_session","session":"s","system":"system x\n...",
///    "options":{"cap_at_k":false}}
///   {"id":2,"type":"apply_delta","session":"s","deltas":[{"kind":"set_priority",...}]}
///   {"id":3,"type":"query","session":"s","queries":[{"kind":"latency","chain":"a"}]}
///   {"id":7,"type":"evaluate","session":"s","unit":12,"k":10,
///    "candidates":[[2,1,3],[3,1,2]]}
///   {"id":4,"type":"diagnostics","session":"s"}
///   {"id":5,"type":"close","session":"s"}
///   {"id":6,"type":"shutdown"}
///
/// Every response is one JSON object on one line carrying the echoed
/// id/type/session plus "status" ("ok" or a StatusCode name) and, on
/// error, "reason".  Per-request errors — unknown session, malformed
/// JSON, a failing delta — are *responses on the stream*, never a
/// process exit; only transport failures terminate the server, and in
/// TCP mode a transport failure only terminates the affected connection
/// (see cli/serve.hpp).
///
/// This header also exposes the minimal JSON reader the protocol needs
/// (JsonValue/parse_json) — the writing side reuses io::JsonWriter.

#ifndef WHARF_IO_WIRE_HPP
#define WHARF_IO_WIRE_HPP

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "io/json.hpp"
#include "util/status.hpp"

namespace wharf::io {

// ---------------------------------------------------------------------
// JSON reading
// ---------------------------------------------------------------------

/// A parsed JSON document node.  Numbers keep both integral and double
/// views (the protocol's quantities are integral).  Accessors throw
/// wharf::InvalidArgument on kind mismatches — capture() at the protocol
/// boundary turns that into an error response.  Immutable once parsed;
/// concurrent reads are safe, like any const object.
class JsonValue {
 public:
  /// The JSON node kinds.
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  /// The node's kind tag (object, array, string, ...).
  [[nodiscard]] Kind kind() const { return kind_; }
  /// True for the JSON `null` literal (and default-constructed nodes).
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }

  /// The boolean payload; throws unless kind() is kBool.
  [[nodiscard]] bool as_bool() const;
  /// The integer payload; throws unless the node is an integral number.
  [[nodiscard]] long long as_int() const;
  /// The integer payload checked against [lo, hi]; throws, naming
  /// `name`, when it lies outside.  Every field narrowed to a smaller
  /// type reads through this, so no value is ever truncated.
  [[nodiscard]] long long as_int_in(long long lo, long long hi, const char* name) const;
  /// The numeric payload widened to double; throws unless kind() is kNumber.
  [[nodiscard]] double as_double() const;
  /// The string payload; throws unless kind() is kString.
  [[nodiscard]] const std::string& as_string() const;
  /// The array elements; throws unless kind() is kArray.
  [[nodiscard]] const std::vector<JsonValue>& items() const;

  /// Object member by key, or nullptr when absent (objects only).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  /// Object member by key; throws when absent.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  /// All object members in document order; throws unless kind() is kObject.
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members() const;

 private:
  friend JsonValue parse_json(const std::string&);
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  long long int_ = 0;
  double double_ = 0;
  bool integral_ = false;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Deepest array/object nesting parse_json() accepts.  Protocol
/// documents nest a handful of levels; the bound keeps the recursive
/// parser's stack use fixed whatever a client sends.
inline constexpr int kMaxJsonDepth = 64;

/// Parses one JSON document (the whole string must be consumed, modulo
/// whitespace).  Throws wharf::ParseError on malformed input, including
/// nesting deeper than kMaxJsonDepth.
[[nodiscard]] JsonValue parse_json(const std::string& text);

// ---------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------

/// Hard bound on one NDJSON request line (bytes, newline excluded).  A
/// longer line is a protocol violation: the server answers with the
/// error envelope and discards bytes until the next newline instead of
/// growing its assembly buffer without limit — the buffer never holds
/// more than this many payload bytes per connection.
inline constexpr std::size_t kMaxWireLineBytes = 1 << 20;

/// Incremental NDJSON line assembly over arbitrary byte chunks — the
/// read-side protocol state machine of the async serve core (and of any
/// non-blocking transport).  feed() appends whatever arrived; next()
/// yields complete lines one at a time, flagging (and swallowing) lines
/// that exceed the byte bound.  Single-caller; memory stays bounded by
/// the line limit regardless of what the peer sends.
class LineAssembler {
 public:
  /// What next() found.
  enum class Result {
    kNone,       ///< no complete line buffered yet
    kLine,       ///< one complete line produced
    kOversized,  ///< a line exceeded the bound; it was discarded
  };

  /// Uses the protocol-wide default bound (kMaxWireLineBytes).
  LineAssembler() = default;
  /// Custom bound (tests shrink it to force the oversized path).
  explicit LineAssembler(std::size_t max_line_bytes) : max_line_(max_line_bytes) {}

  /// Appends `n` raw bytes from the transport.
  void feed(const char* data, std::size_t n);

  /// Extracts the next complete line into `line` (newline stripped; a
  /// trailing '\r' is kept — the parser treats it as whitespace).
  /// kOversized reports one over-bound line exactly once; its bytes to
  /// the next newline are discarded, keeping the stream in sync.
  [[nodiscard]] Result next(std::string& line);

  /// Bytes currently buffered (tests; always <= the bound + one chunk).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  std::string buffer_;
  std::size_t max_line_ = kMaxWireLineBytes;
  bool discarding_ = false;  ///< inside an oversized line, eating to '\n'
};

/// Bounded std::getline for the blocking stdio conversation: reads one
/// '\n'-terminated line of at most `max_line_bytes`, sets `oversized`
/// (and discards to the newline) when the bound is hit.  Returns false
/// at EOF with nothing read — the serve_stream loop condition.
bool read_line_bounded(std::istream& in, std::string& line, std::size_t max_line_bytes,
                       bool& oversized);

/// The error envelope for an over-bound request line (shared wording
/// between the stdio and async transports).
[[nodiscard]] std::string oversized_line_error(std::size_t max_line_bytes);

/// True for a whitespace-only request line, which both transports skip
/// without an answer.
[[nodiscard]] bool blank_line(const std::string& line);

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// The request kinds of the serve protocol, in wire order.
enum class WireKind {
  kOpenSession,
  kApplyDelta,
  kQuery,
  kEvaluate,
  kDiagnostics,
  kClose,
  kShutdown,
};

/// Stable wire name of a request kind ("open_session", ...).
[[nodiscard]] const char* to_string(WireKind kind);

/// One parsed request line.  Field population depends on `kind`; see
/// docs/serve-protocol.md for the per-request field tables.
struct WireRequest {
  WireKind kind = WireKind::kShutdown;
  long long id = 0;             ///< client correlation token (echoed back)
  bool has_id = false;          ///< whether the request carried an "id"
  std::string session;          ///< empty only for shutdown
  std::string system_text;      ///< open_session: text-format system
  TwcaOptions options;          ///< open_session: analysis knobs ("options")
  std::vector<Delta> deltas;    ///< apply_delta
  std::vector<Query> queries;   ///< query
  /// Optional per-request deadline in milliseconds (0 = none).  In the
  /// async server a request still *pending* when its deadline elapses is
  /// answered with a deadline-exceeded envelope and skipped at dequeue;
  /// work that already started always completes.
  long long deadline_ms = 0;
  /// query only: stream each result as its own NDJSON frame followed by
  /// a terminal summary frame (docs/serve-protocol.md, "Streaming
  /// responses") instead of one monolithic report response.
  bool stream = false;
  /// evaluate: the coordinator's shard-unit id, echoed in the response —
  /// the first-result-wins dedup key of the distributed sweep (see
  /// docs/distributed.md).
  std::uint64_t unit = 0;
  /// evaluate: candidate priority assignments to score, one flat
  /// task-order vector per candidate (applied via
  /// System::with_priorities; a wrong-arity or non-permutation candidate
  /// is a per-request error envelope, not a transport failure).
  std::vector<std::vector<Priority>> candidates;
  /// evaluate: the dmm horizon k of the scoring objective.
  Count eval_k = 10;
};

/// Parses one request line.  Errors (malformed JSON, unknown type or
/// kind, missing fields) come back as a Status — the caller answers with
/// an error response and keeps the stream alive.
[[nodiscard]] Expected<WireRequest> parse_request(const std::string& line);

/// Parses an open_session "options" object into TwcaOptions: every
/// field optional, defaults from TwcaOptions{}, unknown keys refused
/// (throws InvalidArgument — the protocol is strict, not lenient).
[[nodiscard]] TwcaOptions parse_twca_options(const JsonValue& value);

/// Writes `options` as the wire "options" object (every field, in the
/// stable order documented in docs/serve-protocol.md).  Round-trips
/// through parse_twca_options exactly.
void write_twca_options(JsonWriter& w, const TwcaOptions& options);

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// One response line (no trailing newline): the request's echoed
/// id/type/session, the status (+ reason when non-OK), then whatever
/// `extra` writes into the still-open top-level object (e.g. a spliced
/// report).
[[nodiscard]] std::string wire_response(
    const WireRequest& request, const Status& status,
    const std::function<void(JsonWriter&)>& extra = {});

/// An error response for a line that never parsed into a request (the
/// id, if any, is unknown): {"type":"error","status":...,"reason":...}.
[[nodiscard]] std::string wire_protocol_error(const Status& status);

}  // namespace wharf::io

#endif  // WHARF_IO_WIRE_HPP
