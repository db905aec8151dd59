// Wire protocol of the waveck serve daemon (doc/SERVE.md).
//
// Transport is a byte stream (Unix-domain or TCP socket) carrying JSONL in
// both directions: one flat JSON object per \n-terminated line. Requests
// reuse the trace-line grammar (explain/trace_reader.hpp) — the engine's
// canonical-JSON discipline is the wire format, not a second dialect — so a
// request is any flat object with an "op" field; nested values are a parse
// error by construction.
//
// Responses always carry "ok". Failures add "error" (a stable machine code
// from kErrorCodes below) and "message" (human text, may change). Check
// responses embed the canonical check report (verify/report_io.hpp
// canonical_json) as the *last* key of the envelope, so the raw report
// bytes are extractable by suffix and byte-comparable against an offline
// `waveck check --json --canon` run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace waveck::serve {

/// Stable "error" codes (doc/SERVE.md documents each):
///   parse_error      malformed request line
///   unknown_op       "op" not in the table (or debug op while disabled)
///   missing_field    a required field is absent or has the wrong type
///   unknown_circuit  check/unload names a circuit that is not resident
///   hash_mismatch    load under an existing name with different content
///   load_failed      netlist file unreadable/invalid
///   overloaded       admission control: the bounded queue is full
///   deadline_expired the request's deadline passed before it ran
///   out_of_range     check delta whose magnitude plus the circuit's longest
///                    delay path reaches Time::kMaxFinite (`waveck check`
///                    refuses the same deltas with rc 2)
///   shutting_down    the server is draining; request not executed
enum class Op : std::uint8_t {
  kPing,
  kLoad,
  kUnload,
  kList,
  kStats,
  kMetrics,  // registry snapshot + latency histograms (json or prometheus)
  kCheck,
  kShutdown,
  kDebugStall,  // --enable-debug-ops only: wedge the worker for "ms"
};

[[nodiscard]] const char* to_string(Op op);

/// One parsed request. Optional fields keep their "absent" encoding so the
/// server can distinguish "not given" from a zero value.
struct Request {
  Op op = Op::kPing;
  std::string id;  // client correlation id, echoed verbatim ("" = none)

  // load
  std::string name;    // also unload
  std::string file;    // netlist path (.bench / .v), server-side
  std::string delays;  // optional delay-annotation path
  std::string hash;    // optional expected content hash (hex)

  // check
  std::string circuit;
  std::int64_t delta = 0;
  std::string output;  // "" = whole-circuit suite check
  std::optional<std::uint64_t> timeout_ms;

  // metrics: "" (= "json"), "json", or "prometheus"
  std::string format;

  // debug_stall
  std::uint64_t stall_ms = 0;
};

/// Outcome of parsing one request line. On failure `error`/`message` hold
/// the response code and human text (the id, when recoverable, is echoed).
struct ParseResult {
  bool ok = false;
  Request req;
  std::string error;    // "" when ok
  std::string message;  // "" when ok
  std::string id;       // best-effort echo even on failure
};

/// Parses one JSONL request line. Never throws.
[[nodiscard]] ParseResult parse_request(const std::string& line,
                                        bool debug_ops_enabled);

/// Response envelope assembly. Key order is fixed (id? op ok ...), so equal
/// responses are byte-equal — the protocol inherits the determinism
/// contract's comparability.
class ResponseWriter {
 public:
  explicit ResponseWriter(const std::string& id, const char* op);

  ResponseWriter& field(const char* key, const std::string& v);
  ResponseWriter& field(const char* key, const char* v);
  ResponseWriter& field(const char* key, std::int64_t v);
  ResponseWriter& field(const char* key, std::uint64_t v);
  ResponseWriter& field(const char* key, bool v);
  /// Fixed three-decimal rendering (uptime seconds, ratios): doubles on the
  /// wire stay byte-stable across platforms.
  ResponseWriter& field(const char* key, double v);
  /// Splices a pre-serialised JSON value (e.g. a canonical report).
  ResponseWriter& raw(const char* key, const std::string& json);

  /// Finishes the line: "...}\n".
  [[nodiscard]] std::string done() &&;

 private:
  std::string out_;
};

/// "{...,"ok":true,...}\n"
[[nodiscard]] ResponseWriter ok_response(const std::string& id, Op op);
/// "{...,"ok":false,"error":CODE,"message":MSG}\n"
[[nodiscard]] std::string error_response(const std::string& id, Op op,
                                         const std::string& code,
                                         const std::string& message);
/// Same, for lines that failed before an op was known.
[[nodiscard]] std::string error_response(const std::string& id,
                                         const std::string& code,
                                         const std::string& message);

}  // namespace waveck::serve
