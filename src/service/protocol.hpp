// NDJSON request/response protocol of the softfet simulation service.
//
// One request per line, one JSON object each. Every request carries a
// client-chosen "id" and a "type"; job types ("netlist", "monte_carlo",
// and test-registered extensions) flow through the admission queue, while
// control types ("ping", "stats", "cancel", "shutdown") are answered
// synchronously. Every response line echoes the id and carries a per-job
// monotone "seq" plus an "event" discriminator:
//
//   accepted | rejected | started | retrying | chunk | progress |
//   result | error | cancelled
//
// The lifecycle contract the soak test enforces: an admitted job emits
// `accepted`, then `started`, then any number of `chunk`/`progress`/
// `retrying` events, and terminates in exactly one of `result`, `error`,
// or `cancelled`. A request that is never admitted terminates in a single
// `rejected` (code "overloaded" carries retry_after_ms; "invalid" and
// "shutting_down" are terminal). Errors are structured: solver failures
// embed SolverDiagnostics, parse failures carry netlist-relative line/
// column plus the mapped column in the original request line.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "service/json.hpp"
#include "util/error.hpp"

namespace softfet::service {

/// One parsed request line. `payload` is the whole request object (job
/// parameters are read from it); `raw_line` is kept for journaling and for
/// mapping embedded-netlist positions back to request columns.
struct Request {
  std::string id;
  std::string type;
  JsonValue payload;
  std::string raw_line;
};

/// Parse + structurally validate one NDJSON request line. Throws
/// softfet::ParseError (with line/column) on malformed JSON, softfet::Error
/// when id/type are missing or not strings.
[[nodiscard]] Request parse_request(const std::string& line);

/// A job's payload fields are missing, mistyped or out of range. Handlers
/// throw it before any work runs; the `error` event reports it as
/// kErrorInvalidRequest.
class RequestError : public Error {
 public:
  explicit RequestError(const std::string& what) : Error(what) {}
};

/// Rejection codes (the `code` field of `rejected` events).
inline constexpr const char* kRejectOverloaded = "overloaded";
inline constexpr const char* kRejectInvalid = "invalid";
inline constexpr const char* kRejectShuttingDown = "shutting_down";

/// Error codes (the `code` field of `error` events).
inline constexpr const char* kErrorParse = "parse_error";
inline constexpr const char* kErrorInvalidCircuit = "invalid_circuit";
inline constexpr const char* kErrorConvergence = "convergence";
inline constexpr const char* kErrorBudget = "budget_exhausted";
inline constexpr const char* kErrorInternal = "internal";
/// A job payload field is missing, of the wrong type or out of range (see
/// RequestError): the client's mistake, final, never rerun.
inline constexpr const char* kErrorInvalidRequest = "invalid_request";
/// Process isolation: the worker process died (signal, nonzero exit,
/// missed heartbeats, or blown job deadline). The event's `crash` object
/// carries the forensics: reason, wait status, and — when the worker's
/// crash handler got to run — signal, faulting stage, job id, work hash,
/// last emitted seq, and the build stamp.
inline constexpr const char* kErrorWorkerCrashed = "worker_crashed";

/// Response skeleton: {"id":…,"seq":N,"event":…}.
[[nodiscard]] JsonValue make_event(const std::string& id, std::uint64_t seq,
                                   std::string_view event);

/// Full SolverDiagnostics -> JSON (summary line plus the structured
/// fields batch drivers already rely on).
[[nodiscard]] JsonValue diagnostics_to_json(const SolverDiagnostics& d);

/// Position of a ParseError raised while parsing a netlist that was
/// embedded as a JSON string: netlist-relative line/column plus, when the
/// raw request line is available, the 1-based column in that line where
/// the offending netlist position sits (walking the \n escapes).
struct NetlistErrorPosition {
  int netlist_line = 0;
  int netlist_column = 0;                     ///< 0 = unknown
  std::optional<std::size_t> request_column;  ///< column in the NDJSON line
};

/// Compute the position mapping for a ParseError thrown by the netlist
/// frontend against the original request line (whose `key` field held the
/// netlist text).
[[nodiscard]] NetlistErrorPosition map_netlist_error(
    const ParseError& error, const std::string& raw_line,
    std::string_view key = "netlist");

}  // namespace softfet::service
