#include "service/protocol.hpp"

namespace softfet::service {

Request parse_request(const std::string& line) {
  Request out;
  out.raw_line = line;
  out.payload = json_parse(line);
  if (!out.payload.is_object()) {
    throw Error("request must be a JSON object");
  }
  const JsonValue* id = out.payload.get("id");
  if (id == nullptr || !id->is_string() || id->as_string().empty()) {
    throw Error("request needs a non-empty string \"id\"");
  }
  const JsonValue* type = out.payload.get("type");
  if (type == nullptr || !type->is_string() || type->as_string().empty()) {
    throw Error("request needs a non-empty string \"type\"");
  }
  out.id = id->as_string();
  out.type = type->as_string();
  return out;
}

JsonValue make_event(const std::string& id, std::uint64_t seq,
                     std::string_view event) {
  JsonValue out = JsonValue::object();
  out.set("id", JsonValue::string(id));
  out.set("seq", JsonValue::number(static_cast<double>(seq)));
  out.set("event", JsonValue::string(std::string(event)));
  return out;
}

JsonValue diagnostics_to_json(const SolverDiagnostics& d) {
  JsonValue out = JsonValue::object();
  out.set("summary", JsonValue::string(d.summary()));
  out.set("analysis", JsonValue::string(d.analysis));
  out.set("determinism", JsonValue::string(d.determinism));
  out.set("failure", JsonValue::string(d.failure));
  out.set("time", JsonValue::number(d.time));
  out.set("last_dt", JsonValue::number(d.last_dt));
  out.set("iterations", JsonValue::number(d.iterations));
  out.set("total_iterations", JsonValue::number(d.total_iterations));
  out.set("worst_residual", JsonValue::number(d.worst_residual));
  out.set("worst_node", JsonValue::string(d.worst_node));
  out.set("worst_device", JsonValue::string(d.worst_device));
  JsonValue attempts = JsonValue::array();
  for (const auto& attempt : d.attempts) {
    JsonValue a = JsonValue::object();
    a.set("strategy", JsonValue::string(attempt.strategy));
    a.set("succeeded", JsonValue::boolean(attempt.succeeded));
    a.set("detail", JsonValue::string(attempt.detail));
    attempts.push(std::move(a));
  }
  out.set("attempts", std::move(attempts));
  out.set("attempts_dropped",
          JsonValue::number(static_cast<double>(d.attempts_dropped)));
  JsonValue solver = JsonValue::object();
  solver.set("symbolic_analyses",
             JsonValue::number(static_cast<double>(d.symbolic_analyses)));
  solver.set("refactorizations",
             JsonValue::number(static_cast<double>(d.refactorizations)));
  solver.set("fill_ratio", JsonValue::number(d.fill_ratio));
  solver.set("reordered", JsonValue::boolean(d.reordered));
  solver.set("krylov_solves",
             JsonValue::number(static_cast<double>(d.krylov_solves)));
  solver.set("krylov_iterations",
             JsonValue::number(static_cast<double>(d.krylov_iterations)));
  solver.set("krylov_fallbacks",
             JsonValue::number(static_cast<double>(d.krylov_fallbacks)));
  out.set("linear_solver", std::move(solver));
  return out;
}

NetlistErrorPosition map_netlist_error(const ParseError& error,
                                       const std::string& raw_line,
                                       std::string_view key) {
  NetlistErrorPosition out;
  out.netlist_line = error.line();
  out.netlist_column = error.column();
  const auto quote = locate_string_value(raw_line, key);
  if (quote.has_value()) {
    // Column 1 when the tokenizer only tracked the line: the mapping then
    // points at the start of the offending netlist line within the request.
    const int column = error.column() > 0 ? error.column() : 1;
    out.request_column =
        column_in_string_literal(raw_line, *quote, error.line(), column);
  }
  return out;
}

}  // namespace softfet::service
