//===- Protocol.h - pathfuzz-serve wire protocol ----------------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The campaign service's wire protocol: line-delimited JSON over a
// unix-domain stream socket, no third-party dependencies. One request is
// one '\n'-terminated flat JSON object; one reply is one JSON object line
// unless the verb is explicitly multi-record:
//
//   submit   {"verb":"submit","tenant":"t","subject":"cflow",
//             "fuzzer":"pcguard","seed":7,"budget":20000}
//            -> {"ok":1,"id":"t--cflow-pcguard-s7-b20000",
//                "state":"queued","existing":0}
//   status   {"verb":"status","id":"..."}
//            -> {"ok":1,"id":"...","state":"running","execs":...,...}
//   cancel   {"verb":"cancel","id":"..."}
//            -> {"ok":1,"id":"...","state":"cancelled"}
//   list     {"verb":"list"}
//            -> {"ok":1,"count":N} then N status lines
//   results  {"verb":"results","id":"..."}
//            -> {"ok":1,"id":"...","result":"<hex>"} where <hex> is
//               the campaign's serializeCampaignResult blob — the
//               byte-identity oracle crosses the wire intact
//   series   {"verb":"series","id":"...","series":"queue"|"coverage"}
//            -> {"ok":1,"id":"...","rows":N,"bytes":M} then the CSV
//               (exactly M bytes, the pathfuzz-report emitters' format)
//   stats    {"verb":"stats"} -> the serve.* counter snapshot
//   shutdown {"verb":"shutdown"} -> {"ok":1} then graceful drain
//
// Every error is a single line {"ok":0,"error":"..."}; the connection
// stays usable except after an oversized request, whose tail cannot be
// re-synchronized — the server replies, then drops that client.
//
// The parser is the telemetry JSONL extractor pair (jsonStr/jsonU64):
// requests are flat objects with unique keys by construction, exactly the
// grammar those were built for.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_SERVE_PROTOCOL_H
#define PATHFUZZ_SERVE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

namespace pathfuzz {
namespace serve {

/// Request-line byte cap (terminator included) unless overridden by
/// PATHFUZZ_SERVE_MAX_REQUEST. Far above any legitimate request — the
/// bound exists so a garbage stream cannot grow the framer unbounded.
constexpr size_t DefaultMaxRequestBytes = 64 * 1024;

enum class Verb : uint8_t {
  Submit,
  Status,
  Cancel,
  List,
  Results,
  Series,
  Stats,
  Shutdown,
};

const char *verbName(Verb V);

/// One parsed request. Fields beyond the verb's use stay at defaults.
struct Request {
  Verb TheVerb = Verb::List;
  // submit
  std::string Tenant;
  std::string Subject;
  std::string Fuzzer = "pcguard";
  uint64_t Seed = 1;
  uint64_t Budget = 20000;
  bool TraceWanted = true; ///< "trace":0 submits an untraced campaign
  // status/cancel/results/series
  std::string Id;
  // series
  bool Coverage = false; ///< "series":"coverage" vs "queue"
};

/// Parse one request line. False with Err set on malformed JSON, unknown
/// verbs, missing/invalid required fields, an optional numeric field
/// (seed, budget, trace) that is present but not a u64, or an invalid
/// tenant name.
bool parseRequest(const std::string &Line, Request &R, std::string &Err);

/// Tenant names become path components of per-campaign store directories
/// and the left half of campaign ids: [A-Za-z0-9_.-]{1,64}, and never
/// containing the "--" id separator.
bool validTenantName(const std::string &Tenant);

/// The service's deterministic campaign id: restart-stable (a fresh
/// daemon over the same store root re-derives identical ids from the
/// directory names) and idempotent (resubmitting the same cell returns
/// the existing campaign).
std::string campaignId(const std::string &Tenant, const std::string &Subject,
                       const std::string &Fuzzer, uint64_t Seed,
                       uint64_t Budget);

/// Split a campaignId back into its tenant half. False when Id carries no
/// "--" separator or an invalid tenant.
bool tenantOfId(const std::string &Id, std::string &Tenant);

/// One-object reply line assembler with deterministic field order (the
/// order of the field() calls). String values go through
/// telemetry::jsonEscape, so telemetry::jsonStr reads them back verbatim.
class ReplyBuilder {
public:
  ReplyBuilder &field(const char *Key, const std::string &Value);
  ReplyBuilder &field(const char *Key, uint64_t Value);
  ReplyBuilder &boolean(const char *Key, bool Value);
  /// The assembled "{...}\n" line.
  std::string line() const;

private:
  std::string Body;
};

/// {"ok":0,"error":"..."} line.
std::string errorReply(const std::string &Message);

/// Lowercase hex codec for result blobs on the wire.
std::string hexEncode(const std::vector<uint8_t> &Bytes);
bool hexDecode(const std::string &Text, std::vector<uint8_t> &Out);

} // namespace serve
} // namespace pathfuzz

#endif // PATHFUZZ_SERVE_PROTOCOL_H
