//===- Protocol.cpp - pathfuzz-serve wire protocol ----------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "telemetry/Report.h"

namespace pathfuzz {
namespace serve {

const char *verbName(Verb V) {
  switch (V) {
  case Verb::Submit:
    return "submit";
  case Verb::Status:
    return "status";
  case Verb::Cancel:
    return "cancel";
  case Verb::List:
    return "list";
  case Verb::Results:
    return "results";
  case Verb::Series:
    return "series";
  case Verb::Stats:
    return "stats";
  case Verb::Shutdown:
    return "shutdown";
  }
  return "<bad-verb>";
}

namespace {

bool verbFromName(const std::string &Name, Verb &V) {
  for (uint8_t I = 0; I <= static_cast<uint8_t>(Verb::Shutdown); ++I) {
    Verb Candidate = static_cast<Verb>(I);
    if (Name == verbName(Candidate)) {
      V = Candidate;
      return true;
    }
  }
  return false;
}

bool fail(std::string &Err, const char *Message) {
  Err = Message;
  return false;
}

/// An optional u64 field: absent leaves Out at its default; present but
/// not a u64 (a string, a negative, past UINT64_MAX) is an error, never a
/// silent default.
bool optionalU64(const std::string &Line, const char *Key, uint64_t &Out) {
  return telemetry::jsonU64(Line, Key, Out) ||
         Line.find("\"" + std::string(Key) + "\":") == std::string::npos;
}

/// Strip whitespace outside string literals. The telemetry extractors
/// backing this parser expect machine-compact `"key":value` JSONL;
/// clients legitimately send `"key": value`, so requests are canonicalized
/// before extraction (string contents, including escaped quotes, pass
/// through untouched).
std::string compactJson(const std::string &Line) {
  std::string Out;
  Out.reserve(Line.size());
  bool InString = false;
  for (size_t I = 0; I < Line.size(); ++I) {
    char C = Line[I];
    if (InString) {
      Out += C;
      if (C == '\\' && I + 1 < Line.size())
        Out += Line[++I];
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r')
      continue;
    Out += C;
    if (C == '"')
      InString = true;
  }
  return Out;
}

} // namespace

bool validTenantName(const std::string &Tenant) {
  if (Tenant.empty() || Tenant.size() > 64)
    return false;
  for (char C : Tenant) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_' || C == '.' || C == '-';
    if (!Ok)
      return false;
  }
  // ".." as a full name would escape the store root; "--" collides with
  // the campaign-id separator.
  if (Tenant == "." || Tenant == "..")
    return false;
  return Tenant.find("--") == std::string::npos;
}

std::string campaignId(const std::string &Tenant, const std::string &Subject,
                       const std::string &Fuzzer, uint64_t Seed,
                       uint64_t Budget) {
  return Tenant + "--" + Subject + "-" + Fuzzer + "-s" +
         std::to_string(Seed) + "-b" + std::to_string(Budget);
}

bool tenantOfId(const std::string &Id, std::string &Tenant) {
  size_t Sep = Id.find("--");
  if (Sep == std::string::npos)
    return false;
  std::string T = Id.substr(0, Sep);
  if (!validTenantName(T))
    return false;
  Tenant = std::move(T);
  return true;
}

bool parseRequest(const std::string &RawLine, Request &R, std::string &Err) {
  const std::string Line = compactJson(RawLine);
  // The extractors match keys anywhere in the line, so insist on object
  // braces first — a bare string or CSV row must not half-parse.
  if (Line.size() < 2 || Line.front() != '{' || Line.back() != '}')
    return fail(Err, "request is not a JSON object");

  std::string VerbStr;
  if (!telemetry::jsonStr(Line, "verb", VerbStr))
    return fail(Err, "missing \"verb\"");
  if (!verbFromName(VerbStr, R.TheVerb))
    return fail(Err, "unknown verb");

  switch (R.TheVerb) {
  case Verb::Submit: {
    if (!telemetry::jsonStr(Line, "tenant", R.Tenant))
      return fail(Err, "submit requires \"tenant\"");
    if (!validTenantName(R.Tenant))
      return fail(Err, "invalid tenant name");
    if (!telemetry::jsonStr(Line, "subject", R.Subject))
      return fail(Err, "submit requires \"subject\"");
    telemetry::jsonStr(Line, "fuzzer", R.Fuzzer); // default pcguard
    if (!optionalU64(Line, "seed", R.Seed))
      return fail(Err, "\"seed\" must be an unsigned 64-bit integer");
    if (!optionalU64(Line, "budget", R.Budget))
      return fail(Err, "\"budget\" must be an unsigned 64-bit integer");
    if (R.Budget == 0)
      return fail(Err, "budget must be positive");
    uint64_t Trace = 1;
    if (!optionalU64(Line, "trace", Trace))
      return fail(Err, "\"trace\" must be an unsigned 64-bit integer");
    R.TraceWanted = Trace != 0;
    return true;
  }
  case Verb::Status:
  case Verb::Cancel:
  case Verb::Results:
    if (!telemetry::jsonStr(Line, "id", R.Id) || R.Id.empty())
      return fail(Err, "verb requires \"id\"");
    return true;
  case Verb::Series: {
    if (!telemetry::jsonStr(Line, "id", R.Id) || R.Id.empty())
      return fail(Err, "verb requires \"id\"");
    std::string Kind;
    if (!telemetry::jsonStr(Line, "series", Kind))
      return fail(Err, "series requires \"series\":\"queue\"|\"coverage\"");
    if (Kind == "queue")
      R.Coverage = false;
    else if (Kind == "coverage")
      R.Coverage = true;
    else
      return fail(Err, "series must be \"queue\" or \"coverage\"");
    return true;
  }
  case Verb::List:
  case Verb::Stats:
  case Verb::Shutdown:
    return true;
  }
  return fail(Err, "unknown verb");
}

ReplyBuilder &ReplyBuilder::field(const char *Key, const std::string &Value) {
  if (!Body.empty())
    Body += ',';
  Body += '"';
  Body += Key;
  Body += "\":\"";
  Body += telemetry::jsonEscape(Value);
  Body += '"';
  return *this;
}

ReplyBuilder &ReplyBuilder::field(const char *Key, uint64_t Value) {
  if (!Body.empty())
    Body += ',';
  Body += '"';
  Body += Key;
  Body += "\":";
  Body += std::to_string(Value);
  return *this;
}

ReplyBuilder &ReplyBuilder::boolean(const char *Key, bool Value) {
  return field(Key, static_cast<uint64_t>(Value ? 1 : 0));
}

std::string ReplyBuilder::line() const { return "{" + Body + "}\n"; }

std::string errorReply(const std::string &Message) {
  return ReplyBuilder().boolean("ok", false).field("error", Message).line();
}

std::string hexEncode(const std::vector<uint8_t> &Bytes) {
  static const char *Digits = "0123456789abcdef";
  std::string Out;
  Out.reserve(Bytes.size() * 2);
  for (uint8_t B : Bytes) {
    Out += Digits[B >> 4];
    Out += Digits[B & 0xf];
  }
  return Out;
}

bool hexDecode(const std::string &Text, std::vector<uint8_t> &Out) {
  if (Text.size() % 2 != 0)
    return false;
  auto Nibble = [](char C, uint8_t &N) {
    if (C >= '0' && C <= '9')
      N = static_cast<uint8_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      N = static_cast<uint8_t>(C - 'a' + 10);
    else if (C >= 'A' && C <= 'F')
      N = static_cast<uint8_t>(C - 'A' + 10);
    else
      return false;
    return true;
  };
  Out.clear();
  Out.reserve(Text.size() / 2);
  for (size_t I = 0; I < Text.size(); I += 2) {
    uint8_t Hi, Lo;
    if (!Nibble(Text[I], Hi) || !Nibble(Text[I + 1], Lo))
      return false;
    Out.push_back(static_cast<uint8_t>((Hi << 4) | Lo));
  }
  return true;
}

} // namespace serve
} // namespace pathfuzz
