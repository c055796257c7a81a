#include "obs/flight.hpp"

#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <string>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace scmp::obs {

void set_flight_enabled(bool on) {
  detail::g_flight_enabled.store(on, std::memory_order_relaxed);
}

const char* to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kSend: return "send";
    case FlightEventKind::kArm: return "arm";
    case FlightEventKind::kRecv: return "recv";
    case FlightEventKind::kDuplicate: return "dup";
    case FlightEventKind::kAck: return "ack";
    case FlightEventKind::kRetx: return "retx";
    case FlightEventKind::kExhausted: return "exhausted";
    case FlightEventKind::kHandle: return "handle";
    case FlightEventKind::kCompute: return "compute";
    case FlightEventKind::kInstalled: return "installed";
    case FlightEventKind::kRepair: return "repair";
  }
  return "unknown";
}

FlightRecorder& flight() {
  static FlightRecorder recorder;
  return recorder;
}

void flight_record(FlightEventKind kind, double t, std::uint64_t req,
                   const char* what, std::int32_t group, std::int32_t from,
                   std::int32_t to) {
  if (!flight_enabled()) return;
  FlightRecord r;
  r.t = t;
  r.req = req;
  r.cause = current_cause();
  r.what = what;
  r.kind = kind;
  r.group = group;
  r.from = from;
  r.to = to;
  if (flight().record(r)) {
    static Counter& drops = obs::counter("obs.flight.dropped");
    drops.inc();
  }
}

std::vector<FlightRecord> story_of(const std::vector<FlightRecord>& records,
                                   std::uint64_t root_req) {
  if (root_req == 0) return {};
  // Grow the set of chain member requests to a fixpoint: a request joins
  // the chain when any of its records is caused by a member. Records are
  // time-ordered but a request's first record can carry a later-seen cause,
  // so a single forward pass is not enough.
  std::set<std::uint64_t> chain{root_req};
  bool grew = true;
  while (grew) {
    grew = false;
    for (const FlightRecord& r : records) {
      if (r.req == 0 || chain.contains(r.req)) continue;
      if (r.cause != 0 && chain.contains(r.cause)) {
        chain.insert(r.req);
        grew = true;
      }
    }
  }
  std::vector<FlightRecord> out;
  for (const FlightRecord& r : records) {
    if ((r.req != 0 && chain.contains(r.req)) ||
        (r.req == 0 && r.cause != 0 && chain.contains(r.cause))) {
      out.push_back(r);
    }
  }
  return out;
}

namespace {

/// Shortest round-trippable decimal; integers print without an exponent.
std::string num(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v >= -1e15 && v <= 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

std::string json_escape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
  return out;
}

/// First-seen cause per request id, for chain-root computation.
std::map<std::uint64_t, std::uint64_t> causes_of(
    const std::vector<FlightRecord>& records) {
  std::map<std::uint64_t, std::uint64_t> cause;
  for (const FlightRecord& r : records) {
    if (r.req != 0) cause.try_emplace(r.req, r.cause);
  }
  return cause;
}

std::uint64_t root_of(const std::map<std::uint64_t, std::uint64_t>& cause,
                      std::uint64_t req) {
  std::set<std::uint64_t> seen;
  while (seen.insert(req).second) {
    const auto it = cause.find(req);
    if (it == cause.end() || it->second == 0) break;
    req = it->second;
  }
  return req;
}

}  // namespace

void write_flight_jsonl(std::ostream& out,
                        const std::vector<FlightRecord>& records) {
  SCMP_EXPECTS(out.good());
  for (const FlightRecord& r : records) {
    out << "{\"t\":" << num(r.t) << ",\"kind\":\"" << to_string(r.kind)
        << "\",\"req\":" << r.req << ",\"cause\":" << r.cause
        << ",\"what\":\"" << json_escape(r.what) << "\",\"group\":" << r.group
        << ",\"from\":" << r.from << ",\"to\":" << r.to << "}\n";
  }
}

void write_flight_jsonl(std::ostream& out) {
  write_flight_jsonl(out, flight().snapshot());
}

void write_flight_chrome(std::ostream& out,
                         const std::vector<FlightRecord>& records) {
  SCMP_EXPECTS(out.good());
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      << "\"args\":{\"name\":\"scmp flight\"}}"
      << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      << "\"args\":{\"name\":\"control-plane\"}}";
  const auto cause = causes_of(records);
  std::map<std::uint64_t, int> chain_total;
  for (const FlightRecord& r : records) {
    if (r.req != 0) ++chain_total[root_of(cause, r.req)];
  }
  std::map<std::uint64_t, int> chain_seen;
  for (const FlightRecord& r : records) {
    char ts[32];
    std::snprintf(ts, sizeof(ts), "%.3f", r.t * 1e6);
    out << ",\n{\"name\":\"" << to_string(r.kind)
        << "\",\"cat\":\"scmp\",\"ph\":\"X\",\"ts\":" << ts
        << ",\"dur\":1,\"pid\":1,\"tid\":0,\"args\":{\"req\":" << r.req
        << ",\"cause\":" << r.cause << ",\"what\":\"" << json_escape(r.what)
        << "\",\"group\":" << r.group << ",\"from\":" << r.from
        << ",\"to\":" << r.to << "}}";
    if (r.req == 0) continue;
    const std::uint64_t root = root_of(cause, r.req);
    const int idx = chain_seen[root]++;
    const bool last = idx + 1 == chain_total[root];
    const char* ph = idx == 0 ? "s" : (last ? "f" : "t");
    out << ",\n{\"name\":\"req\",\"cat\":\"flow\",\"ph\":\"" << ph
        << "\",\"ts\":" << ts << ",\"pid\":1,\"tid\":0,\"id\":" << root
        << (last && idx != 0 ? ",\"bp\":\"e\"" : "") << "}";
  }
  out << "\n]}\n";
}

void write_flight_chrome(std::ostream& out) {
  write_flight_chrome(out, flight().snapshot());
}

}  // namespace scmp::obs
