// Causal control-plane flight recorder — a bounded, thread-safe ring of
// lifecycle records keyed by the reliable-delivery request id
// (sim::Packet::req). SCMP send sites, the RetxTable (arm/ack/retx/exhaust),
// receiver handling and reconciliation repairs all append records, so one
// request's full story (JOIN received → DCDM compute → BRANCH/PRUNE wave →
// acks/retx → installed or repaired) is reconstructable after the fact.
//
// Causality: handlers wrap their dispatch in a FlightCause scope carrying
// the incoming request id; any record appended inside the scope (including
// records for *new* requests sent while forwarding) stores that id as its
// `cause`, linking hops into chains. `story_of` walks the cause links to
// recover a whole chain from its root request.
//
// Records carry only primitive fields (the obs layer sits below sim in the
// layer DAG), and timestamps are simulated seconds supplied by the caller —
// no wall clock, so fixed-seed runs serialize bit-identically.
//
// Cost model: with the recorder disabled, flight_record() is one relaxed
// load and a branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/ring.hpp"

namespace scmp::obs {

namespace detail {
inline std::atomic<bool> g_flight_enabled{false};
inline thread_local std::uint64_t tls_flight_cause = 0;
}  // namespace detail

/// Process-wide flight-recorder switch; independent of metrics/tracing so
/// causal records can be captured without histogram overhead.
inline bool flight_enabled() {
  return detail::g_flight_enabled.load(std::memory_order_relaxed);
}
void set_flight_enabled(bool on);

enum class FlightEventKind : std::uint8_t {
  kSend,       ///< control packet put on a link / unicast path
  kArm,        ///< RetxTable armed a retry timer for a request
  kRecv,       ///< reliable control packet accepted at a receiver
  kDuplicate,  ///< retransmitted copy deduplicated at a receiver
  kAck,        ///< request acknowledged and retired at the sender
  kRetx,       ///< request retransmitted after an ack timeout
  kExhausted,  ///< request abandoned after the retry budget
  kHandle,     ///< m-router began processing a membership request
  kCompute,    ///< DCDM tree computation ran for the request
  kInstalled,  ///< forwarding state installed at a router
  kRepair,     ///< reconciliation repaired divergent installed state
};
const char* to_string(FlightEventKind kind);

struct FlightRecord {
  double t = 0.0;            ///< simulated seconds
  std::uint64_t req = 0;     ///< sim::Packet::req (0 = fire-and-forget)
  std::uint64_t cause = 0;   ///< request id this record was caused by
  const char* what = "";     ///< packet type / operation (a string literal)
  FlightEventKind kind = FlightEventKind::kSend;
  std::int32_t group = -1;
  std::int32_t from = -1;
  std::int32_t to = -1;
};

/// Ring of flight records, oldest-overwritten like SpanSink; an
/// overwritten record also counts on the obs.flight.dropped counter, so
/// truncated stories are detectable.
using FlightRecorder = Ring<FlightRecord>;

/// The process-wide recorder every flight_record() call appends to.
FlightRecorder& flight();

/// RAII causal scope: records appended while the scope is live carry `req`
/// as their cause. A zero req keeps the enclosing scope's cause (nesting a
/// fire-and-forget hop inside a reliable one must not sever the chain).
class FlightCause {
 public:
  explicit FlightCause(std::uint64_t req) : prev_(detail::tls_flight_cause) {
    if (req != 0) detail::tls_flight_cause = req;
  }
  ~FlightCause() { detail::tls_flight_cause = prev_; }
  FlightCause(const FlightCause&) = delete;
  FlightCause& operator=(const FlightCause&) = delete;

 private:
  std::uint64_t prev_;
};

/// The innermost live FlightCause's request id on this thread (0 = none).
inline std::uint64_t current_cause() {
  return detail::tls_flight_cause;
}

/// Appends one record with the current causal scope attached; a no-op (one
/// relaxed load) while the recorder is disabled.
void flight_record(FlightEventKind kind, double t, std::uint64_t req,
                   const char* what, std::int32_t group, std::int32_t from,
                   std::int32_t to);

/// All records belonging to `root_req`'s causal chain — the root's own
/// records plus those of every request transitively caused by it (and any
/// fire-and-forget records whose cause lies inside the chain) — in the
/// original (time) order.
std::vector<FlightRecord> story_of(const std::vector<FlightRecord>& records,
                                   std::uint64_t root_req);

/// One JSON object per line per record, oldest first.
void write_flight_jsonl(std::ostream& out,
                        const std::vector<FlightRecord>& records);
void write_flight_jsonl(std::ostream& out);

/// Chrome trace_event JSON: one "X" slice per record (ts = simulated µs)
/// plus flow events ("s"/"t"/"f") binding each causal chain together so
/// Perfetto draws arrows from a JOIN to its installs, and
/// process_name/thread_name metadata so the track is labeled.
void write_flight_chrome(std::ostream& out,
                         const std::vector<FlightRecord>& records);
void write_flight_chrome(std::ostream& out);

}  // namespace scmp::obs
