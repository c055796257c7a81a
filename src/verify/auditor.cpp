#include "verify/auditor.hpp"

#include <string>

#include "core/scmp.hpp"
#include "fabric/mrouter_fabric.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

namespace scmp::verify {

InvariantAuditor::InvariantAuditor(const proto::MulticastProtocol& protocol,
                                   const fabric::MRouterFabric* fabric)
    : protocol_(&protocol), fabric_(fabric) {}

std::vector<Violation> InvariantAuditor::audit() const {
  ++audits_;
  std::vector<Violation> out;

  if (const auto* scmp = dynamic_cast<const core::Scmp*>(protocol_)) {
    const ScmpSnapshot snap = take_snapshot(*scmp);
    for (const GroupSnapshot& group : snap.groups)
      check_group(group, scmp->net().graph(), out);
    // Oracle check: the network's incrementally-maintained path store must
    // match a from-scratch build bit-for-bit (catches a wrong dirty-source
    // test, subtree repair or first-hop update the moment churn exercises
    // it).
    check_path_db(scmp->net().paths(), scmp->net().graph(), out);
  }

  std::vector<std::string> self_check;
  protocol_->audit_state(self_check);
  for (std::string& line : self_check)
    out.push_back({kProtocolSelfCheck, std::move(line)});

  if (fabric_ != nullptr) check_fabric(view_of(*fabric_), out);
  return out;
}

void InvariantAuditor::audit_or_die() const {
  const std::vector<Violation> violations = audit();
  if (violations.empty()) return;
  // log_line prints unconditionally (the level filter lives in the
  // log_error/log_info templates): the diagnostic must reach stderr before
  // the contract abort regardless of the configured level.
  log_line(LogLevel::kError, "invariant audit failed:\n" + format(violations));
  SCMP_ASSERT(false && "invariant audit failed (violations logged above)");
}

}  // namespace scmp::verify
