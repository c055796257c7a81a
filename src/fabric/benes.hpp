// Beneš rearrangeable permutation network, the building block of the
// m-router's sandwich switching fabric (paper §II-B and refs [9]-[12]): the
// PN and DN stages are permutation networks that order inputs for the CCN
// and load-balance merged streams onto output ports. An n-port Beneš network
// (n a power of two) has 2*log2(n)-1 stages of n/2 2x2 crossbar switches and
// can realise every permutation; switch settings are computed with the
// classic looping algorithm.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace scmp::fabric {

class BenesNetwork {
 public:
  /// Constructs an n-port network in the identity configuration.
  /// n must be a power of two, >= 2.
  explicit BenesNetwork(int n);

  int ports() const { return n_; }
  /// Total number of 2x2 switches: n/2 * (2*log2(n) - 1).
  int switch_count() const;
  int stage_count() const;

  /// Computes switch settings realising `perm` (perm[input] = output) via the
  /// looping algorithm. `perm` must be a permutation of 0..n-1.
  void route(const std::vector<int>& perm);

  /// Traces a cell entering at `input` through the configured switches.
  int forward(int input) const;

 private:
  int n_;
  /// Input/output column switch settings: 0 = through, 1 = cross.
  std::vector<std::int8_t> in_sw_;
  std::vector<std::int8_t> out_sw_;
  /// Centre sub-networks (null when n == 2).
  std::unique_ptr<BenesNetwork> upper_;
  std::unique_ptr<BenesNetwork> lower_;
};

/// True when v is a power of two (and >= 1).
bool is_power_of_two(int v);

}  // namespace scmp::fabric
