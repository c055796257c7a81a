#include "fabric/benes.hpp"

#include "util/contracts.hpp"

namespace scmp::fabric {

bool is_power_of_two(int v) { return v >= 1 && (v & (v - 1)) == 0; }

BenesNetwork::BenesNetwork(int n) : n_(n) {
  SCMP_EXPECTS(n >= 2 && is_power_of_two(n));
  in_sw_.assign(static_cast<std::size_t>(n / 2), 0);
  out_sw_.assign(static_cast<std::size_t>(n / 2), 0);
  if (n > 2) {
    upper_ = std::make_unique<BenesNetwork>(n / 2);
    lower_ = std::make_unique<BenesNetwork>(n / 2);
  }
}

int BenesNetwork::stage_count() const {
  int stages = 1, m = n_;
  while (m > 2) {
    stages += 2;
    m /= 2;
  }
  return stages;
}

int BenesNetwork::switch_count() const { return n_ / 2 * stage_count(); }

void BenesNetwork::route(const std::vector<int>& perm) {
  SCMP_EXPECTS(static_cast<int>(perm.size()) == n_);
  if (n_ == 2) {
    SCMP_EXPECTS((perm[0] ^ perm[1]) == 1);
    in_sw_[0] = static_cast<std::int8_t>(perm[0] == 1);
    return;
  }

  std::vector<int> inv(static_cast<std::size_t>(n_), -1);
  for (int x = 0; x < n_; ++x) {
    SCMP_EXPECTS(perm[static_cast<std::size_t>(x)] >= 0 &&
                 perm[static_cast<std::size_t>(x)] < n_);
    SCMP_EXPECTS(inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(x)])] == -1);
    inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(x)])] = x;
  }

  // Looping algorithm: -1 marks unresolved switches.
  std::vector<int> in_set(static_cast<std::size_t>(n_ / 2), -1);
  std::vector<int> out_set(static_cast<std::size_t>(n_ / 2), -1);
  for (int s = 0; s < n_ / 2; ++s) {
    if (in_set[static_cast<std::size_t>(s)] != -1) continue;
    in_set[static_cast<std::size_t>(s)] = 0;  // free choice starts the loop
    const int start = 2 * s;
    int x = start;
    while (true) {
      // Subnet the input x is routed to (0 = upper, 1 = lower).
      const int sx = (x & 1) ^ in_set[static_cast<std::size_t>(x >> 1)];
      const int y = perm[static_cast<std::size_t>(x)];
      const int need_out = (y & 1) ^ sx;
      int& out_entry = out_set[static_cast<std::size_t>(y >> 1)];
      if (out_entry == -1) {
        out_entry = need_out;
      } else {
        SCMP_ASSERT(out_entry == need_out);
      }
      // The partner output of y must come from the other subnet, which
      // constrains the switch of its input.
      const int y2 = y ^ 1;
      const int sy2 = (y2 & 1) ^ out_set[static_cast<std::size_t>(y2 >> 1)];
      const int x2 = inv[static_cast<std::size_t>(y2)];
      const int need_in = (x2 & 1) ^ sy2;
      int& in_entry = in_set[static_cast<std::size_t>(x2 >> 1)];
      if (in_entry == -1) {
        in_entry = need_in;
      } else {
        SCMP_ASSERT(in_entry == need_in);
      }
      // Continue the loop with the partner input.
      x = x2 ^ 1;
      if (x == start) break;
    }
  }

  for (std::size_t i = 0; i < in_set.size(); ++i) {
    in_sw_[i] = static_cast<std::int8_t>(in_set[i] == -1 ? 0 : in_set[i]);
    out_sw_[i] = static_cast<std::int8_t>(out_set[i] == -1 ? 0 : out_set[i]);
  }

  // Build and route the two centre sub-permutations.
  std::vector<int> up(static_cast<std::size_t>(n_ / 2), -1);
  std::vector<int> low(static_cast<std::size_t>(n_ / 2), -1);
  for (int x = 0; x < n_; ++x) {
    const int sx = (x & 1) ^ in_sw_[static_cast<std::size_t>(x >> 1)];
    const int y = perm[static_cast<std::size_t>(x)];
    if (sx == 0) {
      up[static_cast<std::size_t>(x >> 1)] = y >> 1;
    } else {
      low[static_cast<std::size_t>(x >> 1)] = y >> 1;
    }
  }
  upper_->route(up);
  lower_->route(low);
}

int BenesNetwork::forward(int input) const {
  SCMP_EXPECTS(input >= 0 && input < n_);
  if (n_ == 2) return in_sw_[0] != 0 ? (input ^ 1) : input;

  const int sw = input >> 1;
  const int subnet = (input & 1) ^ in_sw_[static_cast<std::size_t>(sw)];
  const int sub_out =
      (subnet == 0 ? upper_ : lower_)->forward(sw);
  const int ocross = out_sw_[static_cast<std::size_t>(sub_out)];
  // Output switch j receives the upper subnet on its top leg and the lower
  // subnet on its bottom leg; a crossed switch swaps them.
  const int leg = subnet ^ ocross;
  return 2 * sub_out + leg;
}

}  // namespace scmp::fabric
