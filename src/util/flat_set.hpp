// An ascending set in one sorted std::vector: membership is a binary search
// over adjacent keys and iteration walks contiguous memory, where std::set
// chases one heap node per element. Built for small sets read far more
// often than they change — an SCMP routing entry's downstream routers are
// read on every DATA hop and written only by install and prune packets.
// Insert and erase shift the tail, so they cost O(size); erasing keeps the
// capacity, so a set that shrinks and regrows allocates nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace scmp::util {

template <typename T>
class FlatSet {
 public:
  using value_type = T;
  using const_iterator = typename std::vector<T>::const_iterator;
  using iterator = const_iterator;

  FlatSet() = default;
  FlatSet(std::initializer_list<T> init) {
    for (const T& v : init) insert(v);
  }

  bool contains(const T& v) const {
    return std::binary_search(items_.begin(), items_.end(), v);
  }
  /// True when `v` was not yet in the set.
  bool insert(const T& v) {
    const auto it = std::lower_bound(items_.begin(), items_.end(), v);
    if (it != items_.end() && !(v < *it)) return false;
    items_.insert(it, v);
    return true;
  }
  /// The number of elements erased (0 or 1), as std::set::erase.
  std::size_t erase(const T& v) {
    const auto it = std::lower_bound(items_.begin(), items_.end(), v);
    if (it == items_.end() || v < *it) return 0;
    items_.erase(it);
    return 1;
  }
  void clear() { items_.clear(); }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  /// Ascending.
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

  bool operator==(const FlatSet&) const = default;

 private:
  std::vector<T> items_;  ///< strictly ascending
};

}  // namespace scmp::util
