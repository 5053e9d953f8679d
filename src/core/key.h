#ifndef PIPES_CORE_KEY_H_
#define PIPES_CORE_KEY_H_

#include <cstddef>
#include <functional>

/// \file
/// Keyed state lookups that need no owned key. A key functor may offer, next
/// to `operator()(payload)` (the owned key, built when state is inserted),
/// a `Borrow(payload)` returning a view of the same key read in place from
/// the payload. The view must hash (`std::hash`) and compare (`==` against
/// the owned key) exactly like the owned key. Hash maps keyed by the owned
/// type use `KeyHash`/`KeyEqual`, which are transparent, so probes and
/// group lookups find entries through the view (C++20 heterogeneous
/// `unordered_map::find`). Functors without `Borrow` fall back to building
/// the key.

namespace pipes {

/// Transparent `std::hash` over a key type and its borrowed views.
struct KeyHash {
  using is_transparent = void;
  template <typename K>
  std::size_t operator()(const K& key) const {
    return std::hash<K>()(key);
  }
};

/// Transparent `==` over a key type and its borrowed views.
struct KeyEqual {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return a == b;
  }
};

/// The key of `payload` for a lookup: `key_fn.Borrow(payload)` when the
/// functor offers it, else `key_fn(payload)`.
template <typename KeyFn, typename T>
decltype(auto) LookupKey(const KeyFn& key_fn, const T& payload) {
  if constexpr (requires { key_fn.Borrow(payload); }) {
    return key_fn.Borrow(payload);
  } else {
    return key_fn(payload);
  }
}

}  // namespace pipes

#endif  // PIPES_CORE_KEY_H_
