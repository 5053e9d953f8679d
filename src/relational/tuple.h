#ifndef PIPES_RELATIONAL_TUPLE_H_
#define PIPES_RELATIONAL_TUPLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/relational/value.h"

/// \file
/// Tuples: fixed-arity sequences of `Value`s, positionally addressed. Field
/// names live in the `Schema`, not in the tuple, so tuples stay compact.
///
/// A tuple is immutable. Its values live in one reference-counted block (a
/// small header followed by the `Value`s), allocated once when the tuple is
/// built; copying a tuple shares the block and bumps an atomic count, so
/// rows cross windows, SweepAreas, buffers and threads without copying
/// their values. Key lookups read fields in place through `ProjectedRow`.

namespace pipes::relational {

/// A row. Hashable and comparable so it can serve directly as a join or
/// grouping key payload in the generic algebra.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values);
  Tuple(std::initializer_list<Value> values);

  Tuple(const Tuple& other) noexcept : rep_(other.rep_) { Ref(); }
  Tuple(Tuple&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
  Tuple& operator=(const Tuple& other) noexcept {
    Tuple(other).swap(*this);
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    Tuple(std::move(other)).swap(*this);
    return *this;
  }
  ~Tuple() { Unref(); }

  /// Builds an `n`-field tuple in one allocation; field `i` is initialized
  /// from `fill(i)`, for i = 0, 1, ..., n - 1 in order.
  template <typename Fill>
  static Tuple Build(std::size_t n, Fill&& fill);

  std::size_t arity() const { return rep_ == nullptr ? 0 : rep_->arity; }

  const Value& field(std::size_t i) const;

  std::span<const Value> values() const {
    return rep_ == nullptr ? std::span<const Value>()
                           : std::span<const Value>(rep_->data(), rep_->arity);
  }

  /// Size of the shared block (header and values; 0 for the empty tuple).
  std::size_t BlockBytes() const {
    return rep_ == nullptr ? 0 : BlockBytesFor(rep_->arity);
  }

  /// New tuple with this tuple's fields followed by `other`'s
  /// (concatenation for joins).
  Tuple Concat(const Tuple& other) const;

  /// New tuple containing the fields at `indices`, in that order.
  Tuple Project(const std::vector<std::size_t>& indices) const;

  std::size_t Hash() const;
  std::string ToString() const;  // "(v1, v2, ...)"

  void swap(Tuple& other) noexcept { std::swap(rep_, other.rep_); }

  friend bool operator==(const Tuple& a, const Tuple& b);
  friend bool operator!=(const Tuple& a, const Tuple& b) { return !(a == b); }
  friend bool operator<(const Tuple& a, const Tuple& b);

 private:
  // The block header; the values follow it in the same allocation. The
  // count is atomic because rows cross threads (`ConcurrentBuffer`, server
  // connections).
  struct alignas(Value) Rep {
    std::atomic<std::uint32_t> refs{1};
    std::uint32_t arity = 0;  // values constructed so far
    /// Raw storage of value `i`, for constructing it.
    void* slot(std::size_t i) {
      return reinterpret_cast<std::byte*>(this + 1) + i * sizeof(Value);
    }
    /// The constructed values; only valid while `arity > 0`.
    const Value* data() const {
      return std::launder(reinterpret_cast<const Value*>(this + 1));
    }
  };

  static constexpr std::size_t BlockBytesFor(std::size_t n) {
    return sizeof(Rep) + n * sizeof(Value);
  }

  void Ref() const {
    if (rep_ != nullptr) rep_->refs.fetch_add(1);
  }
  void Unref() {
    if (rep_ != nullptr && rep_->refs.fetch_sub(1) == 1) Destroy(rep_);
  }
  static void Destroy(Rep* rep);

  Rep* rep_ = nullptr;
};

template <typename Fill>
Tuple Tuple::Build(std::size_t n, Fill&& fill) {
  Tuple t;
  if (n == 0) return t;
  t.rep_ = new (::operator new(BlockBytesFor(n))) Rep;
  // `arity` counts constructed values, so a throwing `fill` leaves a tuple
  // whose destructor releases exactly what was built.
  for (std::size_t i = 0; i < n; ++i) {
    new (t.rep_->slot(i)) Value(fill(i));
    ++t.rep_->arity;
  }
  return t;
}

/// The fields of `row` at `indices`, read in place: hashes and compares
/// exactly like `row.Project(indices)` without building it. Borrows both
/// arguments, so it must not outlive them. Join probes and group lookups
/// use it as a heterogeneous hash-map key.
class ProjectedRow {
 public:
  ProjectedRow(const Tuple& row, const std::vector<std::size_t>& indices)
      : row_(&row), indices_(&indices) {}

  std::size_t arity() const { return indices_->size(); }
  const Value& field(std::size_t i) const {
    return row_->field((*indices_)[i]);
  }

  std::size_t Hash() const;

  friend bool operator==(const ProjectedRow& a, const Tuple& b);
  friend bool operator==(const Tuple& a, const ProjectedRow& b) {
    return b == a;
  }

 private:
  const Tuple* row_;
  const std::vector<std::size_t>* indices_;
};

}  // namespace pipes::relational

template <>
struct std::hash<pipes::relational::Tuple> {
  std::size_t operator()(const pipes::relational::Tuple& t) const {
    return t.Hash();
  }
};

template <>
struct std::hash<pipes::relational::ProjectedRow> {
  std::size_t operator()(const pipes::relational::ProjectedRow& k) const {
    return k.Hash();
  }
};

namespace pipes::sweeparea {
/// Memory accounting for tuple payloads (used by SweepAreas): the handle,
/// the whole shared block and string contents. A block shared by several
/// holders is charged to each of them.
std::size_t ApproxPayloadBytes(const pipes::relational::Tuple& t);
}  // namespace pipes::sweeparea

#endif  // PIPES_RELATIONAL_TUPLE_H_
