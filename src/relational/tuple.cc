#include "src/relational/tuple.h"

#include <algorithm>
#include <memory>
#include <new>

#include "src/common/macros.h"

namespace pipes::relational {

namespace {

// Shared by `Tuple::Hash` and `ProjectedRow::Hash`, so a borrowed key and
// the projected tuple it stands for hash alike.
constexpr std::size_t kRowHashSeed = 0x811c9dc5;
std::size_t CombineRowHash(std::size_t h, const Value& v) {
  return h ^ (v.Hash() + 0x9e3779b9 + (h << 6) + (h >> 2));
}

}  // namespace

Tuple::Tuple(std::vector<Value> values)
    : Tuple(Build(values.size(),
                  [&](std::size_t i) { return std::move(values[i]); })) {}

Tuple::Tuple(std::initializer_list<Value> values)
    : Tuple(Build(values.size(), [&](std::size_t i) -> const Value& {
        return values.begin()[i];
      })) {}

void Tuple::Destroy(Rep* rep) {
  for (std::size_t i = 0; i < rep->arity; ++i) {
    std::destroy_at(std::launder(static_cast<Value*>(rep->slot(i))));
  }
  rep->~Rep();
  ::operator delete(rep);
}

const Value& Tuple::field(std::size_t i) const {
  PIPES_CHECK_MSG(i < arity(), "tuple field index out of range");
  return rep_->data()[i];
}

Tuple Tuple::Concat(const Tuple& other) const {
  const std::span<const Value> left = values();
  const std::span<const Value> right = other.values();
  return Build(left.size() + right.size(),
               [&](std::size_t i) -> const Value& {
                 return i < left.size() ? left[i] : right[i - left.size()];
               });
}

Tuple Tuple::Project(const std::vector<std::size_t>& indices) const {
  return Build(indices.size(), [&](std::size_t i) -> const Value& {
    return field(indices[i]);
  });
}

std::size_t Tuple::Hash() const {
  std::size_t h = kRowHashSeed;
  for (const Value& v : values()) h = CombineRowHash(h, v);
  return h;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  const std::span<const Value> fields = values();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields[i].ToString();
  }
  out += ")";
  return out;
}

bool operator==(const Tuple& a, const Tuple& b) {
  const std::span<const Value> x = a.values();
  const std::span<const Value> y = b.values();
  return std::equal(x.begin(), x.end(), y.begin(), y.end());
}

bool operator<(const Tuple& a, const Tuple& b) {
  const std::span<const Value> x = a.values();
  const std::span<const Value> y = b.values();
  return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                      y.end());
}

std::size_t ProjectedRow::Hash() const {
  std::size_t h = kRowHashSeed;
  for (std::size_t i = 0; i < arity(); ++i) h = CombineRowHash(h, field(i));
  return h;
}

bool operator==(const ProjectedRow& a, const Tuple& b) {
  if (a.arity() != b.arity()) return false;
  for (std::size_t i = 0; i < a.arity(); ++i) {
    if (!(a.field(i) == b.field(i))) return false;
  }
  return true;
}

}  // namespace pipes::relational

namespace pipes::sweeparea {

std::size_t ApproxPayloadBytes(const pipes::relational::Tuple& t) {
  std::size_t bytes = sizeof(pipes::relational::Tuple) + t.BlockBytes();
  for (const auto& v : t.values()) {
    if (v.type() == pipes::relational::ValueType::kString) {
      bytes += v.AsString().size();
    }
  }
  return bytes;
}

}  // namespace pipes::sweeparea
