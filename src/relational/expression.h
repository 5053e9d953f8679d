#ifndef PIPES_RELATIONAL_EXPRESSION_H_
#define PIPES_RELATIONAL_EXPRESSION_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/relational/tuple.h"
#include "src/relational/value.h"

/// \file
/// Expression trees evaluated against tuples: field references, literals,
/// arithmetic, comparisons, boolean connectives. Built by the CQL parser,
/// rewritten by the optimizer (conjunct splitting, field remapping for
/// predicate pushdown), and compiled into filter/map operator parameters.

namespace pipes::relational {

/// The row an expression is evaluated over, borrowed: the fields of a left
/// part followed by those of an optional right part. A `Tuple` converts to
/// it implicitly; a join pair `RowView(l, r)` reads as `l.Concat(r)`
/// without building the concatenation. Must not outlive what it borrows.
class RowView {
 public:
  RowView(const Tuple& row)  // NOLINT(runtime/explicit)
      : left_(row.values()) {}
  RowView(const Tuple& left, const Tuple& right)
      : left_(left.values()), right_(right.values()) {}

  std::size_t arity() const { return left_.size() + right_.size(); }

  /// Field `i` of the combined row; out of range aborts, as
  /// `Tuple::field` does.
  const Value& field(std::size_t i) const;

 private:
  std::span<const Value> left_;
  std::span<const Value> right_;
};

class Expression;
using ExprPtr = std::shared_ptr<const Expression>;

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

enum class UnaryOp { kNot, kNeg };

const char* BinaryOpName(BinaryOp op);

/// Abstract expression node. Immutable; shared between plans.
class Expression {
 public:
  virtual ~Expression() = default;

  virtual Value Eval(RowView row) const = 0;

  virtual std::string ToString() const = 0;

  /// Appends the indices of all referenced fields.
  virtual void CollectFieldRefs(std::vector<std::size_t>* out) const = 0;

  /// Rewrites field indices through `mapping` (old index -> new index, -1
  /// if the field is unavailable below the target operator). Returns
  /// nullptr when any referenced field is unavailable.
  virtual ExprPtr RemapFields(const std::vector<int>& mapping) const = 0;
};

/// Positional field reference; `name` is for display only.
class FieldRef : public Expression {
 public:
  FieldRef(std::size_t index, std::string name)
      : index_(index), name_(std::move(name)) {}

  std::size_t index() const { return index_; }
  const std::string& name() const { return name_; }

  Value Eval(RowView row) const override { return row.field(index_); }
  std::string ToString() const override;
  void CollectFieldRefs(std::vector<std::size_t>* out) const override {
    out->push_back(index_);
  }
  ExprPtr RemapFields(const std::vector<int>& mapping) const override;

 private:
  std::size_t index_;
  std::string name_;
};

class Literal : public Expression {
 public:
  explicit Literal(Value value) : value_(std::move(value)) {}

  const Value& value() const { return value_; }

  Value Eval(RowView) const override { return value_; }
  /// Strings render quoted so expression text is re-parseable (XML plan
  /// round-trips).
  std::string ToString() const override {
    if (value_.type() == ValueType::kString) {
      return "'" + value_.AsString() + "'";
    }
    return value_.ToString();
  }
  void CollectFieldRefs(std::vector<std::size_t>*) const override {}
  ExprPtr RemapFields(const std::vector<int>&) const override;

 private:
  Value value_;
};

class BinaryExpr : public Expression {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  BinaryOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  Value Eval(RowView row) const override;
  std::string ToString() const override;
  void CollectFieldRefs(std::vector<std::size_t>* out) const override {
    left_->CollectFieldRefs(out);
    right_->CollectFieldRefs(out);
  }
  ExprPtr RemapFields(const std::vector<int>& mapping) const override;

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class UnaryExpr : public Expression {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : op_(op), operand_(std::move(operand)) {}

  UnaryOp op() const { return op_; }
  const ExprPtr& operand() const { return operand_; }

  Value Eval(RowView row) const override;
  std::string ToString() const override;
  void CollectFieldRefs(std::vector<std::size_t>* out) const override {
    operand_->CollectFieldRefs(out);
  }
  ExprPtr RemapFields(const std::vector<int>& mapping) const override;

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

// --- Construction helpers ----------------------------------------------------

ExprPtr MakeField(std::size_t index, std::string name);
ExprPtr MakeLiteral(Value value);
ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);

/// Splits nested ANDs into a conjunct list (for pushdown).
void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);

/// ANDs the conjuncts back together; nullptr for an empty list.
ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts);

}  // namespace pipes::relational

#endif  // PIPES_RELATIONAL_EXPRESSION_H_
