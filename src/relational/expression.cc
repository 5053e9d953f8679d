#include "src/relational/expression.h"

#include <cmath>

#include "src/common/macros.h"

namespace pipes::relational {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

const Value& RowView::field(std::size_t i) const {
  if (i < left_.size()) return left_[i];
  PIPES_CHECK_MSG(i - left_.size() < right_.size(),
                  "tuple field index out of range");
  return right_[i - left_.size()];
}

std::string FieldRef::ToString() const {
  return name_.empty() ? "$" + std::to_string(index_) : name_;
}

ExprPtr FieldRef::RemapFields(const std::vector<int>& mapping) const {
  if (index_ >= mapping.size() || mapping[index_] < 0) return nullptr;
  return MakeField(static_cast<std::size_t>(mapping[index_]), name_);
}

ExprPtr Literal::RemapFields(const std::vector<int>&) const {
  return MakeLiteral(value_);
}

namespace {

Value EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  PIPES_CHECK_MSG(l.is_numeric() && r.is_numeric(),
                  "arithmetic on non-numeric values");
  const bool both_int =
      l.type() == ValueType::kInt && r.type() == ValueType::kInt;
  if (both_int) {
    const std::int64_t a = l.AsInt();
    const std::int64_t b = r.AsInt();
    switch (op) {
      case BinaryOp::kAdd:
        return Value(a + b);
      case BinaryOp::kSub:
        return Value(a - b);
      case BinaryOp::kMul:
        return Value(a * b);
      case BinaryOp::kDiv:
        return b == 0 ? Value::Null() : Value(a / b);
      case BinaryOp::kMod:
        return b == 0 ? Value::Null() : Value(a % b);
      default:
        break;
    }
  }
  const double a = l.AsDouble();
  const double b = r.AsDouble();
  switch (op) {
    case BinaryOp::kAdd:
      return Value(a + b);
    case BinaryOp::kSub:
      return Value(a - b);
    case BinaryOp::kMul:
      return Value(a * b);
    case BinaryOp::kDiv:
      return b == 0.0 ? Value::Null() : Value(a / b);
    case BinaryOp::kMod:
      return b == 0.0 ? Value::Null() : Value(std::fmod(a, b));
    default:
      PIPES_CHECK_MSG(false, "not an arithmetic op");
  }
  return Value::Null();
}

Value EvalComparison(BinaryOp op, const Value& l, const Value& r) {
  // SQL-ish: comparisons involving NULL are false.
  if (l.is_null() || r.is_null()) return Value(false);
  switch (op) {
    case BinaryOp::kEq:
      return Value(l == r);
    case BinaryOp::kNe:
      return Value(l != r);
    case BinaryOp::kLt:
      return Value(l < r);
    case BinaryOp::kLe:
      return Value(!(r < l));
    case BinaryOp::kGt:
      return Value(r < l);
    case BinaryOp::kGe:
      return Value(!(l < r));
    default:
      PIPES_CHECK_MSG(false, "not a comparison op");
  }
  return Value(false);
}

}  // namespace

Value BinaryExpr::Eval(RowView row) const {
  switch (op_) {
    case BinaryOp::kAnd: {
      if (!left_->Eval(row).Truthy()) return Value(false);
      return Value(right_->Eval(row).Truthy());
    }
    case BinaryOp::kOr: {
      if (left_->Eval(row).Truthy()) return Value(true);
      return Value(right_->Eval(row).Truthy());
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return EvalArithmetic(op_, left_->Eval(row), right_->Eval(row));
    default:
      return EvalComparison(op_, left_->Eval(row), right_->Eval(row));
  }
}

std::string BinaryExpr::ToString() const {
  return "(" + left_->ToString() + " " + BinaryOpName(op_) + " " +
         right_->ToString() + ")";
}

ExprPtr BinaryExpr::RemapFields(const std::vector<int>& mapping) const {
  ExprPtr l = left_->RemapFields(mapping);
  ExprPtr r = right_->RemapFields(mapping);
  if (l == nullptr || r == nullptr) return nullptr;
  return MakeBinary(op_, std::move(l), std::move(r));
}

Value UnaryExpr::Eval(RowView row) const {
  const Value v = operand_->Eval(row);
  switch (op_) {
    case UnaryOp::kNot:
      return Value(!v.Truthy());
    case UnaryOp::kNeg:
      if (v.is_null()) return Value::Null();
      if (v.type() == ValueType::kInt) return Value(-v.AsInt());
      return Value(-v.AsDouble());
  }
  return Value::Null();
}

std::string UnaryExpr::ToString() const {
  return std::string(op_ == UnaryOp::kNot ? "NOT " : "-") +
         operand_->ToString();
}

ExprPtr UnaryExpr::RemapFields(const std::vector<int>& mapping) const {
  ExprPtr operand = operand_->RemapFields(mapping);
  if (operand == nullptr) return nullptr;
  return MakeUnary(op_, std::move(operand));
}

ExprPtr MakeField(std::size_t index, std::string name) {
  return std::make_shared<FieldRef>(index, std::move(name));
}

ExprPtr MakeLiteral(Value value) {
  return std::make_shared<Literal>(std::move(value));
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<BinaryExpr>(op, std::move(left), std::move(right));
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr operand) {
  return std::make_shared<UnaryExpr>(op, std::move(operand));
}

void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (const auto* binary = dynamic_cast<const BinaryExpr*>(expr.get());
      binary != nullptr && binary->op() == BinaryOp::kAnd) {
    SplitConjuncts(binary->left(), out);
    SplitConjuncts(binary->right(), out);
    return;
  }
  out->push_back(expr);
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr combined = nullptr;
  for (const ExprPtr& c : conjuncts) {
    combined = combined == nullptr
                   ? c
                   : MakeBinary(BinaryOp::kAnd, combined, c);
  }
  return combined;
}

}  // namespace pipes::relational
