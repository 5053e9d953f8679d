// Tests for the relational layer: values, tuples, schemas, expressions.

#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/key.h"
#include "src/relational/expression.h"
#include "src/relational/schema.h"
#include "src/relational/tuple.h"
#include "src/relational/value.h"

namespace pipes::relational {
namespace {

TEST(Value, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(std::int64_t{42}).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value(3.5).AsDouble(), 3.5);
  EXPECT_DOUBLE_EQ(Value(std::int64_t{3}).AsDouble(), 3.0);  // promotion
  EXPECT_TRUE(Value(true).AsBool());
  EXPECT_EQ(Value("abc").AsString(), "abc");
}

TEST(Value, EqualityWithNumericPromotion) {
  EXPECT_EQ(Value(std::int64_t{3}), Value(3.0));
  EXPECT_NE(Value(std::int64_t{3}), Value(3.5));
  EXPECT_EQ(Value("x"), Value("x"));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value(std::int64_t{0}));
}

TEST(Value, HashConsistentWithPromotionEquality) {
  EXPECT_EQ(Value(std::int64_t{7}).Hash(), Value(7.0).Hash());
}

TEST(Value, Ordering) {
  EXPECT_LT(Value(std::int64_t{1}), Value(2.5));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value::Null(), Value(std::int64_t{0}));
}

TEST(Value, Truthiness) {
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_TRUE(Value(std::int64_t{1}).Truthy());
  EXPECT_FALSE(Value(0.0).Truthy());
  EXPECT_TRUE(Value(true).Truthy());
}

TEST(Tuple, FieldsConcatProject) {
  Tuple t{Value(std::int64_t{1}), Value("x"), Value(2.5)};
  EXPECT_EQ(t.arity(), 3u);
  EXPECT_EQ(t.field(1).AsString(), "x");

  Tuple u{Value(true)};
  Tuple cat = t.Concat(u);
  EXPECT_EQ(cat.arity(), 4u);
  EXPECT_TRUE(cat.field(3).AsBool());

  Tuple proj = t.Project({2, 0});
  EXPECT_EQ(proj.arity(), 2u);
  EXPECT_DOUBLE_EQ(proj.field(0).AsDouble(), 2.5);
  EXPECT_EQ(proj.field(1).AsInt(), 1);
}

TEST(Tuple, HashAndEquality) {
  Tuple a{Value(std::int64_t{1}), Value("x")};
  Tuple b{Value(std::int64_t{1}), Value("x")};
  Tuple c{Value(std::int64_t{2}), Value("x")};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
}

TEST(Tuple, CopiesShareOneBlockAndCompareAndHashEqual) {
  const Tuple t{Value(std::int64_t{1}), Value("a string too long for SSO"),
                Value(2.5), Value::Null()};
  const Tuple copy = t;
  EXPECT_EQ(copy.values().data(), t.values().data());
  EXPECT_EQ(copy, t);
  EXPECT_EQ(copy.Hash(), t.Hash());
  Tuple assigned;
  assigned = copy;
  EXPECT_EQ(assigned.values().data(), t.values().data());

  // Built apart from the same values: equal, but its own block.
  const Tuple rebuilt(std::vector<Value>(t.values().begin(), t.values().end()));
  EXPECT_NE(rebuilt.values().data(), t.values().data());
  EXPECT_EQ(rebuilt, t);
  EXPECT_EQ(rebuilt.Hash(), t.Hash());

  Tuple moved = std::move(assigned);
  EXPECT_EQ(moved.values().data(), t.values().data());
  EXPECT_EQ(assigned.arity(), 0u);

  EXPECT_EQ(Tuple().arity(), 0u);
  EXPECT_EQ(Tuple(), Tuple(std::vector<Value>{}));
  EXPECT_EQ(Tuple().BlockBytes(), 0u);
  EXPECT_GE(t.BlockBytes(), 4 * sizeof(Value));
}

TEST(Tuple, SharedBlockSurvivesCopiesOnOtherThreads) {
  const Tuple t{Value(std::int64_t{7}), Value("shared across threads")};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&t] {
      for (int j = 0; j < 10000; ++j) {
        Tuple copy = t;
        Tuple other = std::move(copy);
        ASSERT_EQ(other.field(1).AsString(), "shared across threads");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(t.field(0).AsInt(), 7);
}

TEST(Tuple, BuildFillsInOrder) {
  const Tuple t = Tuple::Build(3, [](std::size_t i) {
    return Value(static_cast<std::int64_t>(i * 10));
  });
  EXPECT_EQ(t, (Tuple{Value(std::int64_t{0}), Value(std::int64_t{10}),
                      Value(std::int64_t{20})}));
  EXPECT_EQ(Tuple::Build(0, [](std::size_t) { return Value(); }).arity(), 0u);
}

// Keys over int, double, string and null fields, with int/double promotion.
std::vector<Tuple> KeyRows() {
  return {
      Tuple{Value(std::int64_t{1}), Value("a"), Value(2.0), Value::Null()},
      Tuple{Value(1.0), Value("a"), Value(std::int64_t{2}), Value::Null()},
      Tuple{Value(std::int64_t{1}), Value("b"), Value(2.0), Value::Null()},
      Tuple{Value::Null(), Value("a"), Value(2.5), Value(std::int64_t{3})},
      Tuple{Value(std::int64_t{2}), Value("a long string key, past SSO"),
            Value(-0.5), Value(true)},
      Tuple{Value(std::int64_t{2}), Value("a long string key, past SSO"),
            Value(-0.5), Value(false)},
  };
}

TEST(ProjectedRow, HashesAndComparesExactlyLikeProject) {
  const std::vector<std::vector<std::size_t>> keys = {
      {0}, {1, 0}, {0, 1, 2}, {3, 2}, {2, 3, 1, 0}, {1, 1}, {}};
  const std::vector<Tuple> rows = KeyRows();
  for (const auto& indices : keys) {
    for (const Tuple& a : rows) {
      const ProjectedRow borrowed(a, indices);
      const Tuple owned = a.Project(indices);
      EXPECT_EQ(borrowed.arity(), owned.arity());
      EXPECT_EQ(borrowed.Hash(), owned.Hash()) << owned.ToString();
      EXPECT_EQ(std::hash<ProjectedRow>()(borrowed),
                std::hash<Tuple>()(owned));
      for (const Tuple& b : rows) {
        // Against every projection of the same width, and a wider one.
        const Tuple other = b.Project(indices);
        EXPECT_EQ(borrowed == other, owned == other)
            << owned.ToString() << " vs " << other.ToString();
        EXPECT_EQ(other == borrowed, other == owned);
        EXPECT_FALSE(borrowed == b.Concat(Tuple{Value::Null()}));
      }
    }
  }
}

TEST(ProjectedRow, FindsOwnedKeysInATransparentMap) {
  const std::vector<std::size_t> indices = {1, 0};
  std::unordered_map<Tuple, int, KeyHash, KeyEqual> map;
  const std::vector<Tuple> rows = KeyRows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    map.try_emplace(rows[i].Project(indices), static_cast<int>(i));
  }
  for (const Tuple& row : rows) {
    auto it = map.find(ProjectedRow(row, indices));
    ASSERT_NE(it, map.end());
    EXPECT_EQ(it->first, row.Project(indices));
  }
  const Tuple absent{Value(std::int64_t{1}), Value("zzz")};
  EXPECT_EQ(map.find(ProjectedRow(absent, indices)), map.end());
}

TEST(TupleDeathTest, OutOfRangeFieldsAbort) {
  const Tuple t{Value(std::int64_t{1}), Value("x")};
  const Tuple u{Value(2.0)};
  EXPECT_DEATH((void)t.field(2), "out of range");
  EXPECT_DEATH((void)t.Project({0, 5}), "out of range");
  const std::vector<std::size_t> bad = {0, 2};
  EXPECT_DEATH((void)ProjectedRow(t, bad).Hash(), "out of range");
  EXPECT_DEATH((void)RowView(t, u).field(3), "out of range");
  EXPECT_DEATH((void)MakeField(3, "x")->Eval(RowView(t, u)), "out of range");
  EXPECT_DEATH((void)MakeField(1, "x")->Eval(u), "out of range");
}

TEST(Schema, LookupQualifiedAndAmbiguous) {
  Schema s({{"a.id", ValueType::kInt},
            {"a.price", ValueType::kDouble},
            {"b.id", ValueType::kInt}});
  EXPECT_EQ(s.IndexOf("a.price"), 1u);
  EXPECT_EQ(s.IndexOf("price"), 1u);           // unique suffix
  EXPECT_EQ(s.IndexOf("id"), std::nullopt);    // ambiguous suffix
  EXPECT_EQ(s.IndexOf("nope"), std::nullopt);  // unknown
}

TEST(Schema, PrefixAndConcat) {
  Schema s({{"id", ValueType::kInt}});
  Schema p = s.WithPrefix("bids");
  EXPECT_EQ(p.field(0).name, "bids.id");
  Schema both = p.Concat(s);
  EXPECT_EQ(both.arity(), 2u);
}

TEST(Expression, ArithmeticIntAndDouble) {
  Tuple t{Value(std::int64_t{7}), Value(2.0)};
  auto seven = MakeField(0, "a");
  auto two = MakeField(1, "b");
  EXPECT_EQ(MakeBinary(BinaryOp::kAdd, seven, MakeLiteral(Value(std::int64_t{3})))
                ->Eval(t)
                .AsInt(),
            10);
  EXPECT_DOUBLE_EQ(MakeBinary(BinaryOp::kDiv, seven, two)->Eval(t).AsDouble(),
                   3.5);
  // Int division truncates.
  EXPECT_EQ(MakeBinary(BinaryOp::kDiv, seven,
                       MakeLiteral(Value(std::int64_t{2})))
                ->Eval(t)
                .AsInt(),
            3);
  // Division by zero yields NULL.
  EXPECT_TRUE(MakeBinary(BinaryOp::kDiv, seven,
                         MakeLiteral(Value(std::int64_t{0})))
                  ->Eval(t)
                  .is_null());
}

TEST(Expression, ComparisonsAndLogic) {
  Tuple t{Value(std::int64_t{5})};
  auto five = MakeField(0, "x");
  auto lit3 = MakeLiteral(Value(std::int64_t{3}));
  auto gt = MakeBinary(BinaryOp::kGt, five, lit3);
  EXPECT_TRUE(gt->Eval(t).AsBool());
  auto lt = MakeBinary(BinaryOp::kLt, five, lit3);
  EXPECT_FALSE(lt->Eval(t).AsBool());
  EXPECT_TRUE(MakeBinary(BinaryOp::kAnd, gt, MakeUnary(UnaryOp::kNot, lt))
                  ->Eval(t)
                  .AsBool());
  EXPECT_TRUE(MakeBinary(BinaryOp::kOr, lt, gt)->Eval(t).AsBool());
  // NULL comparisons are false.
  auto null_cmp = MakeBinary(BinaryOp::kEq, five, MakeLiteral(Value::Null()));
  EXPECT_FALSE(null_cmp->Eval(t).AsBool());
}

TEST(Expression, ConjunctSplitAndCombine) {
  auto a = MakeBinary(BinaryOp::kGt, MakeField(0, "x"),
                      MakeLiteral(Value(std::int64_t{1})));
  auto b = MakeBinary(BinaryOp::kLt, MakeField(1, "y"),
                      MakeLiteral(Value(std::int64_t{9})));
  auto c = MakeBinary(BinaryOp::kEq, MakeField(2, "z"),
                      MakeLiteral(Value(std::int64_t{5})));
  auto all = MakeBinary(BinaryOp::kAnd, MakeBinary(BinaryOp::kAnd, a, b), c);

  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(all, &conjuncts);
  ASSERT_EQ(conjuncts.size(), 3u);

  auto combined = CombineConjuncts(conjuncts);
  Tuple t{Value(std::int64_t{2}), Value(std::int64_t{3}),
          Value(std::int64_t{5})};
  EXPECT_TRUE(combined->Eval(t).AsBool());
  EXPECT_TRUE(all->Eval(t).AsBool());
}

TEST(Expression, RemapFields) {
  auto expr = MakeBinary(BinaryOp::kAdd, MakeField(2, "c"), MakeField(0, "a"));
  // Fields 0 and 2 move to 1 and 0.
  auto remapped = expr->RemapFields({1, -1, 0});
  ASSERT_NE(remapped, nullptr);
  Tuple t{Value(std::int64_t{10}), Value(std::int64_t{20})};
  EXPECT_EQ(remapped->Eval(t).AsInt(), 30);

  // Referencing an unavailable field fails the remap.
  auto bad = expr->RemapFields({-1, 0, 1});
  EXPECT_EQ(bad, nullptr);
}

TEST(Expression, EvalOverAPairEqualsEvalOverTheConcatenation) {
  const std::vector<Tuple> lefts = {
      Tuple{Value(std::int64_t{7}), Value(2.5), Value("x")},
      Tuple{Value::Null(), Value(std::int64_t{0}), Value("y")},
      Tuple{Value(std::int64_t{-3}), Value(0.0), Value("x")},
  };
  const std::vector<Tuple> rights = {
      Tuple{Value(std::int64_t{2}), Value(true)},
      Tuple{Value(4.0), Value(false)},
      Tuple{Value(std::int64_t{0}), Value::Null()},
  };
  // Fields 0-2 come from the left row, 3-4 from the right one.
  std::vector<ExprPtr> exprs = {
      MakeField(0, "l0"), MakeField(2, "l2"), MakeField(3, "r0"),
      MakeField(4, "r1"), MakeLiteral(Value("lit")),
      MakeLiteral(Value::Null()),
      MakeUnary(UnaryOp::kNeg, MakeField(3, "r0")),
      MakeUnary(UnaryOp::kNot, MakeField(4, "r1")),
      MakeBinary(BinaryOp::kEq, MakeField(2, "l2"), MakeLiteral(Value("x")))};
  const BinaryOp numeric_ops[] = {
      BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
      BinaryOp::kMod, BinaryOp::kEq,  BinaryOp::kNe,  BinaryOp::kLt,
      BinaryOp::kLe,  BinaryOp::kGt,  BinaryOp::kGe,  BinaryOp::kAnd,
      BinaryOp::kOr};
  for (const BinaryOp op : numeric_ops) {
    // Left against right, right against left, and within one side.
    exprs.push_back(MakeBinary(op, MakeField(0, "l0"), MakeField(3, "r0")));
    exprs.push_back(MakeBinary(op, MakeField(3, "r0"), MakeField(1, "l1")));
    exprs.push_back(MakeBinary(op, MakeField(1, "l1"), MakeField(0, "l0")));
  }
  for (const Tuple& l : lefts) {
    for (const Tuple& r : rights) {
      const Tuple joined = l.Concat(r);
      EXPECT_EQ(RowView(l, r).arity(), joined.arity());
      for (const ExprPtr& expr : exprs) {
        const Value pair = expr->Eval(RowView(l, r));
        const Value whole = expr->Eval(joined);
        EXPECT_EQ(pair.type(), whole.type()) << expr->ToString();
        EXPECT_EQ(pair.ToString(), whole.ToString()) << expr->ToString();
      }
    }
  }
}

TEST(Expression, CollectFieldRefs) {
  auto expr = MakeBinary(
      BinaryOp::kMul, MakeField(1, "x"),
      MakeBinary(BinaryOp::kAdd, MakeField(3, "y"), MakeField(1, "x")));
  std::vector<std::size_t> refs;
  expr->CollectFieldRefs(&refs);
  EXPECT_EQ(refs, (std::vector<std::size_t>{1, 3, 1}));
}

}  // namespace
}  // namespace pipes::relational
