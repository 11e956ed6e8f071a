#include <gtest/gtest.h>

#include "common/random.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace silkroute {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_int64());
  EXPECT_FALSE(v.is_double());
  EXPECT_FALSE(v.is_string());
}

TEST(ValueTest, TypedConstructionAndAccess) {
  EXPECT_EQ(Value::Int64(42).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
}

TEST(ValueTest, AsNumericWidensInt) {
  EXPECT_DOUBLE_EQ(Value::Int64(3).AsNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Double(3.5).AsNumeric(), 3.5);
}

TEST(ValueTest, NullsCompareEqualAndFirst) {
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int64(0)), 0);
  EXPECT_LT(Value::Null().Compare(Value::String("")), 0);
  EXPECT_GT(Value::Int64(-100).Compare(Value::Null()), 0);
}

TEST(ValueTest, NumericCompareCrossType) {
  EXPECT_EQ(Value::Int64(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int64(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Double(4.0).Compare(Value::Int64(3)), 0);
}

TEST(ValueTest, StringsCompareLexicographically) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
  EXPECT_GT(Value::String("b").Compare(Value::String("a")), 0);
}

TEST(ValueTest, NumericsSortBeforeStrings) {
  EXPECT_LT(Value::Int64(999999).Compare(Value::String("0")), 0);
}

TEST(ValueTest, SqlEqualsRejectsNulls) {
  EXPECT_FALSE(Value::Null().SqlEquals(Value::Null()));
  EXPECT_FALSE(Value::Null().SqlEquals(Value::Int64(1)));
  EXPECT_TRUE(Value::Int64(1).SqlEquals(Value::Int64(1)));
  EXPECT_TRUE(Value::Int64(1).SqlEquals(Value::Double(1.0)));
}

TEST(ValueTest, HashConsistentWithCompare) {
  EXPECT_EQ(Value::Int64(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  Random rng(7);
  for (int i = 0; i < 200; ++i) {
    int64_t x = rng.Uniform(-1000, 1000);
    Value a = Value::Int64(x);
    Value b = Value::Double(static_cast<double>(x));
    ASSERT_EQ(a.Compare(b), 0);
    ASSERT_EQ(a.Hash(), b.Hash());
  }
}

TEST(ValueTest, ByteSize) {
  EXPECT_EQ(Value::Null().ByteSize(), 1u);
  EXPECT_EQ(Value::Int64(1).ByteSize(), 8u);
  EXPECT_EQ(Value::Double(1.0).ByteSize(), 8u);
  EXPECT_EQ(Value::String("abcd").ByteSize(), 8u);  // 4 payload + 4 length
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int64(-5).ToString(), "-5");
  EXPECT_EQ(Value::String("it's").ToString(), "'it''s'");
  EXPECT_EQ(Value::Double(2.0).ToString(), "2.0");
}

TEST(ValueTest, XmlNumberText) {
  char buf[kNumberTextMax];
  EXPECT_EQ(Int64XmlText(7, buf), "7");
  EXPECT_EQ(Int64XmlText(INT64_MIN, buf), "-9223372036854775808");
  EXPECT_EQ(DoubleXmlText(2.0, buf), "2.0");
  EXPECT_EQ(DoubleXmlText(-0.125, buf), "-0.125");
  EXPECT_EQ(DoubleXmlText(1.0 / 3, buf), "0.333333");
  EXPECT_EQ(DoubleXmlText(1e20, buf), "1e+20");
  EXPECT_EQ(DoubleXmlText(-1.5e-300, buf), "-1.5e-300");
}

TEST(ValueTest, CompareIsTotalOrderProperty) {
  // Antisymmetry and transitivity over a random sample.
  Random rng(13);
  std::vector<Value> values;
  for (int i = 0; i < 30; ++i) {
    switch (rng.Uniform(0, 3)) {
      case 0:
        values.push_back(Value::Null());
        break;
      case 1:
        values.push_back(Value::Int64(rng.Uniform(-5, 5)));
        break;
      case 2:
        values.push_back(Value::Double(static_cast<double>(rng.Uniform(-5, 5)) / 2));
        break;
      default:
        values.push_back(Value::String(rng.NextString(2)));
    }
  }
  for (const auto& a : values) {
    for (const auto& b : values) {
      EXPECT_EQ(a.Compare(b), -b.Compare(a));
      for (const auto& c : values) {
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0);
        }
      }
    }
  }
}

TEST(TupleTest, ConcatJoinsValues) {
  Tuple a{Value::Int64(1), Value::String("x")};
  Tuple b{Value::Null()};
  Tuple c = Tuple::Concat(a, b);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].AsInt64(), 1);
  EXPECT_EQ(c[1].AsString(), "x");
  EXPECT_TRUE(c[2].is_null());
}

TEST(TupleTest, CompareLexicographic) {
  Tuple a{Value::Int64(1), Value::Int64(2)};
  Tuple b{Value::Int64(1), Value::Int64(3)};
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_EQ(a.Compare(a), 0);
  Tuple shorter{Value::Int64(1)};
  EXPECT_LT(shorter.Compare(a), 0);  // prefix sorts first
}

TEST(TupleTest, ByteSizeSumsValues) {
  Tuple t{Value::Int64(1), Value::String("abcd"), Value::Null()};
  EXPECT_EQ(t.ByteSize(), 8u + 8u + 1u);
}

TEST(TupleTest, ToStringRendering) {
  Tuple t{Value::Int64(1), Value::String("a")};
  EXPECT_EQ(t.ToString(), "(1, 'a')");
}

}  // namespace
}  // namespace silkroute
