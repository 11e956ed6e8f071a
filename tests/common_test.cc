#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/lanes.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace silkroute {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::NotFound("missing");
  Status t = s;
  EXPECT_EQ(t.code(), StatusCode::kNotFound);
  EXPECT_EQ(t.message(), "missing");
  EXPECT_EQ(s, t);
}

TEST(StatusTest, MoveLeavesSourceReusable) {
  Status s = Status::Internal("x");
  Status t = std::move(s);
  EXPECT_EQ(t.code(), StatusCode::kInternal);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kParseError, StatusCode::kTypeError,
        StatusCode::kConstraintViolation, StatusCode::kTimeout,
        StatusCode::kUnavailable, StatusCode::kResourceExhausted}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, EveryFactoryRoundTripsCodeNameAndMessage) {
  struct Case {
    Status status;
    StatusCode code;
    const char* name;
  };
  const Case cases[] = {
      {Status::InvalidArgument("m"), StatusCode::kInvalidArgument,
       "InvalidArgument"},
      {Status::NotFound("m"), StatusCode::kNotFound, "NotFound"},
      {Status::AlreadyExists("m"), StatusCode::kAlreadyExists,
       "AlreadyExists"},
      {Status::OutOfRange("m"), StatusCode::kOutOfRange, "OutOfRange"},
      {Status::Unimplemented("m"), StatusCode::kUnimplemented,
       "Unimplemented"},
      {Status::Internal("m"), StatusCode::kInternal, "Internal"},
      {Status::ParseError("m"), StatusCode::kParseError, "ParseError"},
      {Status::TypeError("m"), StatusCode::kTypeError, "TypeError"},
      {Status::ConstraintViolation("m"), StatusCode::kConstraintViolation,
       "ConstraintViolation"},
      {Status::Timeout("m"), StatusCode::kTimeout, "Timeout"},
      {Status::Unavailable("m"), StatusCode::kUnavailable, "Unavailable"},
      {Status::ResourceExhausted("m"), StatusCode::kResourceExhausted,
       "ResourceExhausted"},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(c.status.message(), "m");
    EXPECT_STREQ(StatusCodeToString(c.code), c.name);
    EXPECT_EQ(c.status.ToString(), std::string(c.name) + ": m");
    // Copy and equality survive the round-trip for every code.
    Status copy = c.status;
    EXPECT_EQ(copy, c.status);
  }
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::Timeout("slow"); };
  auto outer = [&]() -> Status {
    SILK_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kTimeout);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, AssignOrReturnExtracts) {
  auto make = []() -> Result<std::string> { return std::string("hi"); };
  auto use = [&]() -> Result<size_t> {
    SILK_ASSIGN_OR_RETURN(std::string s, make());
    return s.size();
  };
  auto r = use();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2u);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto make = []() -> Result<std::string> {
    return Status::Internal("boom");
  };
  auto use = [&]() -> Result<size_t> {
    SILK_ASSIGN_OR_RETURN(std::string s, make());
    return s.size();
  };
  EXPECT_EQ(use().status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
}

TEST(StringUtilTest, CaseConversions) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("AbC"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foo", "foobar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("bar", "foobar"));
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StringPrintf("%05d", 7), "00007");
}

TEST(RandomTest, Deterministic) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomTest, UniformInRange) {
  Random rng(99);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, UniformSingletonRange) {
  Random rng(7);
  EXPECT_EQ(rng.Uniform(3, 3), 3);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, NextStringLengthAndAlphabet) {
  Random rng(11);
  std::string s = rng.NextString(32);
  EXPECT_EQ(s.size(), 32u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GE(t.ElapsedMicros(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), 0.0);
}

TEST(TimerTest, RestartResets) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  double before = t.ElapsedMicros();
  t.Restart();
  EXPECT_LE(t.ElapsedMicros(), before + 1e6);
}

TEST(LanesTest, CapacityIsTheCoreCountClampedToTheMaximum) {
  EXPECT_GE(LaneCapacity(), 1u);
  EXPECT_LE(LaneCapacity(), kMaxLanes);
  EXPECT_LE(LaneCapacity(),
            std::max<size_t>(1, std::thread::hardware_concurrency()));
}

TEST(LanesTest, NestedBusyMarksCountTheThreadOnce) {
  const size_t idle = BusyLanes();
  {
    BusyLane outer;
    EXPECT_EQ(BusyLanes(), idle + 1);
    {
      BusyLane inner;
      EXPECT_EQ(BusyLanes(), idle + 1);
    }
    EXPECT_EQ(BusyLanes(), idle + 1);
  }
  EXPECT_EQ(BusyLanes(), idle);
}

TEST(LanesTest, LoansTakeOnlyIdleLanesAndGiveThemBack) {
  ASSERT_EQ(BusyLanes(), 0u);
  BusyLane busy;
  {
    LaneLoan all(kMaxLanes * 2);
    EXPECT_EQ(all.count(), LaneCapacity() - 1);
    EXPECT_EQ(BusyLanes(), LaneCapacity());
    LaneLoan none(1);
    EXPECT_EQ(none.count(), 0u);
  }
  EXPECT_EQ(BusyLanes(), 1u);
  LaneLoan zero(0);
  EXPECT_EQ(zero.count(), 0u);
  EXPECT_EQ(BusyLanes(), 1u);
}

TEST(LanesTest, ConcurrentLoansNeverExceedCapacity) {
  std::atomic<size_t> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        LaneLoan loan(2);
        size_t now = BusyLanes();
        size_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(peak.load(), LaneCapacity());
  EXPECT_EQ(BusyLanes(), 0u);
}

}  // namespace
}  // namespace silkroute
