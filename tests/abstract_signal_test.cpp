#include "waveform/abstract_waveform.hpp"

#include <gtest/gtest.h>

namespace waveck {
namespace {

TEST(AbstractSignal, TopAndBottom) {
  EXPECT_TRUE(AbstractSignal::top().is_top());
  EXPECT_FALSE(AbstractSignal::top().is_bottom());
  EXPECT_TRUE(AbstractSignal::bottom().is_bottom());
  EXPECT_FALSE(AbstractSignal::bottom().single_class());
}

TEST(AbstractSignal, FloatingInputShape) {
  const AbstractSignal f = AbstractSignal::floating_input();
  EXPECT_EQ(f.cls(false), LtInterval::stable_after(Time(0)));
  EXPECT_EQ(f.cls(true), LtInterval::stable_after(Time(0)));
}

TEST(AbstractSignal, ViolatingShape) {
  const AbstractSignal v = AbstractSignal::violating(Time(61));
  EXPECT_EQ(v.cls(false), LtInterval::at_or_after(Time(61)));
  EXPECT_EQ(v.cls(true), LtInterval::at_or_after(Time(61)));
}

TEST(AbstractSignal, ClassOnly) {
  const AbstractSignal s0 = AbstractSignal::class_only(false);
  EXPECT_TRUE(s0.single_class());
  EXPECT_FALSE(s0.the_class());
  EXPECT_TRUE(s0.cls(true).is_empty());
  EXPECT_TRUE(s0.cls(false).is_top());

  const AbstractSignal s1 = AbstractSignal::class_only(true);
  EXPECT_TRUE(s1.single_class());
  EXPECT_TRUE(s1.the_class());
}

TEST(AbstractSignal, IntersectUniteComponentwise) {
  const AbstractSignal a{LtInterval(Time(0), Time(10)),
                         LtInterval(Time(5), Time(7))};
  const AbstractSignal b{LtInterval(Time(8), Time(20)),
                         LtInterval::empty()};
  const AbstractSignal i = a.intersect(b);
  EXPECT_EQ(i.cls(false), LtInterval(Time(8), Time(10)));
  EXPECT_TRUE(i.cls(true).is_empty());
  const AbstractSignal u = a.unite(b);
  EXPECT_EQ(u.cls(false), LtInterval(Time(0), Time(20)));
  EXPECT_EQ(u.cls(true), LtInterval(Time(5), Time(7)));
}

TEST(AbstractSignal, NarrownessIsStrictSubset) {
  const AbstractSignal a{LtInterval(Time(0), Time(10)),
                         LtInterval(Time(0), Time(10))};
  AbstractSignal b = a;
  EXPECT_FALSE(b.narrower_than(a));
  b.cls(true) = LtInterval(Time(1), Time(10));
  EXPECT_TRUE(b.narrower_than(a));
  EXPECT_FALSE(a.narrower_than(b));
}

TEST(AbstractSignal, LatestAndEarliest) {
  const AbstractSignal a{LtInterval(Time(0), Time(10)),
                         LtInterval(Time(-3), Time(25))};
  EXPECT_EQ(a.latest(), Time(25));
  EXPECT_EQ(a.earliest_lmin(), Time(-3));
  EXPECT_EQ(AbstractSignal::bottom().latest(), Time::neg_inf());

  AbstractSignal one_class = a;
  one_class.cls(true) = LtInterval::empty();
  EXPECT_EQ(one_class.latest(), Time(10));
}

TEST(AbstractSignal, HasTransitionAtOrAfter) {
  const AbstractSignal a{LtInterval(Time(0), Time(10)),
                         LtInterval::empty()};
  EXPECT_TRUE(a.has_transition_at_or_after(Time(10)));
  EXPECT_FALSE(a.has_transition_at_or_after(Time(11)));
  EXPECT_FALSE(AbstractSignal::bottom().has_transition_at_or_after(Time(0)));
}

TEST(AbstractSignal, Printing) {
  const AbstractSignal a{LtInterval(Time(35), Time(75)), LtInterval::empty()};
  EXPECT_EQ(a.str(), "(0|[35,75], 1|phi)");
}

}  // namespace
}  // namespace waveck
