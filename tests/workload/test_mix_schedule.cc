#include "workload/mix_schedule.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace facsp::workload {
namespace {

using cellular::TrafficMix;

const TrafficMix kBase{0.70, 0.20, 0.10};

TEST(MixSchedule, EmptyScheduleAlwaysReturnsBase) {
  const MixSchedule empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.segment_at(0.0), -1);
  EXPECT_DOUBLE_EQ(empty.mix_at(1e9, kBase).text, 0.70);
}

TEST(MixSchedule, SegmentsApplyFromTheirStartOffset) {
  const MixSchedule sched({{100.0, TrafficMix{0.5, 0.3, 0.2}},
                           {400.0, TrafficMix{0.2, 0.3, 0.5}}});
  EXPECT_EQ(sched.segment_at(0.0), -1);     // before first segment: base
  EXPECT_EQ(sched.segment_at(100.0), 0);    // inclusive start
  EXPECT_EQ(sched.segment_at(399.9), 0);
  EXPECT_EQ(sched.segment_at(400.0), 1);
  EXPECT_EQ(sched.segment_at(1e6), 1);      // last segment holds forever
  EXPECT_DOUBLE_EQ(sched.mix_at(50.0, kBase).text, 0.70);
  EXPECT_DOUBLE_EQ(sched.mix_at(200.0, kBase).text, 0.5);
  EXPECT_DOUBLE_EQ(sched.mix_at(500.0, kBase).video, 0.5);
}

TEST(MixSchedule, StringRoundTrip) {
  const MixSchedule sched({{0.0, TrafficMix{0.7, 0.2, 0.1}},
                           {450.0, TrafficMix{0.4, 0.2, 0.4}}});
  const MixSchedule parsed = MixSchedule::from_string(sched.to_string());
  EXPECT_EQ(parsed, sched);
  EXPECT_EQ(MixSchedule::from_string("none"), MixSchedule{});
  EXPECT_EQ(MixSchedule::from_string(""), MixSchedule{});
  EXPECT_EQ(MixSchedule{}.to_string(), "none");
}

TEST(MixSchedule, FromStringRejectsMalformedInput) {
  EXPECT_THROW(MixSchedule::from_string("0:0.7/0.2"), facsp::ConfigError);
  EXPECT_THROW(MixSchedule::from_string("abc"), facsp::ConfigError);
  // Each number is one whole std::from_chars token: no blanks, hex floats,
  // '+' signs or out-of-range values.
  for (const char* text :
       {" 1:0.7/0.2/0.1", "1: 0.7/0.2/0.1", "0x1p3:0.7/0.2/0.1",
        "1e-999:0.7/0.2/0.1", "1e999:0.7/0.2/0.1", "+1:0.7/0.2/0.1",
        "1:0.7/0.2/0.1 ", "1:0.7/0.2/0.1/0", "1:0.7:0.2/0.1", ":0.7/0.2/0.1",
        // from_chars reads nan and inf; validate() refuses them.
        "nan:0.7/0.2/0.1", "inf:0.7/0.2/0.1", "1:nan/0.2/0.1",
        "1:0.7/inf/0.1", "1:0.7/0.2/-inf"})
    EXPECT_THROW(MixSchedule::from_string(text), facsp::ConfigError) << text;
  EXPECT_THROW(MixSchedule::from_string("0:0.7/0.2/0.1x"),
               facsp::ConfigError);
  // Mixes must sum to 1.
  EXPECT_THROW(MixSchedule::from_string("0:0.9/0.9/0.9"),
               facsp::ConfigError);
  // Starts must be strictly increasing.
  EXPECT_THROW(
      MixSchedule::from_string("100:0.7/0.2/0.1;100:0.5/0.3/0.2"),
      facsp::ConfigError);
}

TEST(MixSchedule, ValidationCatchesBadSegments) {
  const MixSchedule negative({{-1.0, kBase}});
  EXPECT_THROW(negative.validate(), facsp::ConfigError);
  const MixSchedule bad_mix({{0.0, TrafficMix{0.9, 0.9, 0.9}}});
  EXPECT_THROW(bad_mix.validate(), facsp::ConfigError);
}

}  // namespace
}  // namespace facsp::workload
