#include "fuzzy/membership.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/math_util.h"

namespace facsp::fuzzy {
namespace {

// --- triangular (the paper's f) -------------------------------------------

TEST(Triangular, PeakAndEdges) {
  const auto mf = MembershipFunction::triangular(60.0, 60.0, 60.0);
  EXPECT_DOUBLE_EQ(mf.grade(60.0), 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(0.0), 0.0);
  EXPECT_DOUBLE_EQ(mf.grade(120.0), 0.0);
  EXPECT_DOUBLE_EQ(mf.grade(30.0), 0.5);
  EXPECT_DOUBLE_EQ(mf.grade(90.0), 0.5);
}

TEST(Triangular, AsymmetricWidths) {
  const auto mf = MembershipFunction::triangular(10.0, 5.0, 20.0);
  EXPECT_DOUBLE_EQ(mf.grade(10.0), 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(7.5), 0.5);
  EXPECT_DOUBLE_EQ(mf.grade(20.0), 0.5);
  EXPECT_DOUBLE_EQ(mf.grade(5.0), 0.0);
  EXPECT_DOUBLE_EQ(mf.grade(30.0), 0.0);
}

TEST(Triangular, ZeroOutsideSupport) {
  const auto mf = MembershipFunction::triangular(0.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(-100.0), 0.0);
  EXPECT_DOUBLE_EQ(mf.grade(100.0), 0.0);
}

TEST(Triangular, RejectsNonPositiveWidths) {
  EXPECT_THROW(MembershipFunction::triangular(0.0, 0.0, 1.0), ConfigError);
  EXPECT_THROW(MembershipFunction::triangular(0.0, 1.0, -1.0), ConfigError);
}

TEST(Triangular, RejectsNonFiniteCenter) {
  EXPECT_THROW(MembershipFunction::triangular(kInf, 1.0, 1.0), ConfigError);
}

// --- trapezoidal (the paper's g) -------------------------------------------

TEST(Trapezoidal, PlateauAndSlopes) {
  const auto mf = MembershipFunction::trapezoidal(-135.0, -135.0, 45.0, 45.0);
  EXPECT_DOUBLE_EQ(mf.grade(-135.0), 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(-180.0), 0.0);
  EXPECT_DOUBLE_EQ(mf.grade(-90.0), 0.0);
  EXPECT_DOUBLE_EQ(mf.grade(-157.5), 0.5);
}

TEST(Trapezoidal, WidePlateau) {
  const auto mf = MembershipFunction::trapezoidal(2.0, 4.0, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(mf.grade(2.0), 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(3.0), 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(4.0), 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(1.5), 0.5);
  EXPECT_DOUBLE_EQ(mf.grade(5.0), 0.5);
  EXPECT_DOUBLE_EQ(mf.grade(1.0), 0.0);
  EXPECT_DOUBLE_EQ(mf.grade(6.0), 0.0);
}

TEST(Trapezoidal, RejectsInvertedPlateau) {
  EXPECT_THROW(MembershipFunction::trapezoidal(4.0, 2.0, 1.0, 1.0),
               ConfigError);
}

// --- shoulders --------------------------------------------------------------

TEST(LeftShoulder, PlateauExtendsToMinusInfinity) {
  const auto mf = MembershipFunction::left_shoulder(0.0, 60.0);
  EXPECT_DOUBLE_EQ(mf.grade(-1e9), 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(0.0), 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(30.0), 0.5);
  EXPECT_DOUBLE_EQ(mf.grade(60.0), 0.0);
  EXPECT_DOUBLE_EQ(mf.grade(100.0), 0.0);
}

TEST(RightShoulder, PlateauExtendsToPlusInfinity) {
  const auto mf = MembershipFunction::right_shoulder(120.0, 60.0);
  EXPECT_DOUBLE_EQ(mf.grade(1e9), 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(120.0), 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(90.0), 0.5);
  EXPECT_DOUBLE_EQ(mf.grade(60.0), 0.0);
  EXPECT_DOUBLE_EQ(mf.grade(0.0), 0.0);
}

// --- singleton ---------------------------------------------------------------

TEST(Singleton, OneAtPointZeroElsewhere) {
  const auto mf = MembershipFunction::singleton(5.0);
  EXPECT_DOUBLE_EQ(mf.grade(5.0), 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(5.0001), 0.0);
  EXPECT_DOUBLE_EQ(mf.grade(4.9999), 0.0);
  EXPECT_TRUE(mf.is_singleton());
}

// --- general properties -------------------------------------------------------

TEST(Membership, GradeAlwaysInUnitInterval) {
  const auto shapes = {
      MembershipFunction::triangular(0.0, 2.0, 3.0),
      MembershipFunction::trapezoidal(-1.0, 1.0, 0.5, 0.5),
      MembershipFunction::left_shoulder(0.0, 1.0),
      MembershipFunction::right_shoulder(0.0, 1.0),
  };
  for (const auto& mf : shapes) {
    for (double x = -10.0; x <= 10.0; x += 0.37) {
      const double g = mf.grade(x);
      EXPECT_GE(g, 0.0) << mf.describe() << " at " << x;
      EXPECT_LE(g, 1.0) << mf.describe() << " at " << x;
    }
  }
}

TEST(Membership, NanInputGivesZeroGrade) {
  const auto mf = MembershipFunction::triangular(0.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(mf.grade(std::nan("")), 0.0);
}

TEST(Membership, FromBreakpointsValidatesOrdering) {
  EXPECT_NO_THROW(MembershipFunction::from_breakpoints(0.0, 1.0, 2.0, 3.0));
  EXPECT_THROW(MembershipFunction::from_breakpoints(1.0, 0.0, 2.0, 3.0),
               ConfigError);
  EXPECT_THROW(
      MembershipFunction::from_breakpoints(0.0, std::nan(""), 2.0, 3.0),
      ConfigError);
}

TEST(Membership, AlphaCuts) {
  const auto mf = MembershipFunction::triangular(10.0, 10.0, 10.0);
  EXPECT_DOUBLE_EQ(mf.alpha_cut_lo(1.0), 10.0);
  EXPECT_DOUBLE_EQ(mf.alpha_cut_hi(1.0), 10.0);
  EXPECT_DOUBLE_EQ(mf.alpha_cut_lo(0.5), 5.0);
  EXPECT_DOUBLE_EQ(mf.alpha_cut_hi(0.5), 15.0);

  const auto ls = MembershipFunction::left_shoulder(0.0, 10.0);
  EXPECT_EQ(ls.alpha_cut_lo(0.5), -kInf);
  EXPECT_DOUBLE_EQ(ls.alpha_cut_hi(0.5), 5.0);
}

TEST(Membership, AlphaCutRejectsOutOfRange) {
  const auto mf = MembershipFunction::triangular(0.0, 1.0, 1.0);
  EXPECT_THROW(mf.alpha_cut_lo(0.0), ContractViolation);
  EXPECT_THROW(mf.alpha_cut_hi(1.5), ContractViolation);
}

TEST(Membership, DescribeNamesShape) {
  EXPECT_NE(MembershipFunction::triangular(0, 1, 1).describe().find("tri"),
            std::string::npos);
  EXPECT_NE(
      MembershipFunction::trapezoidal(0, 1, 1, 1).describe().find("trap"),
      std::string::npos);
  EXPECT_NE(
      MembershipFunction::left_shoulder(0, 1).describe().find("lshoulder"),
      std::string::npos);
  EXPECT_NE(MembershipFunction::singleton(1).describe().find("singleton"),
            std::string::npos);
}

TEST(Membership, EqualityComparesBreakpoints) {
  EXPECT_EQ(MembershipFunction::triangular(0, 1, 1),
            MembershipFunction::triangular(0, 1, 1));
  EXPECT_NE(MembershipFunction::triangular(0, 1, 1),
            MembershipFunction::triangular(0, 1, 2));
}

}  // namespace
}  // namespace facsp::fuzzy
