// Verifies the paper's FLC construction: Table 1 / Table 2 are transcribed
// verbatim, and the membership geometry matches Figs. 5-6.
#include "cac/facs_flc.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"

namespace facsp::cac {
namespace {

// --- rule tables -------------------------------------------------------------

TEST(Frb1, Has63RulesMatchingTable1) {
  const auto& t = frb1_consequents();
  ASSERT_EQ(t.size(), 63u);
  // Spot-check rows against the paper's Table 1 (rule index = row).
  EXPECT_EQ(t[0], "Cv1");   // Sl B1 Sm
  EXPECT_EQ(t[1], "Cv3");   // Sl B1 Me
  EXPECT_EQ(t[2], "Cv2");   // Sl B1 Bi
  EXPECT_EQ(t[10], "Cv9");  // Sl St Me
  EXPECT_EQ(t[11], "Cv7");  // Sl St Bi
  EXPECT_EQ(t[9], "Cv5");   // Sl St Sm
  EXPECT_EQ(t[30], "Cv8");  // Mi St Sm
  EXPECT_EQ(t[31], "Cv9");  // Mi St Me
  EXPECT_EQ(t[32], "Cv9");  // Mi St Bi
  EXPECT_EQ(t[51], "Cv9");  // Fa St Sm
  EXPECT_EQ(t[52], "Cv9");  // Fa St Me
  EXPECT_EQ(t[53], "Cv9");  // Fa St Bi
  EXPECT_EQ(t[62], "Cv1");  // Fa B2 Bi
  EXPECT_EQ(t[42], "Cv1");  // Fa B1 Sm
}

TEST(Frb1, SymmetricInAngle) {
  // Table 1 is symmetric: L1<->R2, L2<->R1 columns match for every speed
  // and service.
  const auto& t = frb1_consequents();
  auto idx = [](int sp, int an, int sr) { return (sp * 7 + an) * 3 + sr; };
  for (int sp = 0; sp < 3; ++sp) {
    for (int sr = 0; sr < 3; ++sr) {
      EXPECT_EQ(t[idx(sp, 1, sr)], t[idx(sp, 5, sr)]);  // L1 == R2
      EXPECT_EQ(t[idx(sp, 2, sr)], t[idx(sp, 4, sr)]);  // L2 == R1
      EXPECT_EQ(t[idx(sp, 0, sr)], t[idx(sp, 6, sr)]);  // B1 == B2
    }
  }
}

TEST(Frb1, StraightIsAlwaysBestColumn) {
  const auto& t = frb1_consequents();
  auto level = [&](int sp, int an, int sr) {
    return t[(sp * 7 + an) * 3 + sr].back() - '0';
  };
  for (int sp = 0; sp < 3; ++sp)
    for (int sr = 0; sr < 3; ++sr)
      for (int an = 0; an < 7; ++an)
        EXPECT_LE(level(sp, an, sr), level(sp, 3, sr))
            << "sp=" << sp << " an=" << an << " sr=" << sr;
}

TEST(Frb2, Has27RulesMatchingTable2) {
  const auto& t = frb2_consequents();
  ASSERT_EQ(t.size(), 27u);
  // Row order: Cv (Bd,No,Go) x Rq (Tx,Vo,Vi) x Cs (Sa,Md,Fu).
  EXPECT_EQ(t[0], "A");      // Bd Tx Sa
  EXPECT_EQ(t[1], "NRNA");   // Bd Tx Md
  EXPECT_EQ(t[2], "NRNA");   // Bd Tx Fu
  EXPECT_EQ(t[5], "WR");     // Bd Vo Fu
  EXPECT_EQ(t[6], "WA");     // Bd Vi Sa
  EXPECT_EQ(t[8], "WR");     // Bd Vi Fu
  EXPECT_EQ(t[15], "WA");    // No Vi Sa
  EXPECT_EQ(t[18], "A");     // Go Tx Sa
  EXPECT_EQ(t[19], "A");     // Go Tx Md
  EXPECT_EQ(t[23], "WR");    // Go Vo Fu
  EXPECT_EQ(t[26], "R");     // Go Vi Fu
}

TEST(Frb1Distance, HasDeltasApplied) {
  const auto t = frb1_distance_consequents();
  ASSERT_EQ(t.size(), 63u);
  // Sl B1 base is Cv3 (the voice column of Table 1).
  EXPECT_EQ(t[0], "Cv4");  // Near: +1
  EXPECT_EQ(t[1], "Cv3");  // Middle
  EXPECT_EQ(t[2], "Cv2");  // Far: -1
  // St base 9 saturates at Cv9 for Near.
  EXPECT_EQ(t[9], "Cv9");  // Sl St Ne (9+1 clamped)
}

TEST(Frb1Distance, StaysInsideValidLevels) {
  const auto t = frb1_distance_consequents();
  for (std::size_t i = 0; i < t.size(); ++i) {
    const int level = t[i].back() - '0';
    EXPECT_GE(level, 1);
    EXPECT_LE(level, 9);
  }
}

// --- membership geometry (Figs. 5-6) ----------------------------------------

TEST(Flc1Memberships, SpeedTermsMatchFig5a) {
  const auto sp = make_speed_variable();
  EXPECT_DOUBLE_EQ(sp.grade(sp.term_index("Sl"), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(sp.grade(sp.term_index("Sl"), 30.0), 0.5);
  EXPECT_DOUBLE_EQ(sp.grade(sp.term_index("Sl"), 60.0), 0.0);
  EXPECT_DOUBLE_EQ(sp.grade(sp.term_index("Mi"), 60.0), 1.0);
  EXPECT_DOUBLE_EQ(sp.grade(sp.term_index("Mi"), 0.0), 0.0);
  EXPECT_DOUBLE_EQ(sp.grade(sp.term_index("Fa"), 120.0), 1.0);
  EXPECT_DOUBLE_EQ(sp.grade(sp.term_index("Fa"), 90.0), 0.5);
  EXPECT_DOUBLE_EQ(sp.grade(sp.term_index("Fa"), 60.0), 0.0);
}

TEST(Flc1Memberships, AngleTermsMatchFig5b) {
  const auto an = make_angle_variable();
  EXPECT_DOUBLE_EQ(an.grade(an.term_index("St"), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(an.grade(an.term_index("St"), 45.0), 0.0);
  EXPECT_DOUBLE_EQ(an.grade(an.term_index("R1"), 45.0), 1.0);
  EXPECT_DOUBLE_EQ(an.grade(an.term_index("R2"), 90.0), 1.0);
  EXPECT_DOUBLE_EQ(an.grade(an.term_index("B2"), 135.0), 1.0);
  EXPECT_DOUBLE_EQ(an.grade(an.term_index("B2"), 180.0), 1.0);
  EXPECT_DOUBLE_EQ(an.grade(an.term_index("B1"), -180.0), 1.0);
  EXPECT_DOUBLE_EQ(an.grade(an.term_index("B1"), -135.0), 1.0);
  EXPECT_DOUBLE_EQ(an.grade(an.term_index("B1"), -90.0), 0.0);
  EXPECT_DOUBLE_EQ(an.grade(an.term_index("L1"), -90.0), 1.0);
  EXPECT_DOUBLE_EQ(an.grade(an.term_index("L2"), -45.0), 1.0);
}

TEST(Flc1Memberships, ServiceRequestTermsMatchFig5c) {
  const auto sr = make_service_request_variable();
  // The paper's request sizes: text=1, voice=5, video=10 BU.
  EXPECT_DOUBLE_EQ(sr.grade(sr.term_index("Sm"), 1.0), 0.8);
  EXPECT_DOUBLE_EQ(sr.grade(sr.term_index("Me"), 5.0), 1.0);
  EXPECT_DOUBLE_EQ(sr.grade(sr.term_index("Bi"), 10.0), 1.0);
  EXPECT_DOUBLE_EQ(sr.grade(sr.term_index("Sm"), 5.0), 0.0);
  EXPECT_DOUBLE_EQ(sr.grade(sr.term_index("Bi"), 5.0), 0.0);
}

TEST(Flc1DistanceMemberships, ScaleWithTheCellRadius) {
  const auto di = make_distance_variable(1000.0);
  EXPECT_DOUBLE_EQ(di.universe_hi(), 1200.0);
  EXPECT_DOUBLE_EQ(di.grade(di.term_index("Ne"), 200.0), 1.0);
  EXPECT_DOUBLE_EQ(di.grade(di.term_index("Md"), 600.0), 1.0);
  EXPECT_DOUBLE_EQ(di.grade(di.term_index("Fr"), 1000.0), 1.0);
  for (double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(make_flc1_distance(bad), facsp::ConfigError) << bad;
}

TEST(Flc1Memberships, CorrectionOutputHas9UniformTerms) {
  const auto cv = make_correction_output_variable();
  EXPECT_EQ(cv.term_count(), 9u);
  EXPECT_DOUBLE_EQ(cv.grade(0, 0.0), 1.0);                 // Cv1 shoulder
  EXPECT_DOUBLE_EQ(cv.grade(4, 0.5), 1.0);                 // Cv5 at centre
  EXPECT_DOUBLE_EQ(cv.grade(8, 1.0), 1.0);                 // Cv9 shoulder
  EXPECT_NEAR(cv.grade(4, 0.5 + 0.125), 0.0, 1e-12);       // width 1/8
}

TEST(Flc2Memberships, MatchFig6) {
  const auto cv = make_correction_input_variable();
  EXPECT_DOUBLE_EQ(cv.grade(cv.term_index("Bd"), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(cv.grade(cv.term_index("No"), 0.5), 1.0);
  EXPECT_DOUBLE_EQ(cv.grade(cv.term_index("Go"), 1.0), 1.0);
  EXPECT_DOUBLE_EQ(cv.grade(cv.term_index("Bd"), 0.5), 0.0);

  const auto rq = make_request_type_variable();
  EXPECT_DOUBLE_EQ(rq.grade(rq.term_index("Tx"), 1.0), 0.8);
  EXPECT_DOUBLE_EQ(rq.grade(rq.term_index("Vo"), 5.0), 1.0);
  EXPECT_DOUBLE_EQ(rq.grade(rq.term_index("Vi"), 10.0), 1.0);

  const auto cs = make_counter_state_variable();
  EXPECT_DOUBLE_EQ(cs.grade(cs.term_index("Sa"), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(cs.grade(cs.term_index("Md"), 20.0), 1.0);
  EXPECT_DOUBLE_EQ(cs.grade(cs.term_index("Fu"), 40.0), 1.0);
  EXPECT_DOUBLE_EQ(cs.grade(cs.term_index("Sa"), 20.0), 0.0);

  const auto ar = make_accept_reject_variable();
  EXPECT_DOUBLE_EQ(ar.grade(ar.term_index("R"), -1.0), 1.0);
  EXPECT_DOUBLE_EQ(ar.grade(ar.term_index("R"), -0.6), 1.0);
  EXPECT_DOUBLE_EQ(ar.grade(ar.term_index("WR"), -0.3), 1.0);
  EXPECT_DOUBLE_EQ(ar.grade(ar.term_index("NRNA"), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ar.grade(ar.term_index("WA"), 0.3), 1.0);
  EXPECT_DOUBLE_EQ(ar.grade(ar.term_index("A"), 0.6), 1.0);
  EXPECT_DOUBLE_EQ(ar.grade(ar.term_index("A"), 1.0), 1.0);
}

// --- controller behaviour ------------------------------------------------------

TEST(Flc1, StraightFastGetsTopCorrection) {
  const auto flc1 = shared_flc1();
  // Fa St (any Sr) -> Cv9: crisp output near the top of [0,1].
  EXPECT_GT(flc1->evaluate({120.0, 0.0, 5.0}), 0.85);
}

TEST(Flc1, BackwardGetsBottomCorrection) {
  const auto flc1 = shared_flc1();
  EXPECT_LT(flc1->evaluate({120.0, 180.0, 1.0}), 0.2);
  EXPECT_LT(flc1->evaluate({60.0, -180.0, 1.0}), 0.2);
}

TEST(Flc1, MediumServiceBeatsSmallOffStraight) {
  // Table 1 gives Me higher consequents than Sm in the off-straight
  // columns (e.g. Sl L1: Cv4 vs Cv1).
  const auto flc1 = shared_flc1();
  EXPECT_GT(flc1->evaluate({30.0, -90.0, 5.0}),
            flc1->evaluate({30.0, -90.0, 1.0}));
}

TEST(Flc2, EmptyCellAcceptsEverything) {
  const auto flc2 = shared_flc2();
  for (double cv : {0.1, 0.5, 0.9})
    for (double rq : {1.0, 5.0, 10.0})
      EXPECT_GT(flc2->evaluate({cv, rq, 0.0}), 0.15)
          << "cv=" << cv << " rq=" << rq;
}

TEST(Flc2, FullCellRejectsVideo) {
  const auto flc2 = shared_flc2();
  EXPECT_LT(flc2->evaluate({0.9, 10.0, 40.0}), -0.3);  // Go Vi Fu = R
  EXPECT_LT(flc2->evaluate({0.1, 10.0, 40.0}), 0.0);   // Bd Vi Fu = WR
}

TEST(Flc2, GoodCorrectionAcceptsDeeperIntoLoad) {
  const auto flc2 = shared_flc2();
  // At half load, a Good-Cv text call scores higher than a Bad-Cv one.
  EXPECT_GT(flc2->evaluate({0.95, 1.0, 20.0}),
            flc2->evaluate({0.05, 1.0, 20.0}));
}

}  // namespace
}  // namespace facsp::cac
