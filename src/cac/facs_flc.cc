#include "cac/facs_flc.h"

#include <algorithm>

#include "common/error.h"
#include "fuzzy/builder.h"

namespace facsp::cac {

using fuzzy::ControllerBuilder;
using fuzzy::LinguisticVariable;
using fuzzy::VariableBuilder;

const std::vector<std::string>& frb1_consequents() {
  // Paper Table 1, verbatim.  Row order: Sp (Sl, Mi, Fa) outermost, then
  // An (B1, L1, L2, St, R1, R2, B2), then Sr (Sm, Me, Bi) fastest.
  static const std::vector<std::string> kTable = {
      // Sl
      "Cv1", "Cv3", "Cv2",  // B1
      "Cv1", "Cv4", "Cv3",  // L1
      "Cv2", "Cv6", "Cv4",  // L2
      "Cv5", "Cv9", "Cv7",  // St
      "Cv2", "Cv6", "Cv4",  // R1
      "Cv1", "Cv4", "Cv3",  // R2
      "Cv1", "Cv3", "Cv2",  // B2
      // Mi
      "Cv1", "Cv2", "Cv1",  // B1
      "Cv1", "Cv4", "Cv3",  // L1
      "Cv1", "Cv5", "Cv3",  // L2
      "Cv8", "Cv9", "Cv9",  // St
      "Cv1", "Cv5", "Cv3",  // R1
      "Cv1", "Cv4", "Cv3",  // R2
      "Cv1", "Cv2", "Cv1",  // B2
      // Fa
      "Cv1", "Cv2", "Cv1",  // B1
      "Cv1", "Cv3", "Cv2",  // L1
      "Cv2", "Cv5", "Cv3",  // L2
      "Cv9", "Cv9", "Cv9",  // St
      "Cv2", "Cv5", "Cv3",  // R1
      "Cv1", "Cv3", "Cv2",  // R2
      "Cv1", "Cv2", "Cv1",  // B2
  };
  return kTable;
}

std::vector<std::string> frb1_distance_consequents() {
  // Derived for the previous FACS (see header comment): base level from
  // Table 1's voice (Me) column per (Sp, An), then the Near / Middle / Far
  // level shifts, clamped to [1, 9].  Far users will hand off soon, so
  // admitting them wastes the cell's capacity.
  constexpr int kBase[3][7] = {
      {3, 4, 6, 9, 6, 4, 3},  // Sl
      {2, 4, 5, 9, 5, 4, 2},  // Mi
      {2, 3, 5, 9, 5, 3, 2},  // Fa
  };
  constexpr int kDeltas[3] = {+1, 0, -1};  // Ne, Md, Fr
  std::vector<std::string> t;
  t.reserve(63);
  for (int sp = 0; sp < 3; ++sp) {
    for (int an = 0; an < 7; ++an) {
      for (int delta : kDeltas) {
        const int level = std::clamp(kBase[sp][an] + delta, 1, 9);
        t.push_back("Cv" + std::to_string(level));
      }
    }
  }
  return t;
}

const std::vector<std::string>& frb2_consequents() {
  // Paper Table 2, verbatim.  Row order: Cv (Bd, No, Go) outermost, then
  // Rq (Tx, Vo, Vi), then Cs (Sa, Md, Fu) fastest.
  static const std::vector<std::string> kTable = {
      // Bd
      "A", "NRNA", "NRNA",  // Tx
      "A", "NRNA", "WR",    // Vo
      "WA", "NRNA", "WR",   // Vi
      // No
      "A", "NRNA", "NRNA",  // Tx
      "A", "NRNA", "NRNA",  // Vo
      "WA", "NRNA", "NRNA", // Vi
      // Go
      "A", "A", "NRNA",     // Tx
      "A", "A", "WR",       // Vo
      "A", "A", "R",        // Vi
  };
  return kTable;
}

// Fig. 5(a): speed Sp in km/h over [0, 120].
LinguisticVariable make_speed_variable() {
  return VariableBuilder("Sp", 0.0, 120.0)
      .left_shoulder("Sl", 0.0, 60.0)
      .triangular("Mi", 60.0, 60.0, 60.0)
      .right_shoulder("Fa", 120.0, 60.0)
      .build();
}

// Fig. 5(b): angle An in degrees over [-180, 180], terms every 45 degrees.
LinguisticVariable make_angle_variable() {
  constexpr double s = 45.0;
  return VariableBuilder("An", -180.0, 180.0)
      .left_shoulder("B1", -3.0 * s, s)        // plateau ..-135, falls to -90
      .triangular("L1", -2.0 * s, s, s)        // -90
      .triangular("L2", -1.0 * s, s, s)        // -45
      .triangular("St", 0.0, s, s)             // 0
      .triangular("R1", 1.0 * s, s, s)         // 45
      .triangular("R2", 2.0 * s, s, s)         // 90
      .right_shoulder("B2", 3.0 * s, s)        // 135.. plateau
      .build();
}

// Fig. 5(c): service request Sr in BU over [0, 10].
LinguisticVariable make_service_request_variable() {
  return VariableBuilder("Sr", 0.0, 10.0)
      .left_shoulder("Sm", 0.0, 5.0)
      .triangular("Me", 5.0, 5.0, 5.0)
      .right_shoulder("Bi", 10.0, 5.0)
      .build();
}

// FACS's distance Di over [0, 1.2 R] (users may be polled slightly outside
// the nominal radius before handoff): Near plateau to 0.2 R, Middle peak at
// 0.6 R, Far plateau from R, edges 0.4 R wide.
LinguisticVariable make_distance_variable(double cell_radius_m) {
  const double R = cell_radius_m;
  if (!(R > 0.0))
    throw ConfigError("distance variable: cell radius must be > 0");
  return VariableBuilder("Di", 0.0, 1.2 * R)
      .left_shoulder("Ne", 0.2 * R, 0.4 * R)
      .triangular("Md", 0.6 * R, 0.4 * R, 0.4 * R)
      .right_shoulder("Fr", R, 0.4 * R)
      .build();
}

// Fig. 5(d): correction value Cv over [0, 1], uniform terms Cv1..Cv9.
LinguisticVariable make_correction_output_variable() {
  return VariableBuilder("Cv", 0.0, 1.0).uniform_partition("Cv", 9).build();
}

// Fig. 6(a): Cv as FLC2's input, Normal centred at 0.5.
LinguisticVariable make_correction_input_variable() {
  return VariableBuilder("Cv", 0.0, 1.0)
      .left_shoulder("Bd", 0.0, 0.5)
      .triangular("No", 0.5, 0.5, 0.5)
      .right_shoulder("Go", 1.0, 0.5)
      .build();
}

// Fig. 6(b): request type Rq in BU over [0, 10] (text=1, voice=5,
// video=10).
LinguisticVariable make_request_type_variable() {
  return VariableBuilder("Rq", 0.0, 10.0)
      .left_shoulder("Tx", 0.0, 5.0)
      .triangular("Vo", 5.0, 5.0, 5.0)
      .right_shoulder("Vi", 10.0, 5.0)
      .build();
}

// Fig. 6(c): counter state Cs in BU over [0, 40], Middle centred at 20.
LinguisticVariable make_counter_state_variable() {
  constexpr double m = kCounterStateMax / 2.0;
  return VariableBuilder("Cs", 0.0, kCounterStateMax)
      .left_shoulder("Sa", 0.0, m)
      .triangular("Md", m, m, kCounterStateMax - m)
      .right_shoulder("Fu", kCounterStateMax, kCounterStateMax - m)
      .build();
}

// Fig. 6(d): accept/reject A/R over [-1, 1]: WR / NRNA / WA at -0.3 / 0 /
// +0.3, shoulders from +/-0.6.
LinguisticVariable make_accept_reject_variable() {
  constexpr double s = 0.3;
  return VariableBuilder("AR", -1.0, 1.0)
      .left_shoulder("R", -2.0 * s, s)
      .triangular("WR", -s, s, s)
      .triangular("NRNA", 0.0, s, s)
      .triangular("WA", s, s, s)
      .right_shoulder("A", 2.0 * s, s)
      .build();
}

std::shared_ptr<const fuzzy::FuzzyController> shared_flc1() {
  static const std::shared_ptr<const fuzzy::FuzzyController> flc1 =
      ControllerBuilder("FLC1")
          .input(make_speed_variable())
          .input(make_angle_variable())
          .input(make_service_request_variable())
          .output(make_correction_output_variable())
          .rule_table(frb1_consequents())
          .build();
  return flc1;
}

std::shared_ptr<const fuzzy::FuzzyController> shared_flc2() {
  static const std::shared_ptr<const fuzzy::FuzzyController> flc2 =
      ControllerBuilder("FLC2")
          .input(make_correction_input_variable())
          .input(make_request_type_variable())
          .input(make_counter_state_variable())
          .output(make_accept_reject_variable())
          .rule_table(frb2_consequents())
          .build();
  return flc2;
}

std::unique_ptr<fuzzy::FuzzyController> make_flc1_distance(
    double cell_radius_m) {
  return ControllerBuilder("FLC1-D")
      .input(make_speed_variable())
      .input(make_angle_variable())
      .input(make_distance_variable(cell_radius_m))
      .output(make_correction_output_variable())
      .rule_table(frb1_distance_consequents())
      .build();
}

}  // namespace facsp::cac
