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

std::vector<std::string> frb1_distance_consequents(
    const Flc1DistanceParams& params) {
  // Derived for the previous FACS (see header comment): base level from
  // Table 1's voice (Me) column per (Sp, An), then the configured Near /
  // Middle / Far level shifts, clamped to [1, 9].
  constexpr int kBase[3][7] = {
      {3, 4, 6, 9, 6, 4, 3},  // Sl
      {2, 4, 5, 9, 5, 4, 2},  // Mi
      {2, 3, 5, 9, 5, 3, 2},  // Fa
  };
  const int deltas[3] = {params.near_delta, params.mid_delta,
                         params.far_delta};
  std::vector<std::string> t;
  t.reserve(63);
  for (int sp = 0; sp < 3; ++sp) {
    for (int an = 0; an < 7; ++an) {
      for (int delta : deltas) {  // Ne, Md, Fr
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

LinguisticVariable make_speed_variable(const Flc1Params& p) {
  return VariableBuilder("Sp", 0.0, p.speed_max)
      .left_shoulder("Sl", 0.0, p.speed_slow_zero)
      .triangular("Mi", p.speed_mid_center, p.speed_mid_width,
                  p.speed_mid_width)
      .right_shoulder("Fa", p.speed_fast_plateau, p.speed_fast_rise)
      .build();
}

LinguisticVariable make_angle_variable(const Flc1Params& p) {
  const double s = p.angle_step;
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

LinguisticVariable make_service_request_variable(const Flc1Params& p) {
  return VariableBuilder("Sr", 0.0, p.sr_max)
      .left_shoulder("Sm", 0.0, p.sr_small_zero)
      .triangular("Me", p.sr_med_center, p.sr_med_width, p.sr_med_width)
      .right_shoulder("Bi", p.sr_big_plateau, p.sr_big_rise)
      .build();
}

LinguisticVariable make_distance_variable(const Flc1DistanceParams& p) {
  const double R = p.cell_radius_m;
  if (R <= 0.0) throw ConfigError("distance variable: cell radius must be > 0");
  return VariableBuilder("Di", 0.0, p.max_frac * R)
      .left_shoulder("Ne", p.near_frac * R, p.edge_width_frac * R)
      .triangular("Md", p.mid_frac * R, p.edge_width_frac * R,
                  p.edge_width_frac * R)
      .right_shoulder("Fr", R, p.edge_width_frac * R)
      .build();
}

LinguisticVariable make_correction_output_variable(const Flc1Params& p) {
  if (p.cv_terms < 2)
    throw ConfigError("correction variable: need at least 2 terms");
  return VariableBuilder("Cv", 0.0, 1.0)
      .uniform_partition("Cv", p.cv_terms)
      .build();
}

LinguisticVariable make_correction_input_variable(const Flc2Params& p) {
  const double c = p.cv_normal_center;
  return VariableBuilder("Cv", 0.0, 1.0)
      .left_shoulder("Bd", 0.0, c)
      .triangular("No", c, c, 1.0 - c)
      .right_shoulder("Go", 1.0, 1.0 - c)
      .build();
}

LinguisticVariable make_request_type_variable(const Flc2Params& p) {
  const double v = p.rq_voice_center;
  return VariableBuilder("Rq", 0.0, p.rq_max)
      .left_shoulder("Tx", 0.0, v)
      .triangular("Vo", v, v, p.rq_max - v)
      .right_shoulder("Vi", p.rq_max, p.rq_max - v)
      .build();
}

LinguisticVariable make_counter_state_variable(const Flc2Params& p) {
  const double m = p.cs_mid_center;
  return VariableBuilder("Cs", 0.0, p.cs_max)
      .left_shoulder("Sa", 0.0, m)
      .triangular("Md", m, m, p.cs_max - m)
      .right_shoulder("Fu", p.cs_max, p.cs_max - m)
      .build();
}

LinguisticVariable make_accept_reject_variable(const Flc2Params& p) {
  const double s = p.ar_step;
  return VariableBuilder("AR", -1.0, 1.0)
      .left_shoulder("R", -2.0 * s, s)
      .triangular("WR", -s, s, s)
      .triangular("NRNA", 0.0, s, s)
      .triangular("WA", s, s, s)
      .right_shoulder("A", 2.0 * s, s)
      .build();
}

std::unique_ptr<fuzzy::FuzzyController> make_flc1(
    const Flc1Params& params) {
  return ControllerBuilder("FLC1")
      .input(make_speed_variable(params))
      .input(make_angle_variable(params))
      .input(make_service_request_variable(params))
      .output(make_correction_output_variable(params))
      .rule_table(frb1_consequents())
      .build();
}

std::unique_ptr<fuzzy::FuzzyController> make_flc1_distance(
    const Flc1DistanceParams& params) {
  return ControllerBuilder("FLC1-D")
      .input(make_speed_variable(params.base))
      .input(make_angle_variable(params.base))
      .input(make_distance_variable(params))
      .output(make_correction_output_variable(params.base))
      .rule_table(frb1_distance_consequents(params))
      .build();
}

std::unique_ptr<fuzzy::FuzzyController> make_flc2(
    const Flc2Params& params) {
  return ControllerBuilder("FLC2")
      .input(make_correction_input_variable(params))
      .input(make_request_type_variable(params))
      .input(make_counter_state_variable(params))
      .output(make_accept_reject_variable(params))
      .rule_table(frb2_consequents())
      .build();
}

}  // namespace facsp::cac
