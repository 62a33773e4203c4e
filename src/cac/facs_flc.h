// Construction of the paper's fuzzy logic controllers.
//
//  * FLC1  (FACS-P, Sec. 3.1): inputs Sp (speed), An (angle), Sr (service
//    request bandwidth) -> output Cv (correction value), FRB1 = Table 1.
//  * FLC1-D (previous FACS, [14][15]): inputs Sp, An, Di (distance from BS)
//    -> Cv.  The paper states FACS used distance where FACS-P uses Sr and
//    that distance "did not have a big effect"; the exact FACS table is not
//    reprinted, so FRB1-D derives from Table 1's voice column with a mild
//    +/-1-level distance modulation (see DESIGN.md, substitutions).
//  * FLC2  (Sec. 3.2, shared by FACS and FACS-P): inputs Cv, Rq (request
//    type), Cs (counter state) -> output A/R in [-1, 1], FRB2 = Table 2.
//
// Every membership breakpoint read off Figs. 5-6 is exposed in a parameter
// struct so sensitivity benches can sweep them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fuzzy/controller.h"

namespace facsp::cac {

/// Breakpoints of FLC1's membership functions (paper Fig. 5).
struct Flc1Params {
  // Speed Sp in km/h over [0, speed_max].
  double speed_max = 120.0;
  double speed_slow_zero = 60.0;    ///< Sl falls to 0 here (peak at 0)
  double speed_mid_center = 60.0;   ///< Mi peak
  double speed_mid_width = 60.0;    ///< Mi half-width
  double speed_fast_plateau = 120.0;///< Fa plateau start
  double speed_fast_rise = 60.0;    ///< Fa rise width (from plateau-rise)

  // Angle An in degrees over [-180, 180]; L1/L2/St/R1/R2 at +/-k*45 deg.
  double angle_step = 45.0;

  // Service request Sr in BU over [0, sr_max].
  double sr_max = 10.0;
  double sr_small_zero = 5.0;       ///< Sm falls to 0 here (peak at 0)
  double sr_med_center = 5.0;       ///< Me peak
  double sr_med_width = 5.0;        ///< Me half-width
  double sr_big_plateau = 10.0;     ///< Bi plateau start
  double sr_big_rise = 5.0;         ///< Bi rise width

  // Correction value Cv over [0, 1]: uniform 9-term partition Cv1..Cv9.
  int cv_terms = 9;
};

/// Breakpoints of FLC1-D's distance input (previous FACS).
struct Flc1DistanceParams {
  /// Everything but the third input matches Flc1Params.
  Flc1Params base{};
  /// Hex cell circumradius; 0 means "resolve from the network topology"
  /// (the Experiment policy factory fills it in).
  double cell_radius_m = 0.0;
  /// Near plateau ends at near_frac*R; Far plateau starts at R.
  double near_frac = 0.2;
  double mid_frac = 0.6;
  double edge_width_frac = 0.4;
  /// Distance universe upper bound as a fraction of R (users may be polled
  /// slightly outside the nominal radius before handoff).
  double max_frac = 1.2;
  /// Rule-table modulation: consequent level shift for Near / Middle / Far
  /// users relative to the (Sp, An) base level (clamped to [1, 9]).  Far
  /// users will hand off soon, so admitting them wastes the cell's capacity.
  int near_delta = +1;
  int mid_delta = 0;
  int far_delta = -1;
};

/// Breakpoints of FLC2's membership functions (paper Fig. 6).
struct Flc2Params {
  // Correction value Cv over [0, 1].
  double cv_normal_center = 0.5;

  // Request type Rq in BU over [0, rq_max] (text=1, voice=5, video=10).
  double rq_max = 10.0;
  double rq_voice_center = 5.0;

  // Counter state Cs in BU over [0, cs_max] (paper: BS capacity 40 BU).
  double cs_max = 40.0;
  double cs_mid_center = 20.0;

  // Accept/Reject decision over [-1, 1].
  double ar_step = 0.3;  ///< WR/-0.3, NRNA/0, WA/+0.3; shoulders at +/-0.6
};

/// Paper Table 1: the 63 FRB1 consequents, rows ordered Sp(Sl,Mi,Fa) x
/// An(B1,L1,L2,St,R1,R2,B2) x Sr(Sm,Me,Bi), last input varying fastest.
const std::vector<std::string>& frb1_consequents();

/// Derived FRB1-D consequents for the distance variant (previous FACS),
/// rows ordered Sp x An x Di(Ne,Md,Fr), using the params' level deltas.
std::vector<std::string> frb1_distance_consequents(
    const Flc1DistanceParams& params = {});

/// Paper Table 2: the 27 FRB2 consequents, rows ordered Cv(Bd,No,Go) x
/// Rq(Tx,Vo,Vi) x Cs(Sa,Md,Fu).
const std::vector<std::string>& frb2_consequents();

/// Build the linguistic variables (exposed for tests and membership dumps).
fuzzy::LinguisticVariable make_speed_variable(const Flc1Params& p = {});
fuzzy::LinguisticVariable make_angle_variable(const Flc1Params& p = {});
fuzzy::LinguisticVariable make_service_request_variable(const Flc1Params& p = {});
fuzzy::LinguisticVariable make_distance_variable(const Flc1DistanceParams& p = {});
fuzzy::LinguisticVariable make_correction_output_variable(const Flc1Params& p = {});
fuzzy::LinguisticVariable make_correction_input_variable(const Flc2Params& p = {});
fuzzy::LinguisticVariable make_request_type_variable(const Flc2Params& p = {});
fuzzy::LinguisticVariable make_counter_state_variable(const Flc2Params& p = {});
fuzzy::LinguisticVariable make_accept_reject_variable(const Flc2Params& p = {});

/// FLC1 of FACS-P: (Sp, An, Sr) -> Cv.
std::unique_ptr<fuzzy::FuzzyController> make_flc1(
    const Flc1Params& params = {});

/// FLC1-D of the previous FACS: (Sp, An, Di) -> Cv.
std::unique_ptr<fuzzy::FuzzyController> make_flc1_distance(
    const Flc1DistanceParams& params = {});

/// FLC2 (shared): (Cv, Rq, Cs) -> A/R.
std::unique_ptr<fuzzy::FuzzyController> make_flc2(
    const Flc2Params& params = {});

}  // namespace facsp::cac
