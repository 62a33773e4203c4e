// The paper's fuzzy logic controllers, fixed as the paper draws them.
//
//  * FLC1  (FACS-P, Sec. 3.1): inputs Sp (speed), An (angle), Sr (service
//    request bandwidth) -> output Cv (correction value), memberships of
//    Fig. 5, FRB1 = Table 1.
//  * FLC1-D (previous FACS, [14][15]): inputs Sp, An, Di (distance from BS)
//    -> Cv.  The paper states FACS used distance where FACS-P uses Sr and
//    that distance "did not have a big effect"; the exact FACS table is not
//    reprinted, so FRB1-D derives from Table 1's voice column with a mild
//    +/-1-level distance modulation.
//  * FLC2  (Sec. 3.2, shared by FACS and FACS-P): inputs Cv, Rq (request
//    type), Cs (counter state) -> output A/R in [-1, 1], memberships of
//    Fig. 6, FRB2 = Table 2.
//
// FLC1 and FLC2 have no parameters, so each is built once per process and
// shared, immutable, by every policy on every thread.  FLC1-D depends on the
// cell radius and is built per policy.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fuzzy/controller.h"

namespace facsp::cac {

/// Top of FLC2's counter-state universe in BU (paper: BS capacity 40 BU).
inline constexpr double kCounterStateMax = 40.0;

/// Paper Table 1: the 63 FRB1 consequents, rows ordered Sp(Sl,Mi,Fa) x
/// An(B1,L1,L2,St,R1,R2,B2) x Sr(Sm,Me,Bi), last input varying fastest.
const std::vector<std::string>& frb1_consequents();

/// Derived FRB1-D consequents for the distance variant (previous FACS),
/// rows ordered Sp x An x Di(Ne,Md,Fr): Table 1's voice level shifted by
/// +1 / 0 / -1 for Near / Middle / Far users, clamped to [1, 9].
std::vector<std::string> frb1_distance_consequents();

/// Paper Table 2: the 27 FRB2 consequents, rows ordered Cv(Bd,No,Go) x
/// Rq(Tx,Vo,Vi) x Cs(Sa,Md,Fu).
const std::vector<std::string>& frb2_consequents();

/// Build the linguistic variables (exposed for tests and membership dumps).
fuzzy::LinguisticVariable make_speed_variable();
fuzzy::LinguisticVariable make_angle_variable();
fuzzy::LinguisticVariable make_service_request_variable();
/// Throws facsp::ConfigError unless cell_radius_m > 0.
fuzzy::LinguisticVariable make_distance_variable(double cell_radius_m);
fuzzy::LinguisticVariable make_correction_output_variable();
fuzzy::LinguisticVariable make_correction_input_variable();
fuzzy::LinguisticVariable make_request_type_variable();
fuzzy::LinguisticVariable make_counter_state_variable();
fuzzy::LinguisticVariable make_accept_reject_variable();

/// FLC1 of FACS-P: (Sp, An, Sr) -> Cv.  Built on first use; every call
/// returns the same controller.
std::shared_ptr<const fuzzy::FuzzyController> shared_flc1();

/// FLC2 of FACS and FACS-P: (Cv, Rq, Cs) -> A/R.  Built on first use; every
/// call returns the same controller.
std::shared_ptr<const fuzzy::FuzzyController> shared_flc2();

/// FLC1-D of the previous FACS: (Sp, An, Di) -> Cv for hex cells of
/// circumradius `cell_radius_m` (> 0).
std::unique_ptr<fuzzy::FuzzyController> make_flc1_distance(
    double cell_radius_m);

}  // namespace facsp::cac
