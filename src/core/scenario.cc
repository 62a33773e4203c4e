#include "core/scenario.h"

#include "common/error.h"

namespace facsp::core {

void MultiCellConfig::validate() const {
  require_finite("multicell", {epoch_s, entry_fraction});
  if (cells < 1) throw ConfigError("multicell: cells must be >= 1");
  if (epoch_s <= 0.0) throw ConfigError("multicell: epoch_s must be > 0");
  if (workload_cells < 0)
    throw ConfigError("multicell: workload_cells must be >= 0");
  // sqrt(3)/2 ~ 0.866 is the hex inradius ratio; beyond 0.85 the entry
  // point could land outside the destination's centre cell.
  if (entry_fraction <= 0.0 || entry_fraction > 0.85)
    throw ConfigError("multicell: entry_fraction must be in (0, 0.85]");
  if (threads < 0) throw ConfigError("multicell: threads must be >= 0");
}

void ScenarioConfig::validate() const {
  require_finite("scenario",
                 {cell_radius_m, capacity_bu, mobility_update_s, horizon_s,
                  mobility.base_sigma_deg, mobility.reference_kmh,
                  mobility.update_interval_s, mobility.min_speed_kmh,
                  mobility.max_speed_kmh, mobility.speed_sigma_kmh,
                  predictor.base_sigma_deg, predictor.reference_kmh});
  if (rings < 0) throw ConfigError("scenario: rings must be >= 0");
  if (cell_radius_m <= 0.0)
    throw ConfigError("scenario: cell radius must be > 0");
  if (capacity_bu <= 0.0) throw ConfigError("scenario: capacity must be > 0");
  traffic.validate();
  spatial.validate();
  multicell.validate();
  if (mobility_update_s <= 0.0)
    throw ConfigError("scenario: mobility update period must be > 0");
  if (horizon_s <= 0.0) throw ConfigError("scenario: horizon must be > 0");
  // Both volatility formulas divide by (speed + reference_kmh): a zero
  // reference at speed 0 is 0/0, a NaN stddev for the direction draws.
  if (mobility.reference_kmh <= 0.0 || predictor.reference_kmh <= 0.0)
    throw ConfigError("scenario: mobility/predictor reference_kmh must be > 0");
  if (mobility.base_sigma_deg < 0.0 || predictor.base_sigma_deg < 0.0)
    throw ConfigError(
        "scenario: mobility/predictor base_sigma_deg must be >= 0");
  if (mobility.update_interval_s <= 0.0)
    throw ConfigError("scenario: mobility.update_interval_s must be > 0");
  if (mobility.speed_sigma_kmh < 0.0)
    throw ConfigError("scenario: mobility.speed_sigma_kmh must be >= 0");
  if (mobility.min_speed_kmh > mobility.max_speed_kmh)
    throw ConfigError(
        "scenario: mobility.min_speed_kmh must be <= max_speed_kmh");
}

}  // namespace facsp::core
