#include "workload/spatial.h"

#include <cmath>
#include <string>

#include "common/error.h"

namespace facsp::workload {

void SpatialSpec::validate() const {
  require_finite("spatial",
                 {hotspot_decay, highway_halfwidth_m, highway_off_weight});
  switch (kind) {
    case SpatialKind::kCenterOnly:
    case SpatialKind::kUniform:
      return;
    case SpatialKind::kHotspot:
      if (hotspot_decay < 0.0 || hotspot_decay > 1.0)
        throw ConfigError("spatial: hotspot decay must be in [0, 1]");
      return;
    case SpatialKind::kHighway:
      if (highway_halfwidth_m <= 0.0)
        throw ConfigError("spatial: highway half-width must be > 0");
      if (highway_off_weight < 0.0 || highway_off_weight > 1.0)
        throw ConfigError("spatial: highway off-corridor weight must be in [0, 1]");
      return;
  }
  throw ConfigError("spatial: unknown kind");
}

std::string_view spatial_kind_name(SpatialKind kind) noexcept {
  switch (kind) {
    case SpatialKind::kCenterOnly:
      return "center";
    case SpatialKind::kUniform:
      return "uniform";
    case SpatialKind::kHotspot:
      return "hotspot";
    case SpatialKind::kHighway:
      return "highway";
  }
  return "?";
}

SpatialKind spatial_kind_from_name(std::string_view name) {
  for (SpatialKind k : {SpatialKind::kCenterOnly, SpatialKind::kUniform,
                        SpatialKind::kHotspot, SpatialKind::kHighway})
    if (name == spatial_kind_name(k)) return k;
  throw ConfigError("spatial: unknown kind '" + std::string(name) +
                    "' (center|uniform|hotspot|highway)");
}

SpatialLoadMap::SpatialLoadMap(SpatialSpec spec) : spec_(spec) {
  spec_.validate();
}

double SpatialLoadMap::weight(const cellular::HexCoord& coord,
                              const cellular::Point& cell_center) const noexcept {
  const bool is_center = coord == cellular::HexCoord{0, 0};
  switch (spec_.kind) {
    case SpatialKind::kCenterOnly:
      return is_center ? 1.0 : 0.0;
    case SpatialKind::kUniform:
      return 1.0;
    case SpatialKind::kHotspot: {
      const int ring = cellular::hex_distance(coord, cellular::HexCoord{0, 0});
      return std::pow(spec_.hotspot_decay, ring);
    }
    case SpatialKind::kHighway:
      return std::fabs(cell_center.y) <= spec_.highway_halfwidth_m
                 ? 1.0
                 : spec_.highway_off_weight;
  }
  return is_center ? 1.0 : 0.0;
}

int SpatialLoadMap::requests(int n, const cellular::HexCoord& coord,
                             const cellular::Point& cell_center) const noexcept {
  return scaled_requests(weight(coord, cell_center), n);
}

int SpatialLoadMap::scaled_requests(double weight, int n) noexcept {
  return static_cast<int>(std::lround(weight * static_cast<double>(n)));
}

}  // namespace facsp::workload
