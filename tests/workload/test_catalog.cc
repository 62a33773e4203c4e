#include "workload/catalog.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/config_io.h"
#include "core/paper.h"

namespace facsp::workload {
namespace {

TEST(ScenarioCatalog, BuiltInsAreRegistered) {
  auto& catalog = ScenarioCatalog::instance();
  for (const char* name :
       {"paper-grid", "bursty-onoff", "flash-crowd", "diurnal",
        "hotspot-ring2", "highway", "downtown", "handoff-storm",
        "mix-shift"}) {
    EXPECT_TRUE(catalog.contains(name)) << name;
    const auto* entry = catalog.find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_FALSE(entry->description.empty()) << name;
  }
}

TEST(ScenarioCatalog, EveryEntryBuildsAValidScenario) {
  for (const auto& entry : ScenarioCatalog::instance().entries()) {
    SCOPED_TRACE(entry.name);
    const core::ScenarioConfig scen = catalog_scenario(entry.name);
    EXPECT_NO_THROW(scen.validate());
    // And every scenario round-trips through the config format.
    const core::ScenarioConfig reparsed =
        core::scenario_from_string(core::scenario_to_string(scen));
    EXPECT_EQ(core::scenario_to_string(reparsed),
              core::scenario_to_string(scen));
  }
}

TEST(ScenarioCatalog, PaperGridIsThePaperScenario) {
  EXPECT_EQ(core::scenario_to_string(catalog_scenario("paper-grid")),
            core::scenario_to_string(core::paper_scenario()));
}

TEST(ScenarioCatalog, ScenarioShapesAreWired) {
  EXPECT_EQ(catalog_scenario("bursty-onoff").traffic.arrival.kind,
            ArrivalKind::kOnOff);
  EXPECT_EQ(catalog_scenario("flash-crowd").traffic.arrival.kind,
            ArrivalKind::kFlashCrowd);
  EXPECT_EQ(catalog_scenario("diurnal").traffic.arrival.kind,
            ArrivalKind::kDiurnal);
  const auto hotspot = catalog_scenario("hotspot-ring2");
  EXPECT_EQ(hotspot.spatial.kind, SpatialKind::kHotspot);
  EXPECT_EQ(hotspot.rings, 2);
  const auto highway = catalog_scenario("highway");
  EXPECT_EQ(highway.spatial.kind, SpatialKind::kHighway);
  ASSERT_TRUE(highway.traffic.fixed_speed_kmh.has_value());
  EXPECT_DOUBLE_EQ(*highway.traffic.fixed_speed_kmh, 100.0);
  EXPECT_FALSE(catalog_scenario("mix-shift").traffic.mix_schedule.empty());
  const auto downtown = catalog_scenario("downtown");
  EXPECT_EQ(downtown.rings, 2);
  EXPECT_EQ(downtown.spatial.kind, SpatialKind::kUniform);
  // handoff-storm is downtown with fast users and long calls, nothing else.
  core::ScenarioConfig storm = catalog_scenario("handoff-storm");
  ASSERT_TRUE(storm.traffic.fixed_speed_kmh.has_value());
  EXPECT_DOUBLE_EQ(*storm.traffic.fixed_speed_kmh, 100.0);
  EXPECT_DOUBLE_EQ(storm.traffic.mean_holding_s, 360.0);
  storm.traffic.fixed_speed_kmh = downtown.traffic.fixed_speed_kmh;
  storm.traffic.mean_holding_s = downtown.traffic.mean_holding_s;
  EXPECT_EQ(core::scenario_to_string(storm),
            core::scenario_to_string(downtown));
}

TEST(ScenarioCatalog, UnknownNameThrowsListingKnownOnes) {
  try {
    catalog_scenario("carrier-pigeon");
    FAIL() << "expected ConfigError";
  } catch (const facsp::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("carrier-pigeon"), std::string::npos);
    EXPECT_NE(what.find("paper-grid"), std::string::npos);
  }
}

TEST(ScenarioCatalog, RejectsDuplicatesAndEmptyEntries) {
  ScenarioCatalog catalog;
  catalog.add("mine", "a scenario", [] { return core::paper_scenario(); });
  EXPECT_THROW(
      catalog.add("mine", "again", [] { return core::paper_scenario(); }),
      facsp::ConfigError);
  EXPECT_THROW(
      catalog.add("", "nameless", [] { return core::paper_scenario(); }),
      facsp::ConfigError);
  EXPECT_THROW(catalog.add("unbuildable", "no builder", nullptr),
               facsp::ConfigError);
  EXPECT_EQ(catalog.names().size(), 1u);
}

}  // namespace
}  // namespace facsp::workload
