// FCD import + trace-file hardening tests: the SUMO FCD-XML loader's
// golden fixture (dense ids by first appearance, gap-split ignition
// inference, the one-dt ON tail), its rejection of malformed XML with
// file+line context, geo-mode projection and its round-trip, an
// FCD-driven experiment end to end, and the hardened CSV loader's
// regression suite (file+line on malformed rows, non-finite coordinate
// rejection, non-monotone ignition intervals).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>

#include "mobility/fcd.hpp"
#include "mobility/geo.hpp"
#include "mobility/trace_file.hpp"
#include "scenario/scenario.hpp"
#include "strategy/federated.hpp"

#ifndef RR_TEST_DATA_DIR
#define RR_TEST_DATA_DIR "tests/data"
#endif

namespace roadrunner {
namespace {

namespace fs = std::filesystem;

std::string golden_path(const std::string& name) {
  return (fs::path{RR_TEST_DATA_DIR} / name).string();
}

/// Writes `content` to a unique temp file and returns its path.
std::string write_tmp(const std::string& name, const std::string& content) {
  const fs::path path = fs::temp_directory_path() / name;
  std::ofstream out{path};
  out << content;
  return path.string();
}

/// Asserts that loading `path` throws std::runtime_error whose message
/// contains every fragment (the path itself is always required: errors
/// must say which file is bad).
template <typename Loader>
void expect_load_error(const Loader& load, const std::string& path,
                       const std::vector<std::string>& fragments) {
  try {
    load();
    FAIL() << "expected a parse error for " << path;
  } catch (const std::runtime_error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    for (const std::string& fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "missing '" << fragment << "' in: " << what;
    }
  }
}

// ------------------------------------------------------- golden fixture ---

TEST(FcdImport, GoldenFixtureLoads) {
  mobility::FcdOptions options;
  options.gap_threshold_s = 5.0;  // the 10 s silence splits alpha's trips
  const mobility::FleetModel fleet =
      mobility::load_fleet_fcd(golden_path("fcd_golden.xml"), options);
  ASSERT_EQ(fleet.vehicle_count(), 3U);

  // Dense NodeIds in order of first appearance: alpha, beta, gamma.
  const mobility::VehicleTrack& alpha = fleet.vehicle(0);
  const mobility::VehicleTrack& beta = fleet.vehicle(1);
  const mobility::VehicleTrack& gamma = fleet.vehicle(2);
  EXPECT_EQ(alpha.trace.sample_count(), 7U);  // 5 before the gap + 2 after
  EXPECT_EQ(beta.trace.sample_count(), 11U);
  EXPECT_EQ(gamma.trace.sample_count(), 5U);

  // Positions come through verbatim in planar mode.
  EXPECT_DOUBLE_EQ(alpha.trace.samples().front().position.x, 100.0);
  EXPECT_DOUBLE_EQ(alpha.trace.samples().front().position.y, 50.0);
  EXPECT_DOUBLE_EQ(beta.trace.samples().back().position.y, 100.0);
  EXPECT_DOUBLE_EQ(gamma.trace.samples().front().time_s, 4.0);

  // Ignition from trace gaps, each run extended one dt (= 2 s) past its
  // last sample: alpha [0,10)+[18,22), beta [0,22), gamma [4,14).
  const auto& alpha_on = alpha.ignition.intervals();
  ASSERT_EQ(alpha_on.size(), 2U);
  EXPECT_DOUBLE_EQ(alpha_on[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(alpha_on[0].end_s, 10.0);
  EXPECT_DOUBLE_EQ(alpha_on[1].start_s, 18.0);
  EXPECT_DOUBLE_EQ(alpha_on[1].end_s, 22.0);
  ASSERT_EQ(beta.ignition.intervals().size(), 1U);
  EXPECT_DOUBLE_EQ(beta.ignition.intervals()[0].end_s, 22.0);
  ASSERT_EQ(gamma.ignition.intervals().size(), 1U);
  EXPECT_DOUBLE_EQ(gamma.ignition.intervals()[0].start_s, 4.0);
  EXPECT_DOUBLE_EQ(gamma.ignition.intervals()[0].end_s, 14.0);

  EXPECT_TRUE(fleet.is_on(0, 5.0));
  EXPECT_FALSE(fleet.is_on(0, 14.0));  // alpha parked mid-gap
  EXPECT_TRUE(fleet.is_on(0, 19.0));
}

TEST(FcdImport, DefaultThresholdKeepsOneInterval) {
  // The same silence is shorter than the default 30 s threshold: alpha
  // stays one ON run.
  const mobility::FleetModel fleet =
      mobility::load_fleet_fcd(golden_path("fcd_golden.xml"));
  ASSERT_EQ(fleet.vehicle(0).ignition.intervals().size(), 1U);
  EXPECT_DOUBLE_EQ(fleet.vehicle(0).ignition.intervals()[0].end_s, 22.0);
}

// ------------------------------------------------------------ rejection ---

void expect_fcd_error(const std::string& name, const std::string& xml,
                      const std::vector<std::string>& fragments) {
  const std::string path = write_tmp(name, xml);
  expect_load_error([&] { mobility::load_fleet_fcd(path); }, path, fragments);
  fs::remove(path);
}

TEST(FcdImport, RejectsMalformedXml) {
  expect_fcd_error("rr_fcd_root.xml", "<not-fcd>\n</not-fcd>\n",
                   {"expected <fcd-export> root element"});
  expect_fcd_error("rr_fcd_attr.xml",
                   "<fcd-export>\n<timestep time=\"0\">\n"
                   "<vehicle id=\"a\" x=\"1\"/>\n"
                   "</timestep>\n</fcd-export>\n",
                   {":3:", "needs id, x, and y attributes"});
  expect_fcd_error("rr_fcd_nan.xml",
                   "<fcd-export>\n<timestep time=\"0\">\n"
                   "<vehicle id=\"a\" x=\"nan\" y=\"2\"/>\n"
                   "</timestep>\n</fcd-export>\n",
                   {":3:", "must be finite"});
  expect_fcd_error("rr_fcd_inf.xml",
                   "<fcd-export>\n<timestep time=\"0\">\n"
                   "<vehicle id=\"a\" x=\"1\" y=\"inf\"/>\n"
                   "</timestep>\n</fcd-export>\n",
                   {"must be finite"});
  expect_fcd_error("rr_fcd_nonnum.xml",
                   "<fcd-export>\n<timestep time=\"0\">\n"
                   "<vehicle id=\"a\" x=\"east\" y=\"2\"/>\n"
                   "</timestep>\n</fcd-export>\n",
                   {"is not a number"});
  expect_fcd_error("rr_fcd_time.xml",
                   "<fcd-export>\n<timestep time=\"10\">\n"
                   "<vehicle id=\"a\" x=\"1\" y=\"2\"/>\n"
                   "</timestep>\n<timestep time=\"5\">\n"
                   "</timestep>\n</fcd-export>\n",
                   {"is not after the previous timestep"});
  expect_fcd_error("rr_fcd_dup.xml",
                   "<fcd-export>\n<timestep time=\"0\">\n"
                   "<vehicle id=\"a\" x=\"1\" y=\"2\"/>\n"
                   "<vehicle id=\"a\" x=\"3\" y=\"4\"/>\n"
                   "</timestep>\n</fcd-export>\n",
                   {"appears twice in one timestep"});
  expect_fcd_error("rr_fcd_stray.xml",
                   "<fcd-export>\n</timestep>\n</fcd-export>\n",
                   {"stray </timestep>"});
  expect_fcd_error("rr_fcd_unclosed.xml",
                   "<fcd-export>\n<timestep time=\"0\">\n"
                   "<vehicle id=\"a\" x=\"1\" y=\"2\"/>\n",
                   {"unclosed <timestep> element"});
  expect_fcd_error("rr_fcd_element.xml",
                   "<fcd-export>\n<timestep time=\"0\">\n"
                   "<pedestrian id=\"p\"/>\n"
                   "</timestep>\n</fcd-export>\n",
                   {"unexpected element <pedestrian>"});
  expect_fcd_error("rr_fcd_empty.xml", "<fcd-export>\n</fcd-export>\n",
                   {"holds no timesteps"});
  // Finite attributes whose step overflows: the last ON interval would end
  // at infinity.
  expect_fcd_error("rr_fcd_overflow.xml",
                   "<fcd-export>\n<timestep time=\"-1e308\">\n"
                   "<vehicle id=\"a\" x=\"1\" y=\"2\"/>\n"
                   "</timestep>\n<timestep time=\"1e308\">\n"
                   "<vehicle id=\"a\" x=\"1\" y=\"2\"/>\n"
                   "</timestep>\n</fcd-export>\n",
                   {"vehicle 'a'", "non-finite"});
  // Geo mode: finite longitudes whose projection overflows.
  const std::string far = write_tmp(
      "rr_fcd_geo_overflow.xml",
      "<fcd-export>\n<timestep time=\"0\">\n"
      "<vehicle id=\"a\" x=\"-1e308\" y=\"57\"/>\n"
      "<vehicle id=\"b\" x=\"1e308\" y=\"57\"/>\n"
      "</timestep>\n</fcd-export>\n");
  mobility::FcdOptions geo;
  geo.geo = true;
  expect_load_error([&] { mobility::load_fleet_fcd(far, geo); }, far,
                    {"vehicle 'b'", "non-finite"});
  fs::remove(far);
  EXPECT_THROW(mobility::load_fleet_fcd("/does/not/exist.xml"),
               std::runtime_error);
}

// ------------------------------------------------------------ geo mode ----

TEST(FcdImport, GeoProjectionRoundTrip) {
  // project/unproject are inverses at city scale around the reference.
  const mobility::GeoPoint ref = mobility::kGothenburgCenter;
  const mobility::GeoPoint p{57.7102, 11.9801};
  const mobility::Position planar = mobility::project(p, ref);
  const mobility::GeoPoint back = mobility::unproject(planar, ref);
  EXPECT_NEAR(back.latitude_deg, p.latitude_deg, 1e-9);
  EXPECT_NEAR(back.longitude_deg, p.longitude_deg, 1e-9);
  EXPECT_GT(planar.y, 0.0);  // north of the reference
  EXPECT_GT(planar.x, 0.0);  // east of the reference
}

TEST(FcdImport, GeoModeProjectsThroughTheReference) {
  // Geo exports carry x=longitude, y=latitude.
  const std::string path = write_tmp("rr_fcd_geo.xml", R"(<fcd-export>
<timestep time="0">
<vehicle id="a" x="11.9746" y="57.7089"/>
<vehicle id="b" x="11.9800" y="57.7100"/>
</timestep>
<timestep time="10">
<vehicle id="a" x="11.9750" y="57.7090"/>
<vehicle id="b" x="11.9804" y="57.7101"/>
</timestep>
</fcd-export>
)");
  mobility::FcdOptions options;
  options.geo = true;
  options.origin = mobility::kGothenburgCenter;
  const mobility::FleetModel fleet = mobility::load_fleet_fcd(path, options);
  ASSERT_EQ(fleet.vehicle_count(), 2U);
  // Vehicle a starts exactly on the reference point.
  EXPECT_NEAR(fleet.position_of(0, 0.0).x, 0.0, 1e-9);
  EXPECT_NEAR(fleet.position_of(0, 0.0).y, 0.0, 1e-9);
  const mobility::Position expect = mobility::project(
      mobility::GeoPoint{57.7100, 11.9800}, mobility::kGothenburgCenter);
  EXPECT_NEAR(fleet.position_of(1, 0.0).x, expect.x, 1e-9);
  EXPECT_NEAR(fleet.position_of(1, 0.0).y, expect.y, 1e-9);

  // Default origin = the first sample: vehicle a then sits at (0, 0).
  mobility::FcdOptions defaulted;
  defaulted.geo = true;
  const mobility::FleetModel anchored =
      mobility::load_fleet_fcd(path, defaulted);
  EXPECT_NEAR(anchored.position_of(0, 0.0).x, 0.0, 1e-9);
  EXPECT_NEAR(anchored.position_of(0, 0.0).y, 0.0, 1e-9);
  fs::remove(path);
}

// ------------------------------------------------------------ end-to-end --

TEST(FcdImport, CityFixtureDrivesAnExperiment) {
  // The committed city-scale export loads into a fleet and runs a full
  // federated experiment: FCD traces are a first-class mobility source.
  auto fleet = std::make_shared<mobility::FleetModel>(
      mobility::load_fleet_fcd(golden_path("fcd_city.xml")));
  ASSERT_EQ(fleet->vehicle_count(), 8U);
  EXPECT_DOUBLE_EQ(fleet->duration(), 600.0);
  for (std::size_t v = 0; v < 8; ++v) {
    // Every vehicle has its one parked window inferred from the silence.
    EXPECT_EQ(fleet->vehicle(v).ignition.intervals().size(), 2U)
        << "vehicle " << v;
  }

  scenario::ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.vehicles = 8;
  cfg.dataset = "blobs";
  cfg.train_pool_size = 1200;
  cfg.test_size = 240;
  cfg.partition = "iid";
  cfg.samples_per_vehicle = 30;
  cfg.model = "logreg";
  cfg.external_fleet = fleet;
  cfg.horizon_s = 600.0;
  scenario::Scenario scenario{cfg};
  strategy::RoundConfig round;
  round.rounds = 4;
  round.participants = 3;
  round.round_duration_s = 60.0;
  const auto result =
      scenario.run(std::make_shared<strategy::FederatedStrategy>(round));
  EXPECT_GT(result.report.events_executed, 0U);
}

// ----------------------------------------------- CSV loader hardening -----

TEST(TraceFileHardening, NamesFileAndLineOnMalformedRows) {
  const std::string ignition =
      write_tmp("rr_csv_ok_ign.csv", "vehicle_id,start_s,end_s\n0,0,100\n");
  const std::string short_row = write_tmp(
      "rr_csv_short.csv", "vehicle_id,time_s,x_m,y_m\n0,0,10\n");
  expect_load_error(
      [&] { mobility::load_fleet_csv(short_row, ignition); }, short_row,
      {":2:", "traces row needs 4 fields"});

  const std::string bad_id = write_tmp(
      "rr_csv_badid.csv", "vehicle_id,time_s,x_m,y_m\n0,0,10,20\nX7,1,1,1\n");
  expect_load_error(
      [&] { mobility::load_fleet_csv(bad_id, ignition); }, bad_id,
      {":3:", "vehicle id 'X7' is not a whole number"});

  const std::string bad_num = write_tmp(
      "rr_csv_badnum.csv",
      "vehicle_id,time_s,x_m,y_m\n0,0,10,20\n0,five,1,1\n");
  expect_load_error(
      [&] { mobility::load_fleet_csv(bad_num, ignition); }, bad_num,
      {":3:", "'five' is not a number"});
  for (const auto& p : {ignition, short_row, bad_id, bad_num}) fs::remove(p);
}

TEST(TraceFileHardening, RejectsNonFiniteCoordinates) {
  const std::string ignition =
      write_tmp("rr_csv_fin_ign.csv", "vehicle_id,start_s,end_s\n0,0,100\n");
  // A finite latitude whose projection overflows to infinity.
  const std::string far = write_tmp(
      "rr_csv_geo_overflow.csv",
      "vehicle_id,time_s,lat,lon\n0,0,57.7,11.9\n0,1,1e308,11.9\n");
  expect_load_error(
      [&] {
        mobility::load_fleet_csv_geo(far, ignition, mobility::kGothenburgCenter);
      },
      far, {"vehicle 0", "non-finite"});
  fs::remove(far);
  for (const std::string bad : {"nan", "inf", "-inf"}) {
    const std::string traces = write_tmp(
        "rr_csv_nonfinite.csv",
        "vehicle_id,time_s,x_m,y_m\n0,0,10,20\n0,1," + bad + ",30\n");
    expect_load_error(
        [&] { mobility::load_fleet_csv(traces, ignition); }, traces,
        {":3:", "must be finite"});
    fs::remove(traces);
  }
  fs::remove(ignition);
}

TEST(TraceFileHardening, RejectsNonMonotoneIgnition) {
  const std::string traces = write_tmp(
      "rr_csv_mono_tr.csv", "vehicle_id,time_s,x_m,y_m\n0,0,10,20\n");
  // An interval that ends before (or at) its start names its row...
  const std::string backwards = write_tmp(
      "rr_csv_backwards.csv",
      "vehicle_id,start_s,end_s\n0,50,50\n");
  expect_load_error(
      [&] { mobility::load_fleet_csv(traces, backwards); }, backwards,
      {":2:", "must be after start"});
  // ...and overlapping intervals are rejected as a non-monotone schedule.
  const std::string overlap = write_tmp(
      "rr_csv_overlap.csv",
      "vehicle_id,start_s,end_s\n0,0,60\n0,40,90\n");
  expect_load_error(
      [&] { mobility::load_fleet_csv(traces, overlap); }, overlap,
      {"vehicle 0 has overlapping ignition intervals"});
  for (const auto& p : {traces, backwards, overlap}) fs::remove(p);
}

TEST(TraceFileHardening, WellFormedFilesStillLoad) {
  const std::string traces = write_tmp(
      "rr_csv_good_tr.csv",
      "vehicle_id,time_s,x_m,y_m\n0,0,10,20\n0,10,15,25\n1,0,0,0\n1,5,5,5\n");
  const std::string ignition = write_tmp(
      "rr_csv_good_ign.csv",
      "vehicle_id,start_s,end_s\n0,0,60\n0,80,100\n1,0,50\n");
  const mobility::FleetModel fleet =
      mobility::load_fleet_csv(traces, ignition);
  EXPECT_EQ(fleet.vehicle_count(), 2U);
  EXPECT_EQ(fleet.vehicle(0).ignition.intervals().size(), 2U);
  fs::remove(traces);
  fs::remove(ignition);
}

}  // namespace
}  // namespace roadrunner
