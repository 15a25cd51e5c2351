// Hardware-unit cost model and metrics registry tests.
#include <gtest/gtest.h>

#include <sstream>

#include "hu/hardware_unit.hpp"
#include "metrics/registry.hpp"

namespace roadrunner {
namespace {

// ----------------------------------------------------------- HardwareUnit --

TEST(HardwareUnit, DurationFormula) {
  hu::DeviceClass dev;
  dev.flops_per_s = 1e9;
  dev.dispatch_overhead_s = 0.5;
  hu::HardwareUnit unit{dev};
  EXPECT_DOUBLE_EQ(unit.operation_duration(2'000'000'000ULL), 2.5);
  EXPECT_DOUBLE_EQ(unit.operation_duration(0), 0.5);
}

TEST(HardwareUnit, DeviceClassOrdering) {
  // Cloud must outclass RSU must outclass OBU (paper Fig. 1 hierarchy).
  EXPECT_GT(hu::cloud_device().flops_per_s, hu::rsu_device().flops_per_s);
  EXPECT_GT(hu::rsu_device().flops_per_s, hu::obu_device().flops_per_s);
  constexpr std::uint64_t kFlops = 1'000'000'000;
  hu::HardwareUnit obu{hu::obu_device()};
  hu::HardwareUnit cloud{hu::cloud_device()};
  EXPECT_GT(obu.operation_duration(kFlops), cloud.operation_duration(kFlops));
}

TEST(HardwareUnit, SlotReservationAndExpiry) {
  hu::DeviceClass dev;
  dev.parallel_slots = 2;
  hu::HardwareUnit unit{dev};
  EXPECT_TRUE(unit.available(0.0));
  EXPECT_TRUE(unit.reserve(0.0, 10.0));
  EXPECT_TRUE(unit.reserve(0.0, 5.0));
  EXPECT_FALSE(unit.available(0.0));
  EXPECT_FALSE(unit.reserve(1.0, 1.0));  // both slots busy
  EXPECT_EQ(unit.busy_slots(1.0), 2U);
  // At t=6 the 5 s reservation has expired.
  EXPECT_EQ(unit.busy_slots(6.0), 1U);
  EXPECT_TRUE(unit.reserve(6.0, 1.0));
  EXPECT_DOUBLE_EQ(unit.total_busy_time(), 16.0);
}

TEST(HardwareUnit, Validation) {
  hu::DeviceClass dev;
  dev.flops_per_s = 0.0;
  EXPECT_THROW(hu::HardwareUnit{dev}, std::invalid_argument);
  dev = hu::obu_device();
  dev.parallel_slots = 0;
  EXPECT_THROW(hu::HardwareUnit{dev}, std::invalid_argument);
  hu::HardwareUnit ok{hu::obu_device()};
  EXPECT_THROW(ok.reserve(0.0, -1.0), std::invalid_argument);
}

// ---------------------------------------------------------------- metrics --

TEST(Metrics, SeriesAppendAndQuery) {
  metrics::Registry reg;
  reg.add_point("accuracy", 0.0, 0.1);
  reg.add_point("accuracy", 30.0, 0.4);
  ASSERT_TRUE(reg.has_series("accuracy"));
  const auto& s = reg.series("accuracy");
  ASSERT_EQ(s.size(), 2U);
  EXPECT_DOUBLE_EQ(s[1].time_s, 30.0);
  EXPECT_DOUBLE_EQ(reg.last_value("accuracy"), 0.4);
  EXPECT_DOUBLE_EQ(reg.last_value("missing", -1.0), -1.0);
  EXPECT_THROW((void)reg.series("missing"), std::out_of_range);
}

TEST(Metrics, Counters) {
  metrics::Registry reg;
  reg.increment("messages");
  reg.increment("messages", 4.0);
  EXPECT_DOUBLE_EQ(reg.counter("messages"), 5.0);
  EXPECT_DOUBLE_EQ(reg.counter("unknown"), 0.0);
  reg.set_counter("messages", 2.0);
  EXPECT_DOUBLE_EQ(reg.counter("messages"), 2.0);
}

TEST(Metrics, NamesEnumerated) {
  metrics::Registry reg;
  reg.add_point("a", 0, 1);
  reg.add_point("b", 0, 1);
  reg.increment("c");
  EXPECT_EQ(reg.series_names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(reg.counter_names(), (std::vector<std::string>{"c"}));
}

TEST(Metrics, CsvExportLongFormat) {
  metrics::Registry reg;
  reg.add_point("accuracy", 12.5, 0.75);
  reg.increment("bytes", 100.0);
  std::ostringstream out;
  reg.export_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("kind,name,time_s,value"), std::string::npos);
  EXPECT_NE(csv.find("series,accuracy,12.5,0.75"), std::string::npos);
  EXPECT_NE(csv.find("counter,bytes,12.5,100"), std::string::npos);
}

}  // namespace
}  // namespace roadrunner
