// Regression tests for CLI flag parsing — in particular the
// `parse_worker_count` / `parse_positive_count` contract: `--workers=0`, negative counts, and junk
// used to be silently accepted (0 auto-sized, negatives wrapped through
// size_t into absurd thread counts); they must now throw with a
// usage-ready message.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/cli.hpp"

namespace roadrunner {
namespace {

util::CliArgs make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return util::CliArgs{static_cast<int>(argv.size()), argv.data()};
}

TEST(ParseWorkerCount, AbsentFlagReturnsFallback) {
  const util::CliArgs args = make_args({});
  EXPECT_EQ(util::parse_worker_count(args, "workers"), 0U);
  EXPECT_EQ(util::parse_worker_count(args, "workers", 4), 4U);
}

TEST(ParseWorkerCount, PositiveCountsParse) {
  EXPECT_EQ(util::parse_worker_count(make_args({"--workers=1"}), "workers"),
            1U);
  EXPECT_EQ(util::parse_worker_count(make_args({"--workers=16"}), "workers"),
            16U);
  EXPECT_EQ(util::parse_worker_count(make_args({"--jobs", "8"}), "jobs"), 8U);
}

TEST(ParseWorkerCount, ZeroIsRejectedNotAutoSized) {
  EXPECT_THROW(util::parse_worker_count(make_args({"--workers=0"}), "workers"),
               std::invalid_argument);
}

TEST(ParseWorkerCount, NegativeCountsAreRejected) {
  EXPECT_THROW(util::parse_worker_count(make_args({"--workers=-3"}), "workers"),
               std::invalid_argument);
  EXPECT_THROW(util::parse_worker_count(make_args({"--workers=-1"}), "workers"),
               std::invalid_argument);
}

TEST(ParseWorkerCount, JunkIsRejected) {
  for (const char* bad : {"--workers=abc", "--workers=1x", "--workers=",
                          "--workers=++2", "--workers=0x4"}) {
    EXPECT_THROW(util::parse_worker_count(make_args({bad}), "workers"),
                 std::invalid_argument)
        << bad;
  }
}

TEST(ParseWorkerCount, ErrorMessageNamesTheFlagAndValue) {
  try {
    util::parse_worker_count(make_args({"--workers=0"}), "workers");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--workers"), std::string::npos) << what;
    EXPECT_NE(what.find("positive integer"), std::string::npos) << what;
  }
}

TEST(ParsePositiveCount, SeedsMustBeAPositiveInteger) {
  // --seeds=-1 used to wrap through size_t into a 2^64-job reserve, and
  // --seeds=abc leaked a bare "stoll" from std::stoll.
  EXPECT_EQ(util::parse_positive_count(make_args({}), "seeds", 0), 0U);
  EXPECT_EQ(util::parse_positive_count(make_args({"--seeds=3"}), "seeds", 0),
            3U);
  for (const char* bad : {"--seeds=0", "--seeds=-1", "--seeds=abc",
                          "--seeds=2x", "--seeds="}) {
    try {
      util::parse_positive_count(make_args({bad}), "seeds", 0);
      ADD_FAILURE() << bad << " parsed";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--seeds"), std::string::npos) << what;
      EXPECT_NE(what.find("positive integer"), std::string::npos) << what;
      EXPECT_EQ(what.find("auto-size"), std::string::npos) << what;
    }
  }
}

TEST(CliArgs, BasicFlagForms) {
  const util::CliArgs args =
      make_args({"--name=alpha", "--count", "7", "pos1", "--flag"});
  EXPECT_TRUE(args.has("name"));
  EXPECT_EQ(args.get("name", ""), "alpha");
  EXPECT_EQ(args.get_int("count", 0), 7);
  EXPECT_TRUE(args.get_bool("flag", false));
  ASSERT_EQ(args.positional().size(), 1U);
  EXPECT_EQ(args.positional()[0], "pos1");
}

}  // namespace
}  // namespace roadrunner
