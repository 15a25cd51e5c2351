// Implementing a custom learning strategy — the extension point Req. 5
// demands ("the framework should allow the flexible implementation and
// parametrization of learning strategies").
//
// The example defines AdaptiveFl, a small twist on FL written entirely
// against the public strategy API: the server monitors round-over-round
// accuracy improvement and triples the participant count while progress
// stalls (a crude budget-adaptive policy), then compares it against
// vanilla FL over the same rounds.
//
//   ./examples/custom_strategy [--rounds=14] [--seed=8]
#include <cstdio>

#include "scenario/scenario.hpp"
#include "strategy/federated.hpp"
#include "util/cli.hpp"

using namespace roadrunner;

namespace {

/// FL whose server widens the per-round selection when accuracy stalls.
/// Everything else — the vehicle protocol, rounds, transport, failure
/// handling, FedAvg, metrics — is inherited from FederatedStrategy.
class AdaptiveFl final : public strategy::FederatedStrategy {
 public:
  AdaptiveFl(strategy::RoundConfig config, std::size_t boosted_participants)
      : FederatedStrategy{config},
        base_participants_{config.participants},
        boosted_participants_{boosted_participants} {}

  [[nodiscard]] std::string name() const override { return "adaptive-fl"; }

 protected:
  // The adaptive part: two overrides.
  [[nodiscard]] std::size_t participants_this_round(
      strategy::StrategyContext& ctx, int /*round*/) const override {
    if (boosting_) ctx.metrics().increment("adaptive_boost_rounds");
    return boosting_ ? boosted_participants_ : base_participants_;
  }

  // Runs after the round's accuracy point is recorded, so `acc` is the new
  // global model's; rounds that produced no new model are not judged.
  void on_round_finalized(strategy::StrategyContext& ctx, int round,
                          std::size_t contributions) override {
    if (contributions == 0) return;
    const double acc = ctx.metrics().last_value(strategy::kAccuracySeries);
    if (round > 1 && acc - last_accuracy_ < kStallThreshold) {
      ++stalled_rounds_;
    } else {
      stalled_rounds_ = 0;
    }
    boosting_ = stalled_rounds_ >= 2;
    last_accuracy_ = acc;
  }

 private:
  static constexpr double kStallThreshold = 0.005;
  std::size_t base_participants_;
  std::size_t boosted_participants_;
  double last_accuracy_ = 0.0;
  int stalled_rounds_ = 0;
  bool boosting_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args{argc, argv};
  const int rounds = static_cast<int>(args.get_int("rounds", 14));

  scenario::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 8));
  cfg.vehicles = 40;
  cfg.dataset = "blobs";
  cfg.blob_config.num_classes = 10;
  cfg.blob_config.dimensions = 24;
  cfg.blob_config.center_radius = 2.2;
  cfg.train_pool_size = 6000;
  cfg.test_size = 1200;
  cfg.partition = "class_skew";
  cfg.samples_per_vehicle = 50;
  cfg.classes_per_vehicle = 2;
  cfg.model = "mlp";
  cfg.city.duration_s = 20000.0;
  scenario::Scenario scenario{cfg};

  strategy::RoundConfig round;
  round.rounds = rounds;
  round.participants = 4;
  round.round_duration_s = 30.0;

  const auto vanilla =
      scenario.run(std::make_shared<strategy::FederatedStrategy>(round));
  const auto adaptive =
      scenario.run(std::make_shared<AdaptiveFl>(round, 12));

  std::printf("%-22s %12s %12s\n", "", "vanilla FL", "adaptive FL");
  std::printf("%-22s %12.4f %12.4f\n", "final accuracy",
              vanilla.final_accuracy, adaptive.final_accuracy);
  std::printf("%-22s %12.2f %12.2f\n", "V2C delivered [MB]",
              static_cast<double>(
                  vanilla.channel(comm::ChannelKind::kV2C).bytes_delivered) /
                  1e6,
              static_cast<double>(
                  adaptive.channel(comm::ChannelKind::kV2C).bytes_delivered) /
                  1e6);
  std::printf("%-22s %12s %12.0f\n", "boosted rounds", "-",
              adaptive.metrics.counter("adaptive_boost_rounds"));
  std::printf(
      "\nThe point: a policy change this small needed one subclass with two "
      "real\noverrides — the framework supplied rounds, selection, "
      "transport, failure\nhandling, aggregation, and metrics (Req. 5).\n");
  return 0;
}
