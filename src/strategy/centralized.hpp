// Centralized ML — the status quo the paper argues against (§1): vehicles
// upload their *raw data* to the cloud over metered V2C; the server trains
// a single model on everything it has received. Included so the framework
// can quantify exactly the trade-off the paper motivates: central training
// converges fast but its V2C volume scales with raw data size, not model
// size, and raw uploads expose user data.
#pragma once

#include <set>

#include "strategy/learning_strategy.hpp"

namespace roadrunner::strategy {

struct CentralizedConfig {
  /// Server retrains this often on the accumulated data.
  double train_interval_s = 60.0;
  /// Epochs per server training session.
  int server_epochs = 2;
  /// Stop after this much simulated time (0 = fleet horizon).
  double duration_s = 0.0;
};

class CentralizedStrategy final : public LearningStrategy {
 public:
  explicit CentralizedStrategy(CentralizedConfig config);

  [[nodiscard]] std::string name() const override { return "centralized"; }

  void on_start(StrategyContext& ctx) override;
  void on_finish(StrategyContext& ctx) override;
  void on_timer(StrategyContext& ctx, AgentId id, int timer_id) override;
  void on_message(StrategyContext& ctx, const Message& msg) override;
  void on_message_failed(StrategyContext& ctx, const Message& msg,
                         comm::LinkStatus reason) override;
  void on_training_complete(StrategyContext& ctx, AgentId id,
                            const TrainingOutcome& outcome) override;
  void on_power_on(StrategyContext& ctx, AgentId id) override;

  [[nodiscard]] std::size_t uploads_completed() const {
    return uploaded_.size();
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar(uploaded_, in_flight_, server_dirty_);
    check_agents(ar, uploaded_, in_flight_);
  }
  void save_state(util::BinWriter& out) const override {
    util::save_fields(out, *this);
  }
  void load_state(util::BinReader& in) override { load_fields(in, *this); }

  static constexpr const char* kTagData = "raw-data";
  enum TimerId : int { kTimerServerTrain = 1, kTimerRetry = 2, kTimerStop = 3 };

 private:
  /// Retry delay after a failed upload (vehicle off / no coverage).
  static constexpr double kUploadRetryS = 120.0;

  void try_upload(StrategyContext& ctx, AgentId id);
  void maybe_train_server(StrategyContext& ctx);

  CentralizedConfig config_;
  std::set<AgentId> uploaded_;   ///< vehicles whose data reached the server
  std::set<AgentId> in_flight_;  ///< uploads currently transmitting
  bool server_dirty_ = false;    ///< new data since the last training
};

}  // namespace roadrunner::strategy
