#include "ml/trainer.hpp"

#include <gtest/gtest.h>

#include "data/gaussian_blobs.hpp"
#include "data/synthetic_images.hpp"
#include "ml/models.hpp"
#include "test_util.hpp"

namespace roadrunner::ml {
namespace {

DatasetView blob_view(std::size_t n, std::uint64_t seed = 5) {
  data::GaussianBlobConfig cfg;
  cfg.seed = seed;
  return DatasetView::all(
      std::make_shared<Dataset>(data::make_gaussian_blobs(n, cfg)));
}

TEST(Trainer, LossDecreasesOnLearnableProblem) {
  auto view = blob_view(400);
  util::Rng rng{1};
  Network net = make_mlp(16, 32, 4);
  prime_and_init(net, {16}, rng);

  const auto before = evaluate(net, view);
  TrainConfig cfg;
  cfg.epochs = 5;
  cfg.learning_rate = 0.05F;
  util::Rng train_rng{2};
  const auto report = train_sgd(net, view, cfg, train_rng);
  const auto after = evaluate(net, view);

  EXPECT_LT(after.loss, before.loss);
  EXPECT_GT(after.accuracy, 0.8);
  EXPECT_GT(report.final_accuracy, 0.7);
  EXPECT_EQ(report.samples_seen, 400U * 5);
  EXPECT_EQ(report.steps, (400U / cfg.batch_size) * 5);
  EXPECT_GT(report.flops, 0U);
}

TEST(Trainer, DeterministicGivenSeed) {
  auto view = blob_view(128);
  TrainConfig cfg;
  cfg.epochs = 2;

  auto run = [&](std::uint64_t seed) {
    util::Rng init{7};
    Network net = make_mlp(16, 16, 4);
    prime_and_init(net, {16}, init);
    util::Rng rng{seed};
    train_sgd(net, view, cfg, rng);
    return net.weights();
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

TEST(Trainer, ShuffleOffIsOrderDeterministic) {
  auto view = blob_view(64);
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.shuffle = false;
  util::Rng init{7};
  Network net = make_mlp(16, 16, 4);
  prime_and_init(net, {16}, init);
  Network net2 = net;
  util::Rng r1{1}, r2{999};  // rng unused when shuffle is off
  train_sgd(net, view, cfg, r1);
  train_sgd(net2, view, cfg, r2);
  EXPECT_EQ(net.weights(), net2.weights());
}

TEST(Trainer, ValidatesArguments) {
  auto view = blob_view(16);
  util::Rng rng{1};
  Network net = make_mlp(16, 8, 4);
  prime_and_init(net, {16}, rng);
  TrainConfig cfg;
  cfg.epochs = 0;
  EXPECT_THROW(train_sgd(net, view, cfg, rng), std::invalid_argument);
  cfg.epochs = 1;
  cfg.batch_size = 0;
  EXPECT_THROW(train_sgd(net, view, cfg, rng), std::invalid_argument);
  DatasetView empty{view.base_ptr(), {}};
  cfg.batch_size = 8;
  EXPECT_THROW(train_sgd(net, empty, cfg, rng), std::invalid_argument);
}

TEST(Trainer, PartialFinalBatchHandled) {
  auto view = blob_view(50);  // 50 % 16 != 0
  util::Rng rng{1};
  Network net = make_mlp(16, 8, 4);
  prime_and_init(net, {16}, rng);
  TrainConfig cfg;
  cfg.epochs = 1;
  const auto report = train_sgd(net, view, cfg, rng);
  EXPECT_EQ(report.samples_seen, 50U);
  EXPECT_EQ(report.steps, 4U);  // 16+16+16+2
}

TEST(Evaluate, ParallelAndSerialAgree) {
  auto view = blob_view(333);
  util::Rng rng{9};
  Network net = make_mlp(16, 16, 4);
  prime_and_init(net, {16}, rng);
  const auto serial = evaluate(net, view, 64, /*parallel=*/false);
  const auto parallel = evaluate(net, view, 64, /*parallel=*/true);
  EXPECT_EQ(serial.accuracy, parallel.accuracy);
  EXPECT_DOUBLE_EQ(serial.loss, parallel.loss);
  EXPECT_EQ(serial.samples, 333U);
}

TEST(Evaluate, EmptyViewReturnsZeroes) {
  auto view = blob_view(8);
  DatasetView empty{view.base_ptr(), {}};
  util::Rng rng{9};
  Network net = make_mlp(16, 8, 4);
  prime_and_init(net, {16}, rng);
  const auto r = evaluate(net, empty);
  EXPECT_EQ(r.samples, 0U);
  EXPECT_EQ(r.accuracy, 0.0);
}

TEST(Evaluate, SubsetViewEvaluatesOnlySubset) {
  auto view = blob_view(100);
  DatasetView subset{view.base_ptr(), {0, 1, 2, 3, 4}};
  util::Rng rng{9};
  Network net = make_mlp(16, 8, 4);
  prime_and_init(net, {16}, rng);
  EXPECT_EQ(evaluate(net, subset).samples, 5U);
}

/// FNV-1a-64 over the weight tensors' float bytes, in layer order.
std::uint64_t fnv1a(const Weights& weights) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const Tensor& t : weights) {
    const auto* p = reinterpret_cast<const unsigned char*>(t.data());
    for (std::size_t i = 0; i < t.size() * sizeof(float); ++i) {
      h ^= p[i];
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

// Golden bytes of a seeded train_sgd (2 epochs, 80 samples, batch 16) on
// the paper CNN and on the MLP. Every kernel behind training (GEMM, the
// conv kernels, the layer glue, the optimizer) keeps the float operations
// and their order, so these hashes hold on every host and kernel build.
TEST(TrainGolden, PaperCnnWeightsHash) {
  data::SyntheticImageConfig images;
  images.seed = 11;
  const auto view = DatasetView::all(
      std::make_shared<Dataset>(data::make_synthetic_images(80, images)));
  util::Rng init{12};
  Network net = make_paper_cnn(3, 32, 10);
  prime_and_init(net, {3, 32, 32}, init);
  TrainConfig cfg;
  util::Rng rng{13};
  train_sgd(net, view, cfg, rng);
  EXPECT_EQ(fnv1a(net.weights()), 0x33CF245FD66DBB39ULL)
      << std::hex << "0x" << fnv1a(net.weights());
}

TEST(TrainGolden, MlpWeightsHash) {
  const auto view = blob_view(80, 21);
  util::Rng init{22};
  Network net = make_mlp(16, 32, 4);
  prime_and_init(net, {16}, init);
  TrainConfig cfg;
  util::Rng rng{23};
  train_sgd(net, view, cfg, rng);
  EXPECT_EQ(fnv1a(net.weights()), 0x15120A4247876FF8ULL)
      << std::hex << "0x" << fnv1a(net.weights());
}

}  // namespace
}  // namespace roadrunner::ml
