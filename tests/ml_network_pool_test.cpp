// Oracles for the warm-network path behind training and evaluation.
//
//  * A network leased from ml::NetworkPool trains and evaluates bit for bit
//    like a fresh copy of the prototype given the same weights (the path
//    every job took before the pool; it lives on only here).
//  * Each layer's inference forward, which caches nothing, gives the bits
//    of its training forward, also on warm buffers across batch sizes.
//  * core::MlService::train_async on the global pool gives train()'s bits,
//    and a queued job does not depend on the service that queued it.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <ostream>

#include "core/ml_service.hpp"
#include "ml/models.hpp"
#include "ml/network_pool.hpp"
#include "ml/trainer.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace roadrunner::ml {
namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool bitwise_equal(const Weights& a, const Weights& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bitwise_equal(a[i], b[i])) return false;
  }
  return true;
}

void expect_same_report(const TrainReport& a, const TrainReport& b) {
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.samples_seen, b.samples_seen);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.steps, b.steps);
}

/// Random features in [-1, 1] and labels in [0, classes).
DatasetView random_view(const std::vector<std::size_t>& sample_shape,
                        std::size_t n, std::size_t classes,
                        std::uint64_t seed) {
  std::vector<std::size_t> shape{n};
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  Tensor x{shape};
  util::Rng rng{seed};
  testing::randomize(x, rng, 1.0);
  std::vector<std::int32_t> labels(n);
  for (auto& y : labels) {
    y = static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1));
  }
  return DatasetView::all(
      std::make_shared<Dataset>(std::move(x), std::move(labels), classes));
}

DatasetView first_n(const DatasetView& view, std::size_t n) {
  std::vector<std::uint32_t> idx(view.indices().begin(),
                                 view.indices().begin() + n);
  return DatasetView{view.base_ptr(), std::move(idx)};
}

struct ModelCase {
  const char* name;
  std::function<Network()> make;
  std::vector<std::size_t> input;
};

void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

constexpr std::size_t kClasses = 4;

const ModelCase kModels[] = {
    {"paper_cnn", [] { return make_paper_cnn(3, 16, kClasses); }, {3, 16, 16}},
    {"mlp", [] { return make_mlp(24, 16, kClasses); }, {24}},
    {"logreg", [] { return make_logreg(24, kClasses); }, {24}},
};

/// A primed, initialized prototype, as a scenario builds it.
Network prototype_of(const ModelCase& c) {
  Network net = c.make();
  util::Rng rng{7};
  prime_and_init(net, c.input, rng);
  return net;
}

class LeaseOracle : public ::testing::TestWithParam<ModelCase> {};

// Three jobs chained through their results, each on a view whose size
// leaves a partial last batch, with SGD, Adam + FedProx, and label flip +
// weight decay; an evaluation between jobs runs on the same warm network.
TEST_P(LeaseOracle, LeasedNetworkTrainsLikeAFreshCopy) {
  const Network proto = prototype_of(GetParam());
  NetworkPool pool{proto};
  const DatasetView data = random_view(GetParam().input, 37, kClasses, 11);

  std::vector<TrainConfig> configs(3);
  configs[0].batch_size = 8;
  configs[1].batch_size = 8;
  configs[1].optimizer = OptimizerKind::kAdam;
  configs[1].learning_rate = 0.005F;
  configs[1].proximal_mu = 0.1F;
  configs[2].batch_size = 6;
  configs[2].label_flip = true;
  configs[2].weight_decay = 0.01F;
  const std::size_t sizes[] = {37, 21, 13};

  util::Rng init{3};
  Network seed_net = proto;
  seed_net.init_params(init);
  Weights fresh_weights = seed_net.weights();
  Weights leased_weights = fresh_weights;

  for (std::size_t job = 0; job < configs.size(); ++job) {
    SCOPED_TRACE("job " + std::to_string(job));
    const DatasetView view = first_n(data, sizes[job]);

    // The oracle: a fresh copy of the prototype.
    Network fresh = proto;
    fresh.set_weights(fresh_weights);
    util::Rng fresh_rng{100 + job};
    const TrainReport want = train_sgd(fresh, view, configs[job], fresh_rng);
    fresh_weights = fresh.weights();

    TrainReport got;
    {
      const NetworkPool::Lease net = pool.lease(leased_weights);
      util::Rng rng{100 + job};
      got = train_sgd(*net, view, configs[job], rng);
      leased_weights = net->weights();
    }
    expect_same_report(got, want);
    ASSERT_TRUE(bitwise_equal(leased_weights, fresh_weights));

    const EvalReport eval_want = evaluate(Network{fresh}, data, 16, false);
    const EvalReport eval_got =
        evaluate(pool, leased_weights, data, 16, /*parallel=*/false);
    EXPECT_EQ(eval_got.accuracy, eval_want.accuracy);
    EXPECT_EQ(eval_got.loss, eval_want.loss);
    EXPECT_EQ(eval_got.samples, eval_want.samples);
  }
  // Every job and evaluation ran on the one warm network.
  EXPECT_EQ(pool.built(), 1U);
}

// Before its first forward a reused lease is indistinguishable from a
// fresh copy: same mode, FLOP count, zero gradients, and no forward on
// record for backward to use.
TEST_P(LeaseOracle, ReusedLeaseForgetsItsLastJob) {
  const Network proto = prototype_of(GetParam());
  NetworkPool pool{proto};
  const Weights weights = proto.weights();
  const DatasetView data = random_view(GetParam().input, 20, kClasses, 12);
  {
    const NetworkPool::Lease net = pool.lease(weights);
    TrainConfig cfg;
    cfg.epochs = 1;
    util::Rng rng{1};
    train_sgd(*net, data, cfg, rng);
  }
  const NetworkPool::Lease net = pool.lease(weights);
  const Network fresh = proto;
  ASSERT_EQ(pool.built(), 1U);
  EXPECT_EQ(net->flops_per_sample(), fresh.flops_per_sample());
  for (std::size_t i = 0; i < net->layer_count(); ++i) {
    EXPECT_EQ(net->layer(i).training_mode(), fresh.layer(i).training_mode());
  }
  for (const Tensor* g : net->grads()) {
    for (float v : g->values()) ASSERT_EQ(v, 0.0F);
  }
  const Tensor grad = Tensor::full({2, kClasses}, 1.0F);
  EXPECT_THROW(net->backward(grad), std::logic_error);
}

// Jobs leased concurrently from the global pool's workers give the
// sequential fresh-copy bits, and the pool builds no more networks than
// threads ran jobs at once.
TEST_P(LeaseOracle, ConcurrentLeasesMatchSequentialCopies) {
  const Network proto = prototype_of(GetParam());
  NetworkPool pool{proto};
  const DatasetView data = random_view(GetParam().input, 30, kClasses, 13);
  constexpr std::size_t kJobs = 12;
  TrainConfig cfg;
  cfg.batch_size = 7;
  cfg.epochs = 1;

  std::vector<Weights> starts(kJobs);
  std::vector<Weights> want(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    Network seed_net = proto;
    util::Rng init{200 + j};
    seed_net.init_params(init);
    starts[j] = seed_net.weights();
    Network fresh = proto;
    fresh.set_weights(starts[j]);
    util::Rng rng{300 + j};
    train_sgd(fresh, data, cfg, rng);
    want[j] = fresh.weights();
  }

  std::vector<Weights> got(kJobs);
  util::ThreadPool& threads = util::ThreadPool::global();
  threads.parallel_for(kJobs, [&](std::size_t j) {
    const NetworkPool::Lease net = pool.lease(starts[j]);
    util::Rng rng{300 + j};
    train_sgd(*net, data, cfg, rng);
    got[j] = net->weights();
  });
  for (std::size_t j = 0; j < kJobs; ++j) {
    EXPECT_TRUE(bitwise_equal(got[j], want[j])) << "job " << j;
  }
  EXPECT_GE(pool.built(), 1U);
  EXPECT_LE(pool.built(), threads.size());
}

INSTANTIATE_TEST_SUITE_P(Models, LeaseOracle, ::testing::ValuesIn(kModels),
                         [](const auto& info) {
                           return std::string{info.param.name};
                         });

TEST(NetworkPool, LeaseRejectsMismatchedWeightsAndKeepsTheNetwork) {
  NetworkPool pool{make_logreg(8, 3)};
  const Weights wrong{Tensor{{2, 2}}};
  EXPECT_THROW((void)pool.lease(wrong), std::invalid_argument);
  const NetworkPool::Lease net = pool.lease(pool.prototype().weights());
  EXPECT_EQ(pool.built(), 1U);  // the throwing lease's network came back
}

// ------------------------------------------------ inference vs training --

/// One layer fed batches of several sizes, in training mode and in
/// inference mode, each on its own warm copy: the forward outputs must be
/// bit-identical, and the inference copy must hold nothing for backward,
/// not even what a training pass before the switch cached.
void expect_inference_matches_training(const Layer& layer,
                                       std::vector<std::size_t> sample_shape,
                                       bool inference_backward_throws) {
  SCOPED_TRACE(layer.name());
  auto training = layer.clone();
  auto inference = layer.clone();
  training->set_training(true);
  util::Rng rng{5};
  const auto batch_of = [&](std::size_t batch) {
    std::vector<std::size_t> shape{batch};
    shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
    Tensor x{shape};
    testing::randomize(x, rng, 1.0);
    return x;
  };
  (void)inference->forward(batch_of(5));  // a cache to forget
  inference->set_training(false);
  for (std::size_t batch : {5U, 3U, 6U, 5U}) {
    const Tensor x = batch_of(batch);
    const Tensor want = training->forward(x);
    const Tensor& got = inference->forward(x);
    ASSERT_TRUE(bitwise_equal(got, want)) << "batch " << batch;
    EXPECT_EQ(inference->flops_per_sample(), training->flops_per_sample());
    if (inference_backward_throws) {
      EXPECT_THROW((void)inference->backward(want), std::logic_error);
    }
  }
}

TEST(InferenceForward, EqualsTrainingForwardForEveryLayerType) {
  util::Rng rng{9};
  Linear linear{12, 7};
  linear.init_params(rng);
  expect_inference_matches_training(linear, {12}, true);

  Conv2D conv{2, 3, 3};
  conv.init_params(rng);
  expect_inference_matches_training(conv, {2, 9, 8}, true);
  Conv2D strided{2, 4, 3, 2, 1};
  strided.init_params(rng);
  expect_inference_matches_training(strided, {2, 9, 9}, true);

  expect_inference_matches_training(MaxPool2D{}, {3, 7, 6}, true);
  expect_inference_matches_training(ReLU{}, {4, 5}, true);
  expect_inference_matches_training(Flatten{}, {2, 3, 4}, false);
}

TEST(InferenceForward, PaperCnnNetworkEqualsTrainingForward) {
  const Network proto = prototype_of(kModels[0]);
  Network training = proto;
  Network inference = proto;
  training.set_training(true);
  inference.set_training(false);
  util::Rng rng{4};
  for (std::size_t batch : {4U, 1U, 4U}) {
    Tensor x{{batch, 3, 16, 16}};
    testing::randomize(x, rng, 1.0);
    EXPECT_TRUE(bitwise_equal(inference.forward(x), training.forward(x)));
  }
}

// ------------------------------------------------------------- MlService --

TEST(MlServicePool, TrainAsyncMatchesTrainAndOutlivesTheService) {
  const DatasetView data = random_view({24}, 33, kClasses, 21);
  const Network proto = prototype_of(kModels[1]);
  TrainConfig cfg;
  cfg.batch_size = 8;

  std::vector<std::shared_future<core::TrainResult>> jobs;
  core::TrainResult want;
  {
    const core::MlService ml{proto, data};
    util::Rng init{5};
    const Weights start = ml.fresh_weights(init);
    want = ml.train(start, data, cfg, util::Rng{6});
    for (int i = 0; i < 6; ++i) {
      jobs.push_back(ml.train_async(start, data, cfg, util::Rng{6}).share());
    }
  }  // the service goes; its queued jobs hold what they read
  for (const auto& job : jobs) {
    const core::TrainResult& got = core::MlService::await(job);
    EXPECT_TRUE(bitwise_equal(got.weights, want.weights));
    expect_same_report(got.report, want.report);
  }
}

TEST(MlServicePool, TrainAsyncDeliversTheJobsException) {
  const DatasetView data = random_view({24}, 8, kClasses, 22);
  const core::MlService ml{prototype_of(kModels[2]), data};
  const Weights wrong{Tensor{{1}}};
  auto job = ml.train_async(wrong, data, TrainConfig{}, util::Rng{1}).share();
  EXPECT_THROW((void)core::MlService::await(job), std::invalid_argument);
}

}  // namespace
}  // namespace roadrunner::ml
