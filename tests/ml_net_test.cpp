#include "ml/net.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "ml/models.hpp"
#include "test_util.hpp"

namespace roadrunner::ml {
namespace {

TEST(Network, AppendAndLayerCount) {
  Network net;
  EXPECT_EQ(net.layer_count(), 0U);
  net.append(std::make_unique<Linear>(2, 3));
  net.append(std::make_unique<ReLU>());
  EXPECT_EQ(net.layer_count(), 2U);
  EXPECT_THROW(net.append(nullptr), std::invalid_argument);
}

TEST(Network, WeightsRoundTrip) {
  util::Rng rng{1};
  Network net = make_mlp(8, 16, 4);
  net.init_params(rng);
  const Weights w = net.weights();
  ASSERT_EQ(w.size(), 6U);  // 3 Linear layers x (W, b)

  Network other = make_mlp(8, 16, 4);
  other.set_weights(w);
  EXPECT_EQ(other.weights(), w);
}

TEST(Network, SetWeightsValidates) {
  Network net = make_mlp(8, 16, 4);
  Weights wrong_count(3);
  EXPECT_THROW(net.set_weights(wrong_count), std::invalid_argument);
  Weights wrong_shape = net.weights();
  wrong_shape[0] = Tensor{{2, 2}};
  EXPECT_THROW(net.set_weights(wrong_shape), std::invalid_argument);
}

TEST(Network, CopyIsDeep) {
  util::Rng rng{2};
  Network net = make_logreg(4, 2);
  net.init_params(rng);
  Network copy = net;
  (*copy.params()[0])[0] += 1.0F;
  EXPECT_NE(net.weights(), copy.weights());
}

TEST(Network, ParameterCountMatchesWeights) {
  Network net = make_mlp(10, 32, 5);
  EXPECT_EQ(net.parameter_count(), weights_parameter_count(net.weights()));
  EXPECT_EQ(net.parameter_count(),
            10U * 32 + 32 + 32U * 32 + 32 + 32U * 5 + 5);
}

TEST(Network, PaperCnnMatchesTutorialArchitecture) {
  Network net = make_paper_cnn();
  // conv1 456 + conv2 2416 + fc1 48120 + fc2 10164 + fc3 850 = 62006,
  // the PyTorch CIFAR-10 tutorial CNN the paper describes.
  EXPECT_EQ(net.parameter_count(), 62006U);
  Tensor x{{1, 3, 32, 32}};
  Tensor y = net.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 10}));
}

TEST(Network, PaperCnnRejectsTinyInput) {
  EXPECT_THROW(make_paper_cnn(3, 12, 10), std::invalid_argument);
}

TEST(Network, FlopsPositiveAfterPriming) {
  util::Rng rng{3};
  Network net = make_paper_cnn();
  prime_and_init(net, {3, 32, 32}, rng);
  EXPECT_GT(net.flops_per_sample(), 500000U);  // conv-dominated
}

TEST(Network, ZeroGradClearsAccumulation) {
  util::Rng rng{4};
  Network net = make_logreg(3, 2);
  net.init_params(rng);
  Tensor x{{2, 3}};
  roadrunner::testing::randomize(x, rng);
  Tensor logits = net.forward(x);
  const auto loss = softmax_cross_entropy(logits, {0, 1});
  net.backward(loss.grad);
  double norm_before = 0;
  for (Tensor* g : net.grads()) norm_before += g->norm();
  EXPECT_GT(norm_before, 0.0);
  net.zero_grad();
  for (Tensor* g : net.grads()) EXPECT_EQ(g->norm(), 0.0);
}

/// Two accumulating steps through backward() and through the training
/// path, backward_params(), from the same weights: every parameter
/// gradient must match bit for bit, though the training path computes no
/// input gradient at the first parameter layer and visits nothing below it.
void expect_backward_params_match(Network net,
                                  const std::vector<std::size_t>& in_shape,
                                  std::size_t classes, util::Rng& rng) {
  Network full = net;
  std::vector<std::size_t> batch_shape{16};
  batch_shape.insert(batch_shape.end(), in_shape.begin(), in_shape.end());
  for (int step = 0; step < 2; ++step) {
    Tensor x{batch_shape};
    roadrunner::testing::randomize(x, rng);
    std::vector<std::int32_t> labels(16);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<std::int32_t>(i % classes);
    }
    const auto loss_full = softmax_cross_entropy(full.forward(x), labels);
    const Tensor dx = full.backward(loss_full.grad);
    EXPECT_EQ(dx.shape(), x.shape());
    const auto loss = softmax_cross_entropy(net.forward(x), labels);
    net.backward_params(loss.grad);
  }
  const auto want = full.grads();
  const auto got = net.grads();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i]->shape(), want[i]->shape());
    EXPECT_EQ(std::memcmp(got[i]->data(), want[i]->data(),
                          got[i]->size() * sizeof(float)),
              0)
        << "gradient tensor " << i;
  }
}

TEST(Network, BackwardParamsMatchesBackwardBitwise) {
  util::Rng rng{5};
  Network cnn = make_paper_cnn();
  prime_and_init(cnn, {3, 32, 32}, rng);
  expect_backward_params_match(cnn, {3, 32, 32}, 10, rng);
  Network mlp = make_mlp(24, 32, 4);
  prime_and_init(mlp, {24}, rng);
  expect_backward_params_match(mlp, {24}, 4, rng);
}

TEST(Network, BackwardParamsWithoutParametersIsANoOp) {
  Network net;
  net.append(std::make_unique<ReLU>());
  Tensor x{{2, 3}};
  net.forward(x);
  EXPECT_NO_THROW(net.backward_params(Tensor{{2, 3}}));
}

TEST(Network, SummaryListsLayers) {
  Network net = make_paper_cnn();
  const std::string s = net.summary();
  EXPECT_NE(s.find("Conv2D"), std::string::npos);
  EXPECT_NE(s.find("MaxPool2D"), std::string::npos);
  EXPECT_NE(s.find("Linear"), std::string::npos);
}

TEST(Network, MakeModelDispatch) {
  EXPECT_NO_THROW(make_model("paper_cnn", {3, 32, 32}, 10));
  EXPECT_NO_THROW(make_model("mlp", {16}, 4));
  EXPECT_NO_THROW(make_model("logreg", {16}, 4));
  EXPECT_THROW(make_model("transformer", {16}, 4), std::invalid_argument);
  EXPECT_THROW(make_model("paper_cnn", {16}, 4), std::invalid_argument);
}

TEST(Weights, ByteSizeFormula) {
  Weights w;
  w.emplace_back(std::vector<std::size_t>{2, 3});
  w.emplace_back(std::vector<std::size_t>{5});
  // 4 (count) + [4 + 8 + 24] + [4 + 4 + 20]
  EXPECT_EQ(weights_byte_size(w), 4U + (4 + 8 + 24) + (4 + 4 + 20));
  EXPECT_EQ(weights_parameter_count(w), 11U);
}

}  // namespace
}  // namespace roadrunner::ml
