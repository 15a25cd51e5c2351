// Model zoo: factory functions for the architectures used in the paper's
// evaluation plus lighter alternatives for fast experiments (Req. 2 asks for
// "support for various types of ML models").
#pragma once

#include <cstdint>
#include <vector>

#include "ml/net.hpp"
#include "util/rng.hpp"

namespace roadrunner::ml {

/// The paper's CNN (§5.2): "two convolutional layers with max pooling
/// followed by three fully connected layers" — the classic PyTorch CIFAR-10
/// tutorial network: Conv(3->6,5) -> Pool -> Conv(6->16,5) -> Pool ->
/// FC(400->120) -> FC(120->84) -> FC(84->classes), ReLU between layers.
/// Input [N, channels, side, side]; side must leave valid conv/pool dims
/// (side >= 16; 32 for the paper's configuration).
Network make_paper_cnn(std::size_t channels = 3, std::size_t side = 32,
                       std::size_t classes = 10);

/// Two-hidden-layer MLP over flattened inputs — a cheap stand-in used by
/// fast benches and tests.
Network make_mlp(std::size_t input_size, std::size_t hidden,
                 std::size_t classes);

/// Multinomial logistic regression (single Linear layer) — the minimal
/// model; useful to isolate strategy effects from model capacity.
Network make_logreg(std::size_t input_size, std::size_t classes);

/// Builds one of the above by name ("paper_cnn", "mlp", "logreg"); the
/// scenario layer uses this for config-driven experiments. input_shape is
/// the per-sample shape. Throws std::invalid_argument for unknown names.
Network make_model(const std::string& name,
                   const std::vector<std::size_t>& input_shape,
                   std::size_t classes);

/// Runs a dummy forward pass so spatial dims (and thus flops_per_sample)
/// are fixed, then randomizes parameters with `rng`.
void prime_and_init(Network& net, const std::vector<std::size_t>& input_shape,
                    util::Rng& rng);

}  // namespace roadrunner::ml
