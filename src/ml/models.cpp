#include "ml/models.hpp"

#include <stdexcept>

namespace roadrunner::ml {

Network make_paper_cnn(std::size_t channels, std::size_t side,
                       std::size_t classes) {
  if (side < 16) {
    throw std::invalid_argument{"make_paper_cnn: side must be >= 16"};
  }
  // Spatial plan for side=32: 32 -conv5-> 28 -pool-> 14 -conv5-> 10 -pool-> 5.
  const std::size_t after_conv1 = side - 4;
  const std::size_t after_pool1 = after_conv1 / 2;
  const std::size_t after_conv2 = after_pool1 - 4;
  const std::size_t after_pool2 = after_conv2 / 2;
  const std::size_t flat = 16 * after_pool2 * after_pool2;

  Network net;
  net.append(std::make_unique<Conv2D>(channels, 6, 5));
  net.append(std::make_unique<ReLU>());
  net.append(std::make_unique<MaxPool2D>());
  net.append(std::make_unique<Conv2D>(6, 16, 5));
  net.append(std::make_unique<ReLU>());
  net.append(std::make_unique<MaxPool2D>());
  net.append(std::make_unique<Flatten>());
  net.append(std::make_unique<Linear>(flat, 120));
  net.append(std::make_unique<ReLU>());
  net.append(std::make_unique<Linear>(120, 84));
  net.append(std::make_unique<ReLU>());
  net.append(std::make_unique<Linear>(84, classes));
  return net;
}

Network make_mlp(std::size_t input_size, std::size_t hidden,
                 std::size_t classes) {
  Network net;
  net.append(std::make_unique<Flatten>());
  net.append(std::make_unique<Linear>(input_size, hidden));
  net.append(std::make_unique<ReLU>());
  net.append(std::make_unique<Linear>(hidden, hidden));
  net.append(std::make_unique<ReLU>());
  net.append(std::make_unique<Linear>(hidden, classes));
  return net;
}

Network make_logreg(std::size_t input_size, std::size_t classes) {
  Network net;
  net.append(std::make_unique<Flatten>());
  net.append(std::make_unique<Linear>(input_size, classes));
  return net;
}

Network make_model(const std::string& name,
                   const std::vector<std::size_t>& input_shape,
                   std::size_t classes) {
  const std::size_t flat = shape_volume(input_shape);
  if (name == "paper_cnn") {
    if (input_shape.size() != 3 || input_shape[1] != input_shape[2]) {
      throw std::invalid_argument{
          "make_model: paper_cnn needs [C, S, S] input shape"};
    }
    return make_paper_cnn(input_shape[0], input_shape[1], classes);
  }
  if (name == "mlp") return make_mlp(flat, 128, classes);
  if (name == "logreg") return make_logreg(flat, classes);
  throw std::invalid_argument{"make_model: unknown model '" + name + "'"};
}

void prime_and_init(Network& net,
                    const std::vector<std::size_t>& input_shape,
                    util::Rng& rng) {
  std::vector<std::size_t> batch_shape{1};
  batch_shape.insert(batch_shape.end(), input_shape.begin(),
                     input_shape.end());
  Tensor dummy{batch_shape};
  net.forward(dummy);  // fixes spatial dims for flops accounting
  net.init_params(rng);
}

}  // namespace roadrunner::ml
