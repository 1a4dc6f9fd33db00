// Optimizers must drive a small regression problem to low loss; KFAC must
// additionally respect its trust region and beat plain SGD per-step on the
// same budget (that's the point of the natural gradient).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string_view>

#include "core/policy_io.hpp"
#include "nn/gemm.hpp"
#include "nn/kfac.hpp"
#include "nn/optimizer.hpp"
#include "nn/parallel.hpp"
#include "util/rng.hpp"

namespace dosc::nn {
namespace {

/// Tiny regression task: learn y = tanh-net(x) to match targets produced by
/// a fixed teacher network. Returns the final MSE after `steps` updates.
double train_regression(Optimizer& opt, Kfac* kfac, std::size_t steps,
                        std::uint64_t seed = 1) {
  util::Rng rng(seed);
  Mlp teacher({3, 8, 2}, Activation::kTanh, Activation::kLinear, 77, 1.0);
  Mlp student({3, 8, 2}, Activation::kTanh, Activation::kLinear, seed, 0.5);

  const std::size_t batch = 32;
  const double base_lr = opt.learning_rate();
  double mse = 0.0;
  for (std::size_t step = 0; step < steps; ++step) {
    // Linear learning-rate decay, as the trainers use in practice (and as
    // the ACKTR paper prescribes); keeps late-stage natural-gradient steps
    // from oscillating around the optimum.
    opt.set_learning_rate(base_lr *
                          std::max(0.05, 1.0 - static_cast<double>(step) /
                                                   static_cast<double>(steps)));
    Matrix x(batch, 3);
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal(0.0, 1.0);
    const Matrix target = teacher.predict(x);
    student.zero_grad();
    const Matrix y = student.forward(x);
    Matrix grad(batch, 2);
    mse = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      const double err = y.data()[i] - target.data()[i];
      mse += err * err / static_cast<double>(y.size());
      grad.data()[i] = 2.0 * err / static_cast<double>(y.size());
    }
    student.backward(grad);
    if (kfac != nullptr) kfac->update_factors(student);
    opt.step(student);
  }
  return mse;
}

TEST(Sgd, ConvergesOnRegression) {
  Sgd opt(0.05, 0.9);
  EXPECT_LT(train_regression(opt, nullptr, 600), 0.03);
}

TEST(RmsProp, ConvergesOnRegression) {
  RmsProp opt(0.005);
  EXPECT_LT(train_regression(opt, nullptr, 600), 0.03);
}

TEST(Adam, ConvergesOnRegression) {
  Adam opt(0.01);
  EXPECT_LT(train_regression(opt, nullptr, 600), 0.03);
}

TEST(Kfac, ConvergesOnRegression) {
  KfacConfig config;
  config.learning_rate = 0.2;
  config.kl_clip = 0.01;
  Kfac opt(config);
  EXPECT_LT(train_regression(opt, &opt, 500), 0.02);
}

TEST(Kfac, BeatsSgdPerStepOnSmallBudget) {
  KfacConfig config;
  config.learning_rate = 0.2;
  config.kl_clip = 0.01;
  Kfac kfac(config);
  const double kfac_loss = train_regression(kfac, &kfac, 60, 2);
  Sgd sgd(0.05);
  const double sgd_loss = train_regression(sgd, nullptr, 60, 2);
  EXPECT_LT(kfac_loss, sgd_loss);
}

TEST(Kfac, StepWithoutFactorsThrows) {
  Kfac opt;
  Mlp net({2, 3, 1}, Activation::kTanh, Activation::kLinear, 1);
  EXPECT_THROW(opt.step(net), std::logic_error);
}

TEST(Kfac, UpdateFactorsRequiresForwardBackward) {
  Kfac opt;
  Mlp net({2, 3, 1}, Activation::kTanh, Activation::kLinear, 1);
  EXPECT_THROW(opt.update_factors(net), std::logic_error);
}

TEST(Kfac, TrustRegionBoundsParameterChange) {
  // With a tiny kl_clip the parameter step must be small even under a huge
  // learning rate and large gradients.
  KfacConfig config;
  config.learning_rate = 100.0;
  config.kl_clip = 1e-6;
  Kfac opt(config);

  util::Rng rng(3);
  Mlp net({3, 6, 2}, Activation::kTanh, Activation::kLinear, 5);
  Matrix x(16, 3);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal(0.0, 1.0);
  Matrix grad(16, 2);
  for (std::size_t i = 0; i < grad.size(); ++i) grad.data()[i] = rng.normal(0.0, 10.0);

  const std::vector<double> before = net.get_parameters();
  net.zero_grad();
  net.forward(x);
  net.backward(grad);
  opt.update_factors(net);
  opt.step(net);
  const std::vector<double> after = net.get_parameters();
  double change = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    change += (after[i] - before[i]) * (after[i] - before[i]);
  }
  EXPECT_LT(std::sqrt(change), 1.0);
}

/// Parameters after a few K-FAC updates of the paper-sized 2x256 net under
/// the given compute-thread budget.
std::vector<double> kfac_parameters_after_updates(std::size_t threads) {
  ComputeThreadsGuard guard(threads);
  util::Rng rng(31);
  Mlp net({20, 256, 256, 5}, Activation::kTanh, Activation::kLinear, 5);
  Kfac kfac;
  const std::size_t batch = 300;
  for (int update = 0; update < 3; ++update) {
    Matrix x(batch, 20);
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal(0.0, 1.0);
    Matrix g(batch, 5);
    for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] = rng.normal(0.0, 1.0) / batch;
    net.zero_grad();
    net.forward(x);
    net.backward(g);
    kfac.update_factors(net);
    kfac.step(net);
  }
  return net.get_parameters();
}

TEST(Kfac, ParametersBitIdenticalAcrossThreadCounts) {
  const std::vector<double> one = kfac_parameters_after_updates(1);
  const std::vector<double> four = kfac_parameters_after_updates(4);
  ASSERT_EQ(one.size(), four.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < one.size(); ++i) {
    if (std::memcmp(&one[i], &four[i], sizeof(double)) != 0) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Kfac, ParametersPinnedAcrossRevisions) {
  // The checksum of the same run as recorded before the tiled Cholesky, the
  // row-wise right solve and the one-fork training forward: any change to
  // an element's chain of operations shows here, whatever the thread count.
  // The value holds for the AVX2+FMA GEMM dispatch only (the baseline
  // kernels round differently).
  if (std::string_view(gemm::isa_name()) != "avx2+fma") {
    GTEST_SKIP() << "pinned at avx2+fma, running " << gemm::isa_name();
  }
  EXPECT_EQ(core::policy_checksum(kfac_parameters_after_updates(4)), 0xa08146498dae9a43ull);
}

TEST(Optimizer, LearningRateSetter) {
  RmsProp opt(0.1);
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.1);
  opt.set_learning_rate(0.02);
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.02);
}

TEST(Sgd, ZeroGradientIsNoOp) {
  Sgd opt(0.1);
  Mlp net({2, 3, 1}, Activation::kTanh, Activation::kLinear, 4);
  const std::vector<double> before = net.get_parameters();
  net.zero_grad();
  opt.step(net);
  const std::vector<double> after = net.get_parameters();
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_DOUBLE_EQ(before[i], after[i]);
}

}  // namespace
}  // namespace dosc::nn
