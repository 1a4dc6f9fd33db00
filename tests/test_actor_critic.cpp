#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "rl/actor_critic.hpp"

namespace dosc::rl {
namespace {

TEST(Softmax, SumsToOneAndOrders) {
  const std::vector<double> logits{1.0, 2.0, 3.0};
  const std::vector<double> p = softmax(logits);
  double sum = 0.0;
  for (const double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
}

TEST(Softmax, StableUnderLargeLogits) {
  const std::vector<double> logits{1000.0, 1001.0, 999.0};
  const std::vector<double> p = softmax(logits);
  for (const double v : p) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
  EXPECT_GT(p[1], p[0]);
}

TEST(Softmax, LogSoftmaxConsistent) {
  const std::vector<double> logits{0.3, -1.2, 2.0, 0.0};
  const std::vector<double> p = softmax(logits);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    EXPECT_NEAR(log_softmax_at(logits, i), std::log(p[i]), 1e-10);
  }
}

TEST(Softmax, EntropyBounds) {
  // Uniform logits -> max entropy log(n); a dominant logit -> near 0.
  EXPECT_NEAR(softmax_entropy(std::vector<double>{1.0, 1.0, 1.0, 1.0}), std::log(4.0), 1e-9);
  EXPECT_LT(softmax_entropy(std::vector<double>{100.0, 0.0, 0.0, 0.0}), 1e-6);
}

TEST(ActorCritic, ConstructionValidates) {
  ActorCriticConfig bad;
  bad.obs_dim = 0;
  bad.num_actions = 3;
  EXPECT_THROW(ActorCritic{bad}, std::invalid_argument);
}

ActorCritic make_net(std::uint64_t seed = 1) {
  ActorCriticConfig config;
  config.obs_dim = 6;
  config.num_actions = 4;
  config.hidden = {16, 16};
  config.seed = seed;
  return ActorCritic(config);
}

TEST(ActorCritic, ProbsValidDistribution) {
  const ActorCritic net = make_net();
  const std::vector<double> obs(6, 0.3);
  const std::vector<double> p = net.action_probs(obs);
  ASSERT_EQ(p.size(), 4u);
  double sum = 0.0;
  for (const double v : p) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ActorCritic, ObservationSizeChecked) {
  const ActorCritic net = make_net();
  util::Rng rng(1);
  EXPECT_THROW(net.action_probs(std::vector<double>(5)), std::invalid_argument);
  EXPECT_THROW(net.value(std::vector<double>(7)), std::invalid_argument);
}

TEST(ActorCritic, SamplingMatchesProbs) {
  const ActorCritic net = make_net(3);
  const std::vector<double> obs{0.1, -0.5, 1.0, 0.0, 0.7, -1.0};
  const std::vector<double> p = net.action_probs(obs);
  util::Rng rng(4);
  std::vector<int> counts(4, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[net.sample_action(obs, rng)];
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_NEAR(static_cast<double>(counts[a]) / n, p[a], 0.02) << "action " << a;
  }
}

TEST(ActorCritic, GreedyIsArgmax) {
  const ActorCritic net = make_net(5);
  util::Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> obs(6);
    for (double& o : obs) o = rng.uniform(-1.0, 1.0);
    const std::vector<double> p = net.action_probs(obs);
    const int greedy = net.greedy_action(obs);
    for (std::size_t a = 0; a < p.size(); ++a) {
      EXPECT_LE(p[a], p[static_cast<std::size_t>(greedy)] + 1e-12);
    }
  }
}

TEST(ActorCritic, ParameterRoundTripPreservesBehaviour) {
  const ActorCritic a = make_net(7);
  ActorCritic b = make_net(8);
  b.set_parameters(a.get_parameters());
  const std::vector<double> obs{0.2, 0.4, -0.3, 0.9, -0.8, 0.0};
  const auto pa = a.action_probs(obs);
  const auto pb = b.action_probs(obs);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
  EXPECT_DOUBLE_EQ(a.value(obs), b.value(obs));
  EXPECT_THROW(b.set_parameters(std::vector<double>(5)), std::invalid_argument);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ActorCritic, ParameterConstructorMatchesSetParameters) {
  // ActorCritic(config, p) — no random draw — is ActorCritic(config) +
  // set_parameters(p) bit for bit: parameters, per-row and batched actor
  // forwards, and the critic's value. At the paper's 2x256 and on a
  // 3-hidden-layer net.
  for (const std::vector<std::size_t>& hidden :
       {std::vector<std::size_t>{256, 256}, std::vector<std::size_t>{32, 48, 24}}) {
    ActorCriticConfig config;
    config.obs_dim = 23;
    config.num_actions = 5;
    config.hidden = hidden;
    config.seed = 1;
    const std::vector<double> p = ActorCritic(config).get_parameters();
    config.seed = 2;  // the overwritten init must not matter
    ActorCritic reference(config);
    reference.set_parameters(p);
    const ActorCritic built(config, p);
    EXPECT_TRUE(same_bits(built.get_parameters(), reference.get_parameters()));
    EXPECT_TRUE(same_bits(built.get_parameters(), p));

    util::Rng rng(9);
    std::vector<double> obs(32 * config.obs_dim);
    for (double& o : obs) o = rng.uniform(-1.0, 1.0);
    const std::span<const double> row0(obs.data(), config.obs_dim);
    nn::Mlp::Scratch rs;
    std::vector<double> a, b;
    reference.actor().predict_row(row0, a, rs);
    built.actor().predict_row(row0, b, rs);
    EXPECT_TRUE(same_bits(a, b));
    nn::Mlp::BatchScratch bs;
    for (const std::size_t batch : {1u, 5u, 32u}) {
      reference.actor().predict_batch(obs.data(), batch, a, bs);
      built.actor().predict_batch(obs.data(), batch, b, bs);
      EXPECT_TRUE(same_bits(a, b)) << "batch " << batch;
    }
    for (std::size_t r = 0; r < 32; ++r) {
      const std::span<const double> row(obs.data() + r * config.obs_dim, config.obs_dim);
      const double va = reference.value(row);
      const double vb = built.value(row);
      EXPECT_EQ(std::memcmp(&va, &vb, sizeof(double)), 0) << "row " << r;
    }

    const std::vector<double> short_p(p.begin(), p.end() - 1);
    std::vector<double> long_p = p;
    long_p.push_back(0.0);
    EXPECT_THROW(ActorCritic(config, short_p), std::invalid_argument);
    EXPECT_THROW(ActorCritic(config, long_p), std::invalid_argument);
    EXPECT_THROW(ActorCritic(config, std::vector<double>{}), std::invalid_argument);
  }
}

TEST(ActorCritic, DifferentSeedsDifferentPolicies) {
  const ActorCritic a = make_net(1);
  const ActorCritic b = make_net(2);
  const std::vector<double> obs(6, 0.5);
  const auto pa = a.action_probs(obs);
  const auto pb = b.action_probs(obs);
  bool differs = false;
  for (std::size_t i = 0; i < pa.size(); ++i) differs |= (std::abs(pa[i] - pb[i]) > 1e-9);
  EXPECT_TRUE(differs);
}

TEST(ActorCritic, PaperDefaultsAreTwoHiddenLayers) {
  ActorCriticConfig config;
  EXPECT_EQ(config.hidden.size(), 2u);
  EXPECT_EQ(config.hidden[0], 256u);
  EXPECT_EQ(config.hidden[1], 256u);
}

}  // namespace
}  // namespace dosc::rl
