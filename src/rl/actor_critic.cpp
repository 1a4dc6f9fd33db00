#include "rl/actor_critic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dosc::rl {

std::vector<double> softmax(std::span<const double> logits) {
  std::vector<double> probs;
  softmax_into(logits, probs);
  return probs;
}

void softmax_into(std::span<const double> logits, std::vector<double>& probs) {
  probs.resize(logits.size());
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::exp(logits[i] - max_logit);
    sum += probs[i];
  }
  for (double& p : probs) p /= sum;
}

double log_softmax_at(std::span<const double> logits, std::size_t index) {
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (const double z : logits) sum += std::exp(z - max_logit);
  return logits[index] - max_logit - std::log(sum);
}

double softmax_entropy(std::span<const double> logits) {
  thread_local std::vector<double> probs;  // scratch: no steady-state allocation
  softmax_into(logits, probs);
  double h = 0.0;
  for (const double p : probs) {
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

namespace {

std::vector<std::size_t> layer_sizes(std::size_t in, const std::vector<std::size_t>& hidden,
                                     std::size_t out) {
  std::vector<std::size_t> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

std::vector<std::size_t> actor_sizes(const ActorCriticConfig& c) {
  return layer_sizes(c.obs_dim, c.hidden, c.num_actions);
}

std::vector<std::size_t> critic_sizes(const ActorCriticConfig& c) {
  return layer_sizes(c.obs_dim, c.hidden, 1);
}

const ActorCriticConfig& checked(const ActorCriticConfig& config) {
  if (config.obs_dim == 0 || config.num_actions == 0) {
    throw std::invalid_argument("ActorCritic: obs_dim and num_actions must be > 0");
  }
  return config;
}

/// The actor's leading share of a flat actor+critic vector. Too short a
/// vector throws here; the critic's constructor rejects a wrong remainder.
std::span<const double> actor_share(const ActorCriticConfig& c, std::span<const double> flat) {
  const std::size_t n = nn::Mlp::parameter_count(actor_sizes(c));
  if (flat.size() < n) throw std::invalid_argument("ActorCritic: parameter count mismatch");
  return flat.first(n);
}

}  // namespace

ActorCritic::ActorCritic(const ActorCriticConfig& config)
    : config_(checked(config)),
      actor_(actor_sizes(config), nn::Activation::kTanh, nn::Activation::kLinear,
             config.seed * 2 + 1),
      critic_(critic_sizes(config), nn::Activation::kTanh, nn::Activation::kLinear,
              config.seed * 2 + 2, /*head_stddev=*/1.0) {}

ActorCritic::ActorCritic(const ActorCriticConfig& config, std::span<const double> parameters)
    : config_(checked(config)),
      actor_(actor_sizes(config), nn::Activation::kTanh, nn::Activation::kLinear,
             actor_share(config, parameters)),
      critic_(critic_sizes(config), nn::Activation::kTanh, nn::Activation::kLinear,
              parameters.subspan(actor_.num_parameters())) {}

nn::Matrix ActorCritic::to_row(std::span<const double> obs) const {
  if (obs.size() != config_.obs_dim) {
    throw std::invalid_argument("ActorCritic: observation size mismatch");
  }
  nn::Matrix row(1, obs.size());
  std::copy(obs.begin(), obs.end(), row.data());
  return row;
}

namespace {
// Per-thread scratch for the allocation-free inference fast path; safe for
// concurrent use of one shared const ActorCritic across worker threads.
thread_local nn::Mlp::Scratch t_scratch;
thread_local std::vector<double> t_logits;
thread_local std::vector<double> t_probs;
}  // namespace

const std::vector<double>& ActorCritic::action_probs(std::span<const double> obs) const {
  actor_.predict_row(obs, t_logits, t_scratch);
  softmax_into(t_logits, t_probs);
  return t_probs;
}

int ActorCritic::sample_action(std::span<const double> obs, util::Rng& rng) const {
  return sample_action(obs, rng, nullptr);
}

int ActorCritic::sample_action(std::span<const double> obs, util::Rng& rng,
                               double* logp) const {
  actor_.predict_row(obs, t_logits, t_scratch);
  return sample_action_from_logits(t_logits, rng, logp);
}

int ActorCritic::sample_action_from_logits(std::span<const double> logits,
                                           util::Rng& rng, double* logp) {
  softmax_into(logits, t_probs);
  // Inline CDF walk over the softmax scratch, replicating
  // util::Rng::categorical step for step (total in index order, the
  // degenerate-weights guard before any draw, one uniform(0, total) sample,
  // subtraction walk): the engine consumption — and with it every
  // downstream random stream — stays bit-identical to the vector version.
  double total = 0.0;
  for (const double p : t_probs) total += p;
  int action;
  if (total <= 0.0 || t_probs.empty()) {
    action = t_probs.empty() ? 0 : static_cast<int>(t_probs.size()) - 1;
  } else {
    action = static_cast<int>(t_probs.size()) - 1;
    double u = rng.uniform(0.0, total);
    for (std::size_t i = 0; i < t_probs.size(); ++i) {
      u -= t_probs[i];
      if (u <= 0.0) {
        action = static_cast<int>(i);
        break;
      }
    }
  }
  if (logp != nullptr) {
    const double p = t_probs.empty() ? 1.0 : t_probs[static_cast<std::size_t>(action)];
    *logp = std::log(std::max(p, 1e-300));
  }
  return action;
}

int ActorCritic::greedy_action(std::span<const double> obs) const {
  actor_.predict_row(obs, t_logits, t_scratch);
  return greedy_action_from_logits(t_logits);
}

int ActorCritic::greedy_action_from_logits(std::span<const double> logits) {
  return static_cast<int>(std::max_element(logits.begin(), logits.end()) -
                          logits.begin());
}

double ActorCritic::value(std::span<const double> obs) const {
  critic_.predict_row(obs, t_logits, t_scratch);
  return t_logits[0];
}

std::vector<double> ActorCritic::get_parameters() const {
  std::vector<double> flat = actor_.get_parameters();
  const std::vector<double> critic_params = critic_.get_parameters();
  flat.insert(flat.end(), critic_params.begin(), critic_params.end());
  return flat;
}

void ActorCritic::set_parameters(std::span<const double> flat) {
  const std::size_t actor_n = actor_.num_parameters();
  if (flat.size() != actor_n + critic_.num_parameters()) {
    throw std::invalid_argument("ActorCritic: parameter count mismatch");
  }
  actor_.set_parameters(flat.first(actor_n));
  critic_.set_parameters(flat.subspan(actor_n));
}

}  // namespace dosc::rl
