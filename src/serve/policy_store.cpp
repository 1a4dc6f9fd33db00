#include "serve/policy_store.hpp"

#include <stdexcept>
#include <string>

#include "core/policy_io.hpp"

namespace dosc::serve {

ServePolicy::ServePolicy(const core::TrainedPolicy& policy, std::uint32_t version_arg)
    : net(policy.instantiate()), version(version_arg), max_degree(policy.max_degree) {}

std::unique_ptr<const ServePolicy> make_serve_policy(const core::TrainedPolicy& policy,
                                                     std::size_t network_max_degree,
                                                     std::uint32_t version) {
  core::validate_policy(policy);
  const rl::ActorCriticConfig& c = policy.net_config;
  if (c.obs_dim != core::observation_dim(policy.max_degree) ||
      c.num_actions != policy.max_degree + 1) {
    throw std::runtime_error(
        "serve: policy does not use the distributed observation layout "
        "(obs_dim/num_actions inconsistent with max_degree)");
  }
  if (policy.max_degree < network_max_degree) {
    throw std::runtime_error("serve: policy padded degree " +
                             std::to_string(policy.max_degree) +
                             " is smaller than the scenario's max degree " +
                             std::to_string(network_max_degree));
  }
  auto serve_policy = std::make_unique<ServePolicy>(policy, version);
  // Touch the fast path once so the GEMV panels and GEMM slabs are packed
  // before the snapshot is visible to workers (the pack is lazy and
  // mutex-guarded; a cold swap would otherwise briefly serialize the first
  // decides).
  std::vector<double> obs(c.obs_dim, 0.0), logits;
  nn::Mlp::Scratch scratch;
  serve_policy->net.actor().predict_row(obs, logits, scratch);
  return serve_policy;
}

}  // namespace dosc::serve
