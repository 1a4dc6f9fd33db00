#include "core/batched_episode.hpp"

#include <algorithm>

namespace dosc::core {

bool YieldingEpisode::advance_to_decision() {
  if (!started_) {
    started_ = true;
    sim_.start(*coordinator_, observer_);
  }
  return sim_.advance_to_decision();
}

void YieldingEpisode::write_observation(std::span<double> out) {
  const std::vector<double>& obs =
      agent_->build_observation(sim_, sim_.pending_flow(), sim_.pending_node());
  std::copy(obs.begin(), obs.end(), out.begin());
}

void YieldingEpisode::apply_logits(std::span<const double> logits) {
  sim_.resume_with_action(agent_->decide_from_logits(sim_.pending_flow(), logits));
}

}  // namespace dosc::core
