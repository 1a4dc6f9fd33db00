#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dosc::net {

Network::Network(std::string name, std::vector<Node> nodes, std::vector<Link> links)
    : name_(std::move(name)), nodes_(std::move(nodes)), links_(std::move(links)) {
  if (nodes_.empty()) throw std::invalid_argument("Network: at least one node required");
  for (const Link& l : links_) {
    if (l.a >= nodes_.size() || l.b >= nodes_.size()) {
      throw std::invalid_argument("Network: link endpoint out of range");
    }
    if (l.a == l.b) throw std::invalid_argument("Network: self-loop");
    if (l.delay < 0.0 || l.capacity < 0.0) {
      throw std::invalid_argument("Network: negative link delay or capacity");
    }
  }
  rebuild_caches();
}

void Network::rebuild_caches() {
  adjacency_.assign(nodes_.size(), {});
  for (LinkId l = 0; l < links_.size(); ++l) {
    adjacency_[links_[l].a].push_back({links_[l].b, l});
    adjacency_[links_[l].b].push_back({links_[l].a, l});
  }
  max_degree_ = 0;
  min_degree_ = nodes_.empty() ? 0 : std::numeric_limits<std::size_t>::max();
  for (auto& list : adjacency_) {
    std::sort(list.begin(), list.end(),
              [](const Neighbor& x, const Neighbor& y) { return x.node < y.node; });
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i].node == list[i - 1].node) {
        throw std::invalid_argument("Network: duplicate link between node pair");
      }
    }
    max_degree_ = std::max(max_degree_, list.size());
    min_degree_ = std::min(min_degree_, list.size());
  }
  max_node_capacity_ = 0.0;
  for (const Node& n : nodes_) max_node_capacity_ = std::max(max_node_capacity_, n.capacity);
}

std::optional<LinkId> Network::find_link(NodeId u, NodeId v) const noexcept {
  if (u >= adjacency_.size()) return std::nullopt;
  for (const Neighbor& n : adjacency_[u]) {
    if (n.node == v) return n.link;
  }
  return std::nullopt;
}

double Network::avg_degree() const noexcept {
  return 2.0 * static_cast<double>(links_.size()) / static_cast<double>(nodes_.size());
}

double Network::max_neighbor_link_capacity(NodeId v) const {
  double best = 0.0;
  for (const Neighbor& n : neighbors(v)) best = std::max(best, links_[n.link].capacity);
  return best;
}

void Network::set_node_capacity(NodeId v, double capacity) {
  if (capacity < 0.0) throw std::invalid_argument("negative node capacity");
  nodes_.at(v).capacity = capacity;
  max_node_capacity_ = 0.0;
  for (const Node& n : nodes_) max_node_capacity_ = std::max(max_node_capacity_, n.capacity);
}

void Network::set_link_capacity(LinkId l, double capacity) {
  if (capacity < 0.0) throw std::invalid_argument("negative link capacity");
  links_.at(l).capacity = capacity;
}

void Network::assign_random_capacities(util::Rng& rng, double node_lo, double node_hi,
                                       double link_lo, double link_hi) {
  for (Node& n : nodes_) n.capacity = rng.uniform(node_lo, node_hi);
  for (Link& l : links_) l.capacity = rng.uniform(link_lo, link_hi);
  max_node_capacity_ = 0.0;
  for (const Node& n : nodes_) max_node_capacity_ = std::max(max_node_capacity_, n.capacity);
}

bool Network::connected() const {
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<NodeId> stack{0};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (const Neighbor& n : adjacency_[v]) {
      if (!seen[n.node]) {
        seen[n.node] = 1;
        ++visited;
        stack.push_back(n.node);
      }
    }
  }
  return visited == nodes_.size();
}

NodeId NetworkBuilder::add_node(std::string node_name, double capacity, double x, double y) {
  nodes_.push_back({std::move(node_name), capacity, x, y});
  return static_cast<NodeId>(nodes_.size() - 1);
}

LinkId NetworkBuilder::add_link(NodeId a, NodeId b, double delay, double capacity) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::invalid_argument("NetworkBuilder: link endpoint out of range");
  }
  if (a == b) throw std::invalid_argument("NetworkBuilder: self-loop");
  if (!link_keys_.insert(link_key(a, b)).second) {
    throw std::invalid_argument("NetworkBuilder: duplicate link");
  }
  links_.push_back({a, b, delay, capacity});
  return static_cast<LinkId>(links_.size() - 1);
}

std::uint64_t NetworkBuilder::link_key(NodeId a, NodeId b) noexcept {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

bool NetworkBuilder::has_link(NodeId a, NodeId b) const noexcept {
  return link_keys_.count(link_key(a, b)) != 0;
}

std::size_t NetworkBuilder::degree(NodeId v) const {
  std::size_t d = 0;
  for (const Link& l : links_) {
    if (l.a == v || l.b == v) ++d;
  }
  return d;
}

Network NetworkBuilder::build() && {
  return Network(std::move(name_), std::move(nodes_), std::move(links_));
}

double node_distance(const Node& a, const Node& b) noexcept {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace dosc::net
