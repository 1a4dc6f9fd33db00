// Substrate network model (Sec. III-A of the paper).
//
// An undirected graph G = (V, L). Each node carries a generic compute
// capacity cap_v; each link connects two nodes bidirectionally with a
// propagation delay d_l and a maximum data rate cap_l shared by both
// directions. The model is deliberately tier-free: the paper requires the
// coordination scheme to work on arbitrary topologies, not pre-divided
// fog/edge/cloud layers.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/rng.hpp"

namespace dosc::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr LinkId kInvalidLink = std::numeric_limits<LinkId>::max();

struct Node {
  std::string name;
  double capacity = 0.0;  ///< generic compute capacity cap_v (>= 0)
  double x = 0.0;         ///< planar coordinate, used to derive link delays
  double y = 0.0;
};

struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  double delay = 0.0;     ///< propagation delay d_l in ms
  double capacity = 0.0;  ///< max data rate cap_l, shared by both directions
};

/// One entry of a node's adjacency list. Neighbour order is deterministic
/// (ascending neighbour id), which defines the meaning of "the a-th
/// neighbour" in the action space.
struct Neighbor {
  NodeId node = kInvalidNode;
  LinkId link = kInvalidLink;
};

/// Immutable network topology. Build with NetworkBuilder; the constructor
/// freezes adjacency and validates the structure.
class Network {
 public:
  Network(std::string name, std::vector<Node> nodes, std::vector<Link> links);

  const std::string& name() const noexcept { return name_; }
  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  std::size_t num_links() const noexcept { return links_.size(); }

  const Node& node(NodeId v) const { return nodes_.at(v); }
  const Link& link(LinkId l) const { return links_.at(l); }
  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  const std::vector<Link>& links() const noexcept { return links_; }

  /// Direct neighbours of v, ascending by node id.
  const std::vector<Neighbor>& neighbors(NodeId v) const { return adjacency_.at(v); }
  std::size_t degree(NodeId v) const { return adjacency_.at(v).size(); }

  /// Link between u and v, if any.
  std::optional<LinkId> find_link(NodeId u, NodeId v) const noexcept;

  /// Network degree Delta_G: maximum number of neighbours over all nodes.
  /// Defines observation padding and action space size.
  std::size_t max_degree() const noexcept { return max_degree_; }
  std::size_t min_degree() const noexcept { return min_degree_; }
  double avg_degree() const noexcept;

  /// Maximum node compute capacity over all nodes (for R^V normalisation).
  double max_node_capacity() const noexcept { return max_node_capacity_; }

  /// Maximum link capacity among the outgoing links of v (for R^L
  /// normalisation). Returns 0 for isolated nodes.
  double max_neighbor_link_capacity(NodeId v) const;

  /// Mutable capacity assignment (capacities are scenario inputs drawn per
  /// seed in the evaluation, so they may be re-drawn on a fixed topology).
  void set_node_capacity(NodeId v, double capacity);
  void set_link_capacity(LinkId l, double capacity);

  /// Draw node capacities ~ U[node_lo, node_hi] and link capacities
  /// ~ U[link_lo, link_hi], as in the paper's base scenario (0..2 / 1..5).
  void assign_random_capacities(util::Rng& rng, double node_lo, double node_hi,
                                double link_lo, double link_hi);

  /// True if the graph is connected (ignoring direction).
  bool connected() const;

 private:
  void rebuild_caches();

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<Neighbor>> adjacency_;
  std::size_t max_degree_ = 0;
  std::size_t min_degree_ = 0;
  double max_node_capacity_ = 0.0;
};

/// Incremental construction helper with validation (duplicate links,
/// self-loops, and dangling endpoints are rejected).
class NetworkBuilder {
 public:
  explicit NetworkBuilder(std::string name) : name_(std::move(name)) {}

  /// Returns the id of the new node.
  NodeId add_node(std::string node_name, double capacity = 0.0, double x = 0.0, double y = 0.0);
  /// Returns the id of the new link. Throws on self-loop/duplicate/bad ids.
  LinkId add_link(NodeId a, NodeId b, double delay, double capacity);

  bool has_link(NodeId a, NodeId b) const noexcept;
  std::size_t num_nodes() const noexcept { return nodes_.size(); }
  std::size_t num_links() const noexcept { return links_.size(); }
  std::size_t degree(NodeId v) const;

  Network build() &&;

 private:
  /// Undirected endpoint pair of a link, (min << 32) | max.
  static std::uint64_t link_key(NodeId a, NodeId b) noexcept;

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  /// link_key of every link, so has_link is O(1): the Waxman WAN generator
  /// asks once per node pair.
  std::unordered_set<std::uint64_t> link_keys_;
};

/// Euclidean distance between two nodes' planar coordinates.
double node_distance(const Node& a, const Node& b) noexcept;

}  // namespace dosc::net
