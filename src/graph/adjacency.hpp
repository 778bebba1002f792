// Undirected weighted graph in CSR form: the connectivity graph of a sensor
// network, with measured distances as edge weights.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace bnloc {

struct Edge {
  std::size_t u = 0;
  std::size_t v = 0;
  double weight = 0.0;  ///< measured (noisy) distance on this link.
};

struct Neighbor {
  std::size_t node = 0;
  double weight = 0.0;
};

class Graph {
 public:
  Graph() = default;
  /// Builds a CSR graph from an undirected edge list over `node_count`
  /// vertices. Each edge appears in both endpoints' neighbor lists.
  Graph(std::size_t node_count, std::span<const Edge> edges);

  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return entries_.size() / 2;
  }
  [[nodiscard]] std::span<const Neighbor> neighbors(std::size_t u) const;
  [[nodiscard]] std::size_t degree(std::size_t u) const;
  [[nodiscard]] double average_degree() const noexcept;
  [[nodiscard]] bool has_edge(std::size_t u, std::size_t v) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> offsets_;  ///< size n_+1
  std::vector<Neighbor> entries_;
};

// Directed link slots. Entry k of v's neighbor list is slot offset(v) + k,
// where offset(v) sums the degrees of the nodes before v: the
// receiver-grouped CSR that the radios, the transport and the engines index
// links by. Slot offset(v) + k carries the link neighbors(v)[k] -> v.

/// For every slot, the slot of the opposite direction: for s carrying
/// u -> v, the slot carrying v -> u (with parallel edges, the first such
/// entry of u's list). Built by a scan of each sender's list, in
/// O(sum of squared degrees).
[[nodiscard]] std::vector<std::uint32_t> reverse_slots(const Graph& g);

/// Undirected link index of every slot, given `reverse = reverse_slots(g)`:
/// both directions of a link share one index, and indices are numbered in
/// the order the slots first reach each neighbor pair.
[[nodiscard]] std::vector<std::uint32_t> undirected_links(
    std::span<const std::uint32_t> reverse);

}  // namespace bnloc
