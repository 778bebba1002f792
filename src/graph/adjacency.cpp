#include "graph/adjacency.hpp"

#include <algorithm>
#include <limits>

#include "support/assert.hpp"

namespace bnloc {

Graph::Graph(std::size_t node_count, std::span<const Edge> edges)
    : n_(node_count), offsets_(node_count + 1, 0) {
  for (const Edge& e : edges) {
    BNLOC_ASSERT(e.u < n_ && e.v < n_, "edge endpoint out of range");
    BNLOC_ASSERT(e.u != e.v, "self-loops are not meaningful here");
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  for (std::size_t i = 1; i <= n_; ++i) offsets_[i] += offsets_[i - 1];
  entries_.resize(offsets_[n_]);
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : edges) {
    entries_[cursor[e.u]++] = {e.v, e.weight};
    entries_[cursor[e.v]++] = {e.u, e.weight};
  }
}

std::span<const Neighbor> Graph::neighbors(std::size_t u) const {
  BNLOC_ASSERT(u < n_, "node index out of range");
  return {entries_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
}

std::size_t Graph::degree(std::size_t u) const {
  BNLOC_ASSERT(u < n_, "node index out of range");
  return offsets_[u + 1] - offsets_[u];
}

double Graph::average_degree() const noexcept {
  if (n_ == 0) return 0.0;
  return static_cast<double>(entries_.size()) / static_cast<double>(n_);
}

bool Graph::has_edge(std::size_t u, std::size_t v) const {
  for (const Neighbor& nb : neighbors(u))
    if (nb.node == v) return true;
  return false;
}

std::vector<std::uint32_t> reverse_slots(const Graph& g) {
  const std::size_t n = g.node_count();
  std::vector<std::size_t> offset(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v)
    offset[v + 1] = offset[v] + g.degree(v);
  BNLOC_ASSERT(offset[n] <= std::numeric_limits<std::uint32_t>::max(),
               "directed slots must fit 32 bits");
  std::vector<std::uint32_t> reverse(offset[n]);
  for (std::size_t v = 0; v < n; ++v) {
    const auto nbs = g.neighbors(v);
    for (std::size_t k = 0; k < nbs.size(); ++k) {
      const std::size_t u = nbs[k].node;
      const auto back = g.neighbors(u);
      const auto it =
          std::find_if(back.begin(), back.end(),
                       [v](const Neighbor& b) { return b.node == v; });
      reverse[offset[v] + k] =
          static_cast<std::uint32_t>(offset[u] + (it - back.begin()));
    }
  }
  return reverse;
}

std::vector<std::uint32_t> undirected_links(
    std::span<const std::uint32_t> reverse) {
  std::vector<std::uint32_t> link(reverse.size());
  std::uint32_t count = 0;
  for (std::size_t s = 0; s < reverse.size(); ++s) {
    // reverse[s] is the first slot of the opposite direction and
    // reverse[reverse[s]] the first of s's own (s itself unless parallel
    // edges repeat it), so the pair's first slot is the smaller of the two.
    const std::size_t first =
        std::min<std::size_t>(reverse[s], reverse[reverse[s]]);
    link[s] = first == s ? count++ : link[first];
  }
  return link;
}

}  // namespace bnloc
