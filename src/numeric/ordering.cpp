#include "numeric/ordering.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/error.hpp"

namespace softfet::numeric {

namespace {

/// Epoch-stamped membership set: clear() is O(1), test/insert O(1).
class MarkSet {
 public:
  explicit MarkSet(std::size_t n) : stamp_(n, 0) {}

  void clear() noexcept { ++epoch_; }
  void insert(std::size_t i) noexcept { stamp_[i] = epoch_; }
  [[nodiscard]] bool contains(std::size_t i) const noexcept {
    return stamp_[i] == epoch_;
  }

 private:
  std::vector<std::size_t> stamp_;
  std::size_t epoch_ = 1;
};

}  // namespace

std::vector<std::vector<std::size_t>> pattern_adjacency(
    const SparseMatrix& a) {
  const std::size_t n = a.size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& e : a.row(i)) {
      if (e.col == i) continue;
      adj[i].push_back(e.col);
      adj[e.col].push_back(i);
    }
  }
  for (auto& neighbors : adj) {
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }
  return adj;
}

std::vector<std::size_t> amd_order(
    const std::vector<std::vector<std::size_t>>& adjacency) {
  const std::size_t n = adjacency.size();
  std::vector<std::size_t> order;
  order.reserve(n);
  if (n == 0) return order;

  // Quotient-graph state. A variable i sees plain variable neighbors
  // (var_adj, lazily pruned) plus elements (former pivots) whose member
  // lists stand in for the cliques elimination created. An element that is
  // swallowed by a newer element is "absorbed" and skipped everywhere.
  std::vector<std::vector<std::size_t>> var_adj = adjacency;
  std::vector<std::vector<std::size_t>> var_elems(n);
  std::vector<std::vector<std::size_t>> elem_vars(n);
  std::vector<bool> eliminated(n, false);
  std::vector<bool> absorbed(n, false);
  std::vector<std::size_t> degree(n);
  for (std::size_t i = 0; i < n; ++i) degree[i] = adjacency[i].size();

  // Min-heap of (approximate degree, index) with lazy invalidation: stale
  // entries (degree moved on, or already eliminated) are skipped at pop.
  using Entry = std::pair<std::size_t, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t i = 0; i < n; ++i) heap.emplace(degree[i], i);

  MarkSet in_pivot_clique(n);  // members of the element being formed
  MarkSet seen_elem(n);        // elements already counted this round
  std::vector<std::size_t> external(n, 0);  // |L_e \ L_p| scratch per round
  std::vector<std::size_t> clique;          // L_p of the current pivot
  std::vector<std::size_t> touched_elems;

  const auto prune_eliminated = [&](std::vector<std::size_t>& vars) {
    vars.erase(std::remove_if(vars.begin(), vars.end(),
                              [&](std::size_t v) { return eliminated[v]; }),
               vars.end());
  };

  for (std::size_t k = 0; k < n; ++k) {
    // Select the minimum-degree variable (deterministic: the heap orders by
    // (degree, index) and stale entries are discarded).
    std::size_t p = n;
    while (!heap.empty()) {
      const auto [d, i] = heap.top();
      heap.pop();
      if (!eliminated[i] && degree[i] == d) {
        p = i;
        break;
      }
    }
    if (p == n) throw Error("amd_order: heap exhausted before all nodes");

    // Form L_p: live variables adjacent to p directly or through any of
    // p's elements.
    clique.clear();
    in_pivot_clique.clear();
    in_pivot_clique.insert(p);
    for (const std::size_t v : var_adj[p]) {
      if (eliminated[v] || in_pivot_clique.contains(v)) continue;
      in_pivot_clique.insert(v);
      clique.push_back(v);
    }
    for (const std::size_t e : var_elems[p]) {
      if (absorbed[e]) continue;
      for (const std::size_t v : elem_vars[e]) {
        if (eliminated[v] || in_pivot_clique.contains(v)) continue;
        in_pivot_clique.insert(v);
        clique.push_back(v);
      }
      absorbed[e] = true;  // the new element supersedes it
    }

    // External-size pass (the AMD trick): for every live element e touching
    // the clique, external[e] = |L_e \ L_p| after one decrement per shared
    // member. Prunes dead vars from the touched element lists as it goes.
    seen_elem.clear();
    touched_elems.clear();
    for (const std::size_t i : clique) {
      for (const std::size_t e : var_elems[i]) {
        if (absorbed[e] || seen_elem.contains(e)) continue;
        seen_elem.insert(e);
        prune_eliminated(elem_vars[e]);
        external[e] = elem_vars[e].size();
        touched_elems.push_back(e);
      }
    }
    for (const std::size_t i : clique) {
      for (const std::size_t e : var_elems[i]) {
        if (!absorbed[e]) --external[e];
      }
    }

    eliminated[p] = true;
    order.push_back(p);
    elem_vars[p] = clique;
    var_adj[p].clear();
    var_adj[p].shrink_to_fit();
    var_elems[p].clear();

    // Update every clique member: prune its variable adjacency of edges the
    // new element now covers, compact its element list, and recompute the
    // approximate external degree
    //   d_i = |A_i| + |L_p \ {i}| + sum over other elements |L_e \ L_p|.
    for (const std::size_t i : clique) {
      auto& vars = var_adj[i];
      vars.erase(std::remove_if(vars.begin(), vars.end(),
                                [&](std::size_t v) {
                                  return eliminated[v] ||
                                         in_pivot_clique.contains(v);
                                }),
                 vars.end());

      auto& elems = var_elems[i];
      elems.erase(std::remove_if(elems.begin(), elems.end(),
                                 [&](std::size_t e) { return absorbed[e]; }),
                  elems.end());

      std::size_t d = vars.size() + (clique.size() - 1);
      for (const std::size_t e : elems) d += external[e];
      elems.push_back(p);

      d = std::min(d, n - k - 1);
      if (d != degree[i]) {
        degree[i] = d;
        heap.emplace(d, i);
      }
    }
  }
  return order;
}

std::vector<std::size_t> amd_order(const SparseMatrix& a) {
  return amd_order(pattern_adjacency(a));
}

}  // namespace softfet::numeric
