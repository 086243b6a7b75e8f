#include "numeric/ordering.hpp"

#include <algorithm>

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

  // Quotient graph in one workspace, iw, that starts as the adjacency in
  // CSR form. A live variable i keeps its row: len[i] plain variable
  // neighbours from head[i], then ne[i] elements (former pivots) whose
  // member lists stand in for the cliques elimination created. When p is
  // eliminated, each member i of its clique gains element p and loses p
  // from its variables or an element absorbed into p, so a row never
  // outgrows its first size. Element p's members are appended to iw at
  // head[p], len[p] of them.
  std::vector<std::size_t> iw;
  std::vector<std::size_t> head(n);
  std::vector<std::size_t> len(n);
  std::vector<std::size_t> ne(n, 0);
  std::vector<std::size_t> degree(n);
  for (std::size_t i = 0; i < n; ++i) {
    head[i] = iw.size();
    len[i] = degree[i] = adjacency[i].size();
    iw.insert(iw.end(), adjacency[i].begin(), adjacency[i].end());
  }
  std::vector<char> eliminated(n, 0);
  std::vector<char> absorbed(n, 0);

  // Indexed min-heap of the live variables on (degree, index): heap[0] is
  // the next pivot, and at[i] is variable i's slot.
  std::vector<std::size_t> heap(n);
  std::vector<std::size_t> at(n);
  std::size_t live = n;
  const auto before = [&](std::size_t i, std::size_t j) {
    return degree[i] < degree[j] || (degree[i] == degree[j] && i < j);
  };
  const auto sift = [&](std::size_t slot) {
    const std::size_t i = heap[slot];
    for (; slot > 0 && before(i, heap[(slot - 1) / 2]); slot = (slot - 1) / 2) {
      heap[slot] = heap[(slot - 1) / 2];
      at[heap[slot]] = slot;
    }
    for (std::size_t c = 2 * slot + 1; c < live; c = 2 * slot + 1) {
      if (c + 1 < live && before(heap[c + 1], heap[c])) ++c;
      if (!before(heap[c], i)) break;
      heap[slot] = heap[c];
      at[heap[slot]] = slot;
      slot = c;
    }
    heap[slot] = i;
    at[i] = slot;
  };
  for (std::size_t i = 0; i < n; ++i) heap[i] = i;
  std::sort(heap.begin(), heap.end(), before);  // sorted is a heap
  for (std::size_t slot = 0; slot < n; ++slot) at[heap[slot]] = slot;

  MarkSet in_pivot_clique(n);  // members of the element being formed
  MarkSet seen_elem(n);        // elements already counted this round
  std::vector<std::size_t> external(n, 0);  // |L_e \ L_p| scratch per round
  std::vector<std::size_t> clique;          // L_p of the current pivot
  const auto take = [&](std::size_t v) {
    if (eliminated[v] || in_pivot_clique.contains(v)) return;
    in_pivot_clique.insert(v);
    clique.push_back(v);
  };

  for (std::size_t k = 0; k < n; ++k) {
    // Select the minimum-degree variable, lowest index on a tie.
    const std::size_t p = heap[0];
    if (--live > 0) {
      heap[0] = heap[live];
      sift(0);
    }

    // Form L_p: live variables adjacent to p directly or through any of
    // p's elements, which the new element supersedes.
    clique.clear();
    in_pivot_clique.clear();
    in_pivot_clique.insert(p);
    const std::size_t p_elems = head[p] + len[p];
    for (std::size_t s = head[p]; s < p_elems; ++s) take(iw[s]);
    for (std::size_t s = p_elems; s < p_elems + ne[p]; ++s) {
      const std::size_t e = iw[s];
      if (absorbed[e]) continue;
      for (std::size_t t = head[e]; t < head[e] + len[e]; ++t) take(iw[t]);
      absorbed[e] = 1;
    }

    // External-size pass (the AMD trick): for every live element e touching
    // the clique, external[e] = |L_e \ L_p|, one decrement per shared
    // member. A live element has no eliminated members: eliminating one
    // absorbs every element it belongs to.
    seen_elem.clear();
    for (const std::size_t i : clique) {
      for (std::size_t s = head[i] + len[i]; s < head[i] + len[i] + ne[i];
           ++s) {
        const std::size_t e = iw[s];
        if (absorbed[e]) continue;
        if (!seen_elem.contains(e)) {
          seen_elem.insert(e);
          external[e] = len[e];
        }
        --external[e];
      }
    }

    eliminated[p] = 1;
    order.push_back(p);
    head[p] = iw.size();
    len[p] = clique.size();
    ne[p] = 0;
    iw.insert(iw.end(), clique.begin(), clique.end());

    // Update every clique member in place: drop variables the new element
    // now covers, drop absorbed elements, add p, and recompute the
    // approximate external degree
    //   d_i = |A_i| + |L_p \ {i}| + sum over other elements |L_e \ L_p|.
    for (const std::size_t i : clique) {
      const std::size_t vars_end = head[i] + len[i];
      const std::size_t end = vars_end + ne[i];
      std::size_t w = head[i];
      for (std::size_t s = head[i]; s < vars_end; ++s) {
        const std::size_t v = iw[s];
        if (!eliminated[v] && !in_pivot_clique.contains(v)) iw[w++] = v;
      }
      len[i] = w - head[i];
      std::size_t d = len[i] + (clique.size() - 1);
      for (std::size_t s = vars_end; s < end; ++s) {
        const std::size_t e = iw[s];
        if (absorbed[e]) continue;
        d += external[e];
        iw[w++] = e;
      }
      if (w == head[i] + adjacency[i].size()) {
        throw Error("amd_order: adjacency not symmetric");
      }
      iw[w++] = p;
      ne[i] = w - head[i] - len[i];

      d = std::min(d, n - k - 1);
      if (d != degree[i]) {
        degree[i] = d;
        sift(at[i]);
      }
    }
  }
  return order;
}

std::vector<std::size_t> amd_order(const SparseMatrix& a) {
  return amd_order(pattern_adjacency(a));
}

}  // namespace softfet::numeric
