#include "query/join_graph.h"

#include <algorithm>
#include <bit>
#include <functional>

namespace stems {

JoinGraph::JoinGraph(const QuerySpec& query)
    : num_nodes_(static_cast<int>(query.num_slots())) {
  adj_.resize(num_nodes_);
  for (const auto& p : query.predicates()) {
    if (!p.is_join()) continue;
    int a = p.lhs().table_slot;
    int b = p.rhs().table_slot;
    if (a > b) std::swap(a, b);
    edges_.emplace_back(a, b, p.id());
    if (std::find(adj_[a].begin(), adj_[a].end(), b) == adj_[a].end()) {
      adj_[a].push_back(b);
      adj_[b].push_back(a);
      logical_edges_.emplace_back(a, b);
    }
  }
  for (auto& n : adj_) std::sort(n.begin(), n.end());
  std::sort(logical_edges_.begin(), logical_edges_.end());
  neighbor_mask_.assign(adj_.size(), 0);
  for (size_t a = 0; a < adj_.size(); ++a) {
    for (int b : adj_[a]) {
      if (b < 64) neighbor_mask_[a] |= 1ULL << b;
    }
  }
}

void JoinGraph::ProbeCandidates(uint64_t spanned, uint64_t probeable,
                                std::vector<int>* out) const {
  out->clear();
  const uint64_t open = probeable & ~spanned;
  uint64_t adjacent = 0;
  for (uint64_t m = spanned; m != 0; m &= m - 1) {
    adjacent |= neighbor_mask_[static_cast<size_t>(std::countr_zero(m))];
  }
  uint64_t pick = open & adjacent;
  if (pick == 0) pick = open;
  for (; pick != 0; pick &= pick - 1) out->push_back(std::countr_zero(pick));
}

std::vector<int> JoinGraph::EdgesBetween(int a, int b) const {
  if (a > b) std::swap(a, b);
  std::vector<int> out;
  for (const auto& [ea, eb, id] : edges_) {
    if (ea == a && eb == b) out.push_back(id);
  }
  return out;
}

std::vector<int> JoinGraph::Neighbors(int a) const { return adj_[a]; }

bool JoinGraph::IsConnected() const {
  if (num_nodes_ == 0) return true;
  std::vector<bool> seen(num_nodes_, false);
  std::vector<int> stack = {0};
  seen[0] = true;
  int count = 1;
  while (!stack.empty()) {
    int n = stack.back();
    stack.pop_back();
    for (int m : adj_[n]) {
      if (!seen[m]) {
        seen[m] = true;
        ++count;
        stack.push_back(m);
      }
    }
  }
  return count == num_nodes_;
}

bool JoinGraph::IsCyclic() const {
  // Count logical edges per connected component; a component with E >= V has
  // a cycle.
  std::vector<int> comp(num_nodes_, -1);
  int num_comp = 0;
  for (int start = 0; start < num_nodes_; ++start) {
    if (comp[start] != -1) continue;
    std::vector<int> stack = {start};
    comp[start] = num_comp;
    while (!stack.empty()) {
      int n = stack.back();
      stack.pop_back();
      for (int m : adj_[n]) {
        if (comp[m] == -1) {
          comp[m] = num_comp;
          stack.push_back(m);
        }
      }
    }
    ++num_comp;
  }
  std::vector<int> nodes(num_comp, 0), edges(num_comp, 0);
  for (int n = 0; n < num_nodes_; ++n) ++nodes[comp[n]];
  for (const auto& [a, b] : logical_edges_) {
    (void)b;
    ++edges[comp[a]];
  }
  for (int c = 0; c < num_comp; ++c) {
    if (edges[c] >= nodes[c] && nodes[c] > 1) return true;
    if (edges[c] > nodes[c] - 1) return true;
  }
  return false;
}

std::vector<std::vector<std::pair<int, int>>> JoinGraph::SpanningTrees()
    const {
  std::vector<std::vector<std::pair<int, int>>> result;
  if (!IsConnected() || num_nodes_ == 0) return result;
  const size_t need = static_cast<size_t>(num_nodes_ - 1);

  // Enumerate edge subsets of size V-1 and keep the acyclic connected ones.
  // Fine for the small queries this engine targets.
  std::vector<std::pair<int, int>> chosen;
  std::function<void(size_t)> recurse = [&](size_t next) {
    if (chosen.size() == need) {
      // Union-find connectivity check.
      std::vector<int> parent(num_nodes_);
      for (int i = 0; i < num_nodes_; ++i) parent[i] = i;
      std::function<int(int)> find = [&](int x) {
        while (parent[x] != x) x = parent[x] = parent[parent[x]];
        return x;
      };
      for (const auto& [a, b] : chosen) {
        int ra = find(a), rb = find(b);
        if (ra == rb) return;  // cycle
        parent[ra] = rb;
      }
      int root = find(0);
      for (int i = 1; i < num_nodes_; ++i) {
        if (find(i) != root) return;  // disconnected
      }
      result.push_back(chosen);
      return;
    }
    if (next >= logical_edges_.size()) return;
    if (logical_edges_.size() - next < need - chosen.size()) return;
    chosen.push_back(logical_edges_[next]);
    recurse(next + 1);
    chosen.pop_back();
    recurse(next + 1);
  };
  recurse(0);
  return result;
}

}  // namespace stems
