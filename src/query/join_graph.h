// JoinGraph: the query's join connectivity.
//
// Nodes are table slots, edges are join predicates. The paper's §3.4 turns
// on whether this graph is cyclic: with SteMs no spanning tree is fixed a
// priori, so cyclic queries need the ProbeCompletion constraint. The graph
// also enumerates spanning trees for the spanning-tree experiments and for
// static baseline plans.
#pragma once

#include <cstdint>
#include <vector>

#include "query/query_spec.h"

namespace stems {

class JoinGraph {
 public:
  explicit JoinGraph(const QuerySpec& query);

  int num_nodes() const { return num_nodes_; }

  /// Predicate ids labelling the edges between a and b.
  std::vector<int> EdgesBetween(int a, int b) const;

  /// Neighbours of slot `a` (deduplicated, ascending).
  std::vector<int> Neighbors(int a) const;

  /// Slots a tuple spanning `spanned` may probe next, ascending, written
  /// into `*out` (cleared first; caller-owned scratch, so routing hot paths
  /// allocate nothing): the `probeable` slots outside the span that are
  /// join-connected to it, or — when none is (cross products) — every
  /// probeable slot outside the span. The one candidate rule both executors
  /// route by: PolicyBase masks out probed and SteM-less slots, a threaded
  /// worker passes every slot.
  void ProbeCandidates(uint64_t spanned, uint64_t probeable,
                       std::vector<int>* out) const;

  /// True iff all slots are join-connected (no cross products).
  bool IsConnected() const;

  /// True iff the undirected multigraph contains a cycle. Parallel edges
  /// between the same pair (two predicates on one table pair) count as a
  /// cycle of length two only if they are distinct predicates; for spanning
  /// tree purposes we treat them as one logical edge, so cyclicity here
  /// means: more logical edges than (nodes - 1) on some connected component.
  bool IsCyclic() const;

  /// All spanning trees of the *logical* edge graph, each expressed as a
  /// list of (a, b) slot pairs. Exponential in general; the query sizes in
  /// this library are small. Empty if the graph is disconnected.
  std::vector<std::vector<std::pair<int, int>>> SpanningTrees() const;

 private:
  int num_nodes_ = 0;
  /// Logical adjacency: adj_[a] contains each neighbour once.
  std::vector<std::vector<int>> adj_;
  /// adj_ as slot bitmasks (slots < 64; wider queries cannot route).
  std::vector<uint64_t> neighbor_mask_;
  /// (a, b, predicate id) triples with a < b.
  std::vector<std::tuple<int, int, int>> edges_;
  /// Distinct (a, b) pairs with a < b.
  std::vector<std::pair<int, int>> logical_edges_;
};

}  // namespace stems
