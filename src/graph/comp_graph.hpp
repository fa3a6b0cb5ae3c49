// Computational-graph representation of a DNN architecture (§III-E).
//
// A CompGraph is the DAG the paper feeds to GHN-2: nodes V are primitive
// operations with one-hot features H₀, edges are data flow, and connectivity
// is the binary adjacency matrix A ∈ {0,1}^{|V|×|V|}.  Beyond the paper's
// minimum we keep per-node tensor shapes, parameter counts, and forward
// FLOPs, because (a) the DDL simulator prices training time from them and
// (b) the GHN surrogate-training targets are derived from them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/op_type.hpp"
#include "tensor/matrix.hpp"

namespace pddl::graph {

// Activation tensor shape (channels × height × width); linear layers use
// {features, 1, 1}.
struct TensorShape {
  int c = 0;
  int h = 0;
  int w = 0;

  std::int64_t numel() const {
    return static_cast<std::int64_t>(c) * h * w;
  }
  friend bool operator==(const TensorShape&, const TensorShape&) = default;
};

struct NodeAttrs {
  int kernel = 0;   // spatial kernel size (conv/pool), 0 otherwise
  int stride = 1;
  int groups = 1;   // >1 for group conv; == in-channels for depthwise
};

class CompGraph {
 public:
  struct Node {
    OpType type = OpType::kInput;
    TensorShape out_shape;
    std::int64_t params = 0;  // learnable scalars owned by this node
    std::int64_t flops = 0;   // forward multiply-add FLOPs (2·MACs)
    NodeAttrs attrs;
    std::string label;        // diagnostic name, e.g. "conv3_2"
  };

  CompGraph() = default;
  explicit CompGraph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // Appends a node; `inputs` are ids of existing nodes (empty only for the
  // kInput source).  Returns the new node id.  Edges always point from
  // earlier ids to later ids, so the graph is acyclic by construction and
  // node ids form a topological order.
  int add_node(Node node, const std::vector<int>& inputs);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges() const { return num_edges_; }
  const Node& node(int id) const;
  const std::vector<int>& in_edges(int id) const;
  const std::vector<int>& out_edges(int id) const;

  // Structural checks: exactly one source (kInput), exactly one sink,
  // everything reachable from the source and co-reachable from the sink.
  void validate() const;

  // Initial node features H₀: one-hot op type concatenated with three
  // log-scaled structural scalars (out-channels, kernel area, FLOPs share)
  // that let the GHN distinguish a 3×3/64-ch conv from a 7×7/512-ch one.
  // Shape: |V| × (kNumOpTypes + 3).
  Matrix node_features() const;
  static constexpr std::size_t kNodeFeatureDim = kNumOpTypes + 3;
  // The same rows written into out[0, |V|·kNodeFeatureDim), row-major and
  // zero-filled first.  Computed in double; T = float narrows on store, so
  // an f32 consumer rounds each feature once.
  template <typename T>
  void node_features_into(T* out) const;

  // ---- whole-graph analytics ----
  std::int64_t total_params() const;
  std::int64_t total_flops() const;
  // Longest source→sink path length in nodes (the "depth" gray-box feature).
  int depth() const;
  // Number of nodes carrying learnable parameters (the "#layers" feature
  // used by the gray-box baseline of Fig. 1/2).
  int num_parametric_layers() const;
  // Histogram over op types, normalised to sum to 1.
  Vector op_type_histogram() const;
  // Maximum channel width across nodes.
  int max_channels() const;

  // Multi-line diagnostic dump.
  std::string to_string() const;

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::vector<int>> in_edges_;
  std::vector<std::vector<int>> out_edges_;
  std::size_t num_edges_ = 0;
};

// GHN-2 virtual edges (Eq. 4): calls emit(s, t, d) for every pair whose
// directed hop count d = dist(s → t) satisfies 1 < d ≤ s_max, sources s
// ascending and each source's targets t ascending.  One BFS per source,
// depth-capped at s_max: a node at depth s_max is recorded but not
// expanded, so every reported d is exact.  `dist` and `queue` are caller
// scratch of g.num_nodes() ints; `dist` must be all −1 on entry and is all
// −1 again on return (reset through the queue, the exact touched set).
template <typename Emit>
void for_each_virtual_edge(const CompGraph& g, int s_max, int* dist,
                           int* queue, Emit&& emit) {
  const int n = static_cast<int>(g.num_nodes());
  for (int s = 0; s < n; ++s) {
    dist[s] = 0;
    std::size_t qh = 0, qt = 0;
    queue[qt++] = s;
    while (qh < qt) {
      const int u = queue[qh++];
      const int du = dist[u];
      if (du >= s_max) continue;
      for (int v : g.out_edges(u)) {
        if (dist[v] < 0) {
          dist[v] = du + 1;
          queue[qt++] = v;
        }
      }
    }
    // Keep the targets beyond one hop (compacting in place: k < i always),
    // release the rest, then emit in ascending target order.
    std::size_t k = 0;
    for (std::size_t i = 1; i < qt; ++i) {
      const int t = queue[i];
      if (dist[t] > 1) {
        queue[k++] = t;
      } else {
        dist[t] = -1;
      }
    }
    dist[s] = -1;
    std::sort(queue, queue + k);
    for (std::size_t i = 0; i < k; ++i) {
      const int t = queue[i];
      emit(s, t, dist[t]);
      dist[t] = -1;
    }
  }
}

}  // namespace pddl::graph
