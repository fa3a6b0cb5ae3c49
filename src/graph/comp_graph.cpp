#include "graph/comp_graph.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pddl::graph {

int CompGraph::add_node(Node node, const std::vector<int>& inputs) {
  if (nodes_.empty()) {
    PDDL_CHECK(node.type == OpType::kInput,
               "first node must be the kInput source");
    PDDL_CHECK(inputs.empty(), "kInput source cannot have inputs");
  } else {
    PDDL_CHECK(node.type != OpType::kInput, "only one kInput source allowed");
    PDDL_CHECK(!inputs.empty(), "non-source node needs at least one input");
  }
  const int id = static_cast<int>(nodes_.size());
  for (int in : inputs) {
    PDDL_CHECK(in >= 0 && in < id,
               "input id must reference an earlier node (got ", in,
               " for node ", id, ")");
  }
  nodes_.push_back(std::move(node));
  in_edges_.push_back(inputs);
  out_edges_.emplace_back();
  for (int in : inputs) out_edges_[static_cast<std::size_t>(in)].push_back(id);
  num_edges_ += inputs.size();
  return id;
}

const CompGraph::Node& CompGraph::node(int id) const {
  PDDL_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
             "node id out of range");
  return nodes_[static_cast<std::size_t>(id)];
}

const std::vector<int>& CompGraph::in_edges(int id) const {
  PDDL_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
             "node id out of range");
  return in_edges_[static_cast<std::size_t>(id)];
}

const std::vector<int>& CompGraph::out_edges(int id) const {
  PDDL_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
             "node id out of range");
  return out_edges_[static_cast<std::size_t>(id)];
}

void CompGraph::validate() const {
  PDDL_CHECK(!nodes_.empty(), "graph '", name_, "' is empty");
  PDDL_CHECK(nodes_[0].type == OpType::kInput, "node 0 must be kInput");
  int sinks = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (out_edges_[i].empty()) ++sinks;
  }
  PDDL_CHECK(sinks == 1, "graph '", name_, "' must have exactly one sink, has ",
             sinks);
  // Reachability from the source (edges go forward, so one sweep suffices).
  std::vector<bool> reach(nodes_.size(), false);
  reach[0] = true;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    for (int in : in_edges_[i]) {
      if (reach[static_cast<std::size_t>(in)]) {
        reach[i] = true;
        break;
      }
    }
    PDDL_CHECK(reach[i], "node ", i, " ('", nodes_[i].label,
               "') unreachable from the input");
  }
  // Co-reachability to the sink.
  std::vector<bool> coreach(nodes_.size(), false);
  for (std::size_t ii = nodes_.size(); ii-- > 0;) {
    if (out_edges_[ii].empty()) {
      coreach[ii] = true;
      continue;
    }
    for (int out : out_edges_[ii]) {
      if (coreach[static_cast<std::size_t>(out)]) {
        coreach[ii] = true;
        break;
      }
    }
    PDDL_CHECK(coreach[ii], "node ", ii, " ('", nodes_[ii].label,
               "') cannot reach the output");
  }
}

Matrix CompGraph::node_features() const {
  Matrix h0(nodes_.size(), kNodeFeatureDim);
  node_features_into(h0.data());
  return h0;
}

template <typename T>
void CompGraph::node_features_into(T* out) const {
  const std::size_t n = nodes_.size();
  const double total = static_cast<double>(std::max<std::int64_t>(1, total_flops()));
  std::fill(out, out + n * kNodeFeatureDim, T(0));
  for (std::size_t i = 0; i < n; ++i) {
    const Node& nd = nodes_[i];
    T* row = out + i * kNodeFeatureDim;
    row[static_cast<std::size_t>(nd.type)] = T(1);
    // Structural scalars, log-scaled to keep magnitudes comparable.
    row[kNumOpTypes + 0] =
        static_cast<T>(std::log1p(static_cast<double>(nd.out_shape.c)) / 8.0);
    row[kNumOpTypes + 1] = static_cast<T>(
        std::log1p(static_cast<double>(nd.attrs.kernel * nd.attrs.kernel)) / 4.0);
    row[kNumOpTypes + 2] = static_cast<T>(static_cast<double>(nd.flops) / total);
  }
}

template void CompGraph::node_features_into<double>(double*) const;
template void CompGraph::node_features_into<float>(float*) const;

std::int64_t CompGraph::total_params() const {
  std::int64_t s = 0;
  for (const Node& n : nodes_) s += n.params;
  return s;
}

std::int64_t CompGraph::total_flops() const {
  std::int64_t s = 0;
  for (const Node& n : nodes_) s += n.flops;
  return s;
}

int CompGraph::depth() const {
  std::vector<int> longest(nodes_.size(), 0);
  int best = 0;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    for (int in : in_edges_[i]) {
      longest[i] = std::max(longest[i], longest[static_cast<std::size_t>(in)] + 1);
    }
    best = std::max(best, longest[i]);
  }
  return best + 1;  // count nodes, not edges
}

int CompGraph::num_parametric_layers() const {
  int n = 0;
  for (const Node& nd : nodes_) n += op_has_params(nd.type) ? 1 : 0;
  return n;
}

Vector CompGraph::op_type_histogram() const {
  Vector hist(kNumOpTypes, 0.0);
  for (const Node& nd : nodes_) hist[static_cast<std::size_t>(nd.type)] += 1.0;
  const double total = static_cast<double>(nodes_.size());
  for (double& v : hist) v /= total;
  return hist;
}

int CompGraph::max_channels() const {
  int best = 0;
  for (const Node& nd : nodes_) best = std::max(best, nd.out_shape.c);
  return best;
}

std::string CompGraph::to_string() const {
  std::ostringstream os;
  os << "CompGraph '" << name_ << "': " << nodes_.size() << " nodes, "
     << num_edges_ << " edges, " << total_params() << " params, "
     << total_flops() << " flops\n";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& nd = nodes_[i];
    os << "  [" << i << "] " << op_name(nd.type);
    if (!nd.label.empty()) os << " '" << nd.label << "'";
    os << " out=" << nd.out_shape.c << "x" << nd.out_shape.h << "x"
       << nd.out_shape.w << " <- (";
    for (std::size_t k = 0; k < in_edges_[i].size(); ++k) {
      os << (k ? "," : "") << in_edges_[i][k];
    }
    os << ")\n";
  }
  return os.str();
}

}  // namespace pddl::graph
