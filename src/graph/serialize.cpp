#include "graph/serialize.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/atomic_file.hpp"
#include "io/binary.hpp"

namespace pddl::graph {

namespace {

constexpr char kMagic[4] = {'P', 'D', 'C', 'G'};
// Version 2 moved the format onto the io layer: identical node payload, plus
// a CRC-32 trailer.  Version-1 files (no trailer) remain readable.
constexpr std::uint32_t kVersion = 2;

void write_node_payload(io::BinaryWriter& w, const CompGraph& g) {
  w.str(g.name());
  w.u64(g.num_nodes());
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const auto& n = g.node(static_cast<int>(i));
    w.i32(static_cast<std::int32_t>(n.type));
    w.i32(n.out_shape.c);
    w.i32(n.out_shape.h);
    w.i32(n.out_shape.w);
    w.i64(n.params);
    w.i64(n.flops);
    w.i32(n.attrs.kernel);
    w.i32(n.attrs.stride);
    w.i32(n.attrs.groups);
    w.str(n.label);
    const auto& ins = g.in_edges(static_cast<int>(i));
    w.u32(static_cast<std::uint32_t>(ins.size()));
    for (int in : ins) w.i32(in);
  }
}

CompGraph read_node_payload(io::BinaryReader& r) {
  CompGraph g(r.str());
  const std::uint64_t count = r.u64();
  PDDL_CHECK(count > 0 && count < (1ull << 24), "bad node count ", count);
  for (std::uint64_t i = 0; i < count; ++i) {
    CompGraph::Node n;
    const std::int32_t type = r.i32();
    PDDL_CHECK(type >= 0 && type < static_cast<std::int32_t>(kNumOpTypes),
               "bad op type ", type);
    n.type = static_cast<OpType>(type);
    n.out_shape.c = r.i32();
    n.out_shape.h = r.i32();
    n.out_shape.w = r.i32();
    n.params = r.i64();
    n.flops = r.i64();
    n.attrs.kernel = r.i32();
    n.attrs.stride = r.i32();
    n.attrs.groups = r.i32();
    n.label = r.str();
    const std::uint32_t in_count = r.u32();
    PDDL_CHECK(in_count <= count, "bad in-degree ", in_count);
    std::vector<int> ins(in_count);
    for (auto& in : ins) in = r.i32();
    g.add_node(std::move(n), ins);
  }
  g.validate();
  return g;
}

}  // namespace

void save_graph(std::ostream& os, const CompGraph& g) {
  io::BinaryWriter w(os);
  w.magic(kMagic);
  w.u32(kVersion);
  write_node_payload(w, g);
  w.finish_crc();
}

CompGraph load_graph(std::istream& is) {
  io::BinaryReader r(is, "graph stream");
  r.expect_magic(kMagic, "computational-graph");
  const std::uint32_t version = r.u32();
  PDDL_CHECK(version == 1 || version == kVersion,
             "unsupported graph file version ", version);
  CompGraph g = read_node_payload(r);
  // Version 1 predates the io layer and carries no checksum; version 2 ends
  // with a CRC-32 of everything from the magic on.
  if (version >= 2) r.verify_crc();
  return g;
}

void save_graph_file(const std::string& path, const CompGraph& g) {
  std::ostringstream os;
  save_graph(os, g);
  io::write_file_atomic(path, os.str());
}

CompGraph load_graph_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  PDDL_CHECK(is.good(), "cannot open for read: ", path);
  return load_graph(is);
}

std::string to_dot(const CompGraph& g) {
  std::ostringstream os;
  const double total_flops =
      static_cast<double>(std::max<std::int64_t>(1, g.total_flops()));
  os << "digraph \"" << g.name() << "\" {\n"
     << "  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n";
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const auto& n = g.node(static_cast<int>(i));
    const double share = 100.0 * static_cast<double>(n.flops) / total_flops;
    os << "  n" << i << " [label=\"" << op_name(n.type) << "\\n"
       << n.out_shape.c << "x" << n.out_shape.h << "x" << n.out_shape.w;
    if (share >= 0.1) {
      os << "\\n" << std::fixed << std::setprecision(1) << share << "% flops";
    }
    os << "\"];\n";
    for (int in : g.in_edges(static_cast<int>(i))) {
      os << "  n" << in << " -> n" << i << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace pddl::graph
