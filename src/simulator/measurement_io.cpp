#include "simulator/measurement_io.hpp"

#include <sstream>

#include "cluster/cluster.hpp"
#include "common/atomic_file.hpp"
#include "graph/models.hpp"
#include "io/tensor_io.hpp"

namespace pddl::sim {

namespace {

// Fixed column layout; the cluster feature block is variable-width and
// serialized as the last columns (count recorded in the header row).
std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.push_back("");
  return cells;
}

// v1 layout; v2 appends the parallelism-strategy column.
constexpr std::size_t kFixedColumnsV1 = 12;
constexpr std::size_t kFixedColumnsV2 = 13;

constexpr char kBinaryMagic[4] = {'P', 'D', 'M', 'S'};
// v1: no parallelism field (implicitly "dp").  v2: strategy key string
// after model_index.
constexpr std::uint32_t kBinaryVersion = 2;

}  // namespace

void save_measurements(io::BinaryWriter& w,
                       const std::vector<Measurement>& ms) {
  w.magic(kBinaryMagic);
  w.u32(kBinaryVersion);
  w.u64(ms.size());
  for (const Measurement& m : ms) {
    w.str(m.model);
    w.str(m.dataset);
    w.str(m.sku);
    w.i32(m.servers);
    w.i32(m.batch_size);
    w.i32(m.epochs);
    w.f64(m.time_s);
    w.f64(m.expected_s);
    w.i64(m.model_params);
    w.i64(m.model_flops);
    w.i32(m.model_layers);
    w.i32(m.model_depth);
    w.i32(m.model_index);
    w.str(m.parallelism);
    io::write_vector(w, m.cluster_features);
  }
}

std::vector<Measurement> load_measurements(io::BinaryReader& r) {
  r.expect_magic(kBinaryMagic, "measurement");
  const std::uint32_t version = r.u32();
  PDDL_CHECK(version >= 1 && version <= kBinaryVersion, r.what(),
             ": unsupported measurement section version ", version);
  const std::uint64_t count = r.u64();
  PDDL_CHECK(count < (1ull << 24), r.what(), ": unreasonable row count ",
             count);
  std::vector<Measurement> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Measurement m;
    m.model = r.str();
    m.dataset = r.str();
    m.sku = r.str();
    m.servers = r.i32();
    m.batch_size = r.i32();
    m.epochs = r.i32();
    m.time_s = r.f64();
    m.expected_s = r.f64();
    m.model_params = r.i64();
    m.model_flops = r.i64();
    m.model_layers = r.i32();
    m.model_depth = r.i32();
    m.model_index = r.i32();
    m.parallelism = version >= 2 ? r.str() : "dp";
    m.cluster_features = io::read_vector(r, 1u << 10);
    PDDL_CHECK(m.time_s > 0 && m.servers > 0, r.what(),
               ": corrupt measurement row ", i);
    out.push_back(std::move(m));
  }
  return out;
}

void save_measurements_csv(std::ostream& os,
                           const std::vector<Measurement>& ms) {
  PDDL_CHECK(!ms.empty(), "nothing to save");
  const std::size_t cf = ms[0].cluster_features.size();
  os << "model,dataset,sku,servers,batch_size,epochs,time_s,expected_s,"
        "model_params,model_flops,model_layers,model_depth,parallelism";
  for (std::size_t i = 0; i < cf; ++i) os << ",cf" << i;
  os << '\n';
  os.precision(17);
  for (const Measurement& m : ms) {
    PDDL_CHECK(m.cluster_features.size() == cf,
               "inconsistent cluster-feature widths");
    os << m.model << ',' << m.dataset << ',' << m.sku << ',' << m.servers
       << ',' << m.batch_size << ',' << m.epochs << ',' << m.time_s << ','
       << m.expected_s << ',' << m.model_params << ',' << m.model_flops << ','
       << m.model_layers << ',' << m.model_depth << ','
       << (m.parallelism.empty() ? "dp" : m.parallelism);
    for (double v : m.cluster_features) os << ',' << v;
    os << '\n';
  }
  PDDL_CHECK(os.good(), "failed writing measurement CSV");
}

std::vector<Measurement> load_measurements_csv(std::istream& is) {
  std::string line;
  PDDL_CHECK(static_cast<bool>(std::getline(is, line)),
             "empty measurement CSV");
  const auto header = split_csv_line(line);
  PDDL_CHECK(header.size() > kFixedColumnsV1 && header[0] == "model",
             "not a measurement CSV (bad header)");
  // Old exports lack the parallelism column; detect from the header.
  const bool has_parallelism =
      header.size() > kFixedColumnsV2 - 1 &&
      header[kFixedColumnsV2 - 1] == "parallelism";
  const std::size_t fixed = has_parallelism ? kFixedColumnsV2 : kFixedColumnsV1;
  const std::size_t cf = header.size() - fixed;

  // Model index is reconstructed from the registry order at load time.
  std::vector<Measurement> out;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = split_csv_line(line);
    PDDL_CHECK(cells.size() == header.size(), "row width mismatch: got ",
               cells.size(), ", expected ", header.size());
    Measurement m;
    m.model = cells[0];
    m.dataset = cells[1];
    m.sku = cells[2];
    m.servers = std::stoi(cells[3]);
    m.batch_size = std::stoi(cells[4]);
    m.epochs = std::stoi(cells[5]);
    m.time_s = std::stod(cells[6]);
    m.expected_s = std::stod(cells[7]);
    m.model_params = std::stoll(cells[8]);
    m.model_flops = std::stoll(cells[9]);
    m.model_layers = std::stoi(cells[10]);
    m.model_depth = std::stoi(cells[11]);
    m.parallelism = has_parallelism ? cells[12] : "dp";
    m.cluster_features.resize(cf);
    for (std::size_t i = 0; i < cf; ++i) {
      m.cluster_features[i] = std::stod(cells[fixed + i]);
    }
    PDDL_CHECK(m.time_s > 0 && m.servers > 0, "corrupt measurement row");
    out.push_back(std::move(m));
  }
  // Rebuild the registry-order model index (-1 for custom models), matching
  // run_campaign's convention.
  for (Measurement& m : out) {
    m.model_index = model_registry_index(m.model);
  }
  return out;
}

void save_measurements_csv_file(const std::string& path,
                                const std::vector<Measurement>& ms) {
  std::ostringstream os;
  save_measurements_csv(os, ms);
  io::write_file_atomic(path, os.str());
}

}  // namespace pddl::sim
