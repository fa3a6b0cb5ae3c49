// The one binary encoding of PredictRequest and its parts (workload,
// cluster), as bidirectional walks (io/walk.hpp).
//
// Two consumers must agree on these bytes: the rpc wire format
// (src/rpc/wire.cpp frames them inside request bodies) and the feedback
// observation log (src/feedback/ persists observed workload/cluster pairs
// through the io snapshot layer).  Keeping them here, below both layers,
// means an observation written from a live rpc request round-trips through
// disk without a translation step.
#pragma once

#include "core/predict_ddl.hpp"
#include "io/walk.hpp"

namespace pddl::core {

// Per-cluster server-count bound (the paper's clusters top out at 60).
inline constexpr std::uint32_t kMaxClusterServers = 100000;

// The workload carries the parallelism-strategy key since rpc protocol v6 /
// observation-log v2; readers of older sections pass
// `with_parallelism = false` and get the data-parallel default.
template <class Stream, io::Walks<workload::DlWorkload> T>
void walk(Stream& s, T& wl, bool with_parallelism = true) {
  io::fields(s, wl.model, wl.dataset.name, wl.dataset.size_bytes,
             wl.dataset.num_samples, wl.dataset.num_classes,
             wl.dataset.input.c, wl.dataset.input.h, wl.dataset.input.w,
             wl.batch_size_per_server, wl.epochs);
  if (!with_parallelism) return;
  if constexpr (io::kWriting<Stream>) {
    s.str(wl.parallelism.key());
  } else {
    wl.parallelism = workload::parallelism_from_key(s.str());
  }
}

template <class Stream, io::Walks<cluster::ClusterSpec> T>
void walk(Stream& s, T& c) {
  io::seq(s, c.servers, kMaxClusterServers, "cluster server",
          [](auto& s, auto& v) {
            io::fields(s, v.name, v.sku, v.cpu_cores, v.cpu_flops,
                       v.ram_bytes, v.disk_bw_bps, v.net_bw_bps, v.gpus,
                       v.gpu_flops, v.gpu_mem_bytes, v.cpu_availability,
                       v.mem_availability);
          });
  io::field(s, c.nfs_bw_bps);
}

template <class Stream, io::Walks<PredictRequest> T>
void walk(Stream& s, T& req, bool with_parallelism = true) {
  walk(s, req.workload, with_parallelism);
  walk(s, req.cluster);
}

}  // namespace pddl::core
