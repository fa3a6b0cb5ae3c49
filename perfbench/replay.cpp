#include "replay.hpp"

#include <fstream>
#include <memory>
#include <span>

#include "ghn/registry.hpp"
#include "rpc/wire.hpp"

namespace pddl::perfbench {

int Trace::open(const char* name, int parent, std::int64_t request) {
  if (!on_) return -1;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void Trace::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
}

std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfTime& t = out[spans[i].name];
    t.self_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns) -
                 child_ns[i];
    ++t.spans;
  }
  return out;
}

void append_spans(const std::string& path, const std::string& source,
                  const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::app);
  PDDL_CHECK(out.good(), "cannot write spans to ", path);
  for (const Span& s : spans) {
    out << "{\"source\":\"" << source << "\",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
}

Replay::Replay(core::PredictDdl& pddl, const Mix& mix)
    : pddl_(pddl), mix_(mix) {
  // Distinct pairs in the order the connections first send them, cut into
  // frames of the workload's size.
  std::vector<bool> seen(mix.pairs.size(), false);
  std::vector<std::size_t> order;
  for (const Stream& s : mix.streams) {
    for (std::size_t pair : s.positions) {
      if (!seen[pair]) {
        seen[pair] = true;
        order.push_back(pair);
      }
    }
  }
  PDDL_CHECK(order.size() == mix.pairs.size(), "a pair is never sent");
  for (std::size_t i = 0; i < order.size(); i += mix.frame) {
    frames_.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(i),
                         order.begin() + static_cast<std::ptrdiff_t>(std::min(
                                             i + mix.frame, order.size())));
  }
  Trace off(false, Clock::now());
  run(off, false, reference_);
}

bool Replay::pass(Trace& trace, bool bypass_cache) {
  std::vector<double> got;
  const bool wire_ok = run(trace, bypass_cache, got);
  return wire_ok && got == reference_;
}

bool Replay::run(Trace& trace, bool bypass_cache, std::vector<double>& out) {
  serve::ShardedEmbeddingCache* cache = bypass_cache ? nullptr : &cache_;
  struct Item {
    graph::CompGraph graph;
    std::uint64_t fp = 0;
    std::uint64_t checksum = 0;
    std::shared_ptr<const ghn::GhnInference> fast;
    std::shared_ptr<const core::InferenceEngine> engine;
    Vector embedding;
    bool hit = false;
  };
  bool wire_ok = true;
  out.assign(mix_.pairs.size(), 0.0);
  for (std::size_t f = 0; f < frames_.size(); ++f) {
    const std::vector<std::size_t>& ids = frames_[f];
    const auto fid = static_cast<std::int64_t>(f);
    Scoped frame(trace, "frame", -1, fid);

    rpc::Request sent;
    sent.op = rpc::Op::kPredictBatch;
    for (std::size_t id : ids) sent.reqs.push_back(mix_.pairs[id]);
    std::string wire;
    {
      Scoped s(trace, "rpc.encode", frame.id(), fid);
      wire = rpc::encode_frame(rpc::encode_request(sent));
    }
    rpc::Request got;
    {
      Scoped s(trace, "rpc.decode", frame.id(), fid);
      got = rpc::decode_request(rpc::decode_frame(wire));
    }

    std::vector<Item> items(got.reqs.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const core::PredictRequest& r = got.reqs[i];
      const auto rid = static_cast<std::int64_t>(ids[i]);
      const std::string& dataset = r.workload.dataset.name;
      Item& it = items[i];
      it.engine = pddl_.engine_if_ready(dataset);
      it.fast = pddl_.registry().inference(dataset, ghn::Precision::kF32);
      PDDL_CHECK(it.engine != nullptr, "no fitted predictor for ", dataset);
      it.checksum = it.fast->source_checksum();
      {
        Scoped s(trace, "graph.build", frame.id(), rid);
        it.graph = r.workload.build_graph();
      }
      {
        Scoped s(trace, "ghn.fingerprint", frame.id(), rid);
        it.fp = ghn::structural_fingerprint(it.graph);
      }
      if (cache != nullptr) {
        Scoped s(trace, "serve.cache_get", frame.id(), rid);
        if (auto hit = cache->get(dataset, it.fp, it.checksum)) {
          it.embedding = std::move(*hit);
          it.hit = true;
        }
      }
    }

    // Misses: one batched forward pass per engine, duplicate fingerprints
    // embedded once — the service's dispatch grouping.
    std::vector<std::pair<const ghn::GhnInference*, std::vector<std::size_t>>>
        groups;
    std::vector<std::pair<std::size_t, std::size_t>> dups;  // (dup, rep)
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].hit) continue;
      const ghn::GhnInference* fast = items[i].fast.get();
      auto g = std::find_if(groups.begin(), groups.end(),
                            [fast](const auto& e) { return e.first == fast; });
      if (g == groups.end()) {
        groups.emplace_back(fast, std::vector<std::size_t>{});
        g = std::prev(groups.end());
      }
      auto rep = std::find_if(g->second.begin(), g->second.end(),
                              [&](std::size_t k) {
                                return items[k].fp == items[i].fp;
                              });
      if (rep != g->second.end()) {
        dups.emplace_back(i, *rep);
      } else {
        g->second.push_back(i);
      }
    }
    for (auto& [fast, reps] : groups) {
      std::vector<const graph::CompGraph*> graphs;
      std::vector<Vector*> outs;
      for (std::size_t k : reps) {
        graphs.push_back(&items[k].graph);
        outs.push_back(&items[k].embedding);
      }
      {
        Scoped s(trace, "ghn.embed", frame.id(), fid);
        fast->embed_batch_into(
            std::span<const graph::CompGraph* const>(graphs),
            std::span<Vector* const>(outs));
      }
      graphs_embedded_ += reps.size();
      if (cache != nullptr) {
        for (std::size_t k : reps) {
          cache->put(got.reqs[k].workload.dataset.name, items[k].fp,
                      items[k].checksum, items[k].embedding);
        }
      }
    }
    for (const auto& [dup, rep] : dups) {
      items[dup].embedding = items[rep].embedding;
    }

    rpc::Response resp;
    resp.op = rpc::Op::kPredictBatch;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const core::PredictRequest& r = got.reqs[i];
      const auto rid = static_cast<std::int64_t>(ids[i]);
      Vector feats;
      {
        Scoped s(trace, "core.features", frame.id(), rid);
        feats = pddl_.features().assemble_features(items[i].embedding,
                                                   r.workload, r.cluster);
      }
      double predicted = 0.0;
      {
        Scoped s(trace, "regress.predict", frame.id(), rid);
        predicted = items[i].engine->predict(feats);
      }
      out[ids[i]] = predicted;
      serve::ServeResult result;
      result.status = serve::ServeStatus::kOk;
      result.response.predicted_time_s = predicted;
      result.cache_hit = items[i].hit;
      resp.results.push_back(std::move(result));
    }
    {
      Scoped s(trace, "rpc.encode", frame.id(), fid);
      wire = rpc::encode_frame(rpc::encode_response(resp));
    }
    rpc::Response back;
    {
      Scoped s(trace, "rpc.decode", frame.id(), fid);
      back = rpc::decode_response(rpc::decode_frame(wire));
    }
    wire_ok = wire_ok && back.results.size() == items.size();
    for (std::size_t i = 0; wire_ok && i < items.size(); ++i) {
      wire_ok = back.results[i].response.predicted_time_s ==
                               out[ids[i]];
    }
  }
  return wire_ok;
}

}  // namespace pddl::perfbench
