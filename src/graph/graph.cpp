#include "graph/graph.h"

#include <cstring>
#include <stdexcept>

namespace df::graph {

PackedGraphBatch pack_graphs(const std::vector<const SpatialGraph*>& graphs) {
  if (graphs.empty()) throw std::invalid_argument("pack_graphs: empty batch");

  PackedGraphBatch out;
  out.node_offset.reserve(graphs.size() + 1);
  out.ligand_counts.reserve(graphs.size());
  out.node_offset.push_back(0);
  int64_t total_nodes = 0;
  size_t total_cov = 0, total_noncov = 0;
  int64_t F = -1;
  for (const SpatialGraph* g : graphs) {
    if (g == nullptr || g->num_nodes() == 0) {
      throw std::invalid_argument("pack_graphs: empty graph in batch");
    }
    if (F < 0) F = g->feature_dim();
    if (g->feature_dim() != F) {
      throw std::invalid_argument("pack_graphs: mismatched node feature widths");
    }
    total_nodes += g->num_nodes();
    total_cov += g->covalent.size();
    total_noncov += g->noncovalent.size();
    out.node_offset.push_back(total_nodes);
    out.ligand_counts.push_back(g->num_ligand_nodes);
  }

  out.node_features = Tensor::uninit({total_nodes, F});
  out.covalent.src.resize(total_cov);
  out.covalent.dst.resize(total_cov);
  out.noncovalent.src.resize(total_noncov);
  out.noncovalent.dst.resize(total_noncov);

  // Shift each graph's edge ids by its node offset into the packed lists.
  auto append_shifted = [](const std::vector<int32_t>& from, int32_t shift, int32_t* to) {
    const int32_t* src = from.data();
    for (size_t e = 0; e < from.size(); ++e) to[e] = src[e] + shift;
  };
  size_t cov_at = 0, noncov_at = 0;
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const SpatialGraph& g = *graphs[gi];
    const int64_t base = out.node_offset[gi];
    std::memcpy(out.node_features.data() + base * F, g.node_features.data(),
                static_cast<size_t>(g.num_nodes() * F) * sizeof(float));
    const int32_t shift = static_cast<int32_t>(base);
    append_shifted(g.covalent.src, shift, out.covalent.src.data() + cov_at);
    append_shifted(g.covalent.dst, shift, out.covalent.dst.data() + cov_at);
    append_shifted(g.noncovalent.src, shift, out.noncovalent.src.data() + noncov_at);
    append_shifted(g.noncovalent.dst, shift, out.noncovalent.dst.data() + noncov_at);
    cov_at += g.covalent.size();
    noncov_at += g.noncovalent.size();
  }
  return out;
}

}  // namespace df::graph
