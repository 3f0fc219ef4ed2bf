#include "chem/graph_featurizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "chem/cell_list.h"

namespace df::chem {

namespace {
void fill_node_features(core::Tensor& feats, int64_t row, const Atom& a, int degree,
                        bool is_ligand) {
  feats.at(row, element_index(a.element)) = 1.0f;
  int64_t off = kNumElements;
  feats.at(row, off + 0) = static_cast<float>(degree) / 4.0f;
  feats.at(row, off + 1) = a.aromatic ? 1.0f : 0.0f;
  feats.at(row, off + 2) = static_cast<float>(a.formal_charge);
  const ElementInfo& info = element_info(a.element);
  feats.at(row, off + 3) = info.hydrophobic ? 1.0f : 0.0f;
  feats.at(row, off + 4) = (info.hbond_donor_heavy && a.implicit_h > 0) ? 1.0f : 0.0f;
  feats.at(row, off + 5) = info.hbond_acceptor ? 1.0f : 0.0f;
  feats.at(row, off + 6) = is_ligand ? 1.0f : 0.0f;
}
}  // namespace

graph::SpatialGraph GraphFeaturizer::featurize(const Molecule& ligand,
                                               const std::vector<Atom>& pocket) const {
  return featurize(ligand, pocket, nullptr);
}

graph::SpatialGraph GraphFeaturizer::featurize(const Molecule& ligand,
                                               const std::vector<Atom>& pocket,
                                               const CellList* crop_cells_in) const {
  graph::SpatialGraph g;
  const int64_t nl = static_cast<int64_t>(ligand.num_atoms());
  const int64_t np = std::min<int64_t>(static_cast<int64_t>(pocket.size()), cfg_.max_pocket_atoms);

  // Select the pocket atoms nearest to the ligand centroid (the paper's
  // featurization crops the pocket around the binding site similarly).
  // Ordered by (distance, index) — the index tie-break makes the crop
  // deterministic for symmetric pockets where distances tie exactly.
  const core::Vec3 lc = ligand.centroid();
  static thread_local std::vector<int32_t> pocket_order;
  // Each stage gates on its own working-set size: the crop sees the full
  // pocket, the pair scans only the cropped graph.
  const bool crop_cells_on =
      cfg_.use_cell_list && static_cast<int>(pocket.size()) >= cfg_.cell_list_min_atoms;
  if (crop_cells_in != nullptr && !pocket.empty()) {
    // Pre-built list from the pocket cache: skip the O(pocket) build and
    // query it directly. knearest ≡ the (distance, index) sort at any
    // size, so taking the cell route unconditionally here stays bitwise.
    crop_cells_in->knearest(lc, static_cast<int32_t>(np), pocket_order);
  } else if (crop_cells_on && !pocket.empty()) {
    static thread_local CellList crop_cells;
    static thread_local std::vector<core::Vec3> ppos;
    ppos.resize(pocket.size());
    for (size_t i = 0; i < pocket.size(); ++i) ppos[i] = pocket[i].pos;
    crop_cells.build(ppos.data(), static_cast<int32_t>(pocket.size()), cfg_.noncovalent_threshold);
    crop_cells.knearest(lc, static_cast<int32_t>(np), pocket_order);
  } else {
    static thread_local std::vector<std::pair<float, int32_t>> by_dist;
    by_dist.resize(pocket.size());
    for (size_t i = 0; i < pocket.size(); ++i) {
      by_dist[i] = {pocket[i].pos.dist(lc), static_cast<int32_t>(i)};
    }
    std::sort(by_dist.begin(), by_dist.end());
    pocket_order.resize(static_cast<size_t>(np));
    for (int64_t i = 0; i < np; ++i) pocket_order[static_cast<size_t>(i)] = by_dist[static_cast<size_t>(i)].second;
  }

  // Combined position array: ligand atoms first, then the cropped pocket in
  // crop order. Both the cell-list and brute-force pair scans read from this
  // one array, so every distance below is the same float either way.
  const int64_t total = nl + np;
  static thread_local std::vector<core::Vec3> xyz;
  xyz.resize(static_cast<size_t>(total));
  for (int64_t i = 0; i < nl; ++i) xyz[static_cast<size_t>(i)] = ligand.atoms()[static_cast<size_t>(i)].pos;
  static thread_local std::vector<const Atom*> sel;
  sel.resize(static_cast<size_t>(np));
  for (int64_t i = 0; i < np; ++i) {
    sel[static_cast<size_t>(i)] = &pocket[static_cast<size_t>(pocket_order[static_cast<size_t>(i)])];
    xyz[static_cast<size_t>(nl + i)] = sel[static_cast<size_t>(i)]->pos;
  }

  // One cell list over the combined atoms serves both the pseudo-bond scan
  // (covalent threshold) and the non-covalent scan: cell size is the larger
  // threshold, so gather() is a superset for both predicates.
  static thread_local CellList pair_cells;
  static thread_local std::vector<int32_t> cand;
  const bool use_cells = cfg_.use_cell_list && total >= cfg_.cell_list_min_atoms && total > 0;
  if (use_cells) {
    pair_cells.build(xyz.data(), static_cast<int32_t>(total), cfg_.noncovalent_threshold);
  }

  // Protein pseudo-bonds: pocket atoms within the covalent threshold.
  // Collected before node features so v2 can derive pocket degrees from them.
  static thread_local std::vector<std::pair<int32_t, int32_t>> pseudo;
  pseudo.clear();
  for (int64_t i = nl; i < total; ++i) {
    // covers_all: gather would be the identity permutation, so the plain
    // j>i scan visits the same atoms in the same order — skip the list.
    if (use_cells && !pair_cells.covers_all(xyz[static_cast<size_t>(i)])) {
      pair_cells.gather(xyz[static_cast<size_t>(i)], cand);
      for (int32_t j : cand) {
        if (j <= i) continue;
        if (xyz[static_cast<size_t>(i)].dist(xyz[static_cast<size_t>(j)]) <= cfg_.covalent_threshold) {
          pseudo.emplace_back(static_cast<int32_t>(i), j);
        }
      }
    } else {
      for (int64_t j = i + 1; j < total; ++j) {
        if (xyz[static_cast<size_t>(i)].dist(xyz[static_cast<size_t>(j)]) <= cfg_.covalent_threshold) {
          pseudo.emplace_back(static_cast<int32_t>(i), static_cast<int32_t>(j));
        }
      }
    }
  }

  g.node_features = core::Tensor({total, kGraphNodeFeatures});
  g.num_ligand_nodes = static_cast<int32_t>(nl);

  for (int64_t i = 0; i < nl; ++i) {
    fill_node_features(g.node_features, i, ligand.atoms()[static_cast<size_t>(i)],
                       ligand.degree(static_cast<int32_t>(i)), true);
  }
  // v1 pins pocket degree at 0 (the historical behaviour models were trained
  // against); v2 reports each pocket node's pseudo-bond degree.
  static thread_local std::vector<int> pdeg;
  pdeg.assign(static_cast<size_t>(np), 0);
  if (cfg_.feature_set_version >= 2) {
    for (const auto& pb : pseudo) {
      ++pdeg[static_cast<size_t>(pb.first - nl)];
      ++pdeg[static_cast<size_t>(pb.second - nl)];
    }
  }
  for (int64_t i = 0; i < np; ++i) {
    fill_node_features(g.node_features, nl + i, *sel[static_cast<size_t>(i)],
                       pdeg[static_cast<size_t>(i)], false);
  }

  // Covalent edges: ligand bond graph, then the protein pseudo-bonds.
  for (const Bond& b : ligand.bonds()) g.covalent.add_undirected(b.a, b.b);
  for (const auto& pb : pseudo) g.covalent.add_undirected(pb.first, pb.second);

  // v2: interface H-bond pairs, keyed (ligand_atom << 32 | pocket_node) for
  // binary-search lookup during the edge scan.
  static thread_local std::vector<int64_t> hbond_keys;
  hbond_keys.clear();
  if (cfg_.feature_set_version >= 2 && nl > 0 && np > 0) {
    static thread_local std::vector<Atom> sel_atoms;
    sel_atoms.resize(static_cast<size_t>(np));
    for (int64_t i = 0; i < np; ++i) sel_atoms[static_cast<size_t>(i)] = *sel[static_cast<size_t>(i)];
    for (const HBond& hb : find_hbonds(ligand, sel_atoms, cfg_.hbond)) {
      hbond_keys.push_back((static_cast<int64_t>(hb.ligand_atom) << 32) |
                           static_cast<int64_t>(nl + hb.pocket_atom));
    }
    std::sort(hbond_keys.begin(), hbond_keys.end());
  }

  // Non-covalent edges: any pair within the spatial threshold that is not
  // covalently bonded. Ligand–protein pairs dominate by construction. Both
  // paths enumerate (i, ascending j > i) with the same predicate, so the
  // edge lists are bitwise identical.
  auto bonded = [&](int32_t a, int32_t b) {
    if (a >= nl || b >= nl) return false;
    for (int32_t u : ligand.neighbors(a)) {
      if (u == b) return true;
    }
    return false;
  };
  // Edges collect in a reused scratch list and are copied out once at the
  // end: the graph's own vectors get one exact allocation instead of a
  // growth chain per pose.
  static thread_local graph::EdgeList noncov;
  noncov.src.clear();
  noncov.dst.clear();
  static thread_local std::vector<float> efeat;
  efeat.clear();
  const bool want_efeat = cfg_.feature_set_version >= 2;
  auto try_edge = [&](int32_t i, int32_t j) {
    const float d = xyz[static_cast<size_t>(i)].dist(xyz[static_cast<size_t>(j)]);
    if (d <= cfg_.noncovalent_threshold && d > cfg_.covalent_threshold && !bonded(i, j)) {
      noncov.add_undirected(i, j);
      if (want_efeat) {
        const bool hb = i < nl && j >= nl &&
                        std::binary_search(hbond_keys.begin(), hbond_keys.end(),
                                           (static_cast<int64_t>(i) << 32) | static_cast<int64_t>(j));
        const float dn = d / cfg_.noncovalent_threshold;
        const float hbf = hb ? 1.0f : 0.0f;
        // One row per directed edge, matching add_undirected's (i,j),(j,i).
        efeat.push_back(dn); efeat.push_back(hbf);
        efeat.push_back(dn); efeat.push_back(hbf);
      }
    }
  };
  for (int64_t i = 0; i < total; ++i) {
    if (use_cells && !pair_cells.covers_all(xyz[static_cast<size_t>(i)])) {
      pair_cells.gather(xyz[static_cast<size_t>(i)], cand);
      for (int32_t j : cand) {
        if (j > i) try_edge(static_cast<int32_t>(i), j);
      }
    } else {
      for (int64_t j = i + 1; j < total; ++j) {
        try_edge(static_cast<int32_t>(i), static_cast<int32_t>(j));
      }
    }
  }
  g.noncovalent.src.assign(noncov.src.begin(), noncov.src.end());
  g.noncovalent.dst.assign(noncov.dst.begin(), noncov.dst.end());
  if (want_efeat && !efeat.empty()) {
    const int64_t ne = static_cast<int64_t>(efeat.size()) / kGraphEdgeFeaturesV2;
    g.noncovalent_features = core::Tensor({ne, kGraphEdgeFeaturesV2});
    std::copy(efeat.begin(), efeat.end(), g.noncovalent_features.data());
  }
  return g;
}

}  // namespace df::chem
