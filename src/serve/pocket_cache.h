// Cross-request pocket cache — per-target amortization of protein-side
// featurization work.
//
// A screening campaign scores thousands of poses against a handful of
// receptors (the paper: four SARS-CoV-2 sites). This LRU keyed by pocket
// content holds (a) the protein-only voxel grid, grafted per pose via the
// pocket-aware Voxelizer::voxelize_ligand_onto, which is bitwise-valid at
// every feature-set version, and (b) the pocket-side CellList the graph
// featurizer's k-nearest crop queries (GraphFeaturizer::featurize's
// crop_cells overload). It is RegressorScorer's only pocket route: every
// replica owns a small private cache, and a ScoringService may share one
// across all of its replicas instead.
//
// Keys are a 64-bit FNV-1a hash over the full pocket content (every atom
// field bit-exactly), the grid center, the complete VoxelConfig and the
// crop cell size; a hit additionally verifies the stored content byte for
// byte, so a hash collision degrades to a rebuild, never a wrong grid.
// Changing feature_set_version or any grid knob therefore misses — that IS
// the invalidation semantics.
//
// Entries are returned as shared_ptr<const Entry>: eviction drops the
// cache's reference, never a reader's, so replicas may keep using an entry
// that was just evicted. Entry tensors own their storage — heap buffers
// (Workspace::Unbind during the build), or an entry-owned arena taken from
// reserve()'s pool — so they survive the caller's arena resets.
// All queries on a built entry are const and thread-safe; the cache itself
// is mutex-guarded and shared across service workers.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "chem/cell_list.h"
#include "chem/graph_featurizer.h"
#include "chem/molecule.h"
#include "chem/voxelizer.h"
#include "core/tensor.h"
#include "core/workspace.h"

namespace df::serve {

class PocketCache {
 public:
  struct Entry {
    // Stored for exact-content verification on hash hit.
    std::vector<chem::Atom> atoms;
    core::Vec3 center;
    chem::VoxelConfig voxel_cfg;
    float crop_cell_size = 0.0f;

    // The cached work products. `storage` backs `grid` when the entry was
    // built from reserved storage (null otherwise: the grid heap-owns).
    std::unique_ptr<core::Workspace> storage;
    core::Tensor grid;          // protein-only voxel grid
    chem::CellList crop_cells;  // over atoms' positions; unbuilt when pocket empty
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  /// `max_targets` caps live entries (LRU eviction beyond it); clamped to
  /// at least 1.
  explicit PocketCache(size_t max_targets);

  /// Fetch or build the entry for (pocket, center) under the two
  /// featurizer configs. A build runs inside the cache lock, so concurrent
  /// first requests for the same receptor build it exactly once.
  std::shared_ptr<const Entry> lookup(const std::vector<chem::Atom>& pocket,
                                      const core::Vec3& center,
                                      const chem::Voxelizer& voxelizer,
                                      const chem::GraphFeaturizer& featurizer);

  /// Pre-allocate storage for the next `entries` builds of a
  /// `grid_floats`-float grid, so those misses make no tensor heap
  /// allocation — a compiled replica's first batch stays allocation-free
  /// (RegressorScorer::reserve_workspaces).
  void reserve(size_t entries, size_t grid_floats);

  Stats stats() const;
  size_t size() const;
  size_t capacity() const { return max_targets_; }

 private:
  using LruList = std::list<std::pair<uint64_t, std::shared_ptr<const Entry>>>;

  size_t max_targets_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recent
  std::unordered_map<uint64_t, LruList::iterator> by_key_;
  Stats stats_;
  std::vector<std::unique_ptr<core::Workspace>> reserved_;  // reserve()'s pool
};

}  // namespace df::serve
