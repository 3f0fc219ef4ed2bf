// MM/GBSA rescoring surrogate (our CDT4mmgbsa) and the AMPL ML surrogate of
// it. The physics version pays the real cost the paper reports (orders of
// magnitude slower than docking: local pose minimization + O(N^2)
// generalized-Born sums per pose); the AMPL surrogate is a per-target ridge
// regression over cheap descriptors fitted to MM/GBSA outputs, matching
// McLoughlin's AMPL-predicted MM/GBSA used in the paper's §5.2 analysis.
//
// Pairwise ligand–pocket sums route through the chem::CellList neighbor
// engine by default (O(N) in pocket size). The cell-list and brute-force
// paths are bitwise identical for every term — tests/test_cell_list.cpp
// pins this — because the cell gather is a sorted superset and each term
// applies its own exact cutoff predicate in the same ascending order.
#pragma once

#include <vector>

#include "chem/molecule.h"
#include "dock/scoring.h"

namespace df::dock {

struct MmGbsaConfig {
  int minimize_iterations = 60;  // rigid-body local minimization steps
  float dielectric_solute = 1.0f;
  float dielectric_solvent = 78.5f;
  float surface_tension = 0.0072f;  // kcal/mol/A^2 (SA term)
  float gb_scale = 0.8f;
  /// Damping on the pairwise GB cross-term: our point charges are crude
  /// (formal + heuristic partials), so the raw Still sum overshoots real
  /// binding dG by ~10x without it.
  float polar_scale = 0.1f;
  /// LJ pair cutoff and lower distance clamp (Angstrom) — previously magic
  /// constants inside the kernel.
  float lj_cutoff = 9.0f;
  float lj_min_r = 0.8f;
  /// GB pair cutoff. 0 keeps the historical cutoff-free exact Still sum;
  /// a positive value enables truncation (and the cell-list route).
  float gb_cutoff = 0.0f;
  /// SA pair cutoff. The default equals the largest possible contact
  /// distance (2 * max vdW radius + 1.4 A probe), beyond which the buried
  /// term is identically zero — so the default changes nothing numerically.
  /// Must stay >= that contact bound for the cell-list path to be exact.
  float sa_cutoff = 5.4f;
  /// Route pairwise sums through chem::CellList. Both settings are bitwise
  /// identical; false keeps the brute-force reference for tests/benches.
  bool use_cell_list = true;
  /// Engage the cell route only at or above this pocket size. Below it the
  /// brute scan's contiguous (auto-vectorized) sweep beats the engine's
  /// indexed gather — the measured crossover on the reference builder sits
  /// between 1k and 4k atoms (bench_service_throughput neighbor block).
  /// Output is bitwise identical either way; 0 forces the engine.
  int32_t cell_list_min_atoms = 2048;
};

/// The MM interaction terms of one pose from one fused pair sweep: LJ 6-12
/// and interface electrostatics (the MM-GBSA minimizer's objective).
struct MmTerms {
  float lj = 0.0f, elec = 0.0f;
};
MmTerms mm_terms(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
                 const MmGbsaConfig& cfg = {});

/// Lennard-Jones 6-12 between ligand and pocket (kcal/mol, eps=0.15): an
/// LJ-only sweep, bitwise mm_terms(...).lj.
float lj_energy(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
                const MmGbsaConfig& cfg = {});
/// Generalized-Born polar solvation change on binding (Still-style pairwise
/// sum over heuristic partial charges).
float gb_polar(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
               const MmGbsaConfig& cfg = {});
/// Nonpolar (surface-area) term: buried-contact proxy.
float sa_nonpolar(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
                  const MmGbsaConfig& cfg = {});
/// Interface electrostatics, bitwise identical to
/// score_terms(...).electrostatic (same 8 A cutoff, same accumulation
/// order): mm_terms(...).elec.
float elec_energy(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
                  const MmGbsaConfig& cfg = {});

/// Single-point MM/GBSA estimate for one pose (kcal/mol, negative = good).
/// Deliberately expensive relative to vina_score; do not call inside hot
/// screening loops — that asymmetry is the paper's Table-7 story.
float mmgbsa_score(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
                   const MmGbsaConfig& cfg = {});

/// AMPL-style learned surrogate: ridge regression from ligand/interface
/// descriptors to MM/GBSA score, trained per target.
class AmplMmGbsaSurrogate {
 public:
  /// Fit on example poses and their true MM/GBSA scores.
  void fit(const std::vector<Molecule>& poses, const std::vector<std::vector<Atom>>& pockets,
           const std::vector<float>& mmgbsa_scores, float ridge = 1.0f);
  /// Fit on precomputed descriptor rows (one features() vector per pose):
  /// bitwise the same weights as the pose overload for the same poses.
  void fit(const std::vector<std::vector<double>>& rows, const std::vector<float>& mmgbsa_scores,
           float ridge = 1.0f);

  float predict(const Molecule& pose, const std::vector<Atom>& pocket) const;
  /// Predict from a precomputed features() vector; bitwise equal to the
  /// pose overload.
  float predict(const std::vector<double>& row) const;
  bool trained() const { return !weights_.empty(); }
  /// Ridge weights, bias last; empty before fit.
  const std::vector<double>& weights() const { return weights_; }

  /// Descriptor vector used by the regression. Depends only on (pose,
  /// pocket), so callers may compute it wherever the pose is produced.
  static std::vector<double> features(const Molecule& pose, const std::vector<Atom>& pocket);

 private:
  std::vector<double> weights_;  // includes bias as the last element
};

}  // namespace df::dock
