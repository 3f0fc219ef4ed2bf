// Empirical docking score with the AutoDock Vina functional form (Trott &
// Olson 2010): two attractive Gaussians, a steric repulsion, a hydrophobic
// term and a directional-free H-bond term over surface distances, divided by
// a rotor penalty. This is the CDT3Docking scorer of our ConveyorLC
// equivalent and one of the three energy models compared throughout the
// paper's evaluation.
#pragma once

#include <cstdint>
#include <vector>

#include "chem/molecule.h"

namespace df::dock {

using chem::Atom;
using chem::Molecule;

struct VinaWeights {
  float gauss1 = -0.0356f;
  float gauss2 = -0.00516f;
  float repulsion = 0.840f;
  float hydrophobic = -0.0351f;
  float hbond = -0.587f;
  float rotor = 0.0585f;  // conformational entropy penalty per rotor
};

struct TermBreakdown {
  float gauss1 = 0, gauss2 = 0, repulsion = 0, hydrophobic = 0, hbond = 0;
  /// Intermolecular electrostatic energy (not part of the Vina score; used
  /// by the MM/GBSA surrogate and the data oracle).
  float electrostatic = 0;
};

/// Per-atom ligand invariants the score reads besides coordinates: built
/// once per ligand and reused for every pose of a search.
struct LigandTypes {
  std::vector<float> vdw;  // vdW radius
  // Lane masks: -1 where the property holds, 0 otherwise.
  std::vector<int32_t> hydrophobic, donor, acceptor;
  std::vector<int8_t> charge;  // formal charge

  void assign(const Molecule& ligand);
  size_t size() const { return vdw.size(); }
};

/// The pocket as 16-lane structure-of-arrays blocks, the layout the Vina
/// terms sweep; the tail block's padding lanes carry `live` = 0. Charged
/// atoms are also listed in pocket order for the electrostatic sum.
struct PocketLanes {
  static constexpr size_t kLanes = 16;
  size_t blocks = 0;
  std::vector<float> x, y, z, vdw;
  std::vector<int32_t> live, hydrophobic, donor, acceptor;  // lane masks
  std::vector<Atom> charged;

  void assign(const std::vector<Atom>& pocket);
};

/// Raw pairwise term sums between ligand atoms at `pos` and the pocket
/// (cutoff 8 A). The five Vina terms accumulate per lane (pocket atom j
/// in lane j % 16, ligand atoms in order) through core::simd::vexp16, then
/// the lanes are summed in lane order; the electrostatic term keeps the
/// serial (ligand, pocket) pair order. See docs/API.md for the contract.
TermBreakdown score_terms(const LigandTypes& ligand, const core::Vec3* pos,
                          const PocketLanes& pocket);
/// The same sums for a Molecule and a pocket atom list.
TermBreakdown score_terms(const Molecule& ligand, const std::vector<Atom>& pocket);

/// Vina-style total from term sums and the ligand's rotor count.
float vina_score(const TermBreakdown& t, int rotors, const VinaWeights& w = {});
/// Vina-style total score in kcal/mol (more negative = better binding).
float vina_score(const Molecule& ligand, const std::vector<Atom>& pocket,
                 const VinaWeights& w = {});

/// Convert a Vina-like score to a predicted pK (the standard -dG/(2.303 RT)
/// conversion at 298 K).
float score_to_pk(float score_kcal);

}  // namespace df::dock
