// Rigid-body pose: translation + axis-angle rotation applied to a ligand
// conformer, plus the Monte-Carlo perturbation move used by the docking
// search. Poses are what ConveyorLC's CDT3Docking emits (up to 10 per
// compound per site) and what the screening pipeline scores by the billions.
#pragma once

#include "chem/molecule.h"
#include "core/rng.h"
#include "core/vec3.h"

namespace df::dock {

using chem::Molecule;
using core::Vec3;

struct Pose {
  Vec3 translation;     // of the ligand centroid relative to box center
  Vec3 axis{1, 0, 0};   // unit rotation axis
  float angle = 0.0f;   // radians
  float score = 0.0f;   // scorer value attached by the search
  float rmsd_to_ref = -1.0f;  // filled by evaluation code when a reference exists

  /// Apply to a centred ligand copy: rotate about its centroid, then place
  /// the centroid at box_center + translation.
  Molecule apply(const Molecule& ligand, const Vec3& box_center) const;
  /// Write the posed coordinates of `ligand` (whose centroid is
  /// `centroid`) to out[0, num_atoms): the positions apply() gives — it runs
  /// this same loop — without copying the Molecule.
  void place(const Molecule& ligand, const Vec3& centroid, const Vec3& box_center,
             Vec3* out) const;
};

/// Gaussian rigid-body perturbation (sigma_t in Angstrom, sigma_r in rad).
Pose perturb(const Pose& p, core::Rng& rng, float sigma_t = 0.5f, float sigma_r = 0.25f);

/// Uniform random pose inside a cubic box of half-extent `box_half`.
Pose random_pose(core::Rng& rng, float box_half);

}  // namespace df::dock
