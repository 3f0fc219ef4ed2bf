#include "dock/docking.h"

#include <algorithm>
#include <cmath>

namespace df::dock {

DockingResult DockingEngine::dock(const Molecule& ligand, const std::vector<Atom>& pocket,
                                  const core::Vec3& site_center, core::Rng& rng) const {
  DockingResult out;
  // Per-call invariants: the ligand's atom types and rotor count, the
  // pocket's lane blocks and the centroid every pose rotates about. Each
  // candidate is placed into one reused coordinate buffer (bitwise the
  // positions Pose::apply gives), so a Monte Carlo step allocates nothing.
  LigandTypes types;
  types.assign(ligand);
  PocketLanes lanes;
  lanes.assign(pocket);
  const int rotors = ligand.num_rotatable_bonds();
  const core::Vec3 centroid = ligand.centroid();
  std::vector<core::Vec3> coords(ligand.num_atoms());
  auto score = [&](const Pose& p) {
    p.place(ligand, centroid, site_center, coords.data());
    ++out.total_evaluations;
    return vina_score(score_terms(types, coords.data(), lanes), rotors, cfg_.weights);
  };

  std::vector<Pose> best_per_run;
  best_per_run.reserve(static_cast<size_t>(std::max(0, cfg_.num_runs)));
  for (int run = 0; run < cfg_.num_runs; ++run) {
    Pose current = random_pose(rng, cfg_.box_half);
    current.score = score(current);
    Pose best = current;
    for (int step = 0; step < cfg_.steps_per_run; ++step) {
      Pose cand = perturb(current, rng);
      // Keep the pose inside the search box.
      cand.translation.x = std::clamp(cand.translation.x, -cfg_.box_half, cfg_.box_half);
      cand.translation.y = std::clamp(cand.translation.y, -cfg_.box_half, cfg_.box_half);
      cand.translation.z = std::clamp(cand.translation.z, -cfg_.box_half, cfg_.box_half);
      cand.score = score(cand);
      const float delta = cand.score - current.score;
      if (delta < 0.0f || rng.uniform() < std::exp(-delta / cfg_.temperature)) {
        current = cand;
        if (current.score < best.score) best = current;
      }
    }
    best_per_run.push_back(best);
  }

  std::sort(best_per_run.begin(), best_per_run.end(),
            [](const Pose& a, const Pose& b) { return a.score < b.score; });

  // Deduplicate by heavy-atom RMSD against already-accepted poses.
  for (const Pose& p : best_per_run) {
    if (static_cast<int>(out.poses.size()) >= cfg_.max_poses) break;
    Molecule pm = p.apply(ligand, site_center);
    bool dup = false;
    for (const Molecule& accepted : out.conformers) {
      if (chem::pose_rmsd(pm, accepted) < cfg_.dedup_rmsd) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      out.poses.push_back(p);
      out.conformers.push_back(std::move(pm));
    }
  }
  return out;
}

}  // namespace df::dock
