#include "dock/pose.h"

#include <cmath>
#include <vector>

namespace df::dock {

void Pose::place(const Molecule& ligand, const Vec3& centroid, const Vec3& box_center,
                 Vec3* out) const {
  const Vec3 k = axis.normalized();
  const float c = std::cos(angle), s = std::sin(angle);
  const Vec3 shift = box_center + translation - centroid;
  for (size_t i = 0; i < ligand.num_atoms(); ++i) {
    const Vec3 v = ligand.atoms()[i].pos - centroid;
    out[i] = centroid + core::rotate_axis_angle(v, k, c, s) + shift;
  }
}

Molecule Pose::apply(const Molecule& ligand, const Vec3& box_center) const {
  Molecule m = ligand;
  std::vector<Vec3> pos(m.num_atoms());
  place(ligand, m.centroid(), box_center, pos.data());
  for (size_t i = 0; i < pos.size(); ++i) m.atoms()[i].pos = pos[i];
  return m;
}

Pose perturb(const Pose& p, core::Rng& rng, float sigma_t, float sigma_r) {
  Pose q = p;
  q.translation += Vec3{rng.normal(0, sigma_t), rng.normal(0, sigma_t), rng.normal(0, sigma_t)};
  // Compose with a small random rotation: approximate by re-randomizing the
  // axis slightly and adding angle noise (adequate for a rigid MC search).
  Vec3 da{rng.normal(0, 0.3f), rng.normal(0, 0.3f), rng.normal(0, 0.3f)};
  q.axis = (q.axis + da).normalized();
  q.angle += rng.normal(0, sigma_r);
  return q;
}

Pose random_pose(core::Rng& rng, float box_half) {
  Pose p;
  p.translation = Vec3{rng.uniform(-box_half, box_half), rng.uniform(-box_half, box_half),
                       rng.uniform(-box_half, box_half)};
  p.axis = Vec3{rng.normal(), rng.normal(), rng.normal()}.normalized();
  p.angle = rng.uniform(0.0f, 6.2831853f);
  return p;
}

}  // namespace df::dock
