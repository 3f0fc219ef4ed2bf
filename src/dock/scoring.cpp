#include "dock/scoring.h"

#include <cmath>

#include "core/simd_math.h"

#pragma GCC diagnostic ignored "-Wpsabi"  // vector helpers: see core/simd_math.h

#if !defined(DF_SIMD_MATH_VECTOR)
#error "dock/scoring.cpp sweeps the pocket with the GNU vector extension (GCC or Clang)"
#endif

namespace df::dock {

namespace {
constexpr float kCutoff = 8.0f;

using core::simd::load16;
using core::simd::splat;
using core::simd::vf16;
using core::simd::vi16;

constexpr int32_t mask_of(bool b) { return b ? -1 : 0; }

float lane_sum(vf16 v) {
  float s = 0.0f;
  for (int k = 0; k < 16; ++k) s += v[k];
  return s;
}
}  // namespace

void LigandTypes::assign(const Molecule& ligand) {
  const size_t n = ligand.num_atoms();
  vdw.resize(n);
  hydrophobic.resize(n);
  donor.resize(n);
  acceptor.resize(n);
  charge.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Atom& a = ligand.atoms()[i];
    const chem::ElementInfo& e = chem::element_info(a.element);
    vdw[i] = e.vdw_radius;
    hydrophobic[i] = mask_of(e.hydrophobic);
    donor[i] = mask_of(e.hbond_donor_heavy && a.implicit_h > 0);
    acceptor[i] = mask_of(e.hbond_acceptor);
    charge[i] = a.formal_charge;
  }
}

void PocketLanes::assign(const std::vector<Atom>& pocket) {
  blocks = (pocket.size() + kLanes - 1) / kLanes;
  const size_t n = blocks * kLanes;
  for (std::vector<float>* v : {&x, &y, &z, &vdw}) v->assign(n, 0.0f);
  for (std::vector<int32_t>* v : {&live, &hydrophobic, &donor, &acceptor}) v->assign(n, 0);
  charged.clear();
  for (size_t j = 0; j < pocket.size(); ++j) {
    const Atom& a = pocket[j];
    const chem::ElementInfo& e = chem::element_info(a.element);
    x[j] = a.pos.x;
    y[j] = a.pos.y;
    z[j] = a.pos.z;
    vdw[j] = e.vdw_radius;
    live[j] = -1;
    hydrophobic[j] = mask_of(e.hydrophobic);
    donor[j] = mask_of(e.hbond_donor_heavy);
    acceptor[j] = mask_of(e.hbond_acceptor);
    if (a.formal_charge != 0) charged.push_back(a);
  }
}

TermBreakdown score_terms(const LigandTypes& ligand, const core::Vec3* pos,
                          const PocketLanes& pocket) {
  const vf16 zero{};
  const vf16 one = splat(1.0f);
  vf16 gauss1{}, gauss2{}, repulsion{}, hydrophobic{}, hbond{};
  for (size_t i = 0; i < ligand.size(); ++i) {
    const vf16 lx = splat(pos[i].x), ly = splat(pos[i].y), lz = splat(pos[i].z);
    const vf16 lr = splat(ligand.vdw[i]);
    const vi16 l_hydrophobic = vi16{} + ligand.hydrophobic[i];
    const vi16 l_donor = vi16{} + ligand.donor[i];
    const vi16 l_acceptor = vi16{} + ligand.acceptor[i];
    for (size_t b = 0; b < pocket.blocks; ++b) {
      const size_t at = b * PocketLanes::kLanes;
      const vf16 dx = lx - load16(pocket.x.data() + at);
      const vf16 dy = ly - load16(pocket.y.data() + at);
      const vf16 dz = lz - load16(pocket.z.data() + at);
      const vf16 r = core::simd::vsqrt16(dx * dx + dy * dy + dz * dz);
      const vi16 in = (r <= splat(kCutoff)) & load16(pocket.live.data() + at);
      const vf16 d = r - (lr + load16(pocket.vdw.data() + at));  // surface distance
      // d / 0.5 and (d - 3) / 2: scaling by a power of two is exact, so the
      // products round exactly like the quotients.
      const vf16 q1 = d * splat(2.0f);
      const vf16 q2 = (d - splat(3.0f)) * splat(0.5f);
      gauss1 += in ? core::simd::vexp16(-(q1 * q1)) : zero;
      gauss2 += in ? core::simd::vexp16(-(q2 * q2)) : zero;
      repulsion += (in & (d < zero)) ? d * d : zero;
      // 1 below 0.5 A surface distance, linear to 0 at 1.5 A.
      const vf16 hyd_ramp = d <= splat(0.5f) ? one : (d >= splat(1.5f) ? zero : splat(1.5f) - d);
      const vi16 both_hydrophobic = l_hydrophobic & load16(pocket.hydrophobic.data() + at);
      hydrophobic += (in & both_hydrophobic) ? hyd_ramp : zero;
      // 1 below -0.7 A, linear to 0 at 0.
      const vf16 hb_ramp = d <= splat(-0.7f) ? one : (d >= zero ? zero : -d / splat(0.7f));
      const vi16 pair = (l_donor & load16(pocket.acceptor.data() + at)) |
                        (load16(pocket.donor.data() + at) & l_acceptor);
      hbond += (in & pair) ? hb_ramp : zero;
    }
  }
  TermBreakdown t;
  t.gauss1 = lane_sum(gauss1);
  t.gauss2 = lane_sum(gauss2);
  t.repulsion = lane_sum(repulsion);
  t.hydrophobic = lane_sum(hydrophobic);
  t.hbond = lane_sum(hbond);
  // Only charged pairs contribute, so skipping the rest keeps the serial
  // (ligand, pocket) order of every term that is added.
  for (size_t i = 0; i < ligand.size(); ++i) {
    if (ligand.charge[i] == 0) continue;
    for (const Atom& pa : pocket.charged) {
      const float r = pos[i].dist(pa.pos);
      if (r > kCutoff) continue;
      // Distance-dependent dielectric (epsilon = 4r), kcal/mol units.
      t.electrostatic += 332.0f * static_cast<float>(ligand.charge[i]) *
                         static_cast<float>(pa.formal_charge) / (4.0f * r * r);
    }
  }
  return t;
}

TermBreakdown score_terms(const Molecule& ligand, const std::vector<Atom>& pocket) {
  thread_local LigandTypes types;
  thread_local PocketLanes lanes;
  thread_local std::vector<core::Vec3> pos;
  types.assign(ligand);
  lanes.assign(pocket);
  pos.resize(ligand.num_atoms());
  for (size_t i = 0; i < pos.size(); ++i) pos[i] = ligand.atoms()[i].pos;
  return score_terms(types, pos.data(), lanes);
}

float vina_score(const TermBreakdown& t, int rotors, const VinaWeights& w) {
  const float inter = w.gauss1 * t.gauss1 + w.gauss2 * t.gauss2 + w.repulsion * t.repulsion +
                      w.hydrophobic * t.hydrophobic + w.hbond * t.hbond;
  return inter / (1.0f + w.rotor * static_cast<float>(rotors));
}

float vina_score(const Molecule& ligand, const std::vector<Atom>& pocket, const VinaWeights& w) {
  return vina_score(score_terms(ligand, pocket), ligand.num_rotatable_bonds(), w);
}

float score_to_pk(float score_kcal) {
  // pK = -dG / (2.303 RT); RT = 0.593 kcal/mol at 298 K.
  return -score_kcal / (2.303f * 0.593f);
}

}  // namespace df::dock
