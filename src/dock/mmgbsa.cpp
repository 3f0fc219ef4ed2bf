#include "dock/mmgbsa.h"

#include <cmath>
#include <algorithm>
#include <cstdint>
#include <cstring>

#include "chem/cell_list.h"
#include "core/linalg.h"
#include "core/simd_math.h"

#pragma GCC diagnostic ignored "-Wpsabi"  // vector helpers: see core/simd_math.h

#if !defined(DF_SIMD_MATH_VECTOR)
#error "dock/mmgbsa.cpp computes LJ pair terms with the GNU vector extension (GCC or Clang)"
#endif

namespace df::dock {

namespace {

/// Matches dock/scoring.cpp's kCutoff so elec_energy stays bitwise equal to
/// score_terms(...).electrostatic.
constexpr float kElecCutoff = 8.0f;

/// Run `body(pa)` over the pocket atoms near `probe`: every atom within the
/// cell list's cell_size when `cells` is set, all atoms otherwise. The cell
/// gather is sorted ascending and each term keeps its own exact distance
/// predicate, so both routes visit the surviving atoms in the same order
/// with the same arithmetic — identical accumulation chains, bitwise equal
/// sums.
template <class F>
void for_pocket_near(const std::vector<Atom>& pocket, const chem::CellList* cells,
                     const core::Vec3& probe, F&& body) {
  if (cells != nullptr && !cells->covers_all(probe)) {
    static thread_local std::vector<int32_t> cand;
    cells->gather(probe, cand);
    for (int32_t j : cand) body(pocket[static_cast<size_t>(j)]);
  } else {
    // No cell list, or the stencil spans the whole grid (small systems):
    // gather would be the identity, so run the plain scan directly.
    for (const Atom& pa : pocket) body(pa);
  }
}

// Every term below reads the ligand's atom types from `ligand` and its
// coordinates from `pos` (one Vec3 per atom), so the minimizer moves a plain
// positions array instead of copying the Molecule.

/// The MM interaction terms of one pose: LJ 6-12 and interface
/// electrostatics, bitwise score_terms(...).electrostatic (same cutoff,
/// same accumulation order).
struct MmTerms {
  float lj = 0.0f, elec = 0.0f;
};

/// Pocket atoms as coordinate, radius and charge rows padded to whole
/// 16-lane blocks: the layout the LJ pair terms are computed over.
struct PocketRows {
  static constexpr size_t kLanes = 16;
  std::vector<float> x, y, z, vdw;
  std::vector<int8_t> charge;
  size_t n = 0;

  void resize(size_t count) {
    n = count;
    const size_t padded = (count + kLanes - 1) / kLanes * kLanes;
    for (std::vector<float>* v : {&x, &y, &z, &vdw}) v->assign(padded, 0.0f);
    charge.resize(padded);
  }
  void assign(const std::vector<Atom>& pocket) {
    resize(pocket.size());
    for (size_t j = 0; j < n; ++j) {
      x[j] = pocket[j].pos.x;
      y[j] = pocket[j].pos.y;
      z[j] = pocket[j].pos.z;
      vdw[j] = chem::element_info(pocket[j].element).vdw_radius;
      charge[j] = pocket[j].formal_charge;
    }
  }
  /// The rows of `all` listed in `subset`, in that order.
  void assign(const PocketRows& all, const std::vector<int32_t>& subset) {
    resize(subset.size());
    for (size_t k = 0; k < n; ++k) {
      const size_t j = static_cast<size_t>(subset[k]);
      x[k] = all.x[j];
      y[k] = all.y[j];
      z[k] = all.z[j];
      vdw[k] = all.vdw[j];
      charge[k] = all.charge[j];
    }
  }
};

/// Distance and LJ 6-12 shape q^12 - 2 q^6 (the term before its 0.15
/// kcal/mol well depth) from `p` (vdW radius `rl`) to every row, padding
/// included, 16 lanes at a time: per lane the same operations, in the same
/// order, as the scalar pair term.
void lj_rows(const PocketRows& rows, const core::Vec3& p, float rl, const MmGbsaConfig& cfg,
             float* dist, float* lj) {
  using core::simd::load16;
  using core::simd::splat;
  using core::simd::vf16;
  for (size_t b = 0; b < rows.x.size(); b += PocketRows::kLanes) {
    const vf16 dx = splat(p.x) - load16(rows.x.data() + b);
    const vf16 dy = splat(p.y) - load16(rows.y.data() + b);
    const vf16 dz = splat(p.z) - load16(rows.z.data() + b);
    const vf16 d = core::simd::vsqrt16(dx * dx + dy * dy + dz * dz);
    const vf16 r = splat(cfg.lj_min_r) < d ? d : splat(cfg.lj_min_r);  // std::max(min_r, d)
    const vf16 q = (splat(rl) + load16(rows.vdw.data() + b)) / r;
    const vf16 q6 = q * q * q * q * q * q;
    const vf16 e = q6 * q6 - (q6 + q6);  // 2 * q6 is exactly q6 + q6
    std::memcpy(dist + b, &d, sizeof(d));
    std::memcpy(lj + b, &e, sizeof(e));
  }
}

/// Both MM terms in one sweep: one gather and one distance per pair. The
/// pair values are computed 16 lanes at a time, then each term applies its
/// own exact cutoff predicate and adds into its own accumulator serially in
/// ascending pocket order — bitwise the scalar per-term sweeps. `cells` must
/// be built with a cell size of at least max(lj_cutoff, kElecCutoff).
MmTerms mm_terms(const Molecule& ligand, const core::Vec3* pos, const PocketRows& pocket,
                 const MmGbsaConfig& cfg, const chem::CellList* cells) {
  static thread_local std::vector<int32_t> cand;
  static thread_local PocketRows near;
  static thread_local std::vector<float> dist, lj;
  dist.resize(pocket.x.size());
  lj.resize(pocket.x.size());
  MmTerms t;
  for (size_t i = 0; i < ligand.num_atoms(); ++i) {
    const chem::Atom& la = ligand.atoms()[i];
    // No cell list, or the stencil spans the whole grid (small systems):
    // gather would be the identity, so sweep the full rows directly.
    const PocketRows* rows = &pocket;
    if (cells != nullptr && !cells->covers_all(pos[i])) {
      cells->gather(pos[i], cand);
      near.assign(pocket, cand);
      rows = &near;
    }
    lj_rows(*rows, pos[i], chem::element_info(la.element).vdw_radius, cfg, dist.data(), lj.data());
    for (size_t k = 0; k < rows->n; ++k) {
      // The well depth multiplies here, where the scalar pair term fused it
      // into the add (FMA builds), so the sums stay bitwise.
      if (!(std::max(cfg.lj_min_r, dist[k]) > cfg.lj_cutoff)) t.lj += 0.15f * lj[k];
      if (!(dist[k] > kElecCutoff) && la.formal_charge != 0 && rows->charge[k] != 0) {
        // Distance-dependent dielectric (epsilon = 4r), kcal/mol units.
        t.elec += 332.0f * static_cast<float>(la.formal_charge) *
                  static_cast<float>(rows->charge[k]) / (4.0f * dist[k] * dist[k]);
      }
    }
  }
  return t;
}

float gb_impl(const Molecule& ligand, const core::Vec3* pos, const std::vector<Atom>& pocket,
              const MmGbsaConfig& cfg, const chem::CellList* cells) {
  auto partial = [](const chem::Atom& a) -> float {
    if (a.formal_charge != 0) return static_cast<float>(a.formal_charge);
    switch (a.element) {
      case chem::Element::O: return -0.4f;
      case chem::Element::N: return -0.3f;
      case chem::Element::S: return -0.15f;
      default: return 0.05f;
    }
  };
  const float pre = -166.0f * (1.0f / cfg.dielectric_solute - 1.0f / cfg.dielectric_solvent) *
                    cfg.polar_scale;
  const float cut2 = cfg.gb_cutoff * cfg.gb_cutoff;
  float e = 0.0f;
  for (size_t i = 0; i < ligand.num_atoms(); ++i) {
    const chem::Atom& la = ligand.atoms()[i];
    const float qi = partial(la);
    const float ai = chem::element_info(la.element).vdw_radius * cfg.gb_scale;
    for_pocket_near(pocket, cells, pos[i], [&](const Atom& pa) {
      const float d2 = (pos[i] - pa.pos).norm2();
      if (cfg.gb_cutoff > 0.0f && d2 > cut2) return;
      const float qj = partial(pa);
      const float aj = chem::element_info(pa.element).vdw_radius * cfg.gb_scale;
      const float r2 = std::max(0.25f, d2);
      // Still's f_GB = sqrt(r^2 + ai*aj*exp(-r^2/(4 ai aj)))
      const float fgb = std::sqrt(r2 + ai * aj * std::exp(-r2 / (4.0f * ai * aj)));
      e += pre * 2.0f * qi * qj / fgb;
    });
  }
  return e;
}

float sa_impl(const Molecule& ligand, const core::Vec3* pos, const std::vector<Atom>& pocket,
              const MmGbsaConfig& cfg, const chem::CellList* cells) {
  float buried = 0.0f;
  for (size_t i = 0; i < ligand.num_atoms(); ++i) {
    const float rl = chem::element_info(ligand.atoms()[i].element).vdw_radius;
    for_pocket_near(pocket, cells, pos[i], [&](const Atom& pa) {
      const float r = pos[i].dist(pa.pos);
      if (r > cfg.sa_cutoff) return;
      const float touch = rl + chem::element_info(pa.element).vdw_radius + 1.4f;
      if (r < touch) buried += (touch - r) * 12.0f;  // A^2-ish per contact
    });
  }
  return -cfg.surface_tension * buried;
}

/// The ligand's coordinates as a positions array (a per-thread buffer).
const core::Vec3* positions_of(const Molecule& ligand) {
  static thread_local std::vector<core::Vec3> pos;
  pos.resize(ligand.num_atoms());
  for (size_t i = 0; i < pos.size(); ++i) pos[i] = ligand.atoms()[i].pos;
  return pos.data();
}

/// Build `cells` over the pocket with `cell_size` if the config asks for the
/// cell route (and it is usable); returns the pointer to pass to the impls.
const chem::CellList* maybe_build(chem::CellList& cells, const std::vector<Atom>& pocket,
                                  const MmGbsaConfig& cfg, float cell_size) {
  if (!cfg.use_cell_list || pocket.empty() || cell_size <= 0.0f ||
      static_cast<int32_t>(pocket.size()) < cfg.cell_list_min_atoms) {
    return nullptr;
  }
  static thread_local std::vector<core::Vec3> ppos;
  ppos.resize(pocket.size());
  for (size_t i = 0; i < pocket.size(); ++i) ppos[i] = pocket[i].pos;
  cells.build(ppos.data(), static_cast<int32_t>(pocket.size()), cell_size);
  return &cells;
}

MmTerms mm_terms_of(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
                    const MmGbsaConfig& cfg) {
  static thread_local chem::CellList cells;
  static thread_local PocketRows rows;
  rows.assign(pocket);
  return mm_terms(ligand_pose, positions_of(ligand_pose), rows, cfg,
                  maybe_build(cells, pocket, cfg, std::max(cfg.lj_cutoff, kElecCutoff)));
}

}  // namespace

float lj_energy(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
                const MmGbsaConfig& cfg) {
  return mm_terms_of(ligand_pose, pocket, cfg).lj;
}

float gb_polar(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
               const MmGbsaConfig& cfg) {
  static thread_local chem::CellList cells;
  // gb_cutoff == 0 is the historical cutoff-free sum: every pair counts, so
  // there is no radius a cell gather could honor — brute force only.
  const chem::CellList* c =
      cfg.gb_cutoff > 0.0f ? maybe_build(cells, pocket, cfg, cfg.gb_cutoff) : nullptr;
  return gb_impl(ligand_pose, positions_of(ligand_pose), pocket, cfg, c);
}

float sa_nonpolar(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
                  const MmGbsaConfig& cfg) {
  static thread_local chem::CellList cells;
  return sa_impl(ligand_pose, positions_of(ligand_pose), pocket, cfg,
                 maybe_build(cells, pocket, cfg, cfg.sa_cutoff));
}

float elec_energy(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
                  const MmGbsaConfig& cfg) {
  return mm_terms_of(ligand_pose, pocket, cfg).elec;
}

float mmgbsa_score(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
                   const MmGbsaConfig& cfg) {
  // One cell list over the (static) pocket serves every term and all
  // minimization probes: cell size is the largest cutoff in play, so each
  // term's gather is a superset for its own predicate. GB joins only when
  // it has a finite cutoff.
  static thread_local chem::CellList pocket_cells;
  const float cell_size =
      std::max({cfg.lj_cutoff, cfg.sa_cutoff, cfg.gb_cutoff, kElecCutoff});
  const chem::CellList* cells = maybe_build(pocket_cells, pocket, cfg, cell_size);
  const chem::CellList* gb_cells = cfg.gb_cutoff > 0.0f ? cells : nullptr;

  // Local rigid-body minimization: descend the LJ+electrostatic gradient in
  // translation space only (rotational relaxation is second order at this
  // resolution). This is the expensive "single-point minimization" stage.
  // The objective matches the MM interaction term below — historically it
  // dropped the electrostatic part it claimed to include. The pose and its
  // finite-difference probes are positions arrays: only coordinates move.
  static thread_local std::vector<core::Vec3> pos, probe;
  static thread_local PocketRows rows;
  rows.assign(pocket);
  pos.resize(ligand_pose.num_atoms());
  probe.resize(pos.size());
  for (size_t i = 0; i < pos.size(); ++i) pos[i] = ligand_pose.atoms()[i].pos;
  auto mm_energy = [&](const std::vector<core::Vec3>& at) {
    const MmTerms t = mm_terms(ligand_pose, at.data(), rows, cfg, cells);
    return t.lj + t.elec;
  };
  const float h = 0.05f;
  for (int it = 0; it < cfg.minimize_iterations; ++it) {
    float base = mm_energy(pos);
    core::Vec3 grad{};
    for (int axis = 0; axis < 3; ++axis) {
      const core::Vec3 d{axis == 0 ? h : 0.0f, axis == 1 ? h : 0.0f, axis == 2 ? h : 0.0f};
      for (size_t i = 0; i < pos.size(); ++i) probe[i] = pos[i] + d;
      const float e = mm_energy(probe);
      const float g = (e - base) / h;
      if (axis == 0) grad.x = g;
      if (axis == 1) grad.y = g;
      if (axis == 2) grad.z = g;
    }
    const float gn = grad.norm();
    if (gn < 1e-3f) break;
    const core::Vec3 step = grad * (-0.02f / std::max(1.0f, gn));
    for (core::Vec3& p : pos) p += step;
  }

  const float mm = mm_energy(pos);
  const float gb = gb_impl(ligand_pose, pos.data(), pocket, cfg, gb_cells);
  const float sa = sa_impl(ligand_pose, pos.data(), pocket, cfg, cells);
  // Entropy penalty for flexible ligands (TdS approximation).
  const float entropy = 0.3f * static_cast<float>(ligand_pose.num_rotatable_bonds());
  return mm + gb + sa + entropy;
}

std::vector<double> AmplMmGbsaSurrogate::features(const Molecule& pose,
                                                  const std::vector<Atom>& pocket) {
  const TermBreakdown t = score_terms(pose, pocket);
  // Capped LJ: the dominant MM term of the target, clamped so near-clash
  // poses do not blow up the regression.
  const double lj = std::clamp(lj_energy(pose, pocket), -200.0f, 200.0f);
  return {
      lj, t.gauss1, t.gauss2, t.repulsion, t.hydrophobic, t.hbond, t.electrostatic,
      static_cast<double>(pose.num_rotatable_bonds()),
      static_cast<double>(pose.molecular_weight()) / 100.0,
      static_cast<double>(pose.logp_proxy()),
      static_cast<double>(pose.tpsa_proxy()) / 10.0,
      1.0,  // bias
  };
}

void AmplMmGbsaSurrogate::fit(const std::vector<Molecule>& poses,
                              const std::vector<std::vector<Atom>>& pockets,
                              const std::vector<float>& scores, float ridge) {
  if (pockets.size() != poses.size()) {
    throw std::invalid_argument("AmplMmGbsaSurrogate::fit: inconsistent inputs");
  }
  std::vector<std::vector<double>> rows;
  rows.reserve(poses.size());
  for (size_t i = 0; i < poses.size(); ++i) rows.push_back(features(poses[i], pockets[i]));
  fit(rows, scores, ridge);
}

void AmplMmGbsaSurrogate::fit(const std::vector<std::vector<double>>& rows,
                              const std::vector<float>& scores, float ridge) {
  const size_t n = rows.size();
  if (n == 0 || scores.size() != n) {
    throw std::invalid_argument("AmplMmGbsaSurrogate::fit: inconsistent inputs");
  }
  const size_t d = rows[0].size();
  // Normal equations with ridge: (X^T X + aI) w = X^T y.
  std::vector<double> xtx(d * d, 0.0), xty(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double>& f = rows[i];
    if (f.size() != d) {
      throw std::invalid_argument("AmplMmGbsaSurrogate::fit: descriptor rows differ in length");
    }
    for (size_t a = 0; a < d; ++a) {
      xty[a] += f[a] * scores[i];
      for (size_t b = 0; b < d; ++b) xtx[a * d + b] += f[a] * f[b];
    }
  }
  for (size_t a = 0; a < d; ++a) xtx[a * d + a] += ridge;
  weights_ = core::spd_solve(std::move(xtx), d, xty);
}

float AmplMmGbsaSurrogate::predict(const Molecule& pose, const std::vector<Atom>& pocket) const {
  return predict(features(pose, pocket));
}

float AmplMmGbsaSurrogate::predict(const std::vector<double>& row) const {
  if (weights_.empty()) throw std::runtime_error("AmplMmGbsaSurrogate: predict before fit");
  if (row.size() != weights_.size()) {
    throw std::invalid_argument("AmplMmGbsaSurrogate::predict: descriptor length mismatch");
  }
  double y = 0.0;
  for (size_t i = 0; i < row.size(); ++i) y += row[i] * weights_[i];
  return static_cast<float>(y);
}

}  // namespace df::dock
