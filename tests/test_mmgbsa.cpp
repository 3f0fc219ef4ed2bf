#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "chem/cell_list.h"
#include "chem/conformer.h"
#include "chem/smiles.h"
#include "data/target.h"
#include "dock/conveyorlc.h"
#include "dock/mmgbsa.h"

// The MM-GBSA terms and scorer as they were before the minimizer moved to
// positions arrays and LJ + electrostatics shared one sweep, copied
// verbatim: the current code must reproduce every value bit for bit.
namespace df::dock::parent_ref {

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

float lj_impl(const Molecule& ligand, const std::vector<Atom>& pocket, const MmGbsaConfig& cfg,
              const chem::CellList* cells) {
  float e = 0.0f;
  for (const chem::Atom& la : ligand.atoms()) {
    const float rl = chem::element_info(la.element).vdw_radius;
    for_pocket_near(pocket, cells, la.pos, [&](const Atom& pa) {
      const float r = std::max(cfg.lj_min_r, la.pos.dist(pa.pos));
      if (r > cfg.lj_cutoff) return;
      const float rmin = rl + chem::element_info(pa.element).vdw_radius;
      const float q = rmin / r;
      const float q6 = q * q * q * q * q * q;
      e += 0.15f * (q6 * q6 - 2.0f * q6);
    });
  }
  return e;
}

float gb_impl(const Molecule& ligand, const std::vector<Atom>& pocket, const MmGbsaConfig& cfg,
              const chem::CellList* cells) {
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
  for (const chem::Atom& la : ligand.atoms()) {
    const float qi = partial(la);
    const float ai = chem::element_info(la.element).vdw_radius * cfg.gb_scale;
    for_pocket_near(pocket, cells, la.pos, [&](const Atom& pa) {
      const float d2 = (la.pos - pa.pos).norm2();
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

float sa_impl(const Molecule& ligand, const std::vector<Atom>& pocket, const MmGbsaConfig& cfg,
              const chem::CellList* cells) {
  float buried = 0.0f;
  for (const chem::Atom& la : ligand.atoms()) {
    const float rl = chem::element_info(la.element).vdw_radius;
    for_pocket_near(pocket, cells, la.pos, [&](const Atom& pa) {
      const float r = la.pos.dist(pa.pos);
      if (r > cfg.sa_cutoff) return;
      const float touch = rl + chem::element_info(pa.element).vdw_radius + 1.4f;
      if (r < touch) buried += (touch - r) * 12.0f;  // A^2-ish per contact
    });
  }
  return -cfg.surface_tension * buried;
}

float elec_impl(const Molecule& ligand, const std::vector<Atom>& pocket,
                const chem::CellList* cells) {
  float e = 0.0f;
  for (const chem::Atom& la : ligand.atoms()) {
    for_pocket_near(pocket, cells, la.pos, [&](const Atom& pa) {
      const float r = la.pos.dist(pa.pos);
      if (r > kElecCutoff) return;
      if (la.formal_charge != 0 && pa.formal_charge != 0) {
        // Distance-dependent dielectric (epsilon = 4r), kcal/mol units.
        e += 332.0f * static_cast<float>(la.formal_charge) *
             static_cast<float>(pa.formal_charge) / (4.0f * r * r);
      }
    });
  }
  return e;
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

}  // namespace

float lj_energy(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
                const MmGbsaConfig& cfg) {
  static thread_local chem::CellList cells;
  return lj_impl(ligand_pose, pocket, cfg, maybe_build(cells, pocket, cfg, cfg.lj_cutoff));
}

float gb_polar(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
               const MmGbsaConfig& cfg) {
  static thread_local chem::CellList cells;
  // gb_cutoff == 0 is the historical cutoff-free sum: every pair counts, so
  // there is no radius a cell gather could honor — brute force only.
  const chem::CellList* c =
      cfg.gb_cutoff > 0.0f ? maybe_build(cells, pocket, cfg, cfg.gb_cutoff) : nullptr;
  return gb_impl(ligand_pose, pocket, cfg, c);
}

float sa_nonpolar(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
                  const MmGbsaConfig& cfg) {
  static thread_local chem::CellList cells;
  return sa_impl(ligand_pose, pocket, cfg, maybe_build(cells, pocket, cfg, cfg.sa_cutoff));
}

float elec_energy(const Molecule& ligand_pose, const std::vector<Atom>& pocket,
                  const MmGbsaConfig& cfg) {
  static thread_local chem::CellList cells;
  return elec_impl(ligand_pose, pocket, maybe_build(cells, pocket, cfg, kElecCutoff));
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
  // dropped the electrostatic part it claimed to include.
  auto mm_energy = [&](const Molecule& m) {
    return lj_impl(m, pocket, cfg, cells) + elec_impl(m, pocket, cells);
  };
  Molecule m = ligand_pose;
  const float h = 0.05f;
  for (int it = 0; it < cfg.minimize_iterations; ++it) {
    float base = mm_energy(m);
    core::Vec3 grad{};
    for (int axis = 0; axis < 3; ++axis) {
      Molecule probe = m;
      core::Vec3 d{axis == 0 ? h : 0.0f, axis == 1 ? h : 0.0f, axis == 2 ? h : 0.0f};
      probe.translate(d);
      const float e = mm_energy(probe);
      const float g = (e - base) / h;
      if (axis == 0) grad.x = g;
      if (axis == 1) grad.y = g;
      if (axis == 2) grad.z = g;
    }
    const float gn = grad.norm();
    if (gn < 1e-3f) break;
    m.translate(grad * (-0.02f / std::max(1.0f, gn)));
  }

  const float mm = mm_energy(m);
  const float gb = gb_impl(m, pocket, cfg, gb_cells);
  const float sa = sa_impl(m, pocket, cfg, cells);
  // Entropy penalty for flexible ligands (TdS approximation).
  const float entropy = 0.3f * static_cast<float>(m.num_rotatable_bonds());
  return mm + gb + sa + entropy;
}

}  // namespace df::dock::parent_ref

namespace df::dock {
namespace {

using core::Rng;
using core::Vec3;

Molecule posed_ligand(Rng& rng) {
  Molecule m = chem::parse_smiles("CC(N)CC(=O)O");
  chem::embed_conformer(m, rng);
  m.translate(Vec3{} - m.centroid());
  return m;
}

TEST(MmGbsa, BoundStateBeatsUnbound) {
  Rng rng(1);
  Molecule lig = posed_ligand(rng);
  std::vector<Atom> pocket = data::make_pocket({5.0f, 48, 0.65f, 0.5f, 0.12f}, rng);
  const float bound = mmgbsa_score(lig, pocket);
  Molecule far = lig;
  far.translate({60, 0, 0});
  const float unbound = mmgbsa_score(far, pocket);
  EXPECT_LT(bound, unbound + 1e-3f);
}

TEST(MmGbsa, IsSlowerThanVina) {
  // The cost asymmetry is load-bearing for the paper's Table 7 story.
  Rng rng(2);
  Molecule lig = posed_ligand(rng);
  std::vector<Atom> pocket = data::make_pocket({5.0f, 64, 0.7f, 0.5f, 0.1f}, rng);

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) vina_score(lig, pocket);
  const double vina_t = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const auto t1 = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) mmgbsa_score(lig, pocket);
  const double mm_t = std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();

  EXPECT_GT(mm_t, vina_t * 5.0);
}

TEST(AmplSurrogate, PredictBeforeFitThrows) {
  AmplMmGbsaSurrogate s;
  Rng rng(3);
  Molecule lig = posed_ligand(rng);
  EXPECT_FALSE(s.trained());
  EXPECT_THROW(s.predict(lig, {}), std::runtime_error);
}

TEST(AmplSurrogate, FitValidatesInputs) {
  AmplMmGbsaSurrogate s;
  EXPECT_THROW(s.fit(std::vector<Molecule>{}, {}, {}), std::invalid_argument);
  EXPECT_THROW(s.fit(std::vector<std::vector<double>>{}, {}), std::invalid_argument);
  // Descriptor rows must match the scores and each other in length.
  EXPECT_THROW(s.fit(std::vector<std::vector<double>>{{1.0, 2.0}}, {1.0f, 2.0f}),
               std::invalid_argument);
  EXPECT_THROW(s.fit(std::vector<std::vector<double>>{{1.0, 2.0}, {1.0}}, {1.0f, 2.0f}),
               std::invalid_argument);
}

TEST(AmplSurrogate, LearnsMmGbsaWithinSampleError) {
  Rng rng(4);
  std::vector<Atom> pocket = data::make_pocket({5.0f, 48, 0.65f, 0.5f, 0.12f}, rng);
  std::vector<Molecule> poses;
  std::vector<std::vector<Atom>> pockets;
  std::vector<float> scores;
  for (int i = 0; i < 40; ++i) {
    Molecule lig = posed_ligand(rng);
    lig.translate({rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)});
    // Mirror the campaign's reality: the surrogate is fitted on *docked*
    // poses, never on clashing geometries whose LJ term explodes.
    const float y = mmgbsa_score(lig, pocket);
    if (std::abs(y) > 80.0f) continue;
    poses.push_back(lig);
    pockets.push_back(pocket);
    scores.push_back(y);
  }
  ASSERT_GE(poses.size(), 10u);
  AmplMmGbsaSurrogate s;
  s.fit(poses, pockets, scores);
  EXPECT_TRUE(s.trained());
  // In-sample predictions must correlate strongly with the target.
  double err = 0, var = 0, mean = 0;
  for (float v : scores) mean += v;
  mean /= scores.size();
  for (size_t i = 0; i < poses.size(); ++i) {
    const float p = s.predict(poses[i], pockets[i]);
    err += (p - scores[i]) * (p - scores[i]);
    var += (scores[i] - mean) * (scores[i] - mean);
  }
  // The target includes a local minimization the features cannot see, so
  // demand a meaningful but not tight fit: clearly better than predicting
  // the mean (R^2 > 0.25 in-sample).
  EXPECT_LT(err, var * 0.75);
}

TEST(AmplSurrogate, DescriptorPathBitwiseEqualsPoseApi) {
  // The campaign computes features() where each pose is docked and fits and
  // predicts from those rows; that must be the pose API, bit for bit.
  Rng rng(8);
  std::vector<Atom> pocket = data::make_pocket({5.0f, 48, 0.65f, 0.5f, 0.12f}, rng);
  std::vector<Molecule> poses;
  std::vector<std::vector<Atom>> pockets;
  std::vector<std::vector<double>> rows;
  std::vector<float> scores;
  for (int i = 0; i < 16; ++i) {
    Molecule lig = posed_ligand(rng);
    lig.translate({rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)});
    poses.push_back(lig);
    pockets.push_back(pocket);
    rows.push_back(AmplMmGbsaSurrogate::features(lig, pocket));
    scores.push_back(rng.uniform(-40.0f, 0.0f));
  }
  AmplMmGbsaSurrogate by_pose, by_row;
  by_pose.fit(poses, pockets, scores);
  by_row.fit(rows, scores);
  ASSERT_TRUE(by_row.trained());
  for (size_t i = 0; i < poses.size(); ++i) {
    // EXPECT_EQ on floats is exact equality.
    EXPECT_EQ(by_pose.predict(poses[i], pocket), by_row.predict(rows[i]));
    EXPECT_EQ(by_row.predict(poses[i], pocket), by_pose.predict(rows[i]));
  }
  EXPECT_EQ(by_pose.weights(), by_row.weights());
  EXPECT_THROW(by_row.predict(std::vector<double>(3, 0.0)), std::invalid_argument);
}

TEST(ConveyorLC, ReceptorPrepCentersSite) {
  std::vector<Atom> pocket{Atom{chem::Element::C, Vec3{2, 0, 0}, 0, false, 0},
                           Atom{chem::Element::C, Vec3{-2, 4, 0}, 0, false, 0}};
  ReceptorModel r = ConveyorLC::prepare_receptor(pocket);
  EXPECT_FLOAT_EQ(r.site_center.x, 0.0f);
  EXPECT_FLOAT_EQ(r.site_center.y, 2.0f);
}

TEST(ConveyorLC, EndToEndProducesScoredPoses) {
  Rng rng(5);
  PipelineConfig cfg;
  cfg.docking.num_runs = 4;
  cfg.docking.steps_per_run = 40;
  cfg.rescore_top_n = 2;
  ConveyorLC pipeline(cfg);
  ReceptorModel receptor =
      ConveyorLC::prepare_receptor(data::make_pocket({5.0f, 40, 0.65f, 0.5f, 0.1f}, rng));
  Molecule raw = chem::parse_smiles("CCOC(=O)C1CCNCC1");
  auto res = pipeline.run(raw, receptor, rng);
  ASSERT_TRUE(res.has_value());
  EXPECT_FALSE(res->poses.empty());
  EXPECT_EQ(res->mmgbsa_scores.size(),
            std::min<size_t>(2, res->poses.size()));
  EXPECT_GT(res->docking_seconds, 0.0);
  EXPECT_GT(res->mmgbsa_seconds, 0.0);
}

TEST(ConveyorLC, RejectsMetalLigand) {
  Rng rng(6);
  ConveyorLC pipeline;
  ReceptorModel receptor =
      ConveyorLC::prepare_receptor(data::make_pocket({5.0f, 30, 0.6f, 0.5f, 0.1f}, rng));
  Molecule raw;
  raw.add_atom(chem::Element::C);
  raw.add_atom(chem::Element::Metal);
  EXPECT_FALSE(pipeline.run(raw, receptor, rng).has_value());
}

TEST(ConveyorLC, MmGbsaStageOptional) {
  Rng rng(7);
  PipelineConfig cfg;
  cfg.run_mmgbsa = false;
  cfg.docking.num_runs = 2;
  cfg.docking.steps_per_run = 20;
  ConveyorLC pipeline(cfg);
  ReceptorModel receptor =
      ConveyorLC::prepare_receptor(data::make_pocket({5.0f, 30, 0.6f, 0.5f, 0.1f}, rng));
  auto res = pipeline.run(chem::parse_smiles("CCCCO"), receptor, rng);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->mmgbsa_scores.empty());
}

TEST(MmGbsa, LjOnlySweepBitwiseEqualsFusedSweep) {
  // lj_energy sweeps LJ alone (the AMPL descriptor path); the fused LJ +
  // electrostatic sweep must give the same LJ bits, through the cell list
  // (sized for LJ alone or for both terms) and through the brute scan.
  Rng rng(12);
  int charged_poses = 0;
  for (int trial = 0; trial < 6; ++trial) {
    chem::MoleculeGenConfig mc;
    mc.charge_probability = 0.3f;
    Molecule lig = chem::generate_molecule(mc, rng);
    chem::embed_conformer(lig, rng);
    lig.translate(Vec3{rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)} -
                  lig.centroid());
    data::PocketConfig pc;
    pc.num_atoms = 60 + trial * 120;
    pc.radius = 6.0f + 2.0f * static_cast<float>(trial);
    pc.charged_frac = 0.25f;
    const std::vector<Atom> pocket = data::make_pocket(pc, rng);
    for (float lj_cutoff : {9.0f, 6.0f}) {
      MmGbsaConfig brute;
      brute.lj_cutoff = lj_cutoff;
      brute.use_cell_list = false;
      const MmTerms ref = mm_terms(lig, pocket, brute);
      if (ref.elec != 0.0f) ++charged_poses;
      EXPECT_EQ(lj_energy(lig, pocket, brute), ref.lj);
      MmGbsaConfig cells = brute;
      cells.use_cell_list = true;
      cells.cell_list_min_atoms = 0;
      SCOPED_TRACE(testing::Message() << "trial " << trial << " lj_cutoff " << lj_cutoff);
      EXPECT_EQ(lj_energy(lig, pocket, cells), ref.lj);
      EXPECT_EQ(mm_terms(lig, pocket, cells).lj, ref.lj);
      EXPECT_EQ(mm_terms(lig, pocket, cells).elec, ref.elec);
    }
  }
  EXPECT_GT(charged_poses, 0);  // the fused sweep's electrostatics did run
}

TEST(MmGbsa, BitwiseEqualToPreviousImplementation) {
  Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    chem::MoleculeGenConfig mc;
    mc.charge_probability = 0.3f;
    Molecule lig = chem::generate_molecule(mc, rng);
    chem::embed_conformer(lig, rng);
    lig.translate(Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)} -
                  lig.centroid());
    data::PocketConfig pc;
    pc.num_atoms = 30 + trial * 25;
    pc.radius = 5.0f + 0.5f * static_cast<float>(trial);
    pc.charged_frac = 0.25f;
    const std::vector<Atom> pocket = data::make_pocket(pc, rng);
    for (int32_t min_atoms : {0, MmGbsaConfig{}.cell_list_min_atoms}) {
      for (float gb_cutoff : {0.0f, 7.0f}) {
        MmGbsaConfig cfg;
        cfg.cell_list_min_atoms = min_atoms;
        cfg.gb_cutoff = gb_cutoff;
        SCOPED_TRACE(testing::Message() << "trial " << trial << " min_atoms " << min_atoms
                                        << " gb_cutoff " << gb_cutoff);
        EXPECT_EQ(lj_energy(lig, pocket, cfg), parent_ref::lj_energy(lig, pocket, cfg));
        EXPECT_EQ(elec_energy(lig, pocket, cfg), parent_ref::elec_energy(lig, pocket, cfg));
        EXPECT_EQ(gb_polar(lig, pocket, cfg), parent_ref::gb_polar(lig, pocket, cfg));
        EXPECT_EQ(sa_nonpolar(lig, pocket, cfg), parent_ref::sa_nonpolar(lig, pocket, cfg));
        EXPECT_EQ(mmgbsa_score(lig, pocket, cfg), parent_ref::mmgbsa_score(lig, pocket, cfg));
      }
    }
  }
}

}  // namespace
}  // namespace df::dock
