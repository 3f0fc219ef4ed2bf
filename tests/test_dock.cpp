#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "chem/conformer.h"
#include "chem/smiles.h"
#include "data/target.h"
#include "dock/docking.h"
#include "dock/pose.h"
#include "dock/scoring.h"

namespace df::dock {
namespace {

using core::Rng;
using core::Vec3;

Molecule small_ligand(Rng& rng) {
  Molecule m = chem::parse_smiles("CC(N)C(=O)O");
  chem::embed_conformer(m, rng);
  m.translate(Vec3{} - m.centroid());
  return m;
}

TEST(Scoring, EmptyPocketScoresZero) {
  Rng rng(1);
  Molecule lig = small_ligand(rng);
  EXPECT_FLOAT_EQ(vina_score(lig, {}), 0.0f);
}

TEST(Scoring, ContactBeatsIsolation) {
  // A ligand in contact with a pocket must score better (more negative)
  // than the same ligand 50 A away.
  Rng rng(2);
  Molecule lig = small_ligand(rng);
  std::vector<Atom> pocket = data::make_pocket({4.5f, 40, 0.6f, 0.5f, 0.1f}, rng);
  const float near = vina_score(lig, pocket);
  Molecule far = lig;
  far.translate({50, 0, 0});
  const float far_score = vina_score(far, pocket);
  EXPECT_LT(near, far_score);
  EXPECT_FLOAT_EQ(far_score, 0.0f);
}

TEST(Scoring, ClashIsPenalized) {
  // Overlapping atoms: repulsion term must dominate.
  Molecule lig;
  lig.add_atom(chem::Element::C, {0, 0, 0});
  std::vector<Atom> pocket{Atom{chem::Element::C, Vec3{0.1f, 0, 0}, 0, false, 0}};
  const TermBreakdown t = score_terms(lig, pocket);
  EXPECT_GT(t.repulsion, 1.0f);
  EXPECT_GT(vina_score(lig, pocket), 0.0f);  // net unfavorable
}

TEST(Scoring, HydrophobicPairsContribute) {
  Molecule lig;
  lig.add_atom(chem::Element::C, {0, 0, 0});
  // carbon at ideal contact distance (surface distance ~0.2)
  std::vector<Atom> c_pocket{Atom{chem::Element::C, Vec3{3.6f, 0, 0}, 0, false, 0}};
  std::vector<Atom> o_pocket{Atom{chem::Element::O, Vec3{3.6f, 0, 0}, 0, false, 0}};
  EXPECT_GT(score_terms(lig, c_pocket).hydrophobic, 0.0f);
  EXPECT_FLOAT_EQ(score_terms(lig, o_pocket).hydrophobic, 0.0f);
}

TEST(Scoring, HbondRequiresDonorAcceptorPair) {
  Molecule lig;
  lig.add_atom(chem::Element::O, {0, 0, 0});
  lig.atoms()[0].implicit_h = 1;  // donor OH
  std::vector<Atom> acceptor{Atom{chem::Element::N, Vec3{2.6f, 0, 0}, 0, false, 0}};
  std::vector<Atom> carbon{Atom{chem::Element::C, Vec3{2.6f, 0, 0}, 0, false, 0}};
  EXPECT_GT(score_terms(lig, acceptor).hbond, 0.0f);
  EXPECT_FLOAT_EQ(score_terms(lig, carbon).hbond, 0.0f);
}

TEST(Scoring, RotorPenaltyDampens) {
  Rng rng(3);
  std::vector<Atom> pocket = data::make_pocket({4.5f, 40, 0.6f, 0.5f, 0.1f}, rng);
  Molecule rigid = chem::parse_smiles("c1ccccc1");
  chem::embed_conformer(rigid, rng);
  rigid.translate(Vec3{} - rigid.centroid());
  VinaWeights w;
  const float with_penalty = vina_score(rigid, pocket, w);
  w.rotor = 0.0f;
  const float without = vina_score(rigid, pocket, w);
  // Benzene has no rotors: identical either way.
  EXPECT_FLOAT_EQ(with_penalty, without);
}

TEST(Scoring, ScoreToPkPositiveForFavorable) {
  EXPECT_GT(score_to_pk(-8.0f), 0.0f);
  EXPECT_NEAR(score_to_pk(-1.365f), 1.0f, 1e-3f);  // -RT ln10 per pK unit
}

TEST(Pose, ApplyPlacesCentroid) {
  Rng rng(4);
  Molecule lig = small_ligand(rng);
  Pose p;
  p.translation = {1, 2, 3};
  p.axis = {0, 0, 1};
  p.angle = 1.0f;
  Molecule placed = p.apply(lig, {10, 0, 0});
  const Vec3 c = placed.centroid();
  EXPECT_NEAR(c.x, 11.0f, 1e-3f);
  EXPECT_NEAR(c.y, 2.0f, 1e-3f);
  EXPECT_NEAR(c.z, 3.0f, 1e-3f);
}

TEST(Pose, RotationPreservesInternalGeometry) {
  Rng rng(5);
  Molecule lig = small_ligand(rng);
  Pose p = random_pose(rng, 3.0f);
  Molecule placed = p.apply(lig, {});
  // bond lengths invariant under rigid transform
  for (const chem::Bond& b : lig.bonds()) {
    const float before = lig.atoms()[static_cast<size_t>(b.a)].pos.dist(
        lig.atoms()[static_cast<size_t>(b.b)].pos);
    const float after = placed.atoms()[static_cast<size_t>(b.a)].pos.dist(
        placed.atoms()[static_cast<size_t>(b.b)].pos);
    EXPECT_NEAR(before, after, 1e-4f);
  }
}

TEST(Docking, ReturnsSortedDedupedPoses) {
  Rng rng(6);
  Molecule lig = small_ligand(rng);
  std::vector<Atom> pocket = data::make_pocket({5.0f, 48, 0.65f, 0.5f, 0.1f}, rng);
  DockingConfig cfg;
  cfg.num_runs = 6;
  cfg.steps_per_run = 60;
  DockingEngine engine(cfg);
  DockingResult res = engine.dock(lig, pocket, {}, rng);
  ASSERT_FALSE(res.poses.empty());
  for (size_t i = 1; i < res.poses.size(); ++i) {
    EXPECT_LE(res.poses[i - 1].score, res.poses[i].score);
  }
  for (size_t i = 0; i < res.conformers.size(); ++i) {
    for (size_t j = i + 1; j < res.conformers.size(); ++j) {
      EXPECT_GE(chem::pose_rmsd(res.conformers[i], res.conformers[j]), cfg.dedup_rmsd);
    }
  }
  EXPECT_EQ(res.total_evaluations, cfg.num_runs * (cfg.steps_per_run + 1));
}

TEST(Docking, FindsBetterThanRandomPlacement) {
  Rng rng(7);
  Molecule lig = small_ligand(rng);
  std::vector<Atom> pocket = data::make_pocket({5.0f, 48, 0.65f, 0.5f, 0.1f}, rng);
  DockingConfig cfg;
  cfg.num_runs = 4;
  cfg.steps_per_run = 120;
  DockingEngine engine(cfg);
  DockingResult res = engine.dock(lig, pocket, {}, rng);
  // Average random-pose score as baseline.
  float random_avg = 0.0f;
  for (int i = 0; i < 20; ++i) {
    Pose p = random_pose(rng, cfg.box_half);
    random_avg += vina_score(p.apply(lig, {}), pocket);
  }
  random_avg /= 20.0f;
  EXPECT_LT(res.poses.front().score, random_avg);
}

TEST(Docking, RespectsMaxPoses) {
  Rng rng(8);
  Molecule lig = small_ligand(rng);
  std::vector<Atom> pocket = data::make_pocket({5.0f, 40, 0.6f, 0.5f, 0.1f}, rng);
  DockingConfig cfg;
  cfg.num_runs = 12;
  cfg.steps_per_run = 30;
  cfg.max_poses = 3;
  cfg.dedup_rmsd = 0.0f;  // keep everything
  DockingResult res = DockingEngine(cfg).dock(lig, pocket, {}, rng);
  EXPECT_LE(res.poses.size(), 3u);
}

// ---- score_terms: the 16-lane kernel -----------------------------------

void expect_terms_bitwise(const TermBreakdown& a, const TermBreakdown& b) {
  EXPECT_EQ(0, std::memcmp(&a, &b, sizeof(TermBreakdown)))
      << a.gauss1 << " " << b.gauss1 << " / " << a.electrostatic << " " << b.electrostatic;
}

Molecule charged_ligand(Rng& rng) {
  chem::MoleculeGenConfig mc;
  mc.charge_probability = 0.4f;
  Molecule m = chem::generate_molecule(mc, rng);
  chem::embed_conformer(m, rng);
  m.translate(Vec3{} - m.centroid());
  return m;
}

std::vector<Atom> charged_pocket(Rng& rng, int n) {
  data::PocketConfig pc;
  pc.num_atoms = n;
  pc.radius = 4.5f;
  pc.charged_frac = 0.3f;
  return data::make_pocket(pc, rng);
}

TEST(ScoreTerms, EmptyPocketScoresZero) {
  Rng rng(11);
  const Molecule lig = charged_ligand(rng);
  expect_terms_bitwise(score_terms(lig, {}), TermBreakdown{});
}

TEST(ScoreTerms, AtomsBeyondCutoffLeaveEveryTermBitwiseUnchanged) {
  // Pocket atom j sits in lane j % 16; appended atoms beyond 8 A must add
  // exact zeros whichever lane (and tail block) they land in.
  Rng rng(12);
  const Molecule lig = charged_ligand(rng);
  const std::vector<Atom> full = charged_pocket(rng, 40);
  for (size_t n = 1; n <= full.size(); ++n) {
    std::vector<Atom> pocket(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(n));
    const TermBreakdown base = score_terms(lig, pocket);
    for (int extra = 0; extra < 19; ++extra) {
      Atom far = full[static_cast<size_t>(extra) % full.size()];
      far.pos = Vec3{30.0f + static_cast<float>(extra), -20.0f, 12.0f};
      pocket.push_back(far);
      expect_terms_bitwise(score_terms(lig, pocket), base);
    }
  }
}

TEST(ScoreTerms, WithinOneInHundredThousandOfDoubleReference) {
  Rng rng(13);
  for (int trial = 0; trial < 12; ++trial) {
    const Molecule lig = charged_ligand(rng);
    const std::vector<Atom> pocket = charged_pocket(rng, 8 + trial * 8);
    // Double-precision std::exp reference; the cutoff decision uses the
    // float distance so both sides sum the same pairs.
    double ref[6] = {}, mag[6] = {};
    for (const Atom& la : lig.atoms()) {
      const chem::ElementInfo& li = chem::element_info(la.element);
      for (const Atom& pa : pocket) {
        if (la.pos.dist(pa.pos) > 8.0f) continue;
        const chem::ElementInfo& pi = chem::element_info(pa.element);
        const double dx = double(la.pos.x) - pa.pos.x, dy = double(la.pos.y) - pa.pos.y,
                     dz = double(la.pos.z) - pa.pos.z;
        const double r = std::sqrt(dx * dx + dy * dy + dz * dz);
        const double d = r - (double(li.vdw_radius) + pi.vdw_radius);
        double v[6] = {};
        v[0] = std::exp(-(d / 0.5) * (d / 0.5));
        v[1] = std::exp(-((d - 3.0) / 2.0) * ((d - 3.0) / 2.0));
        v[2] = d < 0.0 ? d * d : 0.0;
        if (li.hydrophobic && pi.hydrophobic) v[3] = std::clamp(1.5 - d, 0.0, 1.0);
        const bool l_donor = li.hbond_donor_heavy && la.implicit_h > 0;
        if ((l_donor && pi.hbond_acceptor) || (pi.hbond_donor_heavy && li.hbond_acceptor)) {
          v[4] = std::clamp(-d / 0.7, 0.0, 1.0);
        }
        if (la.formal_charge != 0 && pa.formal_charge != 0) {
          v[5] = 332.0 * la.formal_charge * pa.formal_charge / (4.0 * r * r);
        }
        for (int k = 0; k < 6; ++k) {
          ref[k] += v[k];
          mag[k] += std::abs(v[k]);
        }
      }
    }
    const TermBreakdown t = score_terms(lig, pocket);
    const float got[6] = {t.gauss1, t.gauss2, t.repulsion, t.hydrophobic, t.hbond, t.electrostatic};
    for (int k = 0; k < 6; ++k) {
      EXPECT_LE(std::abs(got[k] - ref[k]), 1e-5 * mag[k]) << "trial " << trial << " term " << k;
    }
  }
}

// ---- DockingEngine::dock against the Pose::apply + vina_score loop ------

DockingResult reference_dock(const DockingConfig& cfg, const Molecule& ligand,
                             const std::vector<Atom>& pocket, const Vec3& site_center, Rng& rng) {
  DockingResult out;
  std::vector<Pose> best_per_run;
  for (int run = 0; run < cfg.num_runs; ++run) {
    Pose current = random_pose(rng, cfg.box_half);
    current.score = vina_score(current.apply(ligand, site_center), pocket, cfg.weights);
    ++out.total_evaluations;
    Pose best = current;
    for (int step = 0; step < cfg.steps_per_run; ++step) {
      Pose cand = perturb(current, rng);
      cand.translation.x = std::clamp(cand.translation.x, -cfg.box_half, cfg.box_half);
      cand.translation.y = std::clamp(cand.translation.y, -cfg.box_half, cfg.box_half);
      cand.translation.z = std::clamp(cand.translation.z, -cfg.box_half, cfg.box_half);
      cand.score = vina_score(cand.apply(ligand, site_center), pocket, cfg.weights);
      ++out.total_evaluations;
      const float delta = cand.score - current.score;
      if (delta < 0.0f || rng.uniform() < std::exp(-delta / cfg.temperature)) {
        current = cand;
        if (current.score < best.score) best = current;
      }
    }
    best_per_run.push_back(best);
  }
  std::sort(best_per_run.begin(), best_per_run.end(),
            [](const Pose& a, const Pose& b) { return a.score < b.score; });
  for (const Pose& p : best_per_run) {
    if (static_cast<int>(out.poses.size()) >= cfg.max_poses) break;
    Molecule pm = p.apply(ligand, site_center);
    bool dup = false;
    for (const Molecule& accepted : out.conformers) {
      if (chem::pose_rmsd(pm, accepted) < cfg.dedup_rmsd) dup = true;
    }
    if (!dup) {
      out.poses.push_back(p);
      out.conformers.push_back(std::move(pm));
    }
  }
  return out;
}

TEST(Docking, BitwiseEqualToApplyAndVinaScoreLoop) {
  Rng setup(14);
  for (int trial = 0; trial < 4; ++trial) {
    const Molecule lig = charged_ligand(setup);
    const std::vector<Atom> pocket = charged_pocket(setup, 30 + trial * 20);
    const Vec3 site{1.5f * static_cast<float>(trial), -2.0f, 0.5f};
    DockingConfig cfg;
    cfg.num_runs = 4;
    cfg.steps_per_run = 40;
    Rng a(100 + static_cast<uint64_t>(trial)), b(100 + static_cast<uint64_t>(trial));
    const DockingResult got = DockingEngine(cfg).dock(lig, pocket, site, a);
    const DockingResult want = reference_dock(cfg, lig, pocket, site, b);
    EXPECT_EQ(got.total_evaluations, want.total_evaluations);
    ASSERT_EQ(got.poses.size(), want.poses.size());
    for (size_t i = 0; i < got.poses.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(&got.poses[i], &want.poses[i], sizeof(Pose))) << "pose " << i;
      ASSERT_EQ(got.conformers[i].num_atoms(), want.conformers[i].num_atoms());
      for (size_t k = 0; k < got.conformers[i].num_atoms(); ++k) {
        EXPECT_EQ(0, std::memcmp(&got.conformers[i].atoms()[k].pos,
                                 &want.conformers[i].atoms()[k].pos, sizeof(Vec3)));
      }
    }
    EXPECT_EQ(a.uniform(), b.uniform());  // same number of draws
  }
}

}  // namespace
}  // namespace df::dock
