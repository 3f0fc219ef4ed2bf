#include <gtest/gtest.h>

#include <chrono>

#include "chem/conformer.h"
#include "chem/smiles.h"
#include "data/target.h"
#include "dock/conveyorlc.h"
#include "dock/mmgbsa.h"

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

}  // namespace
}  // namespace df::dock
