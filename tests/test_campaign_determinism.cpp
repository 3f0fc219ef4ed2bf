// Determinism pins for the campaign driver: every stochastic stream is
// keyed on (campaign seed, stable work-unit / compound / target id), never
// on pool-arrival or library order — so the CampaignReport is bitwise
// identical across worker-pool sizes and across repeated runs, with fault
// injection on, and a pair's docked results do not depend on the rest of
// the library.
#include <gtest/gtest.h>

#include <algorithm>

#include "campaign_test_utils.h"
#include "core/rng.h"
#include "screen/plan.h"

namespace df::screen {
namespace {

using core::Rng;

TEST(CampaignDeterminism, ReportIndependentOfThreadCount) {
  Rng rng(11);
  std::vector<data::Target> targets = {data::make_target(data::TargetKind::Protease1, rng),
                                       data::make_target(data::TargetKind::Spike1, rng)};
  const auto compounds =
      data::generate_library(data::default_library(data::LibrarySource::Enamine, 5), rng);

  CampaignConfig cfg = testutil::tiny_campaign();
  cfg.job.inject_failures = true;  // fault path must be deterministic too
  cfg.job.nodes = 8;               // 20% per-attempt failure rate
  cfg.job.gpus_per_node = 1;

  cfg.threads = 1;
  const CampaignReport serial = ScreeningCampaign(cfg, targets).run(compounds, testutil::tiny_sg_factory());
  cfg.threads = 8;
  const CampaignReport wide = ScreeningCampaign(cfg, targets).run(compounds, testutil::tiny_sg_factory());

  EXPECT_FALSE(serial.results.empty());
  testutil::expect_reports_bitwise_equal(serial, wide);
}

TEST(CampaignDeterminism, RepeatedRunsIdentical) {
  Rng rng(12);
  std::vector<data::Target> targets = {data::make_target(data::TargetKind::Spike2, rng)};
  const auto compounds =
      data::generate_library(data::default_library(data::LibrarySource::ZINC, 4), rng);
  const CampaignConfig cfg = testutil::tiny_campaign();
  const CampaignReport a = ScreeningCampaign(cfg, targets).run(compounds, testutil::tiny_sg_factory());
  const CampaignReport b = ScreeningCampaign(cfg, targets).run(compounds, testutil::tiny_sg_factory());
  testutil::expect_reports_bitwise_equal(a, b);
}

TEST(CampaignDeterminism, DockingKeysOnPairNotLibraryOrder) {
  // Each (compound, target) pair docks on its own (seed, compound, target)
  // stream: appending compounds to the library, or swapping one compound
  // for another, leaves every other compound's docked results bitwise
  // unchanged. (A shared docking stream would shift every compound after
  // the swapped one.)
  Rng rng(13);
  std::vector<data::Target> targets = {data::make_target(data::TargetKind::Protease2, rng),
                                       data::make_target(data::TargetKind::Spike1, rng)};
  const auto base =
      data::generate_library(data::default_library(data::LibrarySource::Enamine, 4), rng);
  auto grown = base;
  const auto extra =
      data::generate_library(data::default_library(data::LibrarySource::ZINC, 3), rng);
  grown[1] = extra[0];
  grown.push_back(extra[1]);
  grown.push_back(extra[2]);

  const CampaignConfig cfg = testutil::tiny_campaign();
  const CampaignReport a = ScreeningCampaign(cfg, targets).run(base, testutil::tiny_sg_factory());
  const CampaignReport b = ScreeningCampaign(cfg, targets).run(grown, testutil::tiny_sg_factory());

  size_t compared = 0;
  for (const CompoundScreenResult& x : a.results) {
    if (x.compound_id == base[1].id) continue;  // the swapped-out compound
    const auto y = std::find_if(b.results.begin(), b.results.end(), [&](const auto& r) {
      return r.compound_id == x.compound_id && r.target_index == x.target_index;
    });
    ASSERT_NE(y, b.results.end()) << x.compound_id;
    // EXPECT_EQ on floats is exact equality — bitwise for finite values.
    EXPECT_EQ(x.poses, y->poses) << x.compound_id;
    EXPECT_EQ(x.vina_score, y->vina_score) << x.compound_id;
    EXPECT_EQ(x.mmgbsa_score, y->mmgbsa_score) << x.compound_id;
    EXPECT_EQ(x.true_pk, y->true_pk) << x.compound_id;
    EXPECT_EQ(x.percent_inhibition, y->percent_inhibition) << x.compound_id;
    EXPECT_EQ(x.fusion_pk, y->fusion_pk) << x.compound_id;
    ++compared;
  }
  EXPECT_GE(compared, 4u);
}

TEST(CampaignDeterminism, PairStreamReproducesStandaloneDock) {
  // One pair's ConveyorLC::run on derive_stream(seed, kDock, ci * T + ti),
  // run on its own, gives that pair's campaign docking scores.
  Rng rng(14);
  std::vector<data::Target> targets = {data::make_target(data::TargetKind::Protease1, rng),
                                       data::make_target(data::TargetKind::Spike2, rng)};
  const auto compounds =
      data::generate_library(data::default_library(data::LibrarySource::Enamine, 3), rng);
  const CampaignConfig cfg = testutil::tiny_campaign();
  const CampaignReport report =
      ScreeningCampaign(cfg, targets).run(compounds, testutil::tiny_sg_factory());
  ASSERT_FALSE(report.results.empty());

  const dock::ConveyorLC pipeline(cfg.pipeline);
  for (const CompoundScreenResult& r : report.results) {
    size_t ci = 0;
    while (compounds[ci].id != r.compound_id) ++ci;
    const size_t ti = static_cast<size_t>(r.target_index);
    Rng pair_rng(core::derive_stream(cfg.seed, core::stream_tag::kDock,
                                     ci * targets.size() + ti));
    const auto res = pipeline.run(data::materialize(compounds[ci]),
                                  dock::ConveyorLC::prepare_receptor(targets[ti].pocket), pair_rng);
    ASSERT_TRUE(res.has_value()) << r.compound_id;
    ASSERT_EQ(static_cast<int>(res->poses.size()), r.poses) << r.compound_id;
    float vina = 1e30f;
    for (const dock::Pose& p : res->poses) vina = std::min(vina, p.score);
    float mmgbsa = 1e30f;
    for (float m : res->mmgbsa_scores) mmgbsa = std::min(mmgbsa, m);
    EXPECT_EQ(vina, r.vina_score) << r.compound_id << " target " << ti;
    EXPECT_EQ(mmgbsa, r.mmgbsa_score) << r.compound_id << " target " << ti;
  }
}

TEST(CampaignDeterminism, UnitSeedsKeyOnStableIds) {
  // Seeds separate by unit and attempt, and never depend on anything else.
  EXPECT_EQ(unit_seed(2021, 5, 1), unit_seed(2021, 5, 1));
  EXPECT_NE(unit_seed(2021, 5, 1), unit_seed(2021, 5, 2));
  EXPECT_NE(unit_seed(2021, 5, 1), unit_seed(2021, 6, 1));
  EXPECT_NE(unit_seed(2021, 5, 1), unit_seed(2022, 5, 1));
}

TEST(CampaignDeterminism, RankPlanPartitionIsExact) {
  JobConfig job;
  job.nodes = 2;
  job.gpus_per_node = 4;
  ClusterConfig cluster;
  cluster.num_nodes = 16;
  const RankPlan plan = RankPlan::build(103, 10, job, cluster);
  EXPECT_EQ(plan.ranks_per_job, 8);
  EXPECT_EQ(plan.concurrent_jobs, 8);
  ASSERT_EQ(plan.units.size(), 11u);
  size_t covered = 0;
  for (const WorkUnit& u : plan.units) {
    EXPECT_EQ(u.pose_begin, covered);
    EXPECT_GT(u.pose_end, u.pose_begin);
    EXPECT_LT(u.slot, plan.concurrent_jobs);
    covered = u.pose_end;
  }
  EXPECT_EQ(covered, 103u);
  EXPECT_EQ(plan.units.back().poses(), 3u);
}

}  // namespace
}  // namespace df::screen
