// Domain example: a miniature SARS-CoV-2 virtual screening campaign — the
// paper's §4-5 workflow end to end. Compounds from a ZINC-like library are
// prepared (salt stripping, pH-7 protonation), docked against the four
// binding sites with the ConveyorLC-equivalent pipeline, scored by the
// shared ScoringService in fault-tolerant multi-rank jobs, and ranked; the
// top candidates are "sent to the lab" (assay simulator) and the hit rate
// is reported.
//
// Build & run:  ./build/examples/virtual_screen
#include <algorithm>
#include <cstdio>

#include "examples_common.h"

using namespace df;

int main() {
  core::Rng rng(7);
  std::vector<data::Target> targets = data::make_sars_cov2_targets(rng);
  std::printf("targets: ");
  for (const auto& t : targets) std::printf("%s ", t.name.c_str());
  std::printf("\n");

  // Library: ZINC-style approved drugs (salts and occasional metals, which
  // ligand prep must handle).
  const auto compounds =
      data::generate_library(data::default_library(data::LibrarySource::ZINC, 20), rng);
  std::printf("library: %zu compounds from %s\n\n", compounds.size(),
              data::library_name(compounds.front().source));

  screen::CampaignConfig cfg = examples::demo_campaign_config();
  cfg.job.nodes = 1;
  cfg.job.gpus_per_node = 4;
  cfg.job.inject_failures = true;  // exercise the fault-tolerant path
  cfg.poses_per_job = 128;

  // Scoring backend: the demo SG-CNN registered as "sgcnn" behind an
  // ordered-stream ScoringService; the campaign is just one client of it.
  const serve::ModelRegistry registry = examples::demo_registry(cfg);
  serve::ScoringService service(registry, examples::demo_service_config(cfg, /*workers=*/4));

  screen::ScreeningCampaign campaign(cfg, targets);
  const screen::CampaignReport report = campaign.run(compounds, service, "sgcnn");

  std::printf("pipeline: %d poses docked, %d rejected compounds, %d jobs (%d failed+retried)\n",
              report.poses_generated, report.compounds_rejected, report.jobs_run,
              report.jobs_failed);
  std::printf("stage times: docking %.1fs wall (MM/GBSA %.1fs summed over pool threads), "
              "fusion scoring %.1fs\n\n",
              report.docking_seconds, report.mmgbsa_seconds, report.fusion_seconds);

  // Rank per target by predicted affinity and "purchase" the top 3.
  for (size_t ti = 0; ti < targets.size(); ++ti) {
    std::vector<const screen::CompoundScreenResult*> rows;
    for (const auto& r : report.results) {
      if (static_cast<size_t>(r.target_index) == ti) rows.push_back(&r);
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto* a, const auto* b) { return a->fusion_pk > b->fusion_pk; });
    std::printf("%s top candidates (assayed at %.0f uM):\n", targets[ti].name.c_str(),
                targets[ti].assay_concentration_uM);
    const size_t top = std::min<size_t>(3, rows.size());
    for (size_t i = 0; i < top; ++i) {
      std::printf("  %-14s predicted pK=%.2f  vina=%.2f  -> measured inhibition %.0f%%\n",
                  rows[i]->compound_id.c_str(), rows[i]->fusion_pk, rows[i]->vina_score,
                  rows[i]->percent_inhibition);
    }
  }
  return 0;
}
