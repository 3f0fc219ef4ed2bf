// screen_campaign: the paper's whole job, closed loop with one caller.
// ScreeningCampaign::run(compounds, service, "fusion") over an Enamine-
// profile library x the 4 make_sars_cov2_targets sites: ConveyorLC docks
// each compound, MM-GBSA rescores the top poses, and fusion scores the
// poses through an ordered-stream in-process ScoringService. Shard
// streaming and checkpoints are on, fault injection is off. The seed draws
// 32 small campaigns, screened back to back, round after round, until the
// time is up; each campaign is one request of this closed loop and is
// timed by the median of its rounds. Docking dominates and runs
// serially on the calling thread, so dock and screen changes show here
// while forward and serving changes should read flat.
#include <cmath>
#include <optional>
#include <filesystem>
#include <memory>

#include "data/compound_library.h"
#include "data/target.h"
#include "dock/conveyorlc.h"
#include "replay.h"
#include "screen/campaign.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {

using namespace df;
namespace fs = std::filesystem;

namespace {

constexpr int kCompoundsPerCampaign = 6;
constexpr int kCampaigns = 32;  // distinct campaigns, screened round after round
constexpr int kMinRounds = 2;
constexpr int kSetupReps = 51;
constexpr int kWorkers = 2;      // service workers
constexpr int kPoolThreads = 2;  // campaign pool; 2 + 2 compute threads = nproc
constexpr int kReplayCompounds = 3;
constexpr uint64_t kTargetSeed = 7;
const char* const kScorer = "fusion";

screen::CampaignConfig campaign_config(uint64_t seed, const std::string& run_dir) {
  screen::CampaignConfig cfg;
  cfg.job.nodes = 1;
  cfg.job.gpus_per_node = 4;
  cfg.job.batch_size_per_rank = 56;
  cfg.job.voxel.grid_dim = bench::kGridDim;
  cfg.poses_per_job = 32;
  cfg.pipeline.docking.num_runs = 4;
  cfg.pipeline.docking.steps_per_run = 50;
  cfg.pipeline.docking.max_poses = 4;
  cfg.pipeline.rescore_top_n = 2;
  cfg.threads = kPoolThreads;
  cfg.seed = seed;
  cfg.output_prefix = (fs::path(run_dir) / "campaign").string();
  cfg.checkpoint_path = (fs::path(run_dir) / "campaign.ckpt").string();
  return cfg;
}

std::unique_ptr<serve::ScoringService> build_service(const screen::CampaignConfig& cfg) {
  serve::ModelRegistry reg;
  serve::add_regressor(reg, kScorer, fusion_factory(), cfg.job.voxel, cfg.job.graph);
  serve::ServiceConfig sc;
  sc.workers = kWorkers;
  sc.poses_per_batch = cfg.job.poses_per_batch;
  sc.ordered_stream = true;
  auto svc = std::make_unique<serve::ScoringService>(reg, sc);
  svc->warmup(kScorer);
  return svc;
}

/// FNV-1a over every report field except the timings, so that runs of one
/// commit (and one seed) can be compared.
uint64_t report_digest(const screen::CampaignReport& r) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  };
  const auto mix_i = [&](int64_t v) { mix(&v, sizeof(v)); };
  const auto mix_f = [&](float v) { mix(&v, sizeof(v)); };
  for (const screen::CompoundScreenResult& c : r.results) {
    mix(c.compound_id.data(), c.compound_id.size());
    mix_i(c.target_index);
    mix_f(c.fusion_pk);
    mix_f(c.vina_score);
    mix_f(c.mmgbsa_score);
    mix_f(c.ampl_mmgbsa_score);
    mix_f(c.true_pk);
    mix_f(c.percent_inhibition);
    mix_i(c.poses);
  }
  for (int v : {r.jobs_run, r.jobs_failed, r.compounds_rejected, r.poses_generated,
                r.units_total, r.units_resumed, r.units_exhausted, r.checkpoints_written}) {
    mix_i(v);
  }
  mix_i(static_cast<int64_t>(r.shard_files.size()));
  return h;
}

/// Every non-rejected compound x target has a finite result and no unit
/// exhausted its retries. Returns the number of missing or bad results.
uint64_t report_failures(const screen::CampaignReport& r, size_t compounds, size_t targets) {
  const size_t expected = (compounds - static_cast<size_t>(r.compounds_rejected)) * targets;
  uint64_t bad = r.results.size() < expected ? expected - r.results.size() : 0;
  for (const screen::CompoundScreenResult& c : r.results) {
    if (!std::isfinite(c.fusion_pk) || c.poses <= 0) ++bad;
  }
  return bad + static_cast<uint64_t>(r.units_exhausted);
}

uint64_t shard_bytes(const screen::CampaignReport& r) {
  uint64_t total = 0;
  for (const std::string& f : r.shard_files) {
    std::error_code ec;
    const auto n = fs::file_size(f, ec);
    if (!ec) total += n;
  }
  return total;
}

/// Dock the first compounds of the library against every target, one
/// ConveyorLC::run per compound x target, and hand the docked poses on as
/// the scoring replay's requests (one request per compound x target).
void replay_dock(const screen::CampaignConfig& cfg, const std::vector<data::Target>& targets,
                 const std::vector<data::LibraryCompound>& library, uint64_t seed,
                 Tracer& tracer, PerLayer& out,
                 std::vector<std::vector<serve::PoseInput>>& requests) {
  Span root(tracer, "replay.dock");
  const dock::ConveyorLC pipeline(cfg.pipeline);
  std::vector<dock::ReceptorModel> receptors;
  for (const data::Target& t : targets) receptors.push_back(dock::ConveyorLC::prepare_receptor(t.pocket));
  core::Rng rng(seed);
  std::vector<double> prep_ms, dock_ms;
  double mmgbsa_ms = 0.0, mmgbsa_poses = 0.0;
  for (size_t ci = 0; ci < library.size() && ci < static_cast<size_t>(kReplayCompounds); ++ci) {
    const chem::Molecule raw = data::materialize(library[ci]);
    for (size_t ti = 0; ti < targets.size(); ++ti) {
      std::optional<dock::PipelineResult> res;
      {
        Span s(tracer, "dock.conveyorlc", root.id());
        res = pipeline.run(raw, receptors[ti], rng);
      }
      if (!res) break;  // prep rejection is compound-wide
      prep_ms.push_back(res->ligand_prep_seconds * 1e3);
      dock_ms.push_back(res->docking_seconds * 1e3);
      mmgbsa_ms += res->mmgbsa_seconds * 1e3;
      mmgbsa_poses += static_cast<double>(res->mmgbsa_scores.size());
      std::vector<serve::PoseInput> req;
      for (const chem::Molecule& conf : res->conformers) {
        serve::PoseInput p;
        p.ligand = conf;
        p.pocket = &targets[ti].pocket;
        p.site_center = receptors[ti].site_center;
        req.push_back(std::move(p));
      }
      requests.push_back(std::move(req));
    }
  }
  out.set("dock.ligand_prep_ms", mean(prep_ms));
  out.set("dock.docking_ms", mean(dock_ms));
  if (mmgbsa_poses > 0) out.set("dock.mmgbsa_ms_per_pose", mmgbsa_ms / mmgbsa_poses);
}

}  // namespace

WorkloadRun run_screen_campaign(const Options& opt, Tracer& tracer) {
  WorkloadRun out;
  const bool traced = tracer.enabled();
  // The four binding sites are fixed objects of the screen, like the
  // paper's; the seed draws the libraries.
  core::Rng target_rng(kTargetSeed);
  const std::vector<data::Target> targets = data::make_sars_cov2_targets(target_rng);
  // Each library holds the same mix of molecule sizes, spread evenly over
  // the Enamine profile's heavy-atom range, so that seeds differ in the
  // compounds, not in how much docking they cost.
  const auto library_for = [&](int campaign) {
    core::Rng rng(core::derive_stream(opt.seed, 0x4C4942ULL, static_cast<uint64_t>(campaign)));
    const data::LibraryConfig profile =
        data::default_library(data::LibrarySource::Enamine, kCompoundsPerCampaign);
    const int lo = profile.gen.min_heavy_atoms, span = profile.gen.max_heavy_atoms - lo + 1;
    std::vector<data::LibraryCompound> library;
    for (int i = 0; i < kCompoundsPerCampaign; ++i) {
      data::LibraryConfig one = profile;
      one.count = 1;
      one.gen.min_heavy_atoms = one.gen.max_heavy_atoms = lo + i * span / kCompoundsPerCampaign;
      library.push_back(std::move(data::generate_library(one, rng).front()));
      library.back().id = std::string(data::library_name(profile.source)) + "-" + std::to_string(i);
    }
    return library;
  };

  // Set-up: receptor prep and service warm-up (the campaign repeats its own
  // receptor prep inside run(); this is the part a caller pays before it).
  std::unique_ptr<serve::ScoringService> svc;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    const auto t0 = Clock::now();
    std::vector<dock::ReceptorModel> receptors;
    for (const data::Target& t : targets) {
      receptors.push_back(dock::ConveyorLC::prepare_receptor(t.pocket));
    }
    svc = build_service(campaign_config(opt.seed, opt.run_dir));
    setup_s.push_back(seconds_since(t0));
  }

  // The campaigns of a run: libraries and campaign seeds from the seed.
  // They are screened round after round, so that every campaign is timed
  // several times; the first campaign runs once before that, untimed.
  struct Campaign {
    std::vector<data::LibraryCompound> library;
    screen::CampaignConfig cfg;
    std::optional<uint64_t> digest;  // of its first run
    int poses = 0;
    std::vector<double> seconds[2];  // untraced / traced rounds
  };
  std::vector<Campaign> campaigns(kCampaigns);
  for (int c = 0; c < kCampaigns; ++c) {
    campaigns[c].library = library_for(c);
    campaigns[c].cfg = campaign_config(
        core::derive_stream(opt.seed, 0x43414D50ULL, static_cast<uint64_t>(c)), opt.run_dir);
  }

  uint64_t attempted = 0, failed = 0, mismatched = 0, checkpoints = 0, bytes = 0, poses = 0;
  double wall = 0.0, docking_s = 0.0, scoring_s = 0.0;
  int timed = 0, rounds = 0;
  std::string digests;
  // Screens campaign c and checks its report. The warm-up run is not
  // timed; a campaign's first run sets the digest its later runs must match.
  const auto screen_one = [&](int c, bool warmup) {
    Campaign& k = campaigns[c];
    std::error_code ec;
    fs::remove(k.cfg.checkpoint_path, ec);  // a fresh campaign, never a resume
    screen::ScreeningCampaign sc(k.cfg, targets);
    const auto t0 = Clock::now();
    screen::CampaignReport report;
    {
      Span s(tracer, "screen.campaign_run", 0, static_cast<uint64_t>(c) + 1);
      report = sc.run(k.library, *svc, kScorer);
    }
    const double s = seconds_since(t0);
    attempted += k.library.size() * targets.size();
    failed += report_failures(report, k.library.size(), targets.size());
    const uint64_t digest = report_digest(report);
    if (!k.digest) {
      k.digest = digest;
      k.poses = report.poses_generated;
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%s%d:%016llx", c > 0 ? " " : "", c,
                    static_cast<unsigned long long>(digest));
      digests += buf;
    } else if (digest != *k.digest) {
      ++mismatched;  // a campaign must screen the same every time
    }
    if (warmup) return;
    ++timed;
    wall += s;
    poses += static_cast<uint64_t>(report.poses_generated);
    docking_s += report.docking_seconds;
    scoring_s += report.fusion_seconds;
    checkpoints += static_cast<uint64_t>(report.checkpoints_written);
    bytes += shard_bytes(report);
    k.seconds[traced ? rounds % 2 : 0].push_back(s);
  };
  screen_one(0, true);
  const auto t_start = Clock::now();
  for (bool more = true; more; ++rounds) {
    if (traced) tracer.set_enabled(rounds % 2 == 1);
    for (int c = 0; c < kCampaigns && more; ++c) {
      screen_one(c, false);
      more = rounds + 1 < kMinRounds || seconds_since(t_start) < opt.seconds;
    }
  }
  if (traced) tracer.set_enabled(true);
  const serve::ServiceStats stats = svc->stats();
  svc.reset();
  failed += mismatched;

  // Each campaign's median time over its rounds; the metrics add them up.
  const auto median_times = [&](int half, double& total, double& work_poses,
                                double& work_compounds) {
    std::vector<double> out;
    total = work_poses = work_compounds = 0.0;
    for (const Campaign& k : campaigns) {
      if (k.seconds[half].empty()) continue;
      out.push_back(median(k.seconds[half]));
      total += out.back();
      work_poses += k.poses;
      work_compounds += static_cast<double>(k.library.size());
    }
    return out;
  };
  double total_s = 0.0, total_poses = 0.0, total_compounds = 0.0;
  const std::vector<double> times = median_times(0, total_s, total_poses, total_compounds);
  std::printf("screen_campaign: %d campaigns x %d compounds x %zu targets, %d rounds after one "
              "warm-up: %d timed campaigns, %llu poses in %.3f s (docking %.3f s, scoring %.3f s); "
              "median times add up to %.3f s\n",
              kCampaigns, kCompoundsPerCampaign, targets.size(), rounds, timed,
              static_cast<unsigned long long>(poses), wall, docking_s, scoring_s, total_s);
  std::printf("screen_campaign report digests (timing fields excluded): %s\n", digests.c_str());
  std::printf("screen_campaign correctness: %llu compound x target results expected, %llu "
              "missing, non-finite or exhausted, %llu campaigns screened differently from their "
              "first run\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed - mismatched),
              static_cast<unsigned long long>(mismatched));
  out.result.attempted = attempted;
  out.result.failed = failed;
  out.result.correct = failed == 0;

  if (!traced) {
    const LatencySummary lat = summarize(times);
    EndToEnd e;
    e.setup_s = median(setup_s);
    print_setup(setup_s);
    e.poses_per_s = total_poses / total_s;
    e.compounds_per_s = total_compounds / total_s;
    e.latency_p50_ms = lat.p50 * 1e3;
    e.latency_p99_ms = lat.tail * 1e3;
    // A closed loop's highest sustained rate is its throughput.
    e.max_rate_poses_per_s = e.poses_per_s;
    e.peak_rss_mb = peak_rss_mb_self();
    std::printf("screen_campaign latency per campaign (median time of each of %zu campaigns): p50 "
                "%.3f ms, p%.1f %.3f ms\n",
                lat.n, lat.p50 * 1e3, lat.tail_q * 100.0, lat.tail * 1e3);
    out.floors = measure_floors();
    out.result.metrics = end_to_end_metrics(e);
    return out;
  }

  PerLayer layers;
  double traced_s = 0.0, traced_poses = 0.0, traced_compounds = 0.0;
  median_times(1, traced_s, traced_poses, traced_compounds);
  layers.set("trace.overhead_frac", 1.0 - (traced_poses / traced_s) / (total_poses / total_s));
  layers.set("screen.docking_share", docking_s / wall);
  layers.set("screen.scoring_share", scoring_s / wall);
  layers.set("screen.shard_bytes_per_pose", static_cast<double>(bytes) / static_cast<double>(poses));
  layers.set("screen.checkpoints", static_cast<double>(checkpoints) / timed);
  const double batches = static_cast<double>(stats.batches);
  const screen::CampaignConfig cfg = campaign_config(opt.seed, opt.run_dir);
  layers.set("serve.batch_fill",
             static_cast<double>(stats.poses) / (batches * cfg.job.poses_per_batch));
  layers.set("serve.coalesced_share", static_cast<double>(stats.coalesced_batches) / batches);
  layers.set("serve.peak_queued_poses", static_cast<double>(stats.peak_queued_poses));
  std::printf("screen_campaign ServiceStats: requests %llu, poses %llu, batches %llu, full %llu, "
              "peak queued %zu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.poses),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.full_batches), stats.peak_queued_poses);

  out.floors = measure_floors();
  std::vector<std::vector<serve::PoseInput>> requests;
  replay_dock(cfg, targets, library_for(0), core::derive_stream(opt.seed, 0x444F434BULL, 0),
              tracer, layers, requests);
  ReplaySpec spec;
  spec.scorer = kScorer;
  spec.factory = fusion_factory();
  spec.voxel = cfg.job.voxel;
  spec.graph = cfg.job.graph;
  spec.requests = &requests;
  spec.poses_per_batch = cfg.job.poses_per_batch;
  spec.ordered = true;
  replay_layers(spec, out.floors, tracer, layers);
  out.result.metrics = layers.metrics();
  return out;
}

}  // namespace perfbench
