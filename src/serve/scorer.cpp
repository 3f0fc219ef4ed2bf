#include "serve/scorer.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/parallel.h"
#include "dock/scoring.h"

namespace df::serve {

ReplicaGuard::ReplicaGuard(std::atomic<bool>& busy) : busy_(busy) {
  if (busy_.exchange(true, std::memory_order_acquire)) {
    throw std::logic_error(
        "scorer replica entered concurrently — replicas are single-threaded; "
        "build one per worker (see models/regressor.h replica contract)");
  }
}

ReplicaGuard::~ReplicaGuard() { busy_.store(false, std::memory_order_release); }

namespace {

/// The built-in backends all dereference the borrowed pocket; turn a
/// client's forgotten pointer into the service's typed kScorerFailure
/// instead of a process-killing segfault.
const std::vector<chem::Atom>& pocket_of(const PoseInput& pose, const std::string& scorer) {
  if (pose.pocket == nullptr) {
    throw std::invalid_argument("scorer '" + scorer + "': pose has a null pocket pointer");
  }
  return *pose.pocket;
}

}  // namespace

RegressorScorer::RegressorScorer(std::string name, std::unique_ptr<models::Regressor> model,
                                 const chem::VoxelConfig& voxel,
                                 const chem::GraphFeaturizerConfig& graph)
    : name_(std::move(name)),
      model_(std::move(model)),
      voxelizer_(voxel),
      featurizer_(graph),
      own_cache_(std::make_shared<PocketCache>(kReplicaPocketTargets)),
      pocket_cache_(own_cache_) {
  if (voxel.feature_set_version != graph.feature_set_version) {
    throw std::invalid_argument(
        "RegressorScorer '" + name_ + "': voxel feature_set_version (" +
        std::to_string(voxel.feature_set_version) + ") != graph feature_set_version (" +
        std::to_string(graph.feature_set_version) + ") — a model is trained against one contract");
  }
  model_->set_training(false);
  set_pipeline_depth(0);
}

// The replica's one scoring path: a bounded ring of micro-batch slots
// (ScorerPipeline). submit() fills a slot and featurize() fills its
// samples — on one background stage thread at depth >= 1, inline on the
// submitting thread at depth 0 (score()'s path). collect() forwards the
// oldest featurized slot. Three monotone sequence numbers (submit / stage /
// collect) define slot ownership; every handoff goes through mu_, which
// gives the happens-before edges the unlocked slot bodies rely on. Each
// slot owns its own featurize arena, so the stage thread never touches the
// forward arena a concurrent collect() is using, and steady state stays
// heap-free once every slot has warmed.
class RegressorScorer::Pipeline : public ScorerPipeline {
 public:
  Pipeline(RegressorScorer& owner, int depth, size_t feat_floats)
      : owner_(owner), depth_(depth), slots_(static_cast<size_t>(std::max(depth, 1))) {
    reserve(feat_floats);
    if (depth_ >= 1) stage_ = std::thread([this] { stage_main(); });
  }

  ~Pipeline() override {
    if (!stage_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    stage_.join();
  }

  int depth() const override { return depth_; }

  size_t in_flight() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<size_t>(submit_seq_ - collect_seq_);
  }

  void submit(std::vector<const PoseInput*> poses) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return submit_seq_ - collect_seq_ < slots_.size(); });
    Slot& s = slot(submit_seq_);
    s.poses = std::move(poses);
    ++submit_seq_;
    if (depth_ == 0) {
      lock.unlock();
      featurize(s);
      lock.lock();
      ++stage_seq_;
    }
    cv_.notify_all();
  }

  std::vector<float> collect() override {
    ReplicaGuard guard(owner_.busy_);
    return forward_oldest();
  }

  /// The one forward-plus-stats body, for collect() and score() alike
  /// (the caller holds the replica guard).
  std::vector<float> forward_oldest() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (collect_seq_ == submit_seq_) {
        throw std::logic_error("ScorerPipeline::collect(): no batch in flight");
      }
      cv_.wait(lock, [&] { return collect_seq_ < stage_seq_; });
    }
    // The slot is exclusively ours until collect_seq_ advances: the stage
    // thread only touches slots submitted but not yet staged, and submit()
    // refuses to reuse the slot while it counts as in flight. The slot is
    // released however this body exits — a featurize error rethrown here or
    // a throwing forward leaves the pipeline usable.
    Slot& s = slot(collect_seq_);
    struct Release {
      Pipeline& p;
      Slot& s;
      ~Release() { p.release(s); }
    } release{*this, s};
    if (s.error) std::rethrow_exception(std::exchange(s.error, nullptr));

    const auto t1 = std::chrono::steady_clock::now();
    std::vector<float> out;
    {
      owner_.forward_ws_.reset();
      core::Workspace::Bind bind(owner_.forward_ws_);
      std::vector<const data::Sample*> ptrs;
      ptrs.reserve(s.batch.size());
      for (const data::Sample& sample : s.batch) ptrs.push_back(&sample);
      out = owner_.model_->predict_batch(ptrs);
    }
    const auto t2 = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> slock(owner_.stats_mu_);
    owner_.stats_.batches += 1;
    owner_.stats_.poses += s.poses.size();
    owner_.stats_.featurize_seconds += s.featurize_seconds;
    owner_.stats_.forward_seconds += std::chrono::duration<double>(t2 - t1).count();
    return out;
  }

  /// Widest slot arena, and pre-growing every slot arena to `floats`.
  size_t feat_capacity() const {
    size_t widest = 0;
    for (const Slot& s : slots_) widest = std::max(widest, s.feat_ws.capacity());
    return widest;
  }
  void reserve(size_t floats) {
    for (Slot& s : slots_) s.feat_ws.reserve(floats);
  }

 private:
  /// One distinct (pocket, site center) of a batch and its cache entry,
  /// pinned alive until the batch is collected.
  struct Site {
    const std::vector<chem::Atom>* pocket;
    core::Vec3 center;
    std::shared_ptr<const PocketCache::Entry> entry;
  };
  struct Slot {
    std::vector<const PoseInput*> poses;
    std::vector<data::Sample> batch;
    std::vector<Site> sites;
    core::Workspace feat_ws;  // feature tensors live here until the forward
    std::exception_ptr error;
    double featurize_seconds = 0.0;
  };

  Slot& slot(uint64_t seq) { return slots_[static_cast<size_t>(seq % slots_.size())]; }

  /// The one featurize body. The poses of a batch overwhelmingly dock into
  /// one shared pocket, whose voxel block and crop cell list are
  /// pose-independent: each distinct (pocket, center) is looked up in the
  /// pocket cache once per batch, then per pose only the ligand is splatted
  /// and the cached block grafted — bitwise identical to the joint
  /// voxelization at every feature-set version.
  void featurize(Slot& s) {
    const auto f0 = std::chrono::steady_clock::now();
    try {
      s.feat_ws.reset();
      s.batch.clear();
      s.batch.resize(s.poses.size());
      s.sites.clear();
      // Bind (not Scope): the samples carved here must outlive featurize —
      // they feed the forward and die at the slot's next reset.
      core::Workspace::Bind bind(s.feat_ws);
      for (size_t i = 0; i < s.poses.size(); ++i) {
        const PoseInput& p = *s.poses[i];
        const std::vector<chem::Atom>& pocket = pocket_of(p, owner_.name_);
        auto site = std::find_if(s.sites.begin(), s.sites.end(), [&](const Site& x) {
          return x.pocket == &pocket && x.center.x == p.site_center.x &&
                 x.center.y == p.site_center.y && x.center.z == p.site_center.z;
        });
        if (site == s.sites.end()) {
          s.sites.push_back({&pocket, p.site_center,
                             owner_.pocket_cache_->lookup(pocket, p.site_center, owner_.voxelizer_,
                                                          owner_.featurizer_)});
          site = s.sites.end() - 1;
        }
        const PocketCache::Entry& e = *site->entry;
        s.batch[i].voxel =
            owner_.voxelizer_.voxelize_ligand_onto(p.ligand, pocket, e.grid, p.site_center);
        s.batch[i].graph = owner_.featurizer_.featurize(
            p.ligand, pocket, e.crop_cells.built() ? &e.crop_cells : nullptr);
      }
    } catch (...) {
      s.error = std::current_exception();
    }
    s.featurize_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - f0).count();
  }

  void release(Slot& s) {
    // Drop pose pointers and cache pins eagerly — the poses belong to the
    // caller's request, the cache entries should become evictable. The
    // batch tensors are arena-borrowed; the slot's next occupant rewinds
    // the arena before reuse.
    s.poses.clear();
    s.sites.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++collect_seq_;
    }
    cv_.notify_all();
  }

  void stage_main() {
    // The stage thread is a peer of whoever owns the shared compute pool
    // (a service worker, a bench thread): it must never submit to it, for
    // the same reason service workers install this scope (core/parallel.h).
    core::SerialComputeScope serial;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || stage_seq_ < submit_seq_; });
      if (stop_) return;
      Slot& s = slot(stage_seq_);
      lock.unlock();
      featurize(s);
      lock.lock();
      ++stage_seq_;
      cv_.notify_all();
    }
  }

  RegressorScorer& owner_;
  const int depth_;
  std::vector<Slot> slots_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t submit_seq_ = 0;   // next slot to fill
  uint64_t stage_seq_ = 0;    // next slot to featurize
  uint64_t collect_seq_ = 0;  // next slot the forward consumes
  bool stop_ = false;
  std::thread stage_;  // not started at depth 0
};

RegressorScorer::~RegressorScorer() {
  pipeline_.reset();  // join the stage thread before any member dies
}

ScorerPipeline* RegressorScorer::pipeline() {
  return pipeline_->depth() >= 1 ? pipeline_.get() : nullptr;
}

void RegressorScorer::set_pipeline_depth(int depth) {
  depth = std::max(depth, 0);
  if (pipeline_ != nullptr) {
    if (pipeline_->in_flight() > 0) {
      throw std::logic_error("RegressorScorer '" + name_ +
                             "': set_pipeline_depth with batches in flight");
    }
    if (pipeline_->depth() == depth) return;
  }
  // The new ring's slots start as wide as the widest old one: warmed or
  // reserved arenas survive a depth change.
  const size_t feat_floats = pipeline_ != nullptr ? pipeline_->feat_capacity() : 0;
  pipeline_.reset();
  pipeline_ = std::make_unique<Pipeline>(*this, depth, feat_floats);
}

void RegressorScorer::set_pocket_cache(std::shared_ptr<PocketCache> cache) {
  if (pipeline_->in_flight() > 0) {
    throw std::logic_error("RegressorScorer '" + name_ +
                           "': set_pocket_cache with batches in flight");
  }
  pocket_cache_ = cache != nullptr ? std::move(cache) : own_cache_;
}

RegressorScorer::PhaseStats RegressorScorer::phase_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

RegressorScorer::WorkspaceBudgets RegressorScorer::workspace_capacities() const {
  return {forward_ws_.capacity(), pipeline_->feat_capacity()};
}

void RegressorScorer::reserve_workspaces(const WorkspaceBudgets& budgets) {
  forward_ws_.reserve(budgets.forward_floats);
  pipeline_->reserve(budgets.feat_floats);
  const chem::VoxelConfig& vc = voxelizer_.config();
  own_cache_->reserve(kReplicaPocketTargets,
                      static_cast<size_t>(vc.channels()) * vc.grid_dim * vc.grid_dim * vc.grid_dim);
}

std::vector<float> RegressorScorer::score(const std::vector<const PoseInput*>& poses) {
  if (pipeline_->in_flight() > 0) {
    throw std::logic_error("RegressorScorer '" + name_ +
                           "': score() while pipelined batches are in flight — "
                           "collect() them first");
  }
  ReplicaGuard guard(busy_);
  pipeline_->submit(poses);
  return pipeline_->forward_oldest();
}

std::vector<float> VinaPkScorer::score(const std::vector<const PoseInput*>& poses) {
  std::vector<float> out;
  out.reserve(poses.size());
  for (const PoseInput* p : poses) {
    out.push_back(
        dock::score_to_pk(dock::vina_score(p->ligand, pocket_of(*p, "vina_pk"), weights_)));
  }
  return out;
}

std::vector<float> MmGbsaScorer::score(const std::vector<const PoseInput*>& poses) {
  std::vector<float> out;
  out.reserve(poses.size());
  for (const PoseInput* p : poses) {
    out.push_back(dock::mmgbsa_score(p->ligand, pocket_of(*p, "mmgbsa"), cfg_));
  }
  return out;
}

}  // namespace df::serve
