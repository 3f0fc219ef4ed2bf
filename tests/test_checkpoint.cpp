#include <gtest/gtest.h>

#include <filesystem>

#include "chem/conformer.h"
#include "chem/smiles.h"
#include "data/target.h"
#include "io/model_artifact.h"
#include "models/checkpoint.h"
#include "models/fusion.h"
#include "models/trainer.h"
#include "screen/checkpoint.h"

namespace df::models {
namespace {

using core::Rng;

std::string tmp(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

SgcnnConfig tiny_sg() {
  SgcnnConfig cfg;
  cfg.covalent_gather_width = 8;
  cfg.noncovalent_gather_width = 12;
  cfg.covalent_k = 2;
  cfg.noncovalent_k = 2;
  return cfg;
}

data::Sample sample(Rng& rng) {
  chem::Molecule lig = chem::parse_smiles("CC(N)CC(=O)O");
  chem::embed_conformer(lig, rng);
  lig.translate(core::Vec3{} - lig.centroid());
  std::vector<chem::Atom> pocket = data::make_pocket({4.5f, 20, 0.6f, 0.5f, 0.1f}, rng);
  data::Sample s;
  chem::VoxelConfig vc;
  vc.grid_dim = 8;
  s.voxel = chem::Voxelizer(vc).voxelize(lig, pocket, {});
  s.graph = chem::GraphFeaturizer().featurize(lig, pocket);
  return s;
}

TEST(Checkpoint, RoundTripRestoresPredictions) {
  Rng rng(1);
  Sgcnn a(tiny_sg(), rng);
  Rng rng2(99);  // different weights
  Sgcnn b(tiny_sg(), rng2);
  Rng srng(2);
  const data::Sample s = sample(srng);
  ASSERT_NE(a.predict(s), b.predict(s));

  const std::string path = tmp("df_ckpt_rt.ckpt");
  save_checkpoint(a, path);
  load_checkpoint(b, path);
  EXPECT_FLOAT_EQ(a.predict(s), b.predict(s));
  std::filesystem::remove(path);
}

TEST(Checkpoint, StructureMismatchRejected) {
  Rng rng(3);
  Sgcnn a(tiny_sg(), rng);
  SgcnnConfig other = tiny_sg();
  other.noncovalent_gather_width = 24;  // different widths
  Sgcnn b(other, rng);
  const std::string path = tmp("df_ckpt_mismatch.ckpt");
  save_checkpoint(a, path);
  EXPECT_THROW(load_checkpoint(b, path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Checkpoint, FusionModelRoundTrip) {
  Rng rng(4);
  Cnn3dConfig cc;
  cc.grid_dim = 8;
  cc.conv_filters1 = 4;
  cc.conv_filters2 = 8;
  cc.dense_nodes = 16;
  cc.dropout1 = cc.dropout2 = 0.0f;
  FusionConfig fc;
  fc.kind = FusionKind::Coherent;
  fc.fusion_nodes = 8;
  fc.dropout1 = fc.dropout2 = fc.dropout3 = 0.0f;
  FusionModel a(fc, std::make_shared<Cnn3d>(cc, rng), std::make_shared<Sgcnn>(tiny_sg(), rng),
                rng);
  Rng rng2(77);
  FusionModel b(fc, std::make_shared<Cnn3d>(cc, rng2), std::make_shared<Sgcnn>(tiny_sg(), rng2),
                rng2);
  Rng srng(5);
  const data::Sample s = sample(srng);
  const std::string path = tmp("df_ckpt_fusion.ckpt");
  save_checkpoint(a, path);
  load_checkpoint(b, path);
  EXPECT_FLOAT_EQ(a.predict(s), b.predict(s));
  std::filesystem::remove(path);
}

TEST(Checkpoint, MissingFileThrows) {
  Rng rng(6);
  Sgcnn a(tiny_sg(), rng);
  EXPECT_THROW(load_checkpoint(a, "/nonexistent/ckpt.ckpt"), std::runtime_error);
}

TEST(Checkpoint, CopyParametersAgreesWithCheckpoint) {
  // copy_parameters and save/load are two routes to the same state.
  Rng rng(7);
  Sgcnn a(tiny_sg(), rng);
  Rng rng2(55);
  Sgcnn b(tiny_sg(), rng2), c(tiny_sg(), rng2);
  copy_parameters(b, a);
  const std::string path = tmp("df_ckpt_agree.ckpt");
  save_checkpoint(a, path);
  load_checkpoint(c, path);
  Rng srng(8);
  const data::Sample s = sample(srng);
  EXPECT_FLOAT_EQ(b.predict(s), c.predict(s));
  std::filesystem::remove(path);
}

// ---- typed errors on schema damage ---------------------------------------
// Each loader reads through io::ArtifactReader, so a missing or mistyped
// section is an io::H5LiteError{Format}, never a std::bad_variant_access
// or std::out_of_range.

/// Rewrite the container at `path` without section `drop`, and with
/// section `retype` (if any) stored as zeros of the other dtype.
void rewrite(const std::string& path, const std::string& drop, const std::string& retype) {
  const auto r = io::ArtifactReader::open(path);
  io::ArtifactWriter w;
  for (const auto& [name, s] : r->sections()) {
    if (name == drop) continue;
    const int64_t n = s.numel();
    const size_t len = static_cast<size_t>(n);
    if (name == retype && s.dtype == 0) {
      w.add_ints(name, s.dims, std::vector<int64_t>(len));
    } else if (name == retype) {
      w.add_floats(name, s.dims, std::vector<float>(len));
    } else if (s.dtype == 0) {
      w.add_floats(name, s.dims, {r->floats(name, n), len});
    } else {
      w.add_ints(name, s.dims, {r->ints(name, n), len});
    }
  }
  w.save(path);
}

template <typename F>
void expect_format_error(F&& load, const std::string& what) {
  try {
    load();
    ADD_FAILURE() << what << ": damaged checkpoint loaded";
  } catch (const io::H5LiteError& e) {
    EXPECT_EQ(e.kind(), io::H5LiteError::Kind::Format) << what;
  }
}

TEST(Checkpoint, MissingOrMistypedParameterThrowsTyped) {
  Rng rng(9);
  Sgcnn a(tiny_sg(), rng);
  const std::string path = tmp("df_ckpt_schema.ckpt");
  for (const auto& [drop, retype] : std::vector<std::pair<std::string, std::string>>{
           {"p1", ""}, {"", "p0"}, {"meta", ""}, {"", "meta"}}) {
    save_checkpoint(a, path);
    rewrite(path, drop, retype);
    expect_format_error([&] { load_checkpoint(a, path); }, drop + retype);
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, TrainCheckpointSchemaDamageThrowsTyped) {
  Rng rng(10);
  Sgcnn model(tiny_sg(), rng);
  auto opt = nn::make_optimizer(nn::OptimizerKind::kAdam, model.trainable_parameters(), 0.01f);
  TrainProgress progress;
  progress.seed = 42;
  progress.epoch = 2;
  progress.batch = 3;
  progress.epoch_loss = 1.25;
  progress.train_mse = {2.0f, 1.5f};
  progress.val_mse = {2.5f, 1.75f};
  progress.best_val_mse = 1.75f;
  progress.best_epoch = 1;
  const std::string path = tmp("df_train_ckpt_schema.ckpt");

  save_train_checkpoint(model, *opt, progress, path);
  const TrainProgress back = load_train_checkpoint(model, *opt, path);
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.batch, 3);
  EXPECT_EQ(back.epoch_loss, 1.25);
  EXPECT_EQ(back.val_mse, progress.val_mse);
  EXPECT_EQ(back.best_epoch, 1);

  for (const auto& [drop, retype] : std::vector<std::pair<std::string, std::string>>{
           {"", "train/geom"},
           {"", "train/hyper"},
           {"", "opt/scalars"},
           {"train/val_mse", ""},
           {"", "train/best_epoch"},
           {"opt/m/0", ""}}) {
    save_train_checkpoint(model, *opt, progress, path);
    rewrite(path, drop, retype);
    expect_format_error([&] { load_train_checkpoint(model, *opt, path); }, drop + retype);
  }
  // A weights-only file is not a train checkpoint.
  save_checkpoint(model, path);
  expect_format_error([&] { load_train_checkpoint(model, *opt, path); }, "weights-only");
  std::filesystem::remove(path);
}

TEST(Checkpoint, CampaignCheckpointSchemaDamageThrowsTyped) {
  screen::CampaignCheckpoint ck;
  ck.campaign_seed = 7;
  ck.total_poses = 12;
  ck.poses_per_job = 4;
  ck.num_shards = 2;
  ck.unit_status = {1, 0, 2};
  ck.unit_attempts = {1, 0, 3};
  const std::string path = tmp("df_campaign_ckpt_schema.ckpt");

  screen::save_campaign_checkpoint(ck, path);
  const screen::CampaignCheckpoint back = screen::load_campaign_checkpoint(path);
  EXPECT_EQ(back.campaign_seed, 7u);
  EXPECT_EQ(back.num_shards, 2);
  EXPECT_EQ(back.unit_status, ck.unit_status);
  EXPECT_EQ(back.unit_attempts, ck.unit_attempts);

  for (const auto& [drop, retype] : std::vector<std::pair<std::string, std::string>>{
           {"campaign_seed", ""},
           {"geometry", ""},
           {"unit_attempts", ""},
           {"", "unit_status"},
           {"", "total_poses"}}) {
    screen::save_campaign_checkpoint(ck, path);
    rewrite(path, drop, retype);
    expect_format_error([&] { screen::load_campaign_checkpoint(path); }, drop + retype);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace df::models
