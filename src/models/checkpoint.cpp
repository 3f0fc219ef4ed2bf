#include "models/checkpoint.h"

#include <bit>
#include <stdexcept>

#include "io/h5lite.h"

namespace df::models {

namespace {

/// Dataset name of trainable parameter `i`, "p<i>". Appended, because
/// `"p" + std::to_string(i)` trips a GCC 12 -Wrestrict false positive.
std::string param_name(size_t i) {
  std::string name = "p";
  name += std::to_string(i);
  return name;
}

void put_params(io::H5LiteFile& f, Regressor& model) {
  const std::vector<nn::Parameter*> params = model.trainable_parameters();
  f.put_ints("meta", {1}, {static_cast<int64_t>(params.size())});
  for (size_t i = 0; i < params.size(); ++i) {
    const nn::Parameter& p = *params[i];
    std::vector<float> values(p.value.flat().begin(), p.value.flat().end());
    f.put_floats(param_name(i), p.value.shape(), std::move(values));
  }
}

void get_params(const io::H5LiteFile& f, Regressor& model, const std::string& path) {
  const std::vector<nn::Parameter*> params = model.trainable_parameters();
  if (!f.has("meta") || f.get("meta").ints().at(0) != static_cast<int64_t>(params.size())) {
    throw std::runtime_error("load_checkpoint: parameter count mismatch in " + path);
  }
  for (size_t i = 0; i < params.size(); ++i) {
    const io::Dataset& ds = f.get(param_name(i));
    nn::Parameter& p = *params[i];
    if (ds.shape != p.value.shape()) {
      throw std::runtime_error("load_checkpoint: shape mismatch at parameter " +
                               std::to_string(i));
    }
    const std::vector<float>& v = ds.floats();
    for (int64_t j = 0; j < p.value.numel(); ++j) p.value[j] = v[static_cast<size_t>(j)];
  }
}

void put_tensor(io::H5LiteFile& f, const std::string& name, const core::Tensor& t) {
  f.put_floats(name, t.shape(), std::vector<float>(t.flat().begin(), t.flat().end()));
}

/// f.get with the documented error contract: a dataset missing from the
/// file (e.g. checkpoint_path pointing at a weights-only save_checkpoint
/// file) is a std::runtime_error, never the std::out_of_range
/// (logic_error) H5LiteFile::get throws for unknown names.
const io::Dataset& get_checked(const io::H5LiteFile& f, const std::string& name,
                               const std::string& path) {
  if (!f.has(name)) {
    throw std::runtime_error("load_train_checkpoint: missing dataset " + name + " in " + path +
                             " (not a train checkpoint?)");
  }
  return f.get(name);
}

void get_tensor(const io::H5LiteFile& f, const std::string& name, core::Tensor& t,
                const std::string& path) {
  const io::Dataset& ds = get_checked(f, name, path);
  if (ds.shape != t.shape()) {
    throw std::runtime_error("load_train_checkpoint: shape mismatch at " + name + " in " + path);
  }
  const std::vector<float>& v = ds.floats();
  for (int64_t j = 0; j < t.numel(); ++j) t[j] = v[static_cast<size_t>(j)];
}

}  // namespace

void save_checkpoint(Regressor& model, const std::string& path) {
  io::H5LiteFile f;
  put_params(f, model);
  // Atomic write: a rank killed mid-checkpoint must never leave a torn
  // weight file where the resume path expects a valid one.
  f.save_atomic(path);
}

void load_checkpoint(Regressor& model, const std::string& path) {
  const io::H5LiteFile f = io::H5LiteFile::load(path);
  get_params(f, model, path);
}

void save_train_checkpoint(Regressor& model, nn::Optimizer& opt, const TrainProgress& progress,
                           const std::string& path) {
  io::H5LiteFile f;
  put_params(f, model);

  const nn::OptimizerState st = opt.state();
  for (const auto& [slot, tensors] : st.slots) {
    for (size_t i = 0; i < tensors.size(); ++i) {
      put_tensor(f, "opt/" + slot + "/" + std::to_string(i), *tensors[i]);
    }
  }
  std::vector<int64_t> scalar_values;
  for (const auto& [name, value] : st.scalars) {
    (void)name;
    scalar_values.push_back(*value);
  }
  const int64_t n_scalars = static_cast<int64_t>(scalar_values.size());
  f.put_ints("opt/scalars", {n_scalars}, std::move(scalar_values));

  f.put_ints("train/geom", {6},
             {std::bit_cast<int64_t>(progress.seed), progress.optimizer_kind,
              progress.batch_size, progress.grad_shards, progress.n_train, progress.n_val});
  f.put_floats("train/hyper", {2}, {progress.lr, progress.grad_clip});
  f.put_ints("train/cursor", {3}, {progress.epoch, progress.batch, progress.n_samples});
  f.put_ints("train/acc", {2},
             {std::bit_cast<int64_t>(progress.epoch_loss), std::bit_cast<int64_t>(progress.seconds)});
  const int64_t n_epochs = static_cast<int64_t>(progress.train_mse.size());
  std::vector<float> stats;
  stats.reserve(static_cast<size_t>(2 * n_epochs));
  for (int64_t e = 0; e < n_epochs; ++e) {
    stats.push_back(progress.train_mse[static_cast<size_t>(e)]);
    stats.push_back(progress.val_mse[static_cast<size_t>(e)]);
  }
  f.put_floats("train/stats", {n_epochs, 2}, std::move(stats));
  f.put_floats("train/best", {1}, {progress.best_val_mse});
  f.put_ints("train/best_epoch", {1}, {progress.best_epoch});

  f.save_atomic(path);
}

TrainProgress load_train_checkpoint(Regressor& model, nn::Optimizer& opt,
                                    const std::string& path,
                                    const TrainProgress* expected_geometry) {
  const io::H5LiteFile f = io::H5LiteFile::load(path);

  TrainProgress p;
  const std::vector<int64_t>& geom = get_checked(f, "train/geom", path).ints();
  p.seed = std::bit_cast<uint64_t>(geom.at(0));
  p.optimizer_kind = geom.at(1);
  p.batch_size = geom.at(2);
  p.grad_shards = geom.at(3);
  p.n_train = geom.at(4);
  p.n_val = geom.at(5);
  const std::vector<float>& hyper = get_checked(f, "train/hyper", path).floats();
  p.lr = hyper.at(0);
  p.grad_clip = hyper.at(1);
  // Guard BEFORE restoring anything: a rejected checkpoint must leave the
  // caller's model and optimizer exactly as they were.
  if (expected_geometry != nullptr) {
    const TrainProgress& e = *expected_geometry;
    if (p.seed != e.seed || p.optimizer_kind != e.optimizer_kind ||
        p.batch_size != e.batch_size || p.grad_shards != e.grad_shards ||
        p.n_train != e.n_train || p.n_val != e.n_val || p.lr != e.lr ||
        p.grad_clip != e.grad_clip) {
      throw std::runtime_error(
          "load_train_checkpoint: geometry mismatch in " + path +
          " (seed/optimizer/batch/shards/dataset/lr/clip differ from the current config); "
          "resuming would silently break the bit-identical guarantee");
    }
    // e.epoch carries the caller's epoch bound (not an equality check —
    // resuming with a larger bound legitimately continues training). A
    // cursor past the bound is a stale longer run's checkpoint.
    const std::vector<int64_t>& cursor_peek = get_checked(f, "train/cursor", path).ints();
    if (cursor_peek.at(0) > e.epoch) {
      throw std::runtime_error("load_train_checkpoint: checkpoint " + path + " is " +
                               std::to_string(cursor_peek.at(0)) +
                               " epochs into training but only " + std::to_string(e.epoch) +
                               " were requested; refusing to return a stale longer history");
    }
  }

  get_params(f, model, path);
  const nn::OptimizerState st = opt.state();
  for (const auto& [slot, tensors] : st.slots) {
    for (size_t i = 0; i < tensors.size(); ++i) {
      get_tensor(f, "opt/" + slot + "/" + std::to_string(i), *tensors[i], path);
    }
  }
  const std::vector<int64_t>& scalar_values = get_checked(f, "opt/scalars", path).ints();
  if (scalar_values.size() != st.scalars.size()) {
    throw std::runtime_error("load_train_checkpoint: optimizer scalar count mismatch in " + path);
  }
  for (size_t i = 0; i < st.scalars.size(); ++i) *st.scalars[i].second = scalar_values[i];

  const std::vector<int64_t>& cursor = get_checked(f, "train/cursor", path).ints();
  p.epoch = cursor.at(0);
  p.batch = cursor.at(1);
  p.n_samples = cursor.at(2);
  const std::vector<int64_t>& acc = get_checked(f, "train/acc", path).ints();
  p.epoch_loss = std::bit_cast<double>(acc.at(0));
  p.seconds = std::bit_cast<double>(acc.at(1));
  const io::Dataset& stats = get_checked(f, "train/stats", path);
  const int64_t n_epochs = stats.shape.at(0);
  for (int64_t e = 0; e < n_epochs; ++e) {
    p.train_mse.push_back(stats.floats().at(static_cast<size_t>(2 * e)));
    p.val_mse.push_back(stats.floats().at(static_cast<size_t>(2 * e + 1)));
  }
  p.best_val_mse = get_checked(f, "train/best", path).floats().at(0);
  p.best_epoch = get_checked(f, "train/best_epoch", path).ints().at(0);
  return p;
}

}  // namespace df::models
