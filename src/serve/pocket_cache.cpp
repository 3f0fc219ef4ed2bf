#include "serve/pocket_cache.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <type_traits>

namespace df::serve {

namespace {
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void mix_bytes(uint64_t& h, const void* p, size_t n) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void mix(uint64_t& h, const T& v) {
  static_assert(std::is_trivially_copyable<T>::value, "hash needs raw bytes");
  mix_bytes(h, &v, sizeof(v));
}

// FNV-1a over 32-bit words (a quarter of the byte-wise steps on the
// per-atom loop), then a 64-bit finalizer so every input bit reaches the
// low bits the map buckets on. The key only picks the candidate entry: a
// hit is confirmed field by field in matches(), so the key's strength
// bears on the collision rate, never on which grid a lookup returns.
void mix_word(uint64_t& h, uint32_t w) {
  h ^= w;
  h *= kFnvPrime;
}

uint32_t float_bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

uint64_t content_key(const std::vector<chem::Atom>& pocket, const core::Vec3& center,
                     const chem::VoxelConfig& vc, float crop_cell_size) {
  uint64_t h = kFnvOffset;
  // Atom fields are hashed individually, never the struct bytes — padding
  // would leak indeterminate garbage into the key.
  mix(h, static_cast<uint64_t>(pocket.size()));
  for (const chem::Atom& a : pocket) {
    mix_word(h, float_bits(a.pos.x));
    mix_word(h, float_bits(a.pos.y));
    mix_word(h, float_bits(a.pos.z));
    mix_word(h, static_cast<uint32_t>(static_cast<uint8_t>(a.element)) |
                    static_cast<uint32_t>(static_cast<uint8_t>(a.formal_charge)) << 8 |
                    static_cast<uint32_t>(static_cast<uint8_t>(a.implicit_h)) << 16 |
                    static_cast<uint32_t>(a.aromatic ? 1 : 0) << 24);
  }
  mix(h, center.x);
  mix(h, center.y);
  mix(h, center.z);
  mix(h, vc.grid_dim);
  mix(h, vc.resolution);
  mix(h, vc.sigma_scale);
  mix(h, vc.cutoff_sigmas);
  mix(h, vc.feature_set_version);
  mix(h, vc.hbond.max_dist);
  mix(h, vc.hbond.max_cos_angle);
  mix(h, crop_cell_size);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

bool same_atom(const chem::Atom& a, const chem::Atom& b) {
  // Bit compare on positions: the cache must only hit when the splat would
  // reproduce exactly, and -0.0f == 0.0f under operator== would lie.
  return std::memcmp(&a.pos.x, &b.pos.x, sizeof(float)) == 0 &&
         std::memcmp(&a.pos.y, &b.pos.y, sizeof(float)) == 0 &&
         std::memcmp(&a.pos.z, &b.pos.z, sizeof(float)) == 0 &&
         a.element == b.element && a.formal_charge == b.formal_charge &&
         a.implicit_h == b.implicit_h && a.aromatic == b.aromatic;
}

bool matches(const PocketCache::Entry& e, const std::vector<chem::Atom>& pocket,
             const core::Vec3& center, const chem::VoxelConfig& vc, float crop_cell_size) {
  if (e.atoms.size() != pocket.size()) return false;
  if (std::memcmp(&e.center.x, &center.x, sizeof(float)) != 0 ||
      std::memcmp(&e.center.y, &center.y, sizeof(float)) != 0 ||
      std::memcmp(&e.center.z, &center.z, sizeof(float)) != 0) {
    return false;
  }
  const chem::VoxelConfig& sc = e.voxel_cfg;
  if (sc.grid_dim != vc.grid_dim || sc.resolution != vc.resolution ||
      sc.sigma_scale != vc.sigma_scale || sc.cutoff_sigmas != vc.cutoff_sigmas ||
      sc.feature_set_version != vc.feature_set_version ||
      sc.hbond.max_dist != vc.hbond.max_dist ||
      sc.hbond.max_cos_angle != vc.hbond.max_cos_angle ||
      e.crop_cell_size != crop_cell_size) {
    return false;
  }
  for (size_t i = 0; i < pocket.size(); ++i) {
    if (!same_atom(e.atoms[i], pocket[i])) return false;
  }
  return true;
}
}  // namespace

PocketCache::PocketCache(size_t max_targets) : max_targets_(std::max<size_t>(1, max_targets)) {}

std::shared_ptr<const PocketCache::Entry> PocketCache::lookup(
    const std::vector<chem::Atom>& pocket, const core::Vec3& center,
    const chem::Voxelizer& voxelizer, const chem::GraphFeaturizer& featurizer) {
  const chem::VoxelConfig& vc = voxelizer.config();
  const float cell_size = featurizer.config().noncovalent_threshold;
  const uint64_t key = content_key(pocket, center, vc, cell_size);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    if (matches(*it->second->second, pocket, center, vc, cell_size)) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);  // move to front
      return it->second->second;
    }
    // Hash collision with different content — astronomically rare; rebuild.
    lru_.erase(it->second);
    by_key_.erase(it);
  }
  ++stats_.misses;

  auto entry = std::make_shared<Entry>();
  entry->atoms = pocket;
  entry->center = center;
  entry->voxel_cfg = vc;
  entry->crop_cell_size = cell_size;
  if (!reserved_.empty()) {
    entry->storage = std::move(reserved_.back());
    reserved_.pop_back();
  }
  {
    // The entry outlives every batch: its tensors must own their storage
    // even when the calling worker has an arena bound.
    core::Workspace::Unbind unbound;
    std::optional<core::Workspace::Bind> own;
    if (entry->storage != nullptr) own.emplace(*entry->storage);
    entry->grid = voxelizer.voxelize_pocket(pocket, center);
    if (!pocket.empty()) {
      std::vector<core::Vec3> pos(pocket.size());
      for (size_t i = 0; i < pocket.size(); ++i) pos[i] = pocket[i].pos;
      entry->crop_cells.build(pos.data(), static_cast<int32_t>(pocket.size()), cell_size);
    }
  }

  lru_.emplace_front(key, entry);
  by_key_[key] = lru_.begin();
  while (lru_.size() > max_targets_) {
    by_key_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return entry;
}

void PocketCache::reserve(size_t entries, size_t grid_floats) {
  std::lock_guard<std::mutex> lock(mu_);
  while (reserved_.size() < entries) {
    // A zero-sized first block grows to exactly one grid's borrow.
    auto ws = std::make_unique<core::Workspace>(0);
    ws->alloc(static_cast<int64_t>(grid_floats));
    ws->reset();
    reserved_.push_back(std::move(ws));
  }
}

PocketCache::Stats PocketCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t PocketCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace df::serve
