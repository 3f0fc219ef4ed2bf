// The repo's one on-disk container (".dfca"). Compiled models, model
// weights, train checkpoints, campaign checkpoints and shard manifests are
// all files of named, typed, shaped sections in this layout.
//
// Layout (all integers little-endian, as written by the host):
//
//   offset 0   : magic "DFCA" (4 bytes)
//   offset 4   : u32 format version (kArtifactVersion)
//   offset 8   : u64 payload_bytes
//   offset 16  : payload —
//                  u32 section_count
//                  section_count directory entries:
//                    u32 name_len | name bytes | u8 dtype (0=f32, 1=i64,
//                                                           2=i8, 3=i32)
//                    u32 rank | i64 dims[rank]
//                    u64 byte_offset (absolute, 64-byte aligned)
//                    u64 byte_len
//                  section blobs at their directory offsets
//   tail       : u32 CRC-32 of the payload bytes
//
// Blobs are 64-byte aligned relative to the file start; mmap returns
// page-aligned images, so a blob's file alignment IS its memory alignment
// and serving replicas point GEMM panel views (core::PrepackedA/B) straight
// into the mapping — no copy, no parse, shared page cache across replicas.
//
// Failures raise io::H5LiteError so callers discriminate damage kinds:
// Open (missing / unreadable / unwritable), Format (bad magic, unsupported
// version, missing section, wrong dtype or length), Truncated (directory
// or blob past EOF), Crc (payload bytes do not match the stored checksum).
// Damage rejects the whole file before any section is handed out — there
// is no partial load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace df::io {

/// IEEE CRC-32 (zlib-compatible). Pass the previous return value as `crc`
/// to checksum data incrementally; start from 0.
uint32_t crc32(const void* data, size_t len, uint32_t crc = 0);

/// Typed container failure, so callers (checkpoint loaders, the manifest
/// check) report *what kind* of damage a file has rather than
/// string-matching messages.
class H5LiteError : public std::runtime_error {
 public:
  enum class Kind {
    Open,       // file missing / unreadable / unwritable
    Format,     // bad magic/version, or sections that do not match the schema
    Truncated,  // file ends before the sections it promises
    Crc,        // payload bytes do not match the stored checksum
  };
  H5LiteError(Kind kind, const std::string& msg) : std::runtime_error(msg), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Bump on any incompatible layout change. A reader only accepts its own
/// version: compiled artifacts are caches derived from checkpoints, so the
/// recovery path for a mismatch is recompile, never in-place migration.
/// v2: int8/int32 section dtypes for quantized compiled plans (src/quant/).
constexpr uint32_t kArtifactVersion = 2;

struct ArtifactSection {
  uint8_t dtype = 0;  // 0 = float32, 1 = int64, 2 = int8 (raw bytes), 3 = int32
  std::vector<int64_t> dims;
  uint64_t byte_offset = 0;  // absolute file offset, 64-byte aligned
  uint64_t byte_len = 0;

  int64_t numel() const {
    int64_t n = 1;
    for (int64_t d : dims) n *= d;
    return n;
  }
};

/// Collects named sections and writes them as one container file, durably:
/// temp file + fsync + rename + parent-dir fsync, so a kill mid-save leaves
/// the previous file at `path`, never a torn one. Data is copied at add()
/// time so callers may hand in transient buffers. Each add throws
/// std::invalid_argument when `data` does not hold exactly the product of
/// `dims` elements.
class ArtifactWriter {
 public:
  void add_floats(const std::string& name, std::vector<int64_t> dims,
                  std::span<const float> data) {
    add(name, 0, std::move(dims), std::as_bytes(data));
  }
  void add_ints(const std::string& name, std::vector<int64_t> dims,
                std::span<const int64_t> data) {
    add(name, 1, std::move(dims), std::as_bytes(data));
  }
  /// Quantized-plan sections: packed int8 panel/row images and int32
  /// epilogue compensation vectors.
  void add_int8s(const std::string& name, std::vector<int64_t> dims,
                 std::span<const int8_t> data) {
    add(name, 2, std::move(dims), std::as_bytes(data));
  }
  void add_int32s(const std::string& name, std::vector<int64_t> dims,
                  std::span<const int32_t> data) {
    add(name, 3, std::move(dims), std::as_bytes(data));
  }
  void add_scalar(const std::string& name, int64_t v) { add_ints(name, {1}, {&v, 1}); }

  /// Throws H5LiteError{Open} if the temp file cannot be written or synced,
  /// or the rename fails.
  void save(const std::string& path) const;

 private:
  void add(const std::string& name, uint8_t dtype, std::vector<int64_t> dims,
           std::span<const std::byte> bytes);

  struct Pending {
    uint8_t dtype;
    std::vector<int64_t> dims;
    std::vector<char> bytes;
  };
  std::map<std::string, Pending> sections_;
};

/// Read-only view of a container file. Prefers mmap (shared, read-only)
/// and falls back to a heap image when mapping is unavailable; either way
/// the full directory is validated and the payload CRC checked before
/// open() returns. Section pointers stay valid for the reader's lifetime —
/// holders of prepacked views keep the reader alive via shared_ptr.
class ArtifactReader {
 public:
  /// Also sweeps a stale `path + ".tmp"` left by a save killed before its
  /// rename: the committed file, if any, is at `path`.
  static std::shared_ptr<ArtifactReader> open(const std::string& path);
  ~ArtifactReader();
  ArtifactReader(const ArtifactReader&) = delete;
  ArtifactReader& operator=(const ArtifactReader&) = delete;

  bool has(const std::string& name) const { return sections_.count(name) > 0; }
  /// Throws H5LiteError{Format} when the section is missing.
  const ArtifactSection& section(const std::string& name) const;

  /// Typed blob access. Throws H5LiteError{Format} when the section is
  /// missing, has another dtype, or does not hold exactly `numel` elements.
  const float* floats(const std::string& name, int64_t numel) const;
  const int64_t* ints(const std::string& name, int64_t numel) const;
  const int8_t* int8s(const std::string& name, int64_t numel) const;
  const int32_t* int32s(const std::string& name, int64_t numel) const;
  int64_t scalar(const std::string& name) const { return *ints(name, 1); }

  const std::map<std::string, ArtifactSection>& sections() const { return sections_; }
  const std::string& path() const { return path_; }

 private:
  ArtifactReader() = default;
  const char* blob(const std::string& name, uint8_t dtype, int64_t numel) const;

  std::string path_;
  const char* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::vector<char> owned_;  // fallback image when not mmap'd
  std::map<std::string, ArtifactSection> sections_;
};

}  // namespace df::io
