#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>

#include "io/csv.h"
#include "io/log.h"
#include "io/model_artifact.h"

namespace df::io {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Container, RoundTripFloatAndIntSections) {
  const std::vector<float> pred = {1.5f, 2.5f, 3.5f, 4.5f};
  const std::vector<int64_t> ids = {10, 20, 30, 40};
  ArtifactWriter w;
  w.add_floats("pred", {2, 2}, pred);
  w.add_ints("ids", {4}, ids);
  const std::string path = temp_path("df_container_rt.dfca");
  w.save(path);

  const auto r = ArtifactReader::open(path);
  ASSERT_TRUE(r->has("pred"));
  ASSERT_TRUE(r->has("ids"));
  EXPECT_EQ(r->section("pred").dims, (std::vector<int64_t>{2, 2}));
  EXPECT_FLOAT_EQ(r->floats("pred", 4)[3], 4.5f);
  EXPECT_EQ(r->ints("ids", 4)[2], 30);
  std::filesystem::remove(path);
}

TEST(Container, ShapeDataMismatchThrows) {
  ArtifactWriter w;
  const std::vector<float> one = {1.0f};
  EXPECT_THROW(w.add_floats("x", {3}, one), std::invalid_argument);
  EXPECT_THROW(w.add_floats("x", {-1}, one), std::invalid_argument);
}

TEST(Container, MissingSectionWrongDtypeAndWrongLengthThrowTyped) {
  const std::vector<float> v = {1.0f, 2.0f};
  ArtifactWriter w;
  w.add_floats("w", {2}, v);
  const std::string path = temp_path("df_container_missing.dfca");
  w.save(path);
  const auto r = ArtifactReader::open(path);
  for (const auto& read : std::vector<std::function<void()>>{
           [&] { r->section("nope"); },
           [&] { r->floats("nope", 2); },
           [&] { r->ints("w", 2); },    // wrong dtype
           [&] { r->floats("w", 3); },  // wrong length
           [&] { r->scalar("w"); }}) {
    try {
      read();
      ADD_FAILURE() << "schema violation not rejected";
    } catch (const H5LiteError& e) {
      EXPECT_EQ(e.kind(), H5LiteError::Kind::Format);
    }
  }
  std::filesystem::remove(path);
}

TEST(Container, BadMagicRejected) {
  const std::string path = temp_path("df_container_bad.dfca");
  std::ofstream(path) << "this is not a container file at all";
  try {
    ArtifactReader::open(path);
    FAIL() << "bad magic not rejected";
  } catch (const H5LiteError& e) {
    EXPECT_EQ(e.kind(), H5LiteError::Kind::Format);
  }
  std::filesystem::remove(path);
}

TEST(Container, TruncatedFileRejected) {
  ArtifactWriter w;
  w.add_floats("x", {100}, std::vector<float>(100, 1.0f));
  const std::string path = temp_path("df_container_trunc.dfca");
  w.save(path);
  std::filesystem::resize_file(path, 40);  // chop the payload
  try {
    ArtifactReader::open(path);
    FAIL() << "truncation not rejected";
  } catch (const H5LiteError& e) {
    EXPECT_EQ(e.kind(), H5LiteError::Kind::Truncated);
  }
  std::filesystem::remove(path);
}

TEST(Container, NonexistentPathThrowsOpen) {
  try {
    ArtifactReader::open("/nonexistent/dir/x.dfca");
    FAIL() << "missing file not rejected";
  } catch (const H5LiteError& e) {
    EXPECT_EQ(e.kind(), H5LiteError::Kind::Open);
  }
}

TEST(Container, UnwritableDirectoryFailsSaveTyped) {
  ArtifactWriter w;
  w.add_scalar("x", 1);
  try {
    w.save("/nonexistent/dir/x.dfca");
    FAIL() << "save into a missing directory did not fail";
  } catch (const H5LiteError& e) {
    EXPECT_EQ(e.kind(), H5LiteError::Kind::Open);
  }
}

TEST(Container, EmptyFileRoundTrips) {
  const std::string path = temp_path("df_container_empty.dfca");
  ArtifactWriter().save(path);
  EXPECT_TRUE(ArtifactReader::open(path)->sections().empty());
  std::filesystem::remove(path);
}

TEST(Container, ZeroLengthSectionOfEveryDtypeRoundTrips) {
  // Empty vectors hand the writer null data pointers; sgcnn's empty
  // quant/conv_mask is the real-world case.
  ArtifactWriter w;
  w.add_floats("f32", {0}, std::vector<float>{});
  w.add_ints("i64", {0}, std::vector<int64_t>{});
  w.add_int8s("i8", {0}, std::vector<int8_t>{});
  w.add_int32s("i32", {2, 0}, std::vector<int32_t>{});
  w.add_scalar("after", 7);
  const std::string path = temp_path("df_container_zero.dfca");
  w.save(path);

  const auto r = ArtifactReader::open(path);
  EXPECT_EQ(r->sections().size(), 5u);
  EXPECT_NO_THROW(r->floats("f32", 0));
  EXPECT_NO_THROW(r->ints("i64", 0));
  EXPECT_NO_THROW(r->int8s("i8", 0));
  EXPECT_NO_THROW(r->int32s("i32", 0));
  EXPECT_EQ(r->section("i32").dims, (std::vector<int64_t>{2, 0}));
  EXPECT_EQ(r->scalar("after"), 7);
  std::filesystem::remove(path);
}

TEST(Container, ElementCountThatWrapsTheByteLengthIsRejected) {
  // A dim of 2^61 int64 elements makes numel * 8 wrap to 0, which matches
  // the stored byte_len of an empty section. The parser must bound the
  // count by the payload, or a loader would read 2^61 elements.
  ArtifactWriter w;
  w.add_ints("x", {0}, std::vector<int64_t>{});
  const std::string path = temp_path("df_container_wrap.dfca");
  w.save(path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    uint64_t payload_bytes = 0;
    f.seekg(8);
    f.read(reinterpret_cast<char*>(&payload_bytes), sizeof(payload_bytes));
    // dims[0] sits after: header(16) count(4) name_len(4) "x"(1) dtype(1) rank(4).
    const int64_t dim = int64_t{1} << 61;
    f.seekp(30);
    f.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    std::string payload(static_cast<size_t>(payload_bytes), '\0');
    f.seekg(16);
    f.read(payload.data(), static_cast<std::streamsize>(payload.size()));
    const uint32_t crc = crc32(payload.data(), payload.size());
    f.seekp(static_cast<std::streamoff>(16 + payload_bytes));
    f.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  }
  try {
    ArtifactReader::open(path);
    FAIL() << "wrapping element count not rejected";
  } catch (const H5LiteError& e) {
    EXPECT_EQ(e.kind(), H5LiteError::Kind::Truncated);
  }
  std::filesystem::remove(path);
}

TEST(Container, SaveLeavesNoTempFile) {
  ArtifactWriter w;
  w.add_floats("w", {2}, std::vector<float>{1.0f, 2.0f});
  const std::string path = temp_path("df_container_atomic.dfca");
  w.save(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FLOAT_EQ(ArtifactReader::open(path)->floats("w", 2)[1], 2.0f);
  std::filesystem::remove(path);
}

TEST(Container, StaleTempFromKilledSaveIsSweptAndIgnored) {
  // A process killed between writing the temp file and the rename leaves
  // `path.tmp` behind. It must never shadow or corrupt the committed file,
  // and the next open sweeps it so retried saves start clean.
  ArtifactWriter w;
  w.add_floats("w", {2}, std::vector<float>{1.0f, 2.0f});
  const std::string path = temp_path("df_container_stale.dfca");
  w.save(path);
  std::ofstream(path + ".tmp") << "torn write from a killed saver";
  ASSERT_TRUE(std::filesystem::exists(path + ".tmp"));

  // Reads the committed file and sweeps the temp.
  EXPECT_FLOAT_EQ(ArtifactReader::open(path)->floats("w", 2)[0], 1.0f);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // A retried save on the same path also succeeds after a stale temp
  // reappears (the temp is rewritten, then renamed over the file).
  std::ofstream(path + ".tmp") << "torn again";
  w.save(path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FLOAT_EQ(ArtifactReader::open(path)->floats("w", 2)[1], 2.0f);
  std::filesystem::remove(path);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = temp_path("df_test.csv");
  {
    CsvWriter w(path, {"a", "b"});
    w.row({"1", "hello"});
    w.row_values({2.5, 3.5});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,hello");
  std::getline(in, line);
  EXPECT_EQ(line, "2.5,3.5");
  std::filesystem::remove(path);
}

TEST(Csv, ColumnCountEnforced) {
  const std::string path = temp_path("df_test2.csv");
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.row({"only one"}), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Log, LevelFiltering) {
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  log_debug("should be suppressed");  // visually verified by absence
  set_log_level(LogLevel::Warn);
}

}  // namespace
}  // namespace df::io
