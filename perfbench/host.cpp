#include "host.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common.h"
#include "core/gemm.h"
#include "core/parallel.h"

namespace perfbench {

using namespace df;

namespace {

/// Last-level cache size in bytes from sysfs (the highest cache index of
/// cpu0), 32 MiB when unreadable.
size_t llc_bytes() {
  size_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/size");
    if (!in) break;
    std::string s;
    in >> s;
    if (s.empty()) continue;
    size_t v = std::strtoull(s.c_str(), nullptr, 10);
    const char unit = s.back();
    if (unit == 'K') v <<= 10;
    if (unit == 'M') v <<= 20;
    best = std::max(best, v);
  }
  return best > 0 ? best : (32u << 20);
}

std::string cpu_flags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) == 0) return line;
  }
  return "";
}

bool has_flag(const std::string& flags, const char* flag) {
  std::istringstream words(flags);
  std::string w;
  while (words >> w) {
    if (w == flag) return true;
  }
  return false;
}

double read_vmhwm_mb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace

Floors measure_floors() {
  Floors f;
  // The dominant GEMM of the served fusion forward: the Conv3d lowering
  // with the most flops, run once per sample of a 32-pose batch.
  {
    auto model = fusion_factory()();
    auto* fusion = dynamic_cast<models::FusionModel*>(model.get());
    const std::vector<ConvGemm> gemms = conv_gemms(fusion->cnn_head(), bench::kGridDim);
    const ConvGemm dom = *std::max_element(
        gemms.begin(), gemms.end(),
        [](const ConvGemm& a, const ConvGemm& b) { return a.flops() < b.flops(); });
    f.m = dom.m;
    f.n = dom.n;
    f.k = dom.k;
  }
  {
    core::SerialComputeScope serial;  // one core: the rate one worker sees
    std::vector<float> a(static_cast<size_t>(f.m * f.k)), b(static_cast<size_t>(f.k * f.n)),
        c(static_cast<size_t>(f.m * f.n));
    core::Rng rng(5);
    for (float& v : a) v = rng.uniform(-1.0f, 1.0f);
    for (float& v : b) v = rng.uniform(-1.0f, 1.0f);
    const double flops = 2.0 * static_cast<double>(f.m * f.n * f.k);
    const int reps = std::max(1, static_cast<int>(2e9 / flops));  // ~0.03 s a round
    for (int round = 0; round < 8; ++round) {
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) {
        core::sgemm(false, false, f.m, f.n, f.k, a.data(), f.k, b.data(), f.n, c.data(), f.n);
      }
      const double s = seconds_since(t0);
      if (round > 0) f.sgemm_gflops = std::max(f.sgemm_gflops, flops * reps / s / 1e9);
    }
  }
  {
    f.memcpy_bytes = 4 * llc_bytes();
    std::unique_ptr<char[]> src(new char[f.memcpy_bytes]);
    std::unique_ptr<char[]> dst(new char[f.memcpy_bytes]);
    std::memset(src.get(), 1, f.memcpy_bytes);
    std::memset(dst.get(), 0, f.memcpy_bytes);
    for (int round = 0; round < 4; ++round) {
      const auto t0 = Clock::now();
      std::memcpy(dst.get(), src.get(), f.memcpy_bytes);
      const double s = seconds_since(t0);
      f.memcpy_gbps = std::max(f.memcpy_gbps, static_cast<double>(f.memcpy_bytes) / s / 1e9);
    }
    if (dst[f.memcpy_bytes / 2] != 1) f.memcpy_gbps = 0.0;  // the copy must have happened
  }
  return f;
}

std::string host_json(const Floors& f, uint64_t seed, const std::string& workload) {
  const std::string flags = cpu_flags();
  const auto yes = [&](const char* flag) { return has_flag(flags, flag) ? "true" : "false"; };
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, \"avx512f\": %s, "
      "\"avx512_vnni\": %s, \"avx512_bf16\": %s, \"amx_bf16\": %s, \"amx_int8\": %s, "
      "\"build_type\": \"%s\", \"march\": \"%s\", \"llc_bytes\": %zu, "
      "\"sgemm_shape\": [%lld, %lld, %lld], \"sgemm_gflops\": %.3f, "
      "\"memcpy_bytes\": %zu, \"memcpy_gbps\": %.3f}",
      bench::json_escape(workload).c_str(), static_cast<unsigned long long>(seed),
      std::thread::hardware_concurrency(), yes("avx512f"), yes("avx512_vnni"),
      yes("avx512_bf16"), yes("amx_bf16"), yes("amx_int8"), PERFBENCH_BUILD_TYPE,
      PERFBENCH_MARCH, llc_bytes(), static_cast<long long>(f.m), static_cast<long long>(f.n),
      static_cast<long long>(f.k), f.sgemm_gflops, f.memcpy_bytes, f.memcpy_gbps);
  return buf;
}

double peak_rss_mb_self() { return read_vmhwm_mb("/proc/self/status"); }

double peak_rss_mb_of(pid_t pid) {
  return read_vmhwm_mb("/proc/" + std::to_string(pid) + "/status");
}

}  // namespace perfbench
