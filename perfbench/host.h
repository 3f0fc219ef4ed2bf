// What every result records about the machine and the build it ran on,
// plus the two roofline floors the per-layer numbers are read against.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

/// sgemm at the served forward's dominant GEMM shape and memcpy on arrays
/// of at least 4x the last-level cache: the math and data-movement floors.
struct Floors {
  int64_t m = 0, n = 0, k = 0;  // sgemm shape (C = A[m,k] B[k,n])
  double sgemm_gflops = 0.0;
  size_t memcpy_bytes = 0;
  double memcpy_gbps = 0.0;  // bytes copied per second / 1e9
};

Floors measure_floors();

/// One-line JSON: nproc, ISA flags, build type, -march, LLC, floors, seed.
std::string host_json(const Floors& f, uint64_t seed, const std::string& workload);

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb_self();
/// Peak resident set of a live child process, in MB; 0 when unreadable.
double peak_rss_mb_of(pid_t pid);

}  // namespace perfbench
