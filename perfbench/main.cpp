// perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload of the repository benchmark (README.md) and prints, as
// its last stdout line, one JSON object with the keys correct, attempted,
// failed and metrics. --trace 0 measures the end-to-end metrics; --trace 1
// records spans, replays the layers and prints the per-layer metrics. The
// line before it records the host. Exits 1 when any score was wrong or any
// operation failed, 2 on bad arguments.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "screen_campaign|serve_fusion_hot|cluster_many_targets --seed N --seconds S "
               "--trace 0|1\n",
               msg);
  return 2;
}

bool parse_uint(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  uint64_t seconds = 0, trace = 0;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      have_seed = parse_uint(value, &opt.seed);
    } else if (flag == "--seconds") {
      have_seconds = parse_uint(value, &seconds) && seconds >= 1 && seconds <= 120;
    } else if (flag == "--trace") {
      if (!parse_uint(value, &trace) || trace > 1) return usage("--trace takes 0 or 1");
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes a value");
  if (!have_seed) return usage("--seed N is required");
  if (!have_seconds) return usage("--seconds takes 1..120");
  opt.seconds = static_cast<int>(seconds);
  opt.trace = trace == 1;

  // Scratch space (campaign shards, node port files, traces) lives next to
  // the binary, inside the checkout's build directory.
  const fs::path build_dir = fs::absolute(fs::path(argv[0])).parent_path();
  opt.run_dir = (build_dir / ("run-" + std::to_string(::getpid()))).string();
  std::error_code ec;
  fs::create_directories(opt.run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", opt.run_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  Tracer tracer(opt.trace);
  WorkloadRun run;
  try {
    if (opt.workload == "screen_campaign") {
      run = run_screen_campaign(opt, tracer);
    } else if (opt.workload == "serve_fusion_hot") {
      run = run_serve_fusion_hot(opt, tracer);
    } else if (opt.workload == "cluster_many_targets") {
      run = run_cluster_many_targets(opt, tracer);
    } else {
      fs::remove_all(opt.run_dir, ec);
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    fs::remove_all(opt.run_dir, ec);
    return 1;
  }
  fs::remove_all(opt.run_dir, ec);

  if (opt.trace) {
    const fs::path trace_dir = build_dir / "traces";
    fs::create_directories(trace_dir, ec);
    const std::string path =
        (trace_dir / (opt.workload + "-seed" + std::to_string(opt.seed) + ".json")).string();
    if (tracer.write_json(path)) std::printf("spans written to %s\n", path.c_str());
    for (const auto& [name, t] : tracer.totals()) {
      std::printf("span %-34s count %8llu total %10.3f ms self %10.3f ms\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
    }
  }

  for (const Metric& m : run.result.metrics) {
    if (!valid_metric_name(m.name) || !valid_unit(m.unit)) {
      std::fprintf(stderr, "perfbench: bad metric name or unit: %s [%s]\n", m.name.c_str(),
                   m.unit.c_str());
      return 1;
    }
    if (!std::isfinite(m.value)) run.result.correct = false;
    std::printf("metric %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("host %s\n", host_json(run.floors, opt.seed, opt.workload).c_str());
  std::printf("%s\n", result_json(run.result).c_str());
  std::fflush(stdout);
  return run.result.correct && run.result.failed == 0 ? 0 : 1;
}
