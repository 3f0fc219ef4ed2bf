#include "node.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {
constexpr int kNodeWorkers = 2;
}  // namespace

void NodeProcess::start(int generation, int poses_per_batch, int cache_targets) {
  port_file_ = (fs::path(dir_) / ("node" + std::to_string(index_) + "-" +
                                  std::to_string(generation) + ".port"))
                   .string();
  const models::SgcnnConfig cfg = df::bench::bench_sgcnn_config();
  std::vector<std::string> args = {
      PERFBENCH_SERVER_BIN,
      "--port=0",
      "--port-file=" + port_file_,
      "--node-id=perfbench" + std::to_string(index_),
      std::string("--scorer=") + kNodeScorer,
      "--model-seed=" + std::to_string(kSgcnnSeed),
      "--voxel-grid=" + std::to_string(df::bench::kGridDim),
      "--gather-cov=" + std::to_string(cfg.covalent_gather_width),
      "--gather-noncov=" + std::to_string(cfg.noncovalent_gather_width),
      "--k-cov=" + std::to_string(cfg.covalent_k),
      "--k-noncov=" + std::to_string(cfg.noncovalent_k),
      "--workers=" + std::to_string(kNodeWorkers),
      "--poses-per-batch=" + std::to_string(poses_per_batch),
      "--ordered=1",
      "--pocket-cache=" + std::to_string(cache_targets),
  };
  pid_ = ::fork();
  if (pid_ == 0) {
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(PERFBENCH_SERVER_BIN, argv.data());
    _exit(127);
  }
  if (pid_ < 0) throw std::runtime_error("node: fork failed");
}

int NodeProcess::wait_port() {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    std::ifstream in(port_file_);
    int port = 0;
    if (in >> port && port > 0) return port_ = port;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("node: score_server_node exited during start-up");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw std::runtime_error("node: score_server_node did not start");
}

void NodeProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

df::screen::ControllerConfig node_controller_config() {
  df::screen::ControllerConfig cfg;
  cfg.scorer = kNodeScorer;
  cfg.inflight_per_node = 1;
  cfg.client.io_timeout_ms = 20000;
  return cfg;
}

}  // namespace perfbench
