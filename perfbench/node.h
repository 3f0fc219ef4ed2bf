// A score_server_node child process serving the bench_common.h SG-CNN, the
// same model sgcnn_factory() builds, for the multi-node paths.
#pragma once

#include <sys/types.h>

#include <string>

#include "screen/controller.h"

namespace perfbench {

/// Stopped with SIGTERM (SIGKILL after 5 s) and always reaped, also when
/// destroyed.
class NodeProcess {
 public:
  NodeProcess(std::string dir, int index) : dir_(std::move(dir)), index_(index) {}
  ~NodeProcess() { stop(); }
  NodeProcess(const NodeProcess&) = delete;
  NodeProcess& operator=(const NodeProcess&) = delete;

  /// fork + exec the node: 2 workers, ordered stream, the given micro-batch
  /// and pocket-cache size; it reports its port through a file in `dir`.
  void start(int generation, int poses_per_batch, int cache_targets);
  /// Wait for the node's port. Throws after 30 s or if the node died.
  int wait_port();
  void stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  std::string dir_;
  int index_;
  std::string port_file_;
  pid_t pid_ = -1;
  int port_ = 0;
};

inline constexpr const char* kNodeScorer = "sgcnn";

/// Controller settings of the benchmark: one dispatcher and one wire slot
/// per node.
df::screen::ControllerConfig node_controller_config();

}  // namespace perfbench
