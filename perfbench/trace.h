// Spans recorded by the benchmark's own code around calls into each layer.
// Off in the measured (untraced) run: a disabled Tracer records nothing and
// a Span on it is two branches. On in the traced run, spans are kept in
// memory and written out once, at the end.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.h"  // json_escape

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // requests' spans share this id; 0 = none
  std::string name;
  int64_t start_ns = 0;  // from the tracer's epoch
  int64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Switch recording on or off (the traced run alternates traced and
  /// untraced segments to measure the tracing overhead).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Record a finished span with explicit times (e.g. submit() to the
  /// future becoming ready). Thread-safe. Returns the span id (0 when off).
  uint64_t record(const std::string& name, Clock::time_point start, Clock::time_point end,
                  uint64_t parent = 0, uint64_t request = 0, uint64_t id = 0) {
    if (!enabled()) return 0;
    SpanRecord s;
    s.id = id != 0 ? id : next_id();
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_).count();
    s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_).count();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Durations (ms) of every span with this name.
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& s : spans_) {
      if (s.name == name) out.push_back(s.ms());
    }
    return out;
  }

  /// Per span name: count, total and self time (duration minus the part
  /// covered by direct children), in ms.
  struct NameTotals {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, NameTotals> totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<uint64_t, double> child_ms;
    for (const SpanRecord& s : spans_) {
      if (s.parent != 0) child_ms[s.parent] += s.ms();
    }
    std::map<std::string, NameTotals> out;
    for (const SpanRecord& s : spans_) {
      NameTotals& t = out[s.name];
      ++t.count;
      t.total_ms += s.ms();
      const auto it = child_ms.find(s.id);
      t.self_ms += s.ms() - (it != child_ms.end() ? std::min(it->second, s.ms()) : 0.0);
    }
    return out;
  }

  /// Write every span as one JSON document. False when the file cannot be
  /// written.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %llu, \"parent\": %llu, \"request\": %llu, \"name\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   df::bench::json_escape(s.name).c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<bool> enabled_;
  Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: starts at construction, recorded at destruction. Its id is
/// known up front so children can name it as their parent.
class Span {
 public:
  Span(Tracer& t, std::string name, uint64_t parent = 0, uint64_t request = 0)
      : t_(t), active_(t.enabled()), id_(active_ ? t.next_id() : 0), parent_(parent),
        request_(request), name_(active_ ? std::move(name) : std::string()),
        start_(active_ ? Clock::now() : Clock::time_point{}) {}
  ~Span() {
    if (active_) t_.record(name_, start_, Clock::now(), parent_, request_, id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer& t_;
  bool active_;
  uint64_t id_;
  uint64_t parent_;
  uint64_t request_;
  std::string name_;
  Clock::time_point start_;
};

}  // namespace perfbench
