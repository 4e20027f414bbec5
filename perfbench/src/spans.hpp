// Spans recorded by the benchmark around its calls into each layer of
// the program. A span measures one public call (blif::read_blif_string,
// opt::extract_divisors, core::map_network, ...) from outside; nested
// spans on one thread form a tree, and a span's self time is its
// duration minus the time its direct children cover. Spans stay in
// memory until the run ends and are then written as a Chrome trace
// (complete "X" events, the format tools/obs_check --trace accepts).
//
// A disabled recorder reads no clock and records nothing, so the same
// code path serves the untraced pass that the tracing overhead is
// measured against.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span; `layer` must be a string literal (it is stored as is).
  class Span {
   public:
    Span(SpanRecorder& recorder, const char* layer, std::int64_t request);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanRecorder* recorder_ = nullptr;  // null when disabled
    const char* layer_ = nullptr;
    std::int64_t request_ = -1;
    std::chrono::steady_clock::time_point begin_{};
    double child_seconds_ = 0.0;
    Span* parent_ = nullptr;
  };

  Span span(const char* layer, std::int64_t request = -1) {
    return Span(*this, layer, request);
  }

  bool enabled() const { return enabled_; }

  /// Self seconds summed per layer name.
  std::map<std::string, double> self_seconds() const;

  /// Writes every span as a Chrome trace; false when the file cannot
  /// be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Event {
    const char* layer;
    std::int64_t request;
    int tid;
    double begin_us;
    double dur_us;
    double self_s;
  };

  void record(const Event& event);

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Event> events_;  // guarded by mu_
};

}  // namespace perfbench
