#include "spans.hpp"

#include <atomic>
#include <fstream>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Innermost open span of this thread; spans nest strictly per thread.
thread_local SpanRecorder::Span* t_open_span = nullptr;

int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

SpanRecorder::Span::Span(SpanRecorder& recorder, const char* layer,
                         std::int64_t request) {
  if (!recorder.enabled_) return;
  recorder_ = &recorder;
  layer_ = layer;
  request_ = request;
  parent_ = t_open_span;
  t_open_span = this;
  begin_ = Clock::now();
}

SpanRecorder::Span::~Span() {
  if (recorder_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  const double seconds = std::chrono::duration<double>(end - begin_).count();
  t_open_span = parent_;
  if (parent_ != nullptr) parent_->child_seconds_ += seconds;
  recorder_->record(Event{layer_, request_, thread_index(),
                          micros(begin_ - recorder_->epoch_),
                          micros(end - begin_), seconds - child_seconds_});
}

void SpanRecorder::record(const Event& event) {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(event);
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::map<std::string, double> totals;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Event& event : events_) totals[event.layer] += event.self_s;
  return totals;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::lock_guard<std::mutex> lock(mu_);
  bool first = true;
  for (const Event& event : events_) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << event.layer
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << event.tid << ",\"ts\":" << event.begin_us
        << ",\"dur\":" << event.dur_us;
    if (event.request >= 0) out << ",\"args\":{\"req\":" << event.request << "}";
    out << "}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
