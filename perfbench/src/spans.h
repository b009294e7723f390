// Host-time spans recorded by the benchmark's own code around its calls
// into each layer (set-up generate and load, every ExecuteJoin, every
// layer replay). Spans stay in memory; at exit they are written as
// Chrome trace_event JSON, which Perfetto loads beside the simulated-
// time traces of sim/trace.h, and folded into a self-time table.
//
// Single-threaded: spans are opened and closed by the benchmark's main
// thread only, strictly nested.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host seconds elapsed since `start` on the steady clock, the clock the
/// spans and every timed sample of the benchmark use.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;  // since the recorder's origin
  int64_t end_ns = 0;
  int parent = -1;       // index of the enclosing span, -1 at top level
};

/// Self time of every span with one name: its summed duration minus the
/// part covered by its child spans.
struct SelfTimeRow {
  std::string name;
  int64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

class SpanRecorder {
 public:
  /// A disabled recorder records nothing and costs one branch per span.
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open one; returns its index (-1
  /// when disabled).
  int Begin(std::string name);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Rows ordered by descending self time.
  std::vector<SelfTimeRow> SelfTimes() const;

  /// Chrome trace_event JSON ("X" events on one host process track,
  /// with the parent index in args). Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& process_name) const;

 private:
  int64_t Now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder is allowed.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name)
      : recorder_(recorder),
        index_(recorder == nullptr ? -1 : recorder->Begin(std::move(name))) {}
  ~ScopedSpan() {
    if (index_ >= 0) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
