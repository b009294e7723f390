#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/json.h"
#include "common/logging.h"

namespace perfbench {
namespace {

// Process id of the host track; far above the ids sim::Tracer hands out
// to simulated machines, so both kinds of trace can be merged.
constexpr int kHostPid = 9000;

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::Begin(std::string name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = Now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  GAMMA_CHECK(!open_.empty() && open_.back() == index)
      << "spans must close innermost first";
  spans_[static_cast<size_t>(index)].end_ns = Now();
  open_.pop_back();
}

std::vector<SelfTimeRow> SpanRecorder::SelfTimes() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SelfTimeRow> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    SelfTimeRow& row = by_name[span.name];
    row.name = span.name;
    ++row.count;
    const int64_t total = span.end_ns - span.start_ns;
    row.total_ms += static_cast<double>(total) / 1e6;
    row.self_ms += static_cast<double>(total - child_ns[i]) / 1e6;
  }
  std::vector<SelfTimeRow> rows;
  for (auto& [name, row] : by_name) rows.push_back(row);
  std::stable_sort(rows.begin(), rows.end(),
                   [](const SelfTimeRow& a, const SelfTimeRow& b) {
                     return a.self_ms > b.self_ms;
                   });
  return rows;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    const std::string& process_name) const {
  using gammadb::JsonValue;
  JsonValue events = JsonValue::MakeArray();
  JsonValue meta = JsonValue::MakeObject();
  meta.Set("ph", "M");
  meta.Set("pid", kHostPid);
  meta.Set("tid", 0);
  meta.Set("name", "process_name");
  JsonValue meta_args = JsonValue::MakeObject();
  meta_args.Set("name", process_name);
  meta.Set("args", std::move(meta_args));
  events.Append(std::move(meta));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    JsonValue e = JsonValue::MakeObject();
    e.Set("ph", "X");
    e.Set("pid", kHostPid);
    e.Set("tid", 0);
    e.Set("name", span.name);
    e.Set("ts", static_cast<double>(span.start_ns) / 1e3);
    e.Set("dur", static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    JsonValue args = JsonValue::MakeObject();
    args.Set("id", static_cast<int64_t>(i));
    args.Set("parent", static_cast<int64_t>(span.parent));
    e.Set("args", std::move(args));
    events.Append(std::move(e));
  }
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = doc.Dump();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
