// Unit tests of the host span recorder's nesting and self-time table
// (perfbench/src/spans.h).
#include "spans.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"

namespace perfbench {
namespace {

TEST(SpanRecorderTest, DisabledRecordsNothing) {
  SpanRecorder spans(false);
  { ScopedSpan span(&spans, "a"); }
  EXPECT_TRUE(spans.spans().empty());
  EXPECT_TRUE(spans.SelfTimes().empty());
}

TEST(SpanRecorderTest, NestedSpansRecordTheirParent) {
  SpanRecorder spans(true);
  {
    ScopedSpan outer(&spans, "outer");
    { ScopedSpan inner(&spans, "inner"); }
    { ScopedSpan inner(&spans, "inner"); }
  }
  { ScopedSpan next(&spans, "next"); }
  ASSERT_EQ(spans.spans().size(), 4u);
  EXPECT_EQ(spans.spans()[0].parent, -1);
  EXPECT_EQ(spans.spans()[1].parent, 0);
  EXPECT_EQ(spans.spans()[2].parent, 0);
  EXPECT_EQ(spans.spans()[3].parent, -1);
  for (const Span& span : spans.spans()) EXPECT_LE(span.start_ns, span.end_ns);
}

TEST(SpanRecorderTest, SelfTimeSubtractsChildren) {
  SpanRecorder spans(true);
  {
    ScopedSpan outer(&spans, "outer");
    { ScopedSpan inner(&spans, "inner"); }
  }
  const Span& outer = spans.spans()[0];
  const Span& inner = spans.spans()[1];
  const double outer_ms = static_cast<double>(outer.end_ns - outer.start_ns) / 1e6;
  const double inner_ms = static_cast<double>(inner.end_ns - inner.start_ns) / 1e6;
  bool saw_outer = false;
  for (const SelfTimeRow& row : spans.SelfTimes()) {
    EXPECT_EQ(row.count, 1);
    if (row.name == "outer") {
      saw_outer = true;
      EXPECT_DOUBLE_EQ(row.total_ms, outer_ms);
      EXPECT_NEAR(row.self_ms, outer_ms - inner_ms, 1e-9);
    } else {
      EXPECT_DOUBLE_EQ(row.self_ms, inner_ms);
    }
  }
  EXPECT_TRUE(saw_outer);
}

TEST(SpanRecorderTest, WritesChromeTraceEvents) {
  SpanRecorder spans(true);
  {
    ScopedSpan outer(&spans, "outer");
    { ScopedSpan inner(&spans, "inner"); }
  }
  const std::string path = ::testing::TempDir() + "perfbench_spans_test.json";
  ASSERT_TRUE(spans.WriteChromeTrace(path, "host"));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  auto doc = gammadb::ParseJson(text.str());
  ASSERT_TRUE(doc.ok());
  const gammadb::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->AsArray().size(), 3u);  // process name + two spans
  const gammadb::JsonValue& inner = events->AsArray()[2];
  EXPECT_EQ(inner.Find("ph")->AsString(), "X");
  EXPECT_EQ(inner.Find("name")->AsString(), "inner");
  EXPECT_EQ(inner.Find("args")->Find("parent")->AsInt(), 0);
}

}  // namespace
}  // namespace perfbench
