// Parameterized property sweeps for the external sort: over memory
// budgets, input sizes and value distributions, the output must equal
// the reference sort and the I/O accounting must balance; and on
// tie-heavy inputs the output bytes and charged compare time must equal
// those of the record-copying sort it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "sim/machine.h"
#include "storage/external_sort.h"
#include "testing/status_matchers.h"

namespace gammadb::storage {
namespace {

enum class Distribution { kUniform, kSorted, kReversed, kFewDistinct,
                          kAllEqual };

const char* DistributionName(Distribution d) {
  switch (d) {
    case Distribution::kUniform:
      return "uniform";
    case Distribution::kSorted:
      return "sorted";
    case Distribution::kReversed:
      return "reversed";
    case Distribution::kFewDistinct:
      return "fewdistinct";
    case Distribution::kAllEqual:
      return "allequal";
  }
  return "?";
}

using SortParam = std::tuple<uint32_t /*memory_pages*/, int /*n*/,
                             Distribution>;

class ExternalSortPropertyTest : public ::testing::TestWithParam<SortParam> {
 protected:
  ExternalSortPropertyTest()
      : machine_(sim::MachineConfig{1, 0, sim::CostModel{}, 1}),
        schema_({Field::Int32("k"), Field::Char("pad", 60)}) {}

  sim::Machine machine_;
  Schema schema_;
};

std::string SortParamName(const ::testing::TestParamInfo<SortParam>& info) {
  const auto& [pages, n, dist] = info.param;
  return std::string(DistributionName(dist)) + "_p" + std::to_string(pages) +
         "_n" + std::to_string(n);
}

TEST_P(ExternalSortPropertyTest, MatchesReferenceSort) {
  const auto& [memory_pages, n, distribution] = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 31 + memory_pages);
  std::vector<int32_t> values(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    switch (distribution) {
      case Distribution::kUniform:
        values[static_cast<size_t>(i)] =
            static_cast<int32_t>(rng.Uniform(1u << 30));
        break;
      case Distribution::kSorted:
        values[static_cast<size_t>(i)] = i;
        break;
      case Distribution::kReversed:
        values[static_cast<size_t>(i)] = n - i;
        break;
      case Distribution::kFewDistinct:
        values[static_cast<size_t>(i)] =
            static_cast<int32_t>(rng.Uniform(7));
        break;
      case Distribution::kAllEqual:
        values[static_cast<size_t>(i)] = 42;
        break;
    }
  }

  machine_.BeginPhase("sort");
  ExternalSort sort(&machine_.node(0), &schema_, 0, memory_pages);
  for (int32_t v : values) {
    Tuple t(schema_.tuple_bytes());
    t.SetInt32(schema_, 0, v);
    GAMMA_ASSERT_OK(sort.Add(t));
  }
  GAMMA_ASSERT_OK(sort.FinishInput());
  std::vector<int32_t> output;
  output.reserve(values.size());
  auto stream = sort.OpenStream();
  Tuple t;
  while (stream->Next(&t)) output.push_back(t.GetInt32(schema_, 0));
  GAMMA_ASSERT_OK(machine_.EndPhase());

  std::vector<int32_t> expected = values;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(output, expected);

  // I/O balance: every page written for runs/merges is read back
  // exactly once (runs are read once during merges or the final
  // stream); an in-memory sort does no I/O at all.
  const auto& c = machine_.node(0).counters();
  EXPECT_EQ(c.pages_read, c.pages_written);
  if (sort.run_count() == 0) {
    EXPECT_EQ(c.pages_written, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExternalSortPropertyTest,
    ::testing::Combine(::testing::Values(3u, 4u, 8u, 32u),
                       ::testing::Values(0, 1, 500, 5000),
                       ::testing::Values(Distribution::kUniform,
                                         Distribution::kSorted,
                                         Distribution::kReversed,
                                         Distribution::kFewDistinct,
                                         Distribution::kAllEqual)),
    SortParamName);

// ---------------------------------------------------------------------------
// Equivalence with the record-copying sort.
// ---------------------------------------------------------------------------

/// The external sort as it was before it sorted (key, slot) entries,
/// kept in memory: std::sort over owned Tuples and a heap merge over
/// Tuple copies, with the same counting comparators, the same
/// smallest-runs-first intermediate merges, and kSortCompare charges
/// summed in the same chunks and order as the engine charges them.
class ReferenceSort {
 public:
  ReferenceSort(const Schema* schema, size_t capacity, size_t fan_in,
                double compare_seconds)
      : schema_(schema),
        capacity_(capacity),
        fan_in_(fan_in),
        compare_seconds_(compare_seconds) {}

  void Add(const Tuple& t) {
    buffer_.push_back(t);
    if (buffer_.size() >= capacity_) Spill();
  }

  /// Ends input and returns the sorted output.
  std::vector<Tuple> Finish() {
    if (runs_.empty()) {
      SortBuffer();
      return std::move(buffer_);
    }
    Spill();
    while (runs_.size() > fan_in_) {
      std::sort(runs_.begin(), runs_.end(),
                [](const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
                  return a.size() < b.size();
                });
      const size_t k = std::min(fan_in_, runs_.size() - fan_in_ + 1);
      std::vector<std::vector<Tuple>> group(
          std::make_move_iterator(runs_.begin()),
          std::make_move_iterator(runs_.begin() + static_cast<long>(k)));
      runs_.erase(runs_.begin(), runs_.begin() + static_cast<long>(k));
      runs_.push_back(Merge(std::move(group)));
    }
    return Merge(std::move(runs_));
  }

  double charged_seconds() const { return charged_; }

 private:
  int32_t Key(const Tuple& t) const { return t.GetInt32(*schema_, 0); }

  void Charge(size_t compares) {
    if (compares > 0) {
      charged_ += static_cast<double>(compares) * compare_seconds_;
    }
  }

  void SortBuffer() {
    size_t compares = 0;
    std::sort(buffer_.begin(), buffer_.end(),
              [this, &compares](const Tuple& a, const Tuple& b) {
                ++compares;
                return Key(a) < Key(b);
              });
    Charge(compares);
  }

  void Spill() {
    if (buffer_.empty()) return;
    SortBuffer();
    runs_.push_back(std::move(buffer_));
    buffer_.clear();
  }

  std::vector<Tuple> Merge(std::vector<std::vector<Tuple>> runs) {
    std::vector<size_t> next(runs.size(), 0);
    std::vector<size_t> heap;
    for (size_t i = 0; i < runs.size(); ++i) heap.push_back(i);
    size_t compares = 0;
    const auto greater = [&](size_t a, size_t b) {
      ++compares;
      return Key(runs[a][next[a]]) > Key(runs[b][next[b]]);
    };
    std::make_heap(heap.begin(), heap.end(), greater);
    Charge(compares);
    compares = 0;
    std::vector<Tuple> out;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), greater);
      const size_t idx = heap.back();
      out.push_back(runs[idx][next[idx]++]);
      if (next[idx] < runs[idx].size()) {
        std::push_heap(heap.begin(), heap.end(), greater);
      } else {
        heap.pop_back();
      }
      Charge(compares);
      compares = 0;
    }
    return out;
  }

  const Schema* schema_;
  size_t capacity_;
  size_t fan_in_;
  double compare_seconds_;
  std::vector<Tuple> buffer_;
  std::vector<std::vector<Tuple>> runs_;
  double charged_ = 0;
};

enum class Shape { kInMemory, kOneRun, kFanInRuns, kFanInPlusOneRuns, kMany };

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kInMemory:
      return "inmemory";
    case Shape::kOneRun:
      return "onerun";
    case Shape::kFanInRuns:
      return "faninruns";
    case Shape::kFanInPlusOneRuns:
      return "faninplusoneruns";
    case Shape::kMany:
      return "many";
  }
  return "?";
}

using EquivalenceParam = std::tuple<uint32_t /*memory_pages*/,
                                    uint32_t /*key_domain*/, Shape>;

class ExternalSortEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParam> {
 protected:
  ExternalSortEquivalenceTest()
      : machine_(sim::MachineConfig{1, 0, sim::CostModel{}, 1}),
        schema_({Field::Int32("k"), Field::Int32("seq"),
                 Field::Char("pad", 56)}) {}

  sim::Machine machine_;
  Schema schema_;  // 64-byte records, 127 per page
};

std::string EquivalenceParamName(
    const ::testing::TestParamInfo<EquivalenceParam>& info) {
  const auto& [pages, domain, shape] = info.param;
  return std::string(ShapeName(shape)) + "_p" + std::to_string(pages) +
         "_d" + std::to_string(domain);
}

TEST_P(ExternalSortEquivalenceTest, MatchesRecordCopyingSort) {
  const auto& [memory_pages, key_domain, shape] = GetParam();
  const sim::CostModel& cost = machine_.cost();
  const size_t capacity = static_cast<size_t>(memory_pages) *
                          PageCapacity(cost.page_bytes, schema_.tuple_bytes());
  const size_t fan_in = memory_pages - 1;
  size_t n = 0;
  switch (shape) {
    case Shape::kInMemory:
      n = capacity - 1;
      break;
    case Shape::kOneRun:
      n = capacity;
      break;
    case Shape::kFanInRuns:
      n = fan_in * capacity;
      break;
    case Shape::kFanInPlusOneRuns:
      n = fan_in * capacity + 1;
      break;
    case Shape::kMany:
      n = (2 * fan_in + 3) * capacity + 7;
      break;
  }

  // Tie-heavy keys; the sequence number makes every record distinct,
  // so the output bytes expose the order among equal keys.
  Rng rng(n * 131 + key_domain);
  std::vector<Tuple> input;
  input.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Tuple t(schema_.tuple_bytes());
    t.SetInt32(schema_, 0, 1 + static_cast<int32_t>(rng.Uniform(key_domain)));
    t.SetInt32(schema_, 1, static_cast<int32_t>(i));
    t.SetChars(schema_, 2, "pad" + std::to_string(i % 97));
    input.push_back(std::move(t));
  }

  ReferenceSort reference(&schema_, capacity, fan_in,
                          cost.cpu_sort_compare_seconds);
  for (const Tuple& t : input) reference.Add(t);
  const std::vector<Tuple> expected = reference.Finish();

  machine_.BeginPhase("sort");
  ExternalSort sort(&machine_.node(0), &schema_, 0, memory_pages);
  for (const Tuple& t : input) GAMMA_ASSERT_OK(sort.Add(t));
  GAMMA_ASSERT_OK(sort.FinishInput());
  auto stream = sort.OpenStream();
  std::vector<Tuple> output;
  const uint8_t* record;
  while (stream->NextRecord(&record)) {
    output.emplace_back(record, schema_.tuple_bytes());
  }
  GAMMA_ASSERT_OK(stream->status());
  const size_t compare_category =
      static_cast<size_t>(sim::CostCategory::kSortCompare);
  const double charged =
      machine_.node(0).phase_usage().by_category[compare_category];
  GAMMA_ASSERT_OK(machine_.EndPhase());

  ASSERT_EQ(output.size(), expected.size());
  for (size_t i = 0; i < output.size(); ++i) {
    ASSERT_TRUE(output[i] == expected[i])
        << "record " << i << ": key " << output[i].GetInt32(schema_, 0)
        << " seq " << output[i].GetInt32(schema_, 1) << ", expected key "
        << expected[i].GetInt32(schema_, 0) << " seq "
        << expected[i].GetInt32(schema_, 1);
  }
  EXPECT_EQ(charged, reference.charged_seconds());
  if (shape == Shape::kInMemory) {
    EXPECT_EQ(sort.run_count(), 0u);
  } else if (shape == Shape::kMany) {
    EXPECT_GT(sort.intermediate_passes(), 0);
  } else {
    EXPECT_EQ(sort.intermediate_passes(),
              shape == Shape::kFanInPlusOneRuns ? 1 : 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TieHeavy, ExternalSortEquivalenceTest,
    ::testing::Combine(::testing::Values(3u, 5u),
                       ::testing::Values(1u, 2u, 3u, 5u, 8u),
                       ::testing::Values(Shape::kInMemory, Shape::kOneRun,
                                         Shape::kFanInRuns,
                                         Shape::kFanInPlusOneRuns,
                                         Shape::kMany)),
    EquivalenceParamName);

}  // namespace
}  // namespace gammadb::storage
