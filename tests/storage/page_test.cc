#include "storage/page.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace gammadb::storage {
namespace {

TEST(PageTest, CapacityFormula) {
  EXPECT_EQ(PageCapacity(8192, 208), (8192u - 4) / 208);  // 39 tuples
  EXPECT_EQ(PageCapacity(8192, 208), 39u);
  EXPECT_EQ(PageCapacity(4096, 100), 40u);
}

TEST(PageTest, WriteThenReadBack) {
  const uint32_t record_bytes = 16;
  PageWriter writer(1024, record_bytes);
  std::vector<uint8_t> rec(record_bytes);
  for (uint16_t i = 0; i < 10; ++i) {
    std::memset(rec.data(), i + 1, record_bytes);
    ASSERT_FALSE(writer.Full());
    writer.Append(rec.data());
  }
  const uint8_t* image = writer.Finish()->get();
  PageReader reader(image, record_bytes);
  ASSERT_EQ(reader.count(), 10);
  for (uint16_t i = 0; i < 10; ++i) {
    EXPECT_EQ(reader.Record(i)[0], i + 1);
    EXPECT_EQ(reader.Record(i)[record_bytes - 1], i + 1);
  }
}

TEST(PageTest, FullAtCapacity) {
  PageWriter writer(100, 16);  // capacity (100-4)/16 = 6
  std::vector<uint8_t> rec(16, 0xAB);
  for (int i = 0; i < 6; ++i) {
    ASSERT_FALSE(writer.Full());
    writer.Append(rec.data());
  }
  EXPECT_TRUE(writer.Full());
  EXPECT_EQ(writer.capacity(), 6u);
}

TEST(PageTest, ResetClearsForReuse) {
  PageWriter writer(1024, 8);
  std::vector<uint8_t> rec(8, 0xCD);
  writer.Append(rec.data());
  writer.Finish();
  writer.Reset();
  EXPECT_EQ(writer.count(), 0);
  PageReader reader(writer.Finish()->get(), 8);
  EXPECT_EQ(reader.count(), 0);
}

TEST(PageTest, EmptyPageReadsZeroRecords) {
  PageWriter writer(512, 32);
  PageReader reader(writer.Finish()->get(), 32);
  EXPECT_EQ(reader.count(), 0);
}

}  // namespace
}  // namespace gammadb::storage
