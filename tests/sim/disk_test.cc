#include "sim/disk.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "sim/machine.h"
#include "testing/status_matchers.h"

namespace gammadb::sim {
namespace {

class DiskTest : public ::testing::Test {
 protected:
  DiskTest() : machine_(MachineConfig{1, 0, CostModel{}, 1}) {}

  Node& node() { return machine_.node(0); }
  Disk& disk() { return machine_.node(0).disk(); }
  uint32_t page_bytes() { return machine_.cost().page_bytes; }

  /// Writes a copy of `bytes` as a new page.
  PageId WritePage(const std::vector<uint8_t>& bytes) {
    auto image = std::make_unique<uint8_t[]>(bytes.size());
    std::memcpy(image.get(), bytes.data(), bytes.size());
    const Result<PageId> id = disk().WriteNewPage(&image);
    GAMMA_CHECK_OK(id.status());
    return *id;
  }

  Machine machine_;
};

TEST_F(DiskTest, WriteReadRoundTrip) {
  std::vector<uint8_t> in(page_bytes());
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<uint8_t>(i * 7);
  const PageId id = WritePage(in);
  const uint8_t* out = nullptr;
  GAMMA_ASSERT_OK(disk().ReadPageRef(id, &out));
  EXPECT_EQ(std::memcmp(in.data(), out, in.size()), 0);
}

TEST_F(DiskTest, WriteAdoptsTheImageWithoutCopying) {
  auto image = std::make_unique<uint8_t[]>(page_bytes());
  image[0] = 0x5A;
  const uint8_t* raw = image.get();
  const Result<PageId> id = disk().WriteNewPage(&image);
  GAMMA_ASSERT_OK(id.status());
  EXPECT_EQ(image, nullptr);
  EXPECT_EQ(disk().PeekPage(*id), raw);
}

TEST_F(DiskTest, IoChargesDeviceAndCpuTime) {
  std::vector<uint8_t> buf(page_bytes());
  machine_.BeginPhase("io");
  const PageId id = WritePage(buf);
  const uint8_t* page = nullptr;
  GAMMA_ASSERT_OK(disk().ReadPageRef(id, &page));
  const NodeUsage& usage = node().phase_usage();
  const CostModel& cost = machine_.cost();
  EXPECT_DOUBLE_EQ(usage.disk_seconds, 2 * cost.disk_seq_page_seconds);
  EXPECT_DOUBLE_EQ(usage.cpu_seconds, 2 * cost.cpu_page_io_seconds);
  GAMMA_ASSERT_OK(machine_.EndPhase());
  EXPECT_EQ(node().counters().pages_written, 1);
  EXPECT_EQ(node().counters().pages_read, 1);
}

TEST_F(DiskTest, FreedPageIdsAreReused) {
  const PageId a = WritePage(std::vector<uint8_t>(page_bytes(), 0xFF));
  disk().FreePage(a);
  const PageId b = WritePage(std::vector<uint8_t>(page_bytes(), 0x01));
  EXPECT_EQ(b, a);  // LIFO reuse
  const uint8_t* raw = disk().PeekPage(b);
  for (uint32_t i = 0; i < page_bytes(); ++i) ASSERT_EQ(raw[i], 0x01) << i;
}

TEST_F(DiskTest, LivePagesTracksAllocations) {
  EXPECT_EQ(disk().live_pages(), 0u);
  const PageId a = WritePage(std::vector<uint8_t>(page_bytes()));
  const PageId b = WritePage(std::vector<uint8_t>(page_bytes()));
  (void)b;
  EXPECT_EQ(disk().live_pages(), 2u);
  disk().FreePage(a);
  EXPECT_EQ(disk().live_pages(), 1u);
}

TEST_F(DiskTest, PeekDoesNotCharge) {
  const PageId id = WritePage(std::vector<uint8_t>(page_bytes()));
  machine_.BeginPhase("peek");
  (void)disk().PeekPage(id);
  EXPECT_EQ(node().phase_usage().cpu_seconds, 0.0);
  EXPECT_EQ(node().phase_usage().disk_seconds, 0.0);
  GAMMA_ASSERT_OK(machine_.EndPhase());
}

}  // namespace
}  // namespace gammadb::sim
