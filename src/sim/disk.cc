#include "sim/disk.h"

#include <string>

#include "common/logging.h"
#include "sim/fault.h"
#include "sim/node.h"

namespace gammadb::sim {

Disk::Disk(Node* owner, const CostModel* cost) : owner_(owner), cost_(cost) {}

void Disk::FreePage(PageId id) {
  GAMMA_DCHECK(id < pages_.size());
  pages_[id].reset();
  free_list_.push_back(id);
}

Status Disk::RunIoAttempts(bool is_write) const {
  Counters& counters = owner_->counters();
  for (int attempt = 1;; ++attempt) {
    // Every attempt pays full device + issue-CPU time: a retried I/O is
    // a real arm movement plus a fresh WiSS call.
    owner_->ChargeDisk(cost_->disk_seq_page_seconds, CostCategory::kDiskSeq);
    owner_->ChargeCpu(cost_->cpu_page_io_seconds, CostCategory::kIoIssue);
    FaultInjector* faults = owner_->fault_injector();
    const bool failed =
        faults != nullptr && (is_write ? faults->OnPageWrite(owner_->id())
                                       : faults->OnPageRead(owner_->id()));
    if (!failed) {
      if (is_write) {
        ++counters.pages_written;
      } else {
        ++counters.pages_read;
      }
      return Status::OK();
    }
    if (is_write) {
      ++counters.disk_write_faults;
    } else {
      ++counters.disk_read_faults;
    }
    if (attempt >= kMaxIoAttempts) {
      return Status::Unavailable(
          std::string("page ") + (is_write ? "write" : "read") +
          " failed after " + std::to_string(kMaxIoAttempts) +
          " attempts on node " + std::to_string(owner_->id()));
    }
    ++counters.io_retries;
  }
}

Result<PageId> Disk::WriteNewPage(std::unique_ptr<uint8_t[]>* image) {
  GAMMA_DCHECK(*image != nullptr);
  GAMMA_RETURN_IF_ERROR(RunIoAttempts(/*is_write=*/true));
  PageId id;
  if (free_list_.empty()) {
    id = static_cast<PageId>(pages_.size());
    pages_.emplace_back();
  } else {
    id = free_list_.back();
    free_list_.pop_back();
  }
  pages_[id] = std::move(*image);
  return id;
}

Status Disk::ReadPageRef(PageId id, const uint8_t** out) const {
  GAMMA_DCHECK(id < pages_.size());
  GAMMA_RETURN_IF_ERROR(RunIoAttempts(/*is_write=*/false));
  *out = pages_[id].get();
  return Status::OK();
}

const uint8_t* Disk::PeekPage(PageId id) const {
  GAMMA_DCHECK(id < pages_.size());
  return pages_[id].get();
}

}  // namespace gammadb::sim
