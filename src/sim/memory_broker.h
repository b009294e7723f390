// Per-node build-side memory broker.
//
// Each node of the shared-nothing machine owns a fixed byte budget of
// joining memory. Before the broker, every join PROCESS carried its own
// private `capacity_bytes` — correct while processes occupy distinct
// nodes, but two processes co-resident on one node (Appendix A's "fifth
// join process" remedy, or concurrent overflow sub-joins) would each
// claim the full node budget and together hold twice the memory the
// node has. The broker centralizes the ledger: every hash-table
// admission reserves bytes from the OWNING NODE's budget and every
// eviction, extraction or clear releases them, so co-resident consumers
// share one budget exactly.
//
// The broker is pure accounting. It charges no simulated time itself:
// the CPU/disk/network cost of a spill (evicting residents to an
// overflow file) or refill (re-scanning that file into the next
// sub-join) is charged by the caller through the existing cost
// categories (docs/overflow.md), so attaching a broker to a plan whose
// processes already occupy distinct nodes changes zero baseline bytes.
// Spill/refill byte totals are recorded here for JoinStats observability.
//
// Thread safety: none needed. The executor runs at most one task per
// node per phase (sim/machine.h), and each entry is only touched by its
// node's task, so entries are never shared between concurrent tasks.
#ifndef GAMMA_SIM_MEMORY_BROKER_H_
#define GAMMA_SIM_MEMORY_BROKER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gammadb::sim {

class MemoryBroker {
 public:
  /// A broker for nodes [0, num_nodes); every budget starts at zero.
  explicit MemoryBroker(int num_nodes);

  /// Grants `bytes` of joining memory to `node`. Called once per join
  /// process placed on the node, so a node hosting two processes owns
  /// twice the per-process capacity — same aggregate as before, shared
  /// instead of duplicated.
  void AddBudget(int node, uint64_t bytes);

  /// Reserves `bytes` on `node` if the budget allows; returns false
  /// (reserving nothing) when the reservation would exceed it.
  bool TryReserve(int node, uint64_t bytes);

  /// Returns previously reserved bytes.
  void Release(int node, uint64_t bytes);

  uint64_t budget(int node) const { return entries_[Index(node)].budget; }
  uint64_t used(int node) const { return entries_[Index(node)].used; }
  uint64_t available(int node) const {
    const Entry& e = entries_[Index(node)];
    return e.budget - e.used;
  }

  /// Observability: lifetime bytes spooled out of build memory to
  /// overflow files (spill) and re-read from them into a later
  /// sub-join (refill). Recorded by the engine at its existing charge
  /// sites, always on the entry of the node whose task does the
  /// spooling or re-reading — an outer-side spill is booked on the
  /// producing node, not the join process's node — so the single-writer
  /// rule above holds. Only the totals are read; never affects
  /// admission.
  void NoteSpill(int node, uint64_t bytes) {
    entries_[Index(node)].spill_bytes += bytes;
  }
  void NoteRefill(int node, uint64_t bytes) {
    entries_[Index(node)].refill_bytes += bytes;
  }
  uint64_t TotalSpillBytes() const;
  uint64_t TotalRefillBytes() const;

 private:
  struct Entry {
    uint64_t budget = 0;
    uint64_t used = 0;
    uint64_t spill_bytes = 0;
    uint64_t refill_bytes = 0;
  };

  size_t Index(int node) const;

  std::vector<Entry> entries_;
};

}  // namespace gammadb::sim

#endif  // GAMMA_SIM_MEMORY_BROKER_H_
