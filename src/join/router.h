// The block router every join algorithm shares: as in Gamma (paper
// Section 2.2), a tuple is routed by hashing its join attribute and
// looking the hash up in a split table. Each scan block takes three
// passes (docs/performance.md):
//
//  1. Uncharged: keys, predicate verdicts, hashes and split-table
//     indices for the whole block.
//  2. In scan order, the scalar per-tuple charge chain — read,
//     predicate (dropping failures), hash-route — then the engine's own
//     routing decision, a template functor that charges what else it
//     needs (bit filters) and names a destination or drops the tuple.
//  3. A stable counting sort of the survivors by destination and one
//     SendBatch per destination; only the RoutedTuple view moves.
#ifndef GAMMA_JOIN_ROUTER_H_
#define GAMMA_JOIN_ROUTER_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "gamma/predicate.h"
#include "gamma/split_table.h"
#include "sim/exchange.h"
#include "sim/node.h"
#include "storage/schema.h"
#include "storage/tuple_block.h"

namespace gammadb::join {

/// A routed tuple is a VIEW, not a copy: `data` points at stable
/// serialized bytes — a simulated disk page (individually
/// heap-allocated, never freed before the phase that routed it drains)
/// or a rebalance holding area that outlives both migration rounds. The
/// payload is copied once, by the consumer that stores it; network
/// accounting still charges the full serialized `size` per tuple.
struct RoutedTuple {
  const uint8_t* data;
  uint32_t size;
  uint64_t hash;
  uint8_t kind;  // engine-defined tag (hash engine: RoutedKind)
  int32_t aux;   // engine-defined: join process, bucket or site index
};

/// An engine's routing verdict for one tuple.
struct RouteTarget {
  int node;  // destination node id
  uint8_t kind;
  int32_t aux;
};

/// Routes scan blocks through one split table. One instance per
/// producer task (the scratch arrays are not shared), so the per-block
/// path does no allocation.
class BlockRouter {
 public:
  BlockRouter(sim::Exchange<RoutedTuple>* exchange, int num_nodes,
              const db::SplitTable& table, const storage::Schema& schema,
              int field, uint64_t seed, const db::PredicateList* predicate)
      : exchange_(exchange),
        table_(table),
        schema_(schema),
        field_(static_cast<size_t>(field)),
        seed_(seed),
        predicate_(predicate != nullptr && !predicate->empty() ? predicate
                                                               : nullptr),
        dest_counts_(static_cast<size_t>(num_nodes), 0),
        dest_starts_(static_cast<size_t>(num_nodes), 0) {}

  /// Routes one block produced on node `n`. `decide(route, hash, view,
  /// &target)` runs once per tuple that passed the predicate, after its
  /// hash-route charge, with its split-table index; it returns true
  /// (filling `target`) to ship the tuple, false to drop it.
  template <typename Decide>
  void Route(sim::Node& n, const storage::TupleBlock& block,
             Decide&& decide) {
    const size_t count = block.size();
    // Pass 1. Hashing a tuple the predicate later drops is harmless.
    for (size_t i = 0; i < count; ++i) {
      const uint8_t* data = block.view(i).data;
      keys_[i] = schema_.GetInt32(data, field_);
      pred_ok_[i] =
          predicate_ == nullptr || db::EvalAll(*predicate_, schema_, data);
    }
    for (size_t i = 0; i < count; ++i) {
      hashes_[i] = HashJoinAttribute(keys_[i], seed_);
    }
    table_.RouteIndices(hashes_.data(), count, route_.data());

    // Pass 2.
    size_t m = 0;
    for (size_t i = 0; i < count; ++i) {
      n.ChargeCpu(n.cost().cpu_read_tuple_seconds,
                  sim::CostCategory::kReadTuple);
      if (predicate_ != nullptr) {
        n.ChargeCpu(n.cost().cpu_predicate_seconds,
                    sim::CostCategory::kPredicate);
        if (!pred_ok_[i]) continue;
      }
      n.ChargeCpu(n.cost().cpu_hash_route_seconds,
                  sim::CostCategory::kHashRoute);
      const storage::TupleView& v = block.view(i);
      RouteTarget to;
      if (!decide(route_[i], hashes_[i], v, &to)) continue;
      exchange_->Account(n.id(), to.node, v.size);
      staged_[m] = RoutedTuple{v.data, v.size, hashes_[i], to.kind, to.aux};
      send_dest_[m] = to.node;
      ++m;
    }
    if (m == 0) return;

    // Pass 3. Within a lane the views land in scan order — exactly the
    // per-tuple Send() order.
    std::fill(dest_counts_.begin(), dest_counts_.end(), 0);
    for (size_t k = 0; k < m; ++k) {
      ++dest_counts_[static_cast<size_t>(send_dest_[k])];
    }
    uint32_t run = 0;
    for (size_t d = 0; d < dest_counts_.size(); ++d) {
      dest_starts_[d] = run;
      run += dest_counts_[d];
    }
    for (size_t k = 0; k < m; ++k) {
      send_order_[dest_starts_[static_cast<size_t>(send_dest_[k])]++] =
          static_cast<uint32_t>(k);
    }
    for (size_t d = 0; d < dest_counts_.size(); ++d) {
      const uint32_t c = dest_counts_[d];
      if (c == 0) continue;
      const uint32_t start = dest_starts_[d] - c;  // starts moved to ends
      exchange_->SendBatch(n.id(), static_cast<int>(d), c,
                           [&](size_t k, RoutedTuple& out) {
                             out = staged_[send_order_[start + k]];
                           });
    }
  }

 private:
  static constexpr size_t kCap = storage::TupleBlock::kCapacity;

  sim::Exchange<RoutedTuple>* exchange_;
  const db::SplitTable& table_;
  const storage::Schema& schema_;
  size_t field_;
  uint64_t seed_;
  const db::PredicateList* predicate_;  // null = no selection
  std::array<int32_t, kCap> keys_;
  std::array<uint64_t, kCap> hashes_;
  std::array<uint32_t, kCap> route_;
  std::array<bool, kCap> pred_ok_;
  std::array<RoutedTuple, kCap> staged_;
  std::array<int32_t, kCap> send_dest_;
  std::array<uint32_t, kCap> send_order_;
  std::vector<uint32_t> dest_counts_;
  std::vector<uint32_t> dest_starts_;
};

}  // namespace gammadb::join

#endif  // GAMMA_JOIN_ROUTER_H_
