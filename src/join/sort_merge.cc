#include "join/sort_merge.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "gamma/bit_filter.h"
#include "gamma/rebalance.h"
#include "gamma/scheduler.h"
#include "gamma/split_table.h"
#include "join/router.h"
#include "sim/exchange.h"
#include "storage/external_sort.h"
#include "storage/heap_file.h"

namespace gammadb::join {

namespace {

/// One disk node's sort-merge working state.
struct SiteState {
  std::unique_ptr<storage::HeapFile> r_temp;
  std::unique_ptr<storage::HeapFile> s_temp;
  std::unique_ptr<storage::ExternalSort> r_sort;
  std::unique_ptr<storage::ExternalSort> s_sort;
  size_t store_rr_next = 0;
};

/// Streams two sorted inputs and joins them. Duplicate inner keys are
/// buffered as a group (no disk back-up needed); reading stops as soon
/// as the inner stream is exhausted, which is what lets skewed (NU)
/// inner relations skip the tail of the outer relation (paper
/// Section 4.4).
template <typename EmitFn>
void MergeJoinStreams(sim::Node& node, storage::TupleStream* r_stream,
                      storage::TupleStream* s_stream,
                      const storage::Schema& r_schema, int r_field,
                      const storage::Schema& s_schema, int s_field,
                      const EmitFn& emit) {
  const auto charge_compare = [&node] {
    node.ChargeCpu(node.cost().cpu_compare_seconds,
                   sim::CostCategory::kCompare);
  };
  storage::Tuple r, s;
  bool rv = r_stream->Next(&r);
  bool sv = s_stream->Next(&s);
  while (rv && sv) {
    const int32_t rk = r.GetInt32(r_schema, static_cast<size_t>(r_field));
    const int32_t sk = s.GetInt32(s_schema, static_cast<size_t>(s_field));
    charge_compare();
    if (rk < sk) {
      rv = r_stream->Next(&r);
    } else if (rk > sk) {
      sv = s_stream->Next(&s);
    } else {
      // Gather the inner duplicate group for this key.
      std::vector<storage::Tuple> group;
      group.push_back(r);
      while ((rv = r_stream->Next(&r))) {
        charge_compare();
        if (r.GetInt32(r_schema, static_cast<size_t>(r_field)) != rk) break;
        group.push_back(r);
      }
      // Join every outer tuple with this key against the group.
      while (sv) {
        if (s.GetInt32(s_schema, static_cast<size_t>(s_field)) != rk) break;
        for (const storage::Tuple& g : group) {
          charge_compare();
          emit(g, s);
        }
        sv = s_stream->Next(&s);
        if (sv) charge_compare();
      }
    }
  }
  // Inner exhausted: the remaining outer tuples are never read.
}

}  // namespace

Status RunSortMergeJoin(sim::Machine& machine, const SortMergeParams& params,
                        JoinStats* stats) {
  const std::vector<int> disks = machine.DiskNodeIds();
  const size_t d = disks.size();
  const db::SplitTable joining = db::SplitTable::Joining(disks);

  const storage::Schema& r_schema = params.inner->schema();
  const storage::Schema& s_schema = params.outer->schema();
  if (params.inner->num_fragments() != d || params.outer->num_fragments() != d) {
    return Status::InvalidArgument("relations not declustered over all disks");
  }

  const uint32_t page_bytes = machine.cost().page_bytes;
  const uint32_t sort_pages_per_node = static_cast<uint32_t>(std::max<uint64_t>(
      3, params.memory_bytes / d / page_bytes));

  std::vector<SiteState> sites(d);
  for (size_t di = 0; di < d; ++di) {
    sim::Node& node = machine.node(disks[di]);
    sites[di].r_temp = std::make_unique<storage::HeapFile>(
        &node, &r_schema, "smR." + std::to_string(di));
    sites[di].s_temp = std::make_unique<storage::HeapFile>(
        &node, &s_schema, "smS." + std::to_string(di));
    sites[di].store_rr_next = di;
  }

  sim::Exchange<RoutedTuple> exchange(&machine);
  sim::Exchange<storage::Tuple> store_exchange(&machine);
  std::unique_ptr<db::BitFilterSet> filter;
  if (params.use_bit_filters) {
    filter = std::make_unique<db::BitFilterSet>(static_cast<int>(d));
  }
  // The site index of a disk node.
  const auto site_of = [&disks](const sim::Node& n) {
    return static_cast<size_t>(
        std::find(disks.begin(), disks.end(), n.id()) - disks.begin());
  };

  // Adaptive repartitioning (docs/skew.md): each site histograms R' as
  // it arrives (free alongside the append, like the hash tables'
  // overflow histograms); the plan computed from those counts overrides
  // heavy bins' routing for S and redistributes R' before sorting.
  const bool adaptive = params.adaptive_repartition && d >= 2;
  std::vector<HashHistogram> site_hist(adaptive ? d : 0);
  db::Rebalancer rebalancer;

  // Receivers: drain node n's inbox into `file` and flush it. Inner
  // arrivals also set the site's filter slice (the slices are per site,
  // so the bits must live where the probes will arrive) and histogram
  // (read only by the rebalance decision, before any migrated arrival).
  const auto absorb = [&](sim::Node& n, storage::HeapFile* file,
                          bool is_inner) -> Status {
    const size_t di = site_of(n);
    Status st;
    exchange.DrainInboxBlocks(n.id(), [&](std::vector<RoutedTuple>& lane) {
      for (const RoutedTuple& m : lane) {
        if (is_inner && filter != nullptr) {
          n.ChargeCpu(n.cost().cpu_filter_op_seconds,
                      sim::CostCategory::kFilterOp);
          filter->Set(static_cast<int>(di), m.hash);
        }
        if (is_inner && adaptive) site_hist[di].Add(m.hash);
        const Status append = file->AppendRecord(m.data);
        if (st.ok()) st = append;
      }
    });
    const Status flush = file->FlushAppends();
    return st.ok() ? flush : st;
  };

  const auto partition_phase = [&](const char* label,
                                   const db::StoredRelation* rel,
                                   const db::PredicateList* predicate,
                                   int field, bool is_inner) -> Status {
    machine.BeginPhase(label);
    db::ChargeOperatorPhase(machine, static_cast<int>(d), static_cast<int>(d),
                            joining.SerializedBytes());
    // Both rounds always run in full — the exchange must be drained at
    // the phase barrier even when a node failed — and only the first
    // error is kept.
    Status phase_status;
    // Producers: scan local fragments block-wise and route by
    // join-attribute hash through the shared router.
    {
      const Status round = machine.TryRunOnNodes(
          disks, [&](sim::Node& n) -> Status {
            const size_t di = site_of(n);
            exchange.ReserveRow(n.id(), rel->fragment(di).tuple_count());
            BlockRouter router(&exchange, machine.num_nodes(), joining,
                               rel->schema(), field, params.hash_seed,
                               predicate);
            // For a joining table the entry index IS the site index.
            const auto decide = [&](uint32_t route, uint64_t hash,
                                    const storage::TupleView&,
                                    RouteTarget* to) {
              size_t site = route;
              if (!is_inner) {
                const int override_site =
                    rebalancer.ProbeDestination(di, hash);
                if (override_site >= 0) {
                  site = static_cast<size_t>(override_site);
                }
                // The assembled filter is applied by the producers of
                // the outer relation: eliminated tuples are never
                // transmitted, stored, sorted or merged.
                if (filter != nullptr) {
                  n.ChargeCpu(n.cost().cpu_filter_op_seconds,
                              sim::CostCategory::kFilterOp);
                  if (!filter->MayContain(static_cast<int>(site), hash)) {
                    ++n.counters().filter_drops;
                    return false;
                  }
                }
              }
              *to = RouteTarget{disks[site], 0, static_cast<int32_t>(site)};
              return true;
            };
            auto scanner = rel->fragment(di).Scan();
            storage::TupleBlock block;
            while (scanner.NextBlock(&block)) router.Route(n, block, decide);
            return scanner.status();
          });
      if (phase_status.ok()) phase_status = round;
    }
    {
      const Status round = machine.TryRunOnNodes(
          disks, [&](sim::Node& n) -> Status {
            SiteState& site = sites[site_of(n)];
            return absorb(
                n, is_inner ? site.r_temp.get() : site.s_temp.get(), is_inner);
          });
      if (phase_status.ok()) phase_status = round;
    }
    const Status end = machine.EndPhase();
    if (phase_status.ok()) phase_status = end;
    return phase_status;
  };

  // Sorts every site's R' (or S') temporary file into its sorter.
  const auto sort_phase = [&](const char* label, bool is_inner) -> Status {
    machine.BeginPhase(label);
    db::ChargeOperatorPhase(machine, static_cast<int>(d), 0, 0);
    const Status st = machine.TryRunOnNodes(
        disks, [&](sim::Node& n) -> Status {
          SiteState& site = sites[site_of(n)];
          std::unique_ptr<storage::HeapFile>& temp =
              is_inner ? site.r_temp : site.s_temp;
          std::unique_ptr<storage::ExternalSort>& sort =
              is_inner ? site.r_sort : site.s_sort;
          sort = std::make_unique<storage::ExternalSort>(
              &n, is_inner ? &r_schema : &s_schema,
              is_inner ? params.inner_field : params.outer_field,
              sort_pages_per_node);
          GAMMA_RETURN_IF_ERROR(sort->AddFile(*temp));
          temp->Free();
          return sort->FinishInput();
        });
    const Status end = machine.EndPhase();
    return st.ok() ? end : st;
  };

  // All join work runs inside `run` so a faulted attempt can release
  // the per-site temporaries before returning (sorts free their runs
  // via the ExternalSort destructor).
  const auto run = [&]() -> Status {
    // Phase 1: redistribute R into per-site temporary files.
    GAMMA_RETURN_IF_ERROR(partition_phase("sm partition R", params.inner,
                                        params.inner_predicate,
                                        params.inner_field,
                                        /*is_inner=*/true));

    // Phase 1b (adaptive, docs/skew.md): gather the sites' R'
    // histograms; if heavy bins make a rebalance worthwhile, rewrite R'
    // with the overridden bins migrated (replicas get a full copy) so
    // the heavy keys' merge work spreads over their destination sites.
    // S has not been read yet, so its producers route straight to the
    // new homes. Sort-merge has no hash-table byte budget, hence the
    // unbounded capacity.
    if (adaptive) {
      machine.BeginPhase("sm rebalance R");
      std::vector<const HashHistogram*> histograms;
      for (const HashHistogram& h : site_hist) histograms.push_back(&h);
      Status reb_status;
      if (rebalancer.Decide(machine, disks, histograms, d,
                            r_schema.tuple_bytes(), UINT64_MAX,
                            /*keep_static=*/false)) {
        // Round A: every site rewrites its R' — overridden bins ship a
        // view to each destination, the rest land in the replacement
        // file. An honest full read + rewrite of R', charged as such.
        // The views point into R' pages, which live until round B is
        // drained.
        std::vector<std::unique_ptr<storage::HeapFile>> keep(d);
        for (size_t di = 0; di < d; ++di) {
          keep[di] = std::make_unique<storage::HeapFile>(
              &machine.node(disks[di]), &r_schema,
              "smR.reb." + std::to_string(di));
        }
        reb_status = machine.TryRunOnNodes(disks, [&](sim::Node& n) -> Status {
          const size_t di = site_of(n);
          auto scanner = sites[di].r_temp->Scan();
          storage::TupleBlock block;
          Status st;
          while (scanner.NextBlock(&block)) {
            for (size_t i = 0; i < block.size(); ++i) {
              const storage::TupleView& v = block.view(i);
              n.ChargeCpu(n.cost().cpu_read_tuple_seconds,
                          sim::CostCategory::kReadTuple);
              const uint64_t hash = HashJoinAttribute(
                  r_schema.GetInt32(v.data,
                                    static_cast<size_t>(params.inner_field)),
                  params.hash_seed);
              n.ChargeCpu(n.cost().cpu_hash_route_seconds,
                          sim::CostCategory::kHashRoute);
              if (const std::vector<int>* dests =
                      rebalancer.MigrationDestinations(n, hash)) {
                for (int dest : *dests) {
                  exchange.Send(n.id(), disks[static_cast<size_t>(dest)],
                                RoutedTuple{v.data, v.size, hash, 0, dest},
                                v.size);
                }
              } else {
                const Status append = keep[di]->AppendRecord(v.data);
                if (st.ok()) st = append;
              }
            }
          }
          if (st.ok()) st = scanner.status();
          return st;
        });
        // Round B: destinations absorb the migrated tuples.
        {
          const Status round =
              machine.TryRunOnNodes(disks, [&](sim::Node& n) -> Status {
                return absorb(n, keep[site_of(n)].get(), /*is_inner=*/true);
              });
          if (reb_status.ok()) reb_status = round;
        }
        // The rebalanced R' replaces the static one (unconditionally,
        // so a faulted attempt's cleanup frees the right files).
        for (size_t di = 0; di < d; ++di) {
          sites[di].r_temp->Free();
          sites[di].r_temp = std::move(keep[di]);
        }
      }
      const Status end = machine.EndPhase();
      if (reb_status.ok()) reb_status = end;
      GAMMA_RETURN_IF_ERROR(reb_status);
    }

    // Phase 2: sort the local R' files in parallel.
    GAMMA_RETURN_IF_ERROR(sort_phase("sm sort R", /*is_inner=*/true));
    if (filter != nullptr) {
      // Ship the assembled filter packet to the producing sites before S
      // is read.
      machine.BeginPhase("sm filter dist");
      db::ChargeFilterDistribution(machine, static_cast<int>(d),
                                   static_cast<int>(d));
      GAMMA_RETURN_IF_ERROR(machine.EndPhase());
    }

    // Phase 3: redistribute S (filtered at the producers).
    GAMMA_RETURN_IF_ERROR(partition_phase("sm partition S", params.outer,
                                        params.outer_predicate,
                                        params.outer_field,
                                        /*is_inner=*/false));

    // Phase 4: sort the local S' files in parallel.
    GAMMA_RETURN_IF_ERROR(sort_phase("sm sort S", /*is_inner=*/false));

    for (const SiteState& site : sites) {
      stats->inner_sort_passes = std::max(stats->inner_sort_passes,
                                          site.r_sort->intermediate_passes());
      stats->outer_sort_passes = std::max(stats->outer_sort_passes,
                                          site.s_sort->intermediate_passes());
    }

    // Phase 5: parallel local merge join; results round-robin to the
    // store operators.
    machine.BeginPhase("sm merge join");
    db::ChargeOperatorPhase(machine, static_cast<int>(d), static_cast<int>(d),
                            0);
    Status merge_status = machine.TryRunOnNodes(
        disks, [&](sim::Node& n) -> Status {
          const size_t di = site_of(n);
          auto r_stream = sites[di].r_sort->OpenStream();
          auto s_stream = sites[di].s_sort->OpenStream();
          MergeJoinStreams(
              n, r_stream.get(), s_stream.get(), r_schema, params.inner_field,
              s_schema, params.outer_field,
              [&](const storage::Tuple& r, const storage::Tuple& s) {
                n.ChargeCpu(n.cost().cpu_build_result_seconds,
                            sim::CostCategory::kBuildResult);
                storage::Tuple result = storage::Tuple::Concat(r, s);
                ++n.counters().result_tuples;
                const size_t target = sites[di].store_rr_next++ % d;
                const uint32_t bytes = result.size();
                store_exchange.Send(n.id(), disks[target], std::move(result),
                                    bytes);
              });
          GAMMA_RETURN_IF_ERROR(r_stream->status());
          return s_stream->status();
        });
    {
      const Status round = machine.TryRunOnNodes(
          disks, [&](sim::Node& n) -> Status {
            const size_t di = site_of(n);
            Status st;
            store_exchange.DrainInboxBlocks(
                n.id(), [&](std::vector<storage::Tuple>& lane) {
                  for (storage::Tuple& t : lane) {
                    if (params.capture != nullptr) {
                      (*params.capture)[di].AddConcatRecord(
                          r_schema, params.inner_field, t.data(), t.size());
                    }
                    const Status append =
                        params.result->fragment(di).Append(t);
                    if (st.ok()) st = append;
                  }
                });
            const Status flush = params.result->fragment(di).FlushAppends();
            if (st.ok()) st = flush;
            return st;
          });
      if (merge_status.ok()) merge_status = round;
    }
    const Status end = machine.EndPhase();
    if (merge_status.ok()) merge_status = end;
    return merge_status;
  };

  const Status st = run();
  if (!st.ok()) {
    // Release the temporaries a faulted attempt abandoned (Free is
    // idempotent; the temps are normally freed right after sorting).
    for (SiteState& site : sites) {
      site.r_temp->Free();
      site.s_temp->Free();
    }
  }
  return st;
}

}  // namespace gammadb::join
