#include "testing/fuzz.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/strings.h"
#include "gamma/catalog.h"
#include "gamma/loader.h"
#include "join/driver.h"
#include "sim/fault.h"
#include "sim/machine.h"
#include "sim/metrics_json.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "testing/oracle.h"

namespace gammadb::testing {

namespace {

constexpr int kNumDiskNodes = 4;
constexpr int kNumRemoteNodes = 4;

storage::Schema InnerSchema() {
  return storage::Schema({storage::Field::Int32("key"),
                          storage::Field::Int32("val"),
                          storage::Field::Char("tag", 12)});
}

storage::Schema OuterSchema() {
  return storage::Schema({storage::Field::Int32("key"),
                          storage::Field::Int32("val"),
                          storage::Field::Char("pad", 20)});
}

/// Keys over [0, domain): Zipf(theta) when theta > 0 (key 0 hottest),
/// uniform otherwise. Same construction as the skew tests use, local so
/// src/testing stays independent of tests/.
std::vector<int32_t> DrawKeys(size_t n, uint32_t domain, double theta,
                              Rng& rng) {
  std::vector<int32_t> keys(n);
  if (theta <= 0 || domain <= 1) {
    for (auto& k : keys) k = static_cast<int32_t>(rng.Uniform(domain));
    return keys;
  }
  std::vector<double> cdf(domain);
  double total = 0;
  for (uint32_t r = 0; r < domain; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r) + 1.0, theta);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  for (auto& k : keys) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.NextDouble());
    k = static_cast<int32_t>(std::min<size_t>(
        static_cast<size_t>(it - cdf.begin()), domain - 1));
  }
  return keys;
}

std::vector<storage::Tuple> MakeTuples(const storage::Schema& schema,
                                       size_t n, uint32_t domain, double theta,
                                       Rng& rng) {
  const std::vector<int32_t> keys = DrawKeys(n, domain, theta, rng);
  std::vector<storage::Tuple> tuples;
  tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    storage::Tuple t(schema.tuple_bytes());
    t.SetInt32(schema, 0, keys[i]);
    t.SetInt32(schema, 1, static_cast<int32_t>(rng.Uniform(100)));
    char text[5];
    for (char& c : text) c = static_cast<char>('a' + rng.Uniform(26));
    t.SetChars(schema, 2, std::string_view(text, sizeof(text)));
    tuples.push_back(std::move(t));
  }
  return tuples;
}

Status LoadFuzzRelation(db::StoredRelation* rel,
                        const std::vector<storage::Tuple>& tuples, bool hpja) {
  db::LoadOptions options;
  options.strategy =
      hpja ? db::PartitionStrategy::kHashed : db::PartitionStrategy::kRoundRobin;
  options.partition_field = 0;
  options.hash_seed = kDefaultHashSeed;
  return db::LoadRelation(rel, tuples, options);
}

join::JoinSpec BuildSpec(const FuzzConfig& config, const sim::Machine& machine,
                         uint64_t inner_bytes, uint32_t inner_tuple_bytes) {
  join::JoinSpec spec;
  // Move-assigned temporaries: assigning the literals directly trips
  // GCC 12's -Wrestrict false positive inside std::string at -O3.
  spec.inner_relation = std::string("R");
  spec.outer_relation = std::string("S");
  spec.inner_field = 0;
  spec.outer_field = 0;
  spec.algorithm = config.algorithm;
  if (config.remote && config.algorithm != join::Algorithm::kSortMerge) {
    spec.join_nodes = machine.DisklessNodeIds();
  }
  const uint64_t join_procs =
      spec.join_nodes.empty() ? static_cast<uint64_t>(kNumDiskNodes)
                              : spec.join_nodes.size();
  // Absolute budget (the ratio path divides by |R|, which may be 0
  // here), floored so every generated plan is valid: at least one tuple
  // per join process (driver check). The overflow path is total
  // (docs/overflow.md), so budgets below the biggest duplicate group
  // are fair game — they drive deep recursion into the nested-loop
  // fallback and still terminate.
  spec.memory_bytes = std::max<uint64_t>(
      join_procs * inner_tuple_bytes,
      inner_bytes * static_cast<uint64_t>(config.memory_pct) / 100);
  if (config.zero_slack) spec.memory_slack = 0.0;
  spec.max_overflow_levels = config.max_levels;
  spec.use_bit_filters = config.bit_filters;
  spec.use_forming_bit_filters = config.bit_filters && config.forming_bit_filters;
  spec.adaptive_repartition = config.adaptive_repartition;
  if (config.sel_pct < 100) {
    // The `val` field is uniform over [0, 100), so `val < sel_pct`
    // keeps ~sel_pct% of either relation.
    const db::Predicate keep{1, db::Predicate::Op::kLt,
                             static_cast<int32_t>(config.sel_pct)};
    spec.inner_predicate = {keep};
    spec.outer_predicate = {keep};
  }
  spec.result_name = "fuzz_result";
  spec.capture_results = true;
  return spec;
}

bool InjectedMismatch(const FuzzConfig& config) {
  return config.inject_mismatch && config.bit_filters &&
         config.inner_tuples >= 2 && config.outer_tuples >= 32;
}

template <typename T>
T PickFrom(Rng& rng, std::initializer_list<T> values) {
  const auto* begin = values.begin();
  return begin[rng.Uniform(values.size())];
}

/// The engine-side outcome of one execution.
struct Execution {
  join::ResultDigest engine;
  join::ResultDigest stored;
  std::string metrics;
  int64_t spill_bytes = 0;
  int64_t refill_bytes = 0;
};

/// Executes `config` at `threads` executor threads on a fresh machine +
/// catalog. Computes the oracle digest into `oracle` unless it is null.
Result<Execution> Execute(const FuzzConfig& config, int threads,
                          join::ResultDigest* oracle) {
  sim::MachineConfig mc;
  mc.num_disk_nodes = kNumDiskNodes;
  mc.num_diskless_nodes = config.remote ? kNumRemoteNodes : 0;
  mc.num_threads = threads;
  sim::Machine machine(mc);
  db::Catalog catalog;

  const storage::Schema r_schema = InnerSchema();
  const storage::Schema s_schema = OuterSchema();
  Rng rng(config.data_seed);
  const std::vector<storage::Tuple> r_tuples = MakeTuples(
      r_schema, config.inner_tuples, config.key_domain, config.zipf_theta, rng);
  const std::vector<storage::Tuple> s_tuples = MakeTuples(
      s_schema, config.outer_tuples, config.key_domain, config.zipf_theta, rng);

  GAMMA_ASSIGN_OR_RETURN(db::StoredRelation * inner,
                         catalog.Create(machine, "R", r_schema));
  GAMMA_ASSIGN_OR_RETURN(db::StoredRelation * outer,
                         catalog.Create(machine, "S", s_schema));
  GAMMA_RETURN_IF_ERROR(LoadFuzzRelation(inner, r_tuples, config.hpja));
  GAMMA_RETURN_IF_ERROR(LoadFuzzRelation(outer, s_tuples, config.hpja));

  const join::JoinSpec spec =
      BuildSpec(config, machine, inner->total_bytes(), r_schema.tuple_bytes());

  if (oracle != nullptr) {
    GAMMA_ASSIGN_OR_RETURN(*oracle, OracleJoinDigest(catalog, spec));
  }

  if (config.fault_seed != 0) {
    sim::FaultPlan::RandomOptions fo;
    fo.num_nodes = machine.num_nodes();
    machine.ArmFaults(sim::FaultPlan::Random(config.fault_seed, fo));
  }

  GAMMA_ASSIGN_OR_RETURN(join::JoinOutput out,
                         join::ExecuteJoin(machine, catalog, spec));
  if (!out.result_digest.has_value()) {
    return Status::Internal("capture_results produced no digest");
  }
  Execution run;
  run.engine = *out.result_digest;
  GAMMA_ASSIGN_OR_RETURN(db::StoredRelation * stored,
                         catalog.Get(out.result_relation));
  run.stored = DigestStoredResult(*stored, r_schema, spec.inner_field);
  run.metrics = MetricsRecord(out);
  run.spill_bytes = out.stats.spill_bytes;
  run.refill_bytes = out.stats.refill_bytes;
  return run;
}

}  // namespace

std::string MetricsRecord(const join::JoinOutput& out) {
  const join::JoinStats& s = out.stats;
  return sim::RunMetricsToJson(out.metrics).Dump() + "\n" +
         "buckets=" + std::to_string(s.num_buckets) +
         " levels=" + std::to_string(s.overflow_levels) +
         " events=" + std::to_string(s.overflow_events) +
         " chain=" + std::to_string(s.avg_chain_length) + "/" +
         std::to_string(s.max_chain_length) +
         " sort_passes=" + std::to_string(s.inner_sort_passes) + "/" +
         std::to_string(s.outer_sort_passes) +
         " results=" + std::to_string(s.result_tuples) +
         " drops=" + std::to_string(s.filter_drops) +
         " rebalance=" + std::to_string(s.rebalance_plans) + "/" +
         std::to_string(s.rebalance_moved_tuples) + "/" +
         std::to_string(s.rebalance_replica_tuples) +
         " nl=" + std::to_string(s.nested_loop_fallbacks) + "/" +
         std::to_string(s.nested_loop_passes) +
         " spill=" + std::to_string(s.spill_bytes) +
         " refill=" + std::to_string(s.refill_bytes);
}

Result<FuzzRunResult> RunFuzzConfig(const FuzzConfig& config) {
  FuzzRunResult result;
  GAMMA_ASSIGN_OR_RETURN(Execution run,
                         Execute(config, config.threads, &result.oracle));
  result.engine = run.engine;
  result.stored = run.stored;
  result.metrics = std::move(run.metrics);
  result.spill_bytes = run.spill_bytes;
  result.refill_bytes = run.refill_bytes;
  if (config.threads == 1) {
    result.serial_metrics = result.metrics;
  } else {
    GAMMA_ASSIGN_OR_RETURN(Execution serial, Execute(config, 1, nullptr));
    result.serial_metrics = std::move(serial.metrics);
  }
  if (InjectedMismatch(config)) result.engine.xor_mix ^= 1;
  return result;
}

FuzzConfig RandomConfig(uint64_t seed) {
  Rng rng(seed);
  FuzzConfig c;
  c.data_seed = 1 + rng.Uniform(1u << 30);
  c.algorithm = static_cast<join::Algorithm>(rng.Uniform(4));
  c.threads = PickFrom(rng, {1, 4, 8});
  c.inner_tuples = PickFrom<uint32_t>(rng, {0, 1, 2, 3, 5, 8, 16, 40, 100,
                                            250, 600});
  c.outer_tuples = PickFrom<uint32_t>(rng, {0, 1, 2, 4, 8, 20, 60, 150, 400,
                                            1000, 1500});
  c.key_domain = PickFrom<uint32_t>(rng, {1, 2, 3, 5, 10, 25, 100, 500});
  c.zipf_theta = PickFrom(rng, {0.0, 0.0, 0.5, 1.0, 1.5});
  c.sel_pct = PickFrom(rng, {100, 100, 80, 50, 20, 5});
  c.memory_pct = PickFrom(rng, {100, 100, 60, 35, 15, 5});
  c.zero_slack = rng.Uniform(4) == 0;
  c.hpja = rng.Uniform(2) == 0;
  c.remote = rng.Uniform(4) == 0;
  c.bit_filters = rng.Uniform(5) < 2;
  c.forming_bit_filters = c.bit_filters && rng.Uniform(2) == 0;
  c.adaptive_repartition = rng.Uniform(10) < 3;
  c.fault_seed = rng.Uniform(10) < 3 ? 1 + rng.Uniform(1000000) : 0;
  c.max_levels = PickFrom(rng, {16, 16, 16, 16, 8, 4, 2, 1, 0});
  return c;
}

FuzzConfig RandomDeepOverflowConfig(uint64_t seed) {
  // Distinct stream from RandomConfig(seed) so the nightly campaigns
  // don't replay each other's plans.
  Rng rng(Mix64(seed ^ 0xDEE9'0E4F'70u));
  FuzzConfig c;
  c.data_seed = 1 + rng.Uniform(1u << 30);
  // Sort-merge never overflows a hash table; keep the three hash joins.
  c.algorithm = static_cast<join::Algorithm>(1 + rng.Uniform(3));
  c.threads = PickFrom(rng, {1, 4, 8});
  // Builds big enough that a starved budget recurses several levels.
  c.inner_tuples = PickFrom<uint32_t>(rng, {16, 40, 100, 250, 600, 1000});
  c.outer_tuples = PickFrom<uint32_t>(rng, {0, 1, 8, 60, 150, 400, 1000});
  // Small, duplicate-heavy domains: the unsplittable-key regime.
  c.key_domain = PickFrom<uint32_t>(rng, {1, 2, 3, 5, 10, 25, 100});
  c.zipf_theta = PickFrom(rng, {0.0, 0.5, 1.0, 1.0, 1.5});
  c.sel_pct = PickFrom(rng, {100, 100, 80, 50});
  // Starved memory is the whole point of the campaign.
  c.memory_pct = PickFrom(rng, {5, 5, 5, 10, 15, 35});
  c.zero_slack = rng.Uniform(2) == 0;
  c.hpja = rng.Uniform(2) == 0;
  c.remote = rng.Uniform(4) == 0;
  c.bit_filters = rng.Uniform(5) < 2;
  c.forming_bit_filters = c.bit_filters && rng.Uniform(2) == 0;
  c.adaptive_repartition = rng.Uniform(10) < 3;
  c.fault_seed = rng.Uniform(10) < 2 ? 1 + rng.Uniform(1000000) : 0;
  // Bias toward shallow caps so the nested-loop fallback fires often.
  c.max_levels = PickFrom(rng, {0, 1, 2, 2, 3, 4, 8, 16});
  return c;
}

std::string FuzzConfig::ToReproString() const {
  return StrFormat(
      "algo=%s threads=%d inner=%u outer=%u domain=%u theta=%.3f sel=%d "
      "mem=%d slack0=%d hpja=%d remote=%d bf=%d fbf=%d adapt=%d faults=%llu "
      "maxlvl=%d data=%llu inject=%d",
      join::AlgorithmName(algorithm), threads, inner_tuples, outer_tuples,
      key_domain, zipf_theta, sel_pct, memory_pct, static_cast<int>(zero_slack),
      static_cast<int>(hpja), static_cast<int>(remote),
      static_cast<int>(bit_filters), static_cast<int>(forming_bit_filters),
      static_cast<int>(adaptive_repartition),
      static_cast<unsigned long long>(fault_seed), max_levels,
      static_cast<unsigned long long>(data_seed),
      static_cast<int>(inject_mismatch));
}

Result<FuzzConfig> FuzzConfig::FromReproString(const std::string& line) {
  FuzzConfig config;
  std::istringstream stream(line);
  std::string token;
  bool any_token = false;
  while (stream >> token) {
    any_token = true;
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("repro token without '=': " + token);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    int64_t n = 0;
    double d = 0;
    const bool is_int = ParseInt64(value, &n);
    if (key == "algo") {
      bool found = false;
      for (int a = 0; a < 4; ++a) {
        if (value == join::AlgorithmName(static_cast<join::Algorithm>(a))) {
          config.algorithm = static_cast<join::Algorithm>(a);
          found = true;
        }
      }
      if (!found) {
        return Status::InvalidArgument("unknown algorithm: " + value);
      }
      continue;
    }
    if (key == "theta") {
      if (!ParseDouble(value, &d) || d < 0) {
        return Status::InvalidArgument("bad theta: " + value);
      }
      config.zipf_theta = d;
      continue;
    }
    if (!is_int || n < 0) {
      return Status::InvalidArgument("bad repro value: " + token);
    }
    if (key == "threads") {
      config.threads = static_cast<int>(n);
    } else if (key == "inner") {
      config.inner_tuples = static_cast<uint32_t>(n);
    } else if (key == "outer") {
      config.outer_tuples = static_cast<uint32_t>(n);
    } else if (key == "domain") {
      config.key_domain = static_cast<uint32_t>(n);
    } else if (key == "sel") {
      config.sel_pct = static_cast<int>(n);
    } else if (key == "mem") {
      config.memory_pct = static_cast<int>(n);
    } else if (key == "slack0") {
      config.zero_slack = n != 0;
    } else if (key == "hpja") {
      config.hpja = n != 0;
    } else if (key == "remote") {
      config.remote = n != 0;
    } else if (key == "bf") {
      config.bit_filters = n != 0;
    } else if (key == "fbf") {
      config.forming_bit_filters = n != 0;
    } else if (key == "adapt") {
      config.adaptive_repartition = n != 0;
    } else if (key == "faults") {
      config.fault_seed = static_cast<uint64_t>(n);
    } else if (key == "maxlvl") {
      config.max_levels = static_cast<int>(n);
    } else if (key == "data") {
      config.data_seed = static_cast<uint64_t>(n);
    } else if (key == "inject") {
      config.inject_mismatch = n != 0;
    } else {
      return Status::InvalidArgument("unknown repro key: " + key);
    }
  }
  if (!any_token) {
    return Status::InvalidArgument("empty repro line");
  }
  if (config.threads < 1 || config.key_domain < 1) {
    return Status::InvalidArgument("repro config out of range");
  }
  return config;
}

namespace {

/// One run of `config`: does it fail? Infrastructure errors count as
/// not-failing so shrinking never walks into an invalid region.
bool FailsOnce(const FuzzRunner& run, const FuzzConfig& config, int* runs) {
  ++*runs;
  const Result<FuzzRunResult> result = run(config);
  return result.ok() && !result->ok();
}

/// Ladder of sizes/domains: dense at the bottom so exact thresholds
/// (one tuple, one bucket's worth, one page's worth) land precisely.
const uint32_t kSizeLadder[] = {0,  1,  2,  3,   4,   6,   8,   12,  16,  24,
                                32, 48, 64, 96,  128, 192, 256, 384, 512, 768,
                                1024, 1536};

/// Tries each candidate in order (simplest first), accepting the first
/// that still fails. Returns true on accept.
template <typename T, typename Apply, typename StillFails>
bool TryCandidates(FuzzConfig* best, const std::vector<T>& candidates,
                   const Apply& apply, const StillFails& still_fails) {
  for (const T& candidate : candidates) {
    FuzzConfig trial = *best;
    apply(&trial, candidate);
    if (still_fails(trial)) {
      *best = trial;
      return true;
    }
  }
  return false;
}

/// Ladder entries strictly below `current` (numeric axes, where smaller
/// is simpler).
std::vector<uint32_t> Below(const uint32_t* begin, const uint32_t* end,
                            uint32_t current) {
  std::vector<uint32_t> out;
  for (const uint32_t* v = begin; v != end && *v < current; ++v) {
    out.push_back(*v);
  }
  return out;
}

/// Ladder entries before `current`'s position (preference-ordered axes;
/// a current value not on the ladder yields the whole ladder, which the
/// fixpoint loop then pins to an on-ladder value).
template <typename T>
std::vector<T> Before(const std::vector<T>& ladder, T current) {
  std::vector<T> out;
  for (const T& v : ladder) {
    if (v == current) break;
    out.push_back(v);
  }
  return out;
}

}  // namespace

size_t FuzzRunResult::MetricsDiffAt() const {
  if (metrics == serial_metrics) return std::string::npos;
  const auto diff = std::mismatch(metrics.begin(), metrics.end(),
                                  serial_metrics.begin(), serial_metrics.end());
  return static_cast<size_t>(diff.first - metrics.begin());
}

ShrinkResult ShrinkFailure(const FuzzConfig& failing, const FuzzRunner& run) {
  ShrinkResult result;
  result.config = failing;
  // A failure that shows again on its first rerun is treated as
  // deterministic; one that does not gets kFlakyReruns reruns in all.
  result.reruns = 1;
  result.failed_reruns = FailsOnce(run, failing, &result.runs) ? 1 : 0;
  if (result.failed_reruns == 0) {
    for (; result.reruns < kFlakyReruns; ++result.reruns) {
      if (FailsOnce(run, failing, &result.runs)) ++result.failed_reruns;
    }
  }
  if (!result.reproduced()) return result;
  // The shrink predicate: fails in any of as many runs as the input got.
  const int attempts = result.reruns;
  const auto still_fails = [&](const FuzzConfig& config) {
    for (int i = 0; i < attempts; ++i) {
      if (FailsOnce(run, config, &result.runs)) return true;
    }
    return false;
  };

  const uint32_t* sizes_begin = std::begin(kSizeLadder);
  const uint32_t* sizes_end = std::end(kSizeLadder);
  const std::vector<double> thetas = {0.0, 0.5, 1.0, 1.5};
  const std::vector<int> pcts = {100, 60, 35, 15, 5};
  const std::vector<int> sels = {100, 80, 50, 20, 5};
  const std::vector<int> threads = {1, 4, 8};
  const std::vector<int> algos = {0, 1, 2, 3};
  // Preference order, not numeric: a generous depth budget (16, no
  // fallback pressure) is the "simplest" end; 0 (immediate fallback) is
  // the most aggressive.
  const std::vector<int> levels = {16, 8, 4, 2, 1, 0};

  FuzzConfig* best = &result.config;
  const auto try_off = [&](bool current, auto&& apply) {
    if (!current) return false;
    return TryCandidates<int>(best, {0}, apply, still_fails);
  };
  bool progress = true;
  while (progress) {
    progress = false;
    progress |= TryCandidates<uint32_t>(
        best, Below(sizes_begin, sizes_end, best->inner_tuples),
        [](FuzzConfig* c, uint32_t v) { c->inner_tuples = v; }, still_fails);
    progress |= TryCandidates<uint32_t>(
        best, Below(sizes_begin + 1, sizes_end, best->key_domain),
        [](FuzzConfig* c, uint32_t v) { c->key_domain = v; }, still_fails);
    progress |= TryCandidates<uint32_t>(
        best, Below(sizes_begin, sizes_end, best->outer_tuples),
        [](FuzzConfig* c, uint32_t v) { c->outer_tuples = v; }, still_fails);
    progress |= TryCandidates<double>(
        best, Before(thetas, best->zipf_theta),
        [](FuzzConfig* c, double v) { c->zipf_theta = v; }, still_fails);
    progress |= TryCandidates<int>(
        best, Before(sels, best->sel_pct),
        [](FuzzConfig* c, int v) { c->sel_pct = v; }, still_fails);
    progress |= TryCandidates<int>(
        best, Before(pcts, best->memory_pct),
        [](FuzzConfig* c, int v) { c->memory_pct = v; }, still_fails);
    progress |= TryCandidates<int>(
        best, Before(threads, best->threads),
        [](FuzzConfig* c, int v) { c->threads = v; }, still_fails);
    progress |= TryCandidates<int>(
        best, Before(algos, static_cast<int>(best->algorithm)),
        [](FuzzConfig* c, int v) {
          c->algorithm = static_cast<join::Algorithm>(v);
        },
        still_fails);
    progress |= TryCandidates<int>(
        best, Before(levels, best->max_levels),
        [](FuzzConfig* c, int v) { c->max_levels = v; }, still_fails);
    progress |= try_off(best->zero_slack,
                        [](FuzzConfig* c, int) { c->zero_slack = false; });
    progress |=
        try_off(best->hpja, [](FuzzConfig* c, int) { c->hpja = false; });
    progress |=
        try_off(best->remote, [](FuzzConfig* c, int) { c->remote = false; });
    progress |= try_off(best->forming_bit_filters, [](FuzzConfig* c, int) {
      c->forming_bit_filters = false;
    });
    progress |= try_off(best->bit_filters,
                        [](FuzzConfig* c, int) { c->bit_filters = false; });
    progress |= try_off(best->adaptive_repartition, [](FuzzConfig* c, int) {
      c->adaptive_repartition = false;
    });
    progress |= try_off(best->fault_seed != 0,
                        [](FuzzConfig* c, int) { c->fault_seed = 0; });
  }
  return result;
}

}  // namespace gammadb::testing
