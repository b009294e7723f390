// perfbench: host wall-clock benchmark of join::ExecuteJoin on one
// workload (perfbench/README.md).
//
// One client, the benchmark itself, runs the workload's single query
// shape as a closed loop with one join in flight, alternating a machine
// with 1 executor thread and one with 4. Every join passes through the
// correctness gate (result count, simulated response time, digest of
// the stored result against the nested-loop oracle). Fresh set-ups are
// timed at intervals across the run; the peak resident set is taken
// over the timed joins alone. With --trace 1 the run also
// records host-time spans around every layer call, replays each layer
// on a machine of its own, and reports per-layer metrics instead.
//
//   perfbench --workload <name> --seconds <s> [--seed 42] [--trace 0|1]
//             [--out-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "join/driver.h"
#include "replay.h"
#include "sim/metrics_json.h"
#include "spans.h"
#include "stats.h"
#include "testing/oracle.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace gdb = gammadb;
using gdb::JsonValue;
using Clock = std::chrono::steady_clock;

constexpr int kThreadCounts[] = {1, 4};
constexpr double kInputTuples = kOuterTuples + kInnerTuples;
// Set-up samples per run, spread evenly over the timed loop.
constexpr int kSetupSamples = 16;
// Layer-replay rounds per traced run, spread over the timed loop.
constexpr int kReplayRounds = 8;

struct Options {
  WorkloadId workload = WorkloadId::kHpjaResident;
  uint64_t seed = 42;
  double seconds = 0;  // required
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <", error.c_str());
  const auto names = WorkloadNames();
  for (size_t i = 0; i < names.size(); ++i) {
    std::fprintf(stderr, "%s%s", i == 0 ? "" : "|", names[i].c_str());
  }
  std::fprintf(stderr,
               "> --seconds <s> [--seed <n>] [--trace 0|1] "
               "[--out-dir <dir>]\n");
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    int64_t number = 0;
    double real = 0;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &options.workload)) {
        Usage("unknown workload '" + value + "'");
      }
      have_workload = true;
    } else if (flag == "--seed") {
      if (!gdb::ParseInt64(value, &number) || number < 0) Usage("bad --seed");
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!gdb::ParseDouble(value, &real) || real <= 0) Usage("bad --seconds");
      options.seconds = real;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (options.seconds <= 0) Usage("--seconds is required");
  return options;
}

struct HostUsage {
  double cpu_s = 0;
  int64_t minflt = 0;
  int64_t ctx_switches = 0;
};

HostUsage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  u.minflt = ru.ru_minflt;
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return u;
}

/// Peak resident set over chosen windows of the run. Linux lets a
/// process reset its peak (VmHWM) to its current resident set by
/// writing 5 to /proc/self/clear_refs; getrusage's ru_maxrss follows
/// that reset, so the peak of the whole process is tracked here too.
class PeakRss {
 public:
  /// Starts a window: the peak so far is folded into the process peak
  /// and the kernel's peak is reset to the current resident set.
  void BeginWindow() {
    process_kb_ = std::max(process_kb_, ReadHwmKb());
    const int fd = open("/proc/self/clear_refs", O_WRONLY);
    GAMMA_CHECK(fd >= 0) << "cannot open /proc/self/clear_refs";
    GAMMA_CHECK(write(fd, "5", 1) == 1) << "cannot reset the peak RSS";
    close(fd);
  }
  void EndWindow() { window_kb_ = std::max(window_kb_, ReadHwmKb()); }

  double window_mb() const { return static_cast<double>(window_kb_) / 1024; }
  double process_mb() const {
    return static_cast<double>(std::max(process_kb_, ReadHwmKb())) / 1024;
  }

 private:
  static int64_t ReadHwmKb() {
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        int64_t kb = 0;
        status >> kb;
        return kb;
      }
      status.ignore(1 << 16, '\n');
    }
    GAMMA_CHECK(false) << "no VmHWM in /proc/self/status";
    return 0;
  }

  int64_t window_kb_ = 0;
  int64_t process_kb_ = 0;
};

/// The determinism contract: a join's JoinStats and RunMetrics counters
/// equal those of the 1-thread reference at any thread count.
bool SameCounters(const gdb::join::JoinOutput& a,
                  const gdb::join::JoinOutput& b) {
  const gdb::join::JoinStats& x = a.stats;
  const gdb::join::JoinStats& y = b.stats;
  return x.num_buckets == y.num_buckets &&
         x.overflow_levels == y.overflow_levels &&
         x.overflow_events == y.overflow_events &&
         x.avg_chain_length == y.avg_chain_length &&
         x.max_chain_length == y.max_chain_length &&
         x.inner_sort_passes == y.inner_sort_passes &&
         x.outer_sort_passes == y.outer_sort_passes &&
         x.result_tuples == y.result_tuples &&
         x.filter_drops == y.filter_drops &&
         x.rebalance_plans == y.rebalance_plans &&
         x.rebalance_moved_tuples == y.rebalance_moved_tuples &&
         x.rebalance_replica_tuples == y.rebalance_replica_tuples &&
         x.nested_loop_fallbacks == y.nested_loop_fallbacks &&
         x.nested_loop_passes == y.nested_loop_passes &&
         x.spill_bytes == y.spill_bytes && x.refill_bytes == y.refill_bytes &&
         gdb::sim::CountersToJson(a.metrics.counters) ==
             gdb::sim::CountersToJson(b.metrics.counters);
}

/// One executed join, as the gate and the report need it.
struct JoinRecord {
  int threads = 1;
  bool timed = false;
  bool traced = false;
  double seconds = 0;
  size_t result_tuples = 0;
  bool response_ok = false;  // simulated response time == the reference's
  bool counters_match = false;
  std::string validity;  // empty when the workload-validity counts hold
  gdb::join::ResultDigest digest;  // of the stored result
  bool passed = false;   // the correctness gate, set once the oracle ran
};

class Bench {
 public:
  explicit Bench(const Options& options)
      : options_(options), spans_(options.trace) {}

  int Run();

 private:
  struct GateSummary {
    size_t failed = 0;   // joins that failed the correctness gate
    size_t invalid = 0;  // joins that broke a workload-validity expectation
    std::string first_invalid;
    size_t joins[2] = {0, 0};  // per thread count (0: 1t, 1: 4t)
    size_t mismatched[2] = {0, 0};
  };

  /// Runs the timed closed loop for options_.seconds; returns its length.
  double TimedLoop(Setup& machine_1t, Setup& machine_4t, LayerReplay* replay);
  GateSummary ApplyGate(const gdb::join::ResultDigest& oracle);
  std::unique_ptr<Setup> TimedSetup(int threads);
  JoinRecord RunJoin(Setup& setup, int threads, bool timed);
  void ReplayRound(LayerReplay& replay);
  /// join_ms_p50_<n>t, join_ms_tail_<n>t and tuples_per_s_<n>t.
  JsonValue TimingMetrics(int threads) const;
  JsonValue EndToEndMetrics() const;
  JsonValue PerLayerMetrics() const;
  std::vector<double> TimedSeconds(int threads, std::optional<bool> traced) const;
  void PrintSelfTimes() const;

  Options options_;
  SpanRecorder spans_;
  std::vector<double> setup_s_;
  std::vector<double> generate_s_;
  std::vector<double> load_s_;
  std::vector<JoinRecord> joins_;
  std::optional<gdb::join::JoinOutput> reference_;
  int result_counter_ = 0;

  // Timed-loop host counters, per thread count (index 0: 1t, 1: 4t).
  double loop_wall_s_[2] = {0, 0};
  double loop_cpu_s_[2] = {0, 0};
  int64_t loop_minflt_[2] = {0, 0};
  int64_t loop_ctx_[2] = {0, 0};
  PeakRss peak_rss_;  // its windows are the timed joins

  // Layer-replay samples (traced run only).
  std::vector<double> scan_ns_;
  std::vector<double> sort_ms_;
  int sort_passes_ = 0;
  std::vector<double> exchange_ns_;
  std::vector<double> barrier_us_;
  std::vector<double> ht_build_ns_;
  std::vector<double> ht_probe_ns_;
};

std::unique_ptr<Setup> Bench::TimedSetup(int threads) {
  ScopedSpan span(&spans_, "bench.setup");
  const auto start = Clock::now();
  auto setup = Build(options_.workload, options_.seed, threads, &spans_);
  const double seconds = SecondsSince(start);
  GAMMA_CHECK(setup.ok()) << setup.status().ToString();
  setup_s_.push_back(seconds);
  generate_s_.push_back((*setup)->generate_s);
  load_s_.push_back((*setup)->load_s);
  return std::move(setup).value();
}

JoinRecord Bench::RunJoin(Setup& setup, int threads, bool timed) {
  ScopedSpan span(&spans_, "bench.join");
  const std::string result_name = "perfbench_" + std::to_string(result_counter_++);
  const gdb::join::JoinSpec spec = Spec(options_.workload, result_name);
  JoinRecord record;
  record.threads = threads;
  record.timed = timed;
  record.traced = spans_.enabled();

  if (timed) peak_rss_.BeginWindow();
  const HostUsage before = ReadUsage();
  const auto start = Clock::now();
  gdb::Result<gdb::join::JoinOutput> output = [&] {
    ScopedSpan execute(&spans_, threads == 1 ? "join.execute.1t"
                                             : "join.execute.4t");
    return gdb::join::ExecuteJoin(*setup.machine, setup.catalog, spec);
  }();
  record.seconds = SecondsSince(start);
  const HostUsage after = ReadUsage();
  if (timed) {
    peak_rss_.EndWindow();
    const int slot = threads == 1 ? 0 : 1;
    loop_wall_s_[slot] += record.seconds;
    loop_cpu_s_[slot] += after.cpu_s - before.cpu_s;
    loop_minflt_[slot] += after.minflt - before.minflt;
    loop_ctx_[slot] += after.ctx_switches - before.ctx_switches;
  }
  if (!output.ok()) {
    // Counted as a failed join by the gate; the run goes on.
    std::fprintf(stderr, "perfbench: join failed: %s\n",
                 output.status().ToString().c_str());
    return record;
  }

  // After the timer: digest the stored result before it is dropped.
  {
    ScopedSpan digest(&spans_, "testing.digest_stored_result");
    auto result = setup.catalog.Get(output->result_relation);
    GAMMA_CHECK(result.ok()) << result.status().ToString();
    auto inner = setup.catalog.Get(spec.inner_relation);
    GAMMA_CHECK(inner.ok());
    record.digest = gdb::testing::DigestStoredResult(
        **result, (*inner)->schema(), spec.inner_field);
    GAMMA_CHECK_OK(setup.catalog.Drop(output->result_relation));
  }
  record.result_tuples = output->stats.result_tuples;
  record.validity = CheckValidity(options_.workload, *output);
  // The first successful 1-thread join is the reference.
  if (!reference_.has_value() && threads == 1) reference_ = *output;
  if (reference_.has_value()) {
    record.response_ok =
        output->response_seconds() == reference_->response_seconds();
    record.counters_match = SameCounters(*output, *reference_);
  }
  return record;
}

void Bench::ReplayRound(LayerReplay& replay) {
  ScopedSpan span(&spans_, "bench.replay");
  scan_ns_.push_back(replay.ScanNsPerTuple());
  const SortSample sort = replay.Sort();
  sort_ms_.push_back(sort.ms);
  sort_passes_ = sort.merge_passes;
  exchange_ns_.push_back(replay.ExchangeNsPerTuple());
  barrier_us_.push_back(replay.BarrierMicros());
  const HashTableSample ht = replay.HashTable();
  ht_build_ns_.push_back(ht.build_ns_per_tuple);
  ht_probe_ns_.push_back(ht.probe_ns_per_tuple);
}

std::vector<double> Bench::TimedSeconds(int threads,
                                        std::optional<bool> traced) const {
  std::vector<double> seconds;
  for (const JoinRecord& j : joins_) {
    if (!j.timed || j.threads != threads) continue;
    if (traced.has_value() && j.traced != *traced) continue;
    seconds.push_back(j.seconds);
  }
  return seconds;
}

JsonValue Metric(double value, const char* unit) {
  JsonValue m = JsonValue::MakeObject();
  m.Set("value", value);
  m.Set("unit", unit);
  return m;
}

std::vector<double> Millis(std::vector<double> seconds) {
  for (double& s : seconds) s *= 1e3;
  return seconds;
}

JsonValue Bench::TimingMetrics(int threads) const {
  const std::string suffix = "_" + std::to_string(threads) + "t";
  const std::vector<double> seconds = TimedSeconds(threads, std::nullopt);
  const std::vector<double> ms = Millis(seconds);
  JsonValue metrics = JsonValue::MakeObject();
  metrics.Set("join_ms_p50" + suffix, Metric(Median(ms), "ms"));
  metrics.Set("join_ms_tail" + suffix, Metric(SelectTail(ms).value, "ms"));
  metrics.Set("tuples_per_s" + suffix,
              Metric(Throughput(kInputTuples, seconds), "1/s"));
  return metrics;
}

JsonValue Bench::EndToEndMetrics() const {
  JsonValue metrics = JsonValue::MakeObject();
  metrics.Set("setup_s", Metric(Median(setup_s_), "s"));
  const JsonValue timing = TimingMetrics(1);
  for (const char* key : {"join_ms_p50_1t", "tuples_per_s_1t"}) {
    metrics.Set(key, *timing.Find(key));
  }
  metrics.Set("peak_rss_mb", Metric(peak_rss_.window_mb(), "MB"));
  size_t ok = 0;
  for (const JoinRecord& j : joins_) ok += j.passed;
  metrics.Set("join_ok_frac",
              Metric(Ratio(static_cast<double>(ok),
                           static_cast<double>(joins_.size())),
                     "ratio"));
  return metrics;
}

JsonValue Bench::PerLayerMetrics() const {
  const gdb::join::JoinOutput& ref = *reference_;
  const gdb::sim::Counters& c = ref.metrics.counters;
  const auto count = [](int64_t v) { return static_cast<double>(v); };
  JsonValue m = JsonValue::MakeObject();
  // The tails and the 4-thread timings move with host load by more than
  // any allowed bound (perfbench/README.md), so they are reported here,
  // ungated.
  m.Set("join_ms_tail_1t", *TimingMetrics(1).Find("join_ms_tail_1t"));
  const JsonValue timing_4t = TimingMetrics(4);
  for (const auto& [key, value] : timing_4t.AsObject()) m.Set(key, value);
  m.Set("wisconsin.generate_ms", Metric(Median(Millis(generate_s_)), "ms"));
  m.Set("gamma.load_ms", Metric(Median(Millis(load_s_)), "ms"));
  m.Set("gamma.rebalance_plans",
        Metric(count(ref.stats.rebalance_plans), "count"));
  m.Set("gamma.rebalance_moved_tuples",
        Metric(count(ref.stats.rebalance_moved_tuples), "count"));
  m.Set("storage.scan_ns_per_tuple", Metric(Median(scan_ns_), "ns"));
  m.Set("storage.sort_ms", Metric(Median(sort_ms_), "ms"));
  m.Set("storage.sort_merge_passes", Metric(sort_passes_, "count"));
  m.Set("storage.pages_read_per_join", Metric(count(c.pages_read), "count"));
  m.Set("storage.pages_written_per_join",
        Metric(count(c.pages_written), "count"));
  m.Set("sim.exchange_ns_per_tuple", Metric(Median(exchange_ns_), "ns"));
  m.Set("sim.remote_tuple_frac",
        Metric(Ratio(count(c.tuples_sent_remote),
                     count(c.tuples_sent_local + c.tuples_sent_remote)),
               "ratio"));
  m.Set("sim.barrier_us", Metric(Median(barrier_us_), "us"));
  m.Set("sim.phases_per_join",
        Metric(static_cast<double>(ref.metrics.phases.size()), "count"));
  m.Set("sim.cpu_util_4t",
        Metric(Ratio(loop_cpu_s_[1], loop_wall_s_[1] * 4), "ratio"));
  size_t joins_4t = 0;
  size_t mismatched_4t = 0;
  for (const JoinRecord& j : joins_) {
    if (j.threads != 4) continue;
    ++joins_4t;
    mismatched_4t += !j.counters_match;
  }
  m.Set("sim.counter_mismatch_frac_4t",
        Metric(Ratio(static_cast<double>(mismatched_4t),
                     static_cast<double>(joins_4t)),
               "ratio"));
  std::vector<double> execute_ms;
  for (const Span& span : spans_.spans()) {
    if (span.name == "join.execute.1t") {
      execute_ms.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  m.Set("join.execute_ms", Metric(Median(execute_ms), "ms"));
  m.Set("join.ht_build_ns_per_tuple", Metric(Median(ht_build_ns_), "ns"));
  m.Set("join.ht_probe_ns_per_tuple", Metric(Median(ht_probe_ns_), "ns"));
  m.Set("join.ht_inserts_per_join", Metric(count(c.ht_inserts), "count"));
  m.Set("join.ht_probes_per_join", Metric(count(c.ht_probes), "count"));
  m.Set("join.overflow_events",
        Metric(count(ref.stats.overflow_events), "count"));
  m.Set("join.spill_mb", Metric(count(ref.stats.spill_bytes) / 1e6, "MB"));
  m.Set("join.refill_mb", Metric(count(ref.stats.refill_bytes) / 1e6, "MB"));
  const double timed_1t = static_cast<double>(TimedSeconds(1, std::nullopt).size());
  const double timed_4t = static_cast<double>(TimedSeconds(4, std::nullopt).size());
  m.Set("host.minflt_per_join",
        Metric(Ratio(count(loop_minflt_[0]), timed_1t), "count"));
  m.Set("host.ctx_switches_per_join_4t",
        Metric(Ratio(count(loop_ctx_[1]), timed_4t), "count"));
  m.Set("host.trace_overhead_frac",
        Metric(RelativeGap(Median(TimedSeconds(1, true)),
                           Median(TimedSeconds(1, false))),
               "ratio"));
  return m;
}

void Bench::PrintSelfTimes() const {
  std::printf("# host self time by span (traced run)\n");
  std::printf("# %-32s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const SelfTimeRow& row : spans_.SelfTimes()) {
    std::printf("# %-32s %8lld %12.3f %12.3f\n", row.name.c_str(),
                static_cast<long long>(row.count), row.total_ms, row.self_ms);
  }
}

double Bench::TimedLoop(Setup& machine_1t, Setup& machine_4t,
                        LayerReplay* replay) {
  // 1-thread and 4-thread joins alternate, so both see the same host
  // contention; set-ups (and, traced, layer replays) are spread evenly
  // over the same window.
  const auto loop_start = Clock::now();
  const double setup_every = options_.seconds / kSetupSamples;
  const double replay_every = options_.seconds / kReplayRounds;
  int setups_done = 0;
  int replays_done = 0;
  bool trace_next_1t = true;
  while (true) {
    const double elapsed = SecondsSince(loop_start);
    if (elapsed >= options_.seconds) break;
    if (elapsed >= setups_done * setup_every) {
      TimedSetup(setups_done % 2 == 0 ? 1 : 4);
      // Return the set-up's freed heap to the kernel, so that it neither
      // hides the joins' own growth nor counts as theirs in peak_rss_mb.
      malloc_trim(0);
      ++setups_done;
      continue;
    }
    if (replay != nullptr && elapsed >= replays_done * replay_every) {
      ReplayRound(*replay);
      ++replays_done;
      continue;
    }
    // In the traced run, every other 1-thread join runs untraced: the gap
    // between the two medians is the tracing overhead.
    if (options_.trace) spans_.set_enabled(trace_next_1t);
    joins_.push_back(RunJoin(machine_1t, 1, true));
    trace_next_1t = !trace_next_1t;
    spans_.set_enabled(options_.trace);
    joins_.push_back(RunJoin(machine_4t, 4, true));
  }
  if (replay != nullptr && replays_done == 0) ReplayRound(*replay);
  return SecondsSince(loop_start);
}

Bench::GateSummary Bench::ApplyGate(const gdb::join::ResultDigest& oracle) {
  GateSummary gate;
  for (JoinRecord& j : joins_) {
    // The correctness gate: result count, simulated response time, and
    // the stored result's digest against the oracle's.
    j.passed = j.result_tuples == oracle.tuples && j.response_ok &&
               j.digest == oracle;
    gate.failed += !j.passed;
    if (!j.validity.empty()) {
      ++gate.invalid;
      if (gate.first_invalid.empty()) gate.first_invalid = j.validity;
    }
    const int slot = j.threads == 1 ? 0 : 1;
    ++gate.joins[slot];
    gate.mismatched[slot] += !j.counters_match;
  }
  return gate;
}

int Bench::Run() {
  const std::string name = WorkloadName(options_.workload);
  std::error_code ec;
  std::filesystem::create_directories(options_.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 options_.out_dir.c_str(), ec.message().c_str());
    return 1;
  }

  // Machines for the timed joins; their builds are set-up samples too.
  const std::unique_ptr<Setup> machine_1t = TimedSetup(1);
  const std::unique_ptr<Setup> machine_4t = TimedSetup(4);
  std::unique_ptr<LayerReplay> replay;
  if (options_.trace) {
    replay = std::make_unique<LayerReplay>(
        options_.workload, TimedSetup(LayerReplay::kReplayThreads), &spans_);
  }

  // The first 1-thread join is the reference that fixes the expected
  // simulated response time and counters; it and the warm-up joins are
  // gated, not timed.
  joins_.push_back(RunJoin(*machine_1t, 1, false));
  joins_.push_back(RunJoin(*machine_1t, 1, false));
  joins_.push_back(RunJoin(*machine_4t, 4, false));
  joins_.push_back(RunJoin(*machine_4t, 4, false));
  malloc_trim(0);  // as after every set-up in the loop

  const double loop_s = TimedLoop(*machine_1t, *machine_4t, replay.get());
  if (!reference_.has_value()) {
    std::fprintf(stderr, "perfbench: no 1-thread join succeeded\n");
    return 1;
  }
  const std::vector<double> ms_1t = Millis(TimedSeconds(1, std::nullopt));
  const std::vector<double> ms_4t = Millis(TimedSeconds(4, std::nullopt));
  const Tail tail_1t = SelectTail(ms_1t);
  const Tail tail_4t = SelectTail(ms_4t);
  if (!tail_1t.valid || !tail_4t.valid) {
    std::fprintf(stderr,
                 "perfbench: %zu and %zu timed joins leave no tail with %zu "
                 "samples beyond it; run longer\n",
                 ms_1t.size(), ms_4t.size(), kTailBeyond);
    return 1;
  }

  // The oracle runs once, after the loop, so neither the timed joins nor
  // peak_rss_mb see it.
  const double process_peak_mb = peak_rss_.process_mb();
  gdb::join::ResultDigest oracle;
  {
    ScopedSpan span(&spans_, "testing.oracle");
    auto digest = gdb::testing::OracleJoinDigest(machine_1t->catalog,
                                                 Spec(options_.workload, ""));
    GAMMA_CHECK(digest.ok()) << digest.status().ToString();
    oracle = *digest;
  }
  const GateSummary gate = ApplyGate(oracle);

  // Run record: printed, and written beside the trace.
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "build=%s nproc=%ld threads=1,4\n",
              name.c_str(), static_cast<unsigned long long>(options_.seed),
              options_.seconds, options_.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
              nproc);
  std::printf("# timed joins: %zu at 1t (tail = p%.2f), %zu at 4t (tail = "
              "p%.2f); set-up samples: %zu\n",
              ms_1t.size(), tail_1t.percentile, ms_4t.size(),
              tail_4t.percentile, setup_s_.size());
  std::printf("# gate: %zu of %zu joins failed; oracle %s; simulated "
              "response %.6f s\n",
              gate.failed, joins_.size(), oracle.ToString().c_str(),
              reference_->response_seconds());
  std::printf("# counters differing from the 1-thread reference: %zu of %zu "
              "at 1t, %zu of %zu at 4t\n",
              gate.mismatched[0], gate.joins[0], gate.mismatched[1],
              gate.joins[1]);
  std::printf("# peak RSS: %.1f MB over the timed joins, %.1f MB over the "
              "process before the oracle\n",
              peak_rss_.window_mb(), process_peak_mb);
  std::printf("# workload validity: %s\n",
              gate.invalid == 0 ? "ok" : gate.first_invalid.c_str());

  JsonValue metrics = options_.trace ? PerLayerMetrics() : EndToEndMetrics();
  if (options_.trace) PrintSelfTimes();
  // A plain run also prints the ungated timings.
  JsonValue printed = metrics;
  if (!options_.trace) {
    for (int threads : kThreadCounts) {
      const JsonValue timing = TimingMetrics(threads);
      for (const auto& [key, value] : timing.AsObject()) printed.Set(key, value);
    }
  }
  for (const auto& [key, value] : printed.AsObject()) {
    std::printf("# %-32s %16.6f %s\n", key.c_str(),
                value.Find("value")->AsDouble(),
                value.Find("unit")->AsString().c_str());
  }

  JsonValue record = JsonValue::MakeObject();
  record.Set("workload", name);
  record.Set("seed", static_cast<int64_t>(options_.seed));
  record.Set("seconds", options_.seconds);
  record.Set("trace", options_.trace);
  record.Set("build_type", PERFBENCH_BUILD_TYPE);
  record.Set("nproc", static_cast<int64_t>(nproc));
  JsonValue threads = JsonValue::MakeArray();
  for (int t : kThreadCounts) threads.Append(t);
  record.Set("thread_counts", std::move(threads));
  record.Set("loop_seconds", loop_s);
  record.Set("timed_joins_1t", ms_1t.size());
  record.Set("timed_joins_4t", ms_4t.size());
  record.Set("tail_percentile_1t", tail_1t.percentile);
  record.Set("tail_percentile_4t", tail_4t.percentile);
  record.Set("setup_samples", setup_s_.size());
  record.Set("joins_attempted", joins_.size());
  record.Set("joins_failed", gate.failed);
  record.Set("oracle_digest", oracle.ToString());
  record.Set("reference_response_seconds", reference_->response_seconds());
  record.Set("counter_mismatches_1t", gate.mismatched[0]);
  record.Set("counter_mismatches_4t", gate.mismatched[1]);
  record.Set("joins_4t", gate.joins[1]);
  record.Set("validity", gate.invalid == 0 ? "ok" : gate.first_invalid);
  record.Set("peak_rss_mb_timed_joins", peak_rss_.window_mb());
  record.Set("peak_rss_mb_process", process_peak_mb);
  const auto samples = [](const std::vector<double>& values) {
    JsonValue array = JsonValue::MakeArray();
    for (double v : values) array.Append(v);
    return array;
  };
  record.Set("join_ms_1t", samples(ms_1t));
  record.Set("join_ms_4t", samples(ms_4t));
  record.Set("setup_s", samples(setup_s_));
  record.Set("metrics", printed);
  const std::string stem = options_.out_dir + "/" + name + "-seed" +
                           std::to_string(options_.seed) +
                           (options_.trace ? "-trace" : "");
  if (std::FILE* f = std::fopen((stem + ".record.json").c_str(), "w")) {
    const std::string text = record.Dump(2) + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  if (options_.trace &&
      !spans_.WriteChromeTrace(stem + ".trace.json", "perfbench host " + name)) {
    std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                 stem.c_str());
  }

  JsonValue result = JsonValue::MakeObject();
  result.Set("correct", gate.failed == 0 && gate.invalid == 0);
  result.Set("attempted", joins_.size());
  result.Set("failed", gate.failed);
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  // A broken workload-validity expectation means the workload no longer
  // exercises the layers it was chosen for: fail the run loudly.
  return gate.invalid == 0 ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::ParseOptions(argc, argv);
  perfbench::Bench bench(options);
  return bench.Run();
}
