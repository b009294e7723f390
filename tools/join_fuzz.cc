// Differential join fuzzer (docs/testing.md): runs seeded random join
// plans through all four parallel algorithms and compares every result
// digest against the single-process nested-loop oracle, the metrics of
// every multi-threaded config against a 1-thread rerun, and the bytes
// spilled to overflow files against the bytes refilled from them. On a
// mismatch the failing config is greedily shrunk to a locally-minimal
// repro and printed as a ready-to-paste --repro line.
//
// Exit codes: 0 = every config matched the oracle and its 1-thread
// metrics and refilled every spilled byte; 1 = a mismatch was found
// (shrunk repro printed, and written to --repro-out if given); 2 =
// usage or infrastructure error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/strings.h"
#include "testing/fuzz.h"

namespace {

using gammadb::ParseInt64;
using gammadb::Result;
using gammadb::testing::FuzzConfig;
using gammadb::testing::FuzzRunResult;
using gammadb::testing::RandomConfig;
using gammadb::testing::RandomDeepOverflowConfig;
using gammadb::testing::RunFuzzConfig;
using gammadb::testing::ShrinkFailure;
using gammadb::testing::ShrinkResult;

int Usage() {
  std::fprintf(
      stderr,
      "usage: join_fuzz [--seed=N] [--count=N] [--repro=\"key=value ...\"]\n"
      "                 [--deep-overflow]\n"
      "                 [--inject-mismatch] [--no-shrink] [--repro-out=FILE]\n"
      "  --seed=N           base seed for the random batch (default 1)\n"
      "  --count=N          configs in the batch (default 100)\n"
      "  --repro=LINE       run one config from a repro line instead\n"
      "  --deep-overflow    bias the generator into starved-memory plans\n"
      "                     that force deep recursion and the nested-loop\n"
      "                     fallback (docs/overflow.md)\n"
      "  --inject-mismatch  arm the synthetic-mismatch test hook\n"
      "  --no-shrink        report the raw failing config without shrinking\n"
      "  --repro-out=FILE   also write the final repro line to FILE\n"
      "  --verbose          print every config before running it\n");
  return 2;
}

void PrintMismatch(const FuzzConfig& config, const FuzzRunResult& run) {
  std::printf("MISMATCH: %s\n", config.ToReproString().c_str());
  std::printf("  oracle: %s\n", run.oracle.ToString().c_str());
  std::printf("  engine: %s\n", run.engine.ToString().c_str());
  std::printf("  stored: %s\n", run.stored.ToString().c_str());
  const size_t at = run.MetricsDiffAt();
  if (at != std::string::npos) {
    // Both records share a prefix up to the first differing byte; show
    // each from a little before it.
    const size_t from = at < 40 ? 0 : at - 40;
    std::printf("  metrics differ from the 1-thread rerun at byte %zu:\n",
                at);
    std::printf("    threads=%d: ...%s\n", config.threads,
                run.metrics.substr(from, 120).c_str());
    std::printf("    threads=1: ...%s\n",
                run.serial_metrics.substr(from, 120).c_str());
  }
  if (run.spill_bytes != run.refill_bytes) {
    std::printf("  spill_bytes %lld != refill_bytes %lld\n",
                static_cast<long long>(run.spill_bytes),
                static_cast<long long>(run.refill_bytes));
  }
}

/// Shrinks (unless disabled), prints the final repro line, writes the
/// artifact, and returns exit code 1. `run` is the failing run.
int ReportFailure(const FuzzConfig& failing, const FuzzRunResult& run,
                  bool shrink, const std::string& repro_out) {
  FuzzConfig minimal = failing;
  if (shrink) {
    const ShrinkResult shrunk = ShrinkFailure(failing);
    if (shrunk.flaky()) {
      std::printf("flaky: failed %d of %d reruns\n", shrunk.failed_reruns,
                  shrunk.reruns);
    }
    if (shrunk.reproduced()) {
      minimal = shrunk.config;
      std::printf("shrunk in %d runs%s\n", shrunk.runs,
                  shrunk.flaky() ? " (a candidate fails if any of its "
                                   "reruns fails)"
                                 : "");
    } else {
      std::printf("not shrunk: reporting the original config");
      const size_t at = run.MetricsDiffAt();
      if (at != std::string::npos) {
        std::printf(", whose metrics first differed from the 1-thread "
                    "rerun at byte %zu",
                    at);
      }
      std::printf("\n");
    }
  }
  const std::string line = minimal.ToReproString();
  std::printf("repro:\n  join_fuzz --repro \"%s\"\n", line.c_str());
  if (!repro_out.empty()) {
    std::ofstream out(repro_out);
    out << line << "\n";
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  int64_t count = 100;
  std::string repro_line;
  std::string repro_out;
  bool inject = false;
  bool shrink = true;
  bool verbose = false;
  bool deep_overflow = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    int64_t n = 0;
    if (const char* v = value_of("--seed=")) {
      if (!ParseInt64(v, &n) || n < 0) return Usage();
      seed = static_cast<uint64_t>(n);
    } else if (const char* v = value_of("--count=")) {
      if (!ParseInt64(v, &n) || n < 1) return Usage();
      count = n;
    } else if (const char* v = value_of("--repro=")) {
      repro_line = v;
    } else if (const char* v = value_of("--repro-out=")) {
      repro_out = v;
    } else if (arg == "--inject-mismatch") {
      inject = true;
    } else if (arg == "--deep-overflow") {
      deep_overflow = true;
    } else if (arg == "--no-shrink") {
      shrink = false;
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }

  if (!repro_line.empty()) {
    Result<FuzzConfig> parsed = FuzzConfig::FromReproString(repro_line);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --repro line: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    FuzzConfig config = *parsed;
    if (inject) config.inject_mismatch = true;
    const Result<FuzzRunResult> run = RunFuzzConfig(config);
    if (!run.ok()) {
      std::fprintf(stderr, "run failed: %s\n", run.status().ToString().c_str());
      return 2;
    }
    if (run->ok()) {
      std::printf("OK: %s\n", config.ToReproString().c_str());
      std::printf("  digest: %s\n", run->oracle.ToString().c_str());
      return 0;
    }
    PrintMismatch(config, *run);
    return ReportFailure(config, *run, shrink, repro_out);
  }

  std::printf("join_fuzz: seed=%llu count=%lld%s\n",
              static_cast<unsigned long long>(seed),
              static_cast<long long>(count),
              deep_overflow ? " deep-overflow" : "");
  for (int64_t i = 0; i < count; ++i) {
    const uint64_t config_seed = seed + static_cast<uint64_t>(i);
    FuzzConfig config = deep_overflow
                            ? RandomDeepOverflowConfig(config_seed)
                            : RandomConfig(config_seed);
    if (inject) config.inject_mismatch = true;
    if (verbose) {
      std::printf("config %lld: %s\n", static_cast<long long>(i),
                  config.ToReproString().c_str());
      std::fflush(stdout);
    }
    const Result<FuzzRunResult> run = RunFuzzConfig(config);
    if (!run.ok()) {
      std::fprintf(stderr, "config %lld failed to run: %s\n  %s\n",
                   static_cast<long long>(i), run.status().ToString().c_str(),
                   config.ToReproString().c_str());
      return 2;
    }
    if (!run->ok()) {
      std::printf("config %lld (seed %llu):\n", static_cast<long long>(i),
                  static_cast<unsigned long long>(seed + i));
      PrintMismatch(config, *run);
      return ReportFailure(config, *run, shrink, repro_out);
    }
    if ((i + 1) % 50 == 0) {
      std::printf("  %lld/%lld ok\n", static_cast<long long>(i + 1),
                  static_cast<long long>(count));
    }
  }
  std::printf("all %lld configs matched the oracle and their 1-thread "
              "metrics, with spill == refill\n",
              static_cast<long long>(count));
  return 0;
}
