// ccovid_perfbench — the repository benchmark binary.
//
//   ccovid_perfbench --workload scan_128|followup_shard_64|train_ddnet_w2
//                    --seed N --seconds S --trace 0|1 [--run-dir DIR]
//
// Prints a host record line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, every per-layer metric with --trace 1 (which also
// writes its end-to-end figures to standard error). perfbench/run.py
// builds this binary and is the command users run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"throughput_per_s", "1/s"},
    {"latency_p50_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// A layer a workload does not run reports 0 there (perfbench/README.md
// lists which workload measures each one).
constexpr MetricDef kPerLayer[] = {
    {"pipeline.prepare_s", "s"},
    {"pipeline.enhance_s", "s"},
    {"pipeline.segment_s", "s"},
    {"pipeline.classify_s", "s"},
    {"pipeline.enhance_scaling", "ratio"},
    {"pipeline.segment_scaling", "ratio"},
    {"pipeline.classify_scaling", "ratio"},
    {"core.fresh_allocs_per_scan", "count"},
    {"graph.first_scan_s", "s"},
    {"serve.queue_wait_p50_s", "s"},
    {"serve.execute_p50_s", "s"},
    {"serve.batch_size_mean", "count"},
    {"monitor.hit_rate", "ratio"},
    {"monitor.hit_latency_p50_s", "s"},
    {"shard.overhead_p50_s", "s"},
    {"net.bytes_per_scan", "B"},
    {"shard.spawn_s", "s"},
    {"nn.forward_s", "s"},
    {"dist.backward_sync_s", "s"},
    {"dist.allreduce_bytes_per_step", "B"},
    {"data.lowdose_sim_s", "s"},
};

int usage() {
  std::fprintf(stderr,
               "usage: ccovid_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--run-dir DIR]\n"
               "       workloads: scan_128 followup_shard_64 "
               "train_ddnet_w2\n");
  return 2;
}

template <std::size_t N>
std::string metrics_json(const perfbench::Result& r,
                         const MetricDef (&defs)[N]) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = r.values.find(defs[i].name);
    const double v = it == r.values.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", defs[i].name, std::isfinite(v) ? v : 0.0,
                  defs[i].unit);
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() -> const char* {
      if (!v) return nullptr;
      ++i;
      return v;
    };
    if (!std::strcmp(arg, "--workload") && take()) {
      a.workload = v;
    } else if (!std::strcmp(arg, "--seed") && take()) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--seconds") && take()) {
      a.seconds = std::atof(v);
    } else if (!std::strcmp(arg, "--trace") && take()) {
      a.trace = std::atoi(v) != 0;
    } else if (!std::strcmp(arg, "--run-dir") && take()) {
      a.run_dir = v;
    } else if (!std::strcmp(arg, "--role") && take()) {
      a.worker = !std::strcmp(v, "worker");
    } else if (!std::strcmp(arg, "--listen") && take()) {
      a.listen = v;
    } else if (!std::strcmp(arg, "--out") && take()) {
      a.out = v;
    } else {
      return usage();
    }
  }

  try {
    if (a.worker) return perfbench::run_worker(a);
    perfbench::Result r;
    if (a.workload == "scan_128") {
      r = perfbench::run_scan(a);
    } else if (a.workload == "followup_shard_64") {
      r = perfbench::run_followup(a);
    } else if (a.workload == "train_ddnet_w2") {
      r = perfbench::run_train(a);
    } else {
      return usage();
    }
    if (a.trace) {
      // The traced run's own end-to-end figures: set against an untraced
      // run of the same seed they give the tracing overhead.
      std::fprintf(stderr, "traced end-to-end: %s\n",
                   metrics_json(r, kEndToEnd).c_str());
    }
    std::printf("%s\n", perfbench::host_record(a, r).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                a.trace ? metrics_json(r, kPerLayer).c_str()
                        : metrics_json(r, kEndToEnd).c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccovid_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
