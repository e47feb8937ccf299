// scan_128: the clinician's turnaround for one study. One client keeps
// one scan in flight against an in-process InferenceServer (1 worker,
// max_batch 1, monitoring off) that runs the kernels on one lane. The
// traced run adds a pass over the shared task engine at full width.
#include <cstdio>
#include <future>

#include "common.h"
#include "core/alloc_cache.h"
#include "core/parallel.h"
#include "serve/server.h"

namespace perfbench {
namespace {

constexpr index_t kDepth = 4;
constexpr index_t kPx = 128;
/// Distinct volumes, cycled in order; with monitoring off nothing in the
/// request path can tell a repeated volume from a new one.
constexpr int kPool = 32;
/// Full-width scans of the traced run's scaling pass.
constexpr int kScalingScans = 6;

std::vector<Tensor> make_pool(std::uint64_t seed) {
  std::vector<Tensor> pool;
  pool.reserve(kPool);
  for (int i = 0; i < kPool; ++i) {
    pool.push_back(make_scan(kDepth, kPx, /*positive=*/i % 2 == 1,
                             mix(seed, static_cast<std::uint64_t>(i))));
  }
  return pool;
}

struct Deployment {
  std::shared_ptr<const ccovid::pipeline::ComputeCovid19Pipeline> pipe;
  std::vector<Tensor> pool;
  std::unique_ptr<ccovid::serve::InferenceServer> server;
};

/// Everything a deployment pays before its first timed scan: models,
/// inputs, the server, and two warm-up scans (the first compiles the
/// DDnet graph at this shape). Returns the first scan's latency.
double set_up(Deployment& d, std::uint64_t seed) {
  d.pipe = build_pipeline();
  d.pool = make_pool(seed);
  ccovid::serve::ServerOptions opt;
  opt.workers = 1;
  opt.max_batch = 1;
  d.server = std::make_unique<ccovid::serve::InferenceServer>(d.pipe, opt);
  const double t0 = now_s();
  d.server->submit(d.pool[0]).get();
  const double first = now_s() - t0;
  d.server->submit(d.pool[1]).get();
  return first;
}

/// Output contract of one scan: bitwise equal to the width-1 reference,
/// and the burden / probability properties the method promises.
bool scan_ok(const ccovid::serve::DiagnoseResponse& r,
             const ccovid::pipeline::Diagnosis& ref) {
  const auto& d = r.diagnosis;
  if (r.status != ccovid::serve::RequestStatus::kOk) return false;
  const std::uint64_t voxels =
      static_cast<std::uint64_t>(kDepth * kPx * kPx);
  return same_bits(d.probability, ref.probability) &&
         d.positive == ref.positive &&
         same_bits(d.infection_burden, ref.infection_burden) &&
         d.lung_voxels == ref.lung_voxels &&
         d.infected_voxels == ref.infected_voxels &&
         d.lung_voxels > 0 && d.lung_voxels <= voxels &&
         same_bits(d.infection_burden,
                   static_cast<double>(d.infected_voxels) /
                       static_cast<double>(d.lung_voxels)) &&
         d.probability >= 0.0 && d.probability <= 1.0 &&
         d.positive == (d.probability >= d.threshold);
}

}  // namespace

Result run_scan(const Args& a) {
  using namespace ccovid;
  Result res;
  // The server worker runs the kernels on one lane. A fork-join stage
  // waits for its slowest lane, so at width 2 a host losing a tenth of
  // its CPU time to steal made scans a third slower and the benchmark
  // unsteady (perfbench/README.md, "Spread and bounds"). The traced
  // run's scaling pass measures the task engine's fan-out instead.
  res.width = 1;
  set_num_threads(res.width);

  Deployment d;
  std::vector<double> setups, firsts;
  for (int s = 0; s < kSetups; ++s) {
    d = Deployment{};  // previous server drains and joins here
    const double t0 = now_s();
    firsts.push_back(set_up(d, a.seed));
    setups.push_back(now_s() - t0);
  }

  std::vector<double> latency, completions;
  std::vector<serve::DiagnoseResponse> responses;
  const auto cpu0 = cpu_jiffies();
  const std::uint64_t allocs0 = fresh_system_allocs();
  const double start = now_s();
  while (now_s() - start < a.seconds || latency.size() < kMinOps) {
    const Tensor& v = d.pool[responses.size() % kPool];
    const double t0 = now_s();
    serve::DiagnoseResponse r = d.server->submit(v).get();
    completions.push_back(now_s());
    latency.push_back(completions.back() - t0);
    responses.push_back(std::move(r));
  }
  const std::uint64_t allocs = fresh_system_allocs() - allocs0;
  note_host_load(cpu0, res);
  const double rss = peak_rss_mb();
  d.server->shutdown();

  // Scaling pass (traced run only): the same volumes diagnosed directly
  // on every CPU of the host.
  std::vector<pipeline::StageTimes> wide;
  if (a.trace) {
    set_num_threads(host_cpus());
    for (int i = 0; i < kScalingScans; ++i) {
      pipeline::StageTimes st;
      d.pipe->diagnose(d.pool[i], true, 0.5, &st);
      wide.push_back(st);
    }
    set_num_threads(res.width);
  }

  // Output checks, outside the timed phase.
  const auto refs = reference_diagnoses(*d.pipe, d.pool, host_cpus());
  res.attempted = responses.size();
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const auto& r = responses[i];
    if (scan_ok(r, refs[i % kPool])) continue;
    ++res.failed;
    if (r.status == serve::RequestStatus::kOk) res.correct = false;
    std::fprintf(stderr, "scan_128: scan %zu failed its check (%s %s)\n", i,
                 serve::to_string(r.status), r.error.c_str());
  }

  auto& m = res.values;
  m["throughput_per_s"] = window_rate(completions, start);
  m["latency_p50_s"] = median(latency);
  m["setup_s"] = median(setups);
  m["peak_rss_mb"] = rss;
  if (!a.trace) return res;
  auto stage = [&](double pipeline::StageTimes::*f) {
    std::vector<double> v;
    for (const auto& r : responses) v.push_back(r.stages.*f);
    return median(v);
  };
  auto wide_stage = [&](double pipeline::StageTimes::*f) {
    std::vector<double> v;
    for (const auto& st : wide) v.push_back(st.*f);
    return median(v);
  };
  m["pipeline.prepare_s"] = stage(&pipeline::StageTimes::prepare_s);
  m["pipeline.enhance_s"] = stage(&pipeline::StageTimes::enhance_s);
  m["pipeline.segment_s"] = stage(&pipeline::StageTimes::segment_s);
  m["pipeline.classify_s"] = stage(&pipeline::StageTimes::classify_s);
  m["pipeline.enhance_scaling"] =
      m["pipeline.enhance_s"] / wide_stage(&pipeline::StageTimes::enhance_s);
  m["pipeline.segment_scaling"] =
      m["pipeline.segment_s"] / wide_stage(&pipeline::StageTimes::segment_s);
  m["pipeline.classify_scaling"] =
      m["pipeline.classify_s"] / wide_stage(&pipeline::StageTimes::classify_s);
  m["core.fresh_allocs_per_scan"] =
      static_cast<double>(allocs) / static_cast<double>(responses.size());
  m["graph.first_scan_s"] = median(firsts) - median(latency);
  return res;
}

}  // namespace perfbench
