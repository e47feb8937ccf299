#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "core/finite.h"
#include "core/parallel.h"
#include "core/random.h"
#include "core/simd.h"
#include "data/phantom.h"
#include "nn/layers.h"

#ifndef CCOVID_PERFBENCH_BUILD_TYPE
#define CCOVID_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

namespace {
constexpr int kRateWindows = 10;
}  // namespace

double window_rate(std::vector<double> completions, double start,
                   double per_op) {
  std::sort(completions.begin(), completions.end());
  const std::size_t n = completions.size();
  std::vector<double> rates;
  double prev = start;
  std::size_t lo = 0;
  for (int w = 1; w <= kRateWindows; ++w) {
    const std::size_t hi = n * static_cast<std::size_t>(w) / kRateWindows;
    if (hi == lo) continue;
    const double t = completions[hi - 1];
    if (t > prev) rates.push_back(static_cast<double>(hi - lo) / (t - prev));
    prev = t;
    lo = hi;
  }
  return per_op * median(rates);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int host_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string host_record(const Args& a, const Result& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"host\":{\"nproc\":%d,\"simd\":\"%s\",\"engine_width\":%d,"
      "\"build_type\":\"%s\",\"workload\":\"%s\",\"seed\":%llu,"
      "\"seconds\":%g,\"trace\":%d,\"timed_host_busy\":%.3f,"
      "\"timed_host_steal\":%.3f}}",
      host_cpus(),
      ccovid::simd::backend_name(ccovid::simd::active_backend()), r.width,
      CCOVID_PERFBENCH_BUILD_TYPE, a.workload.c_str(),
      static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
      r.host_busy, r.host_steal);
  return buf;
}

std::vector<unsigned long long> cpu_jiffies() {
  std::vector<unsigned long long> v;
  FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return v;
  char label[8];
  unsigned long long x = 0;
  if (std::fscanf(f, "%7s", label) == 1 && !std::strcmp(label, "cpu")) {
    while (v.size() < 8 && std::fscanf(f, "%llu", &x) == 1) v.push_back(x);
  }
  std::fclose(f);
  return v;
}

void note_host_load(const std::vector<unsigned long long>& before,
                    Result& r) {
  const auto after = cpu_jiffies();
  if (before.size() < 8 || after.size() < 8) return;
  // Fields: user nice system idle iowait irq softirq steal.
  double d[8], total = 0.0;
  for (int i = 0; i < 8; ++i) {
    d[i] = static_cast<double>(after[i] - before[i]);
    total += d[i];
  }
  if (total <= 0.0) return;
  r.host_busy = (total - d[3] - d[4]) / total;
  r.host_steal = d[7] / total;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

ccovid::nn::DDnetConfig compact_ddnet() {
  ccovid::nn::DDnetConfig c;
  c.base_channels = 8;
  c.growth = 8;
  c.levels = 2;
  c.dense_layers = 2;
  return c;
}

std::shared_ptr<const ccovid::pipeline::ComputeCovid19Pipeline>
build_pipeline() {
  using namespace ccovid;
  nn::seed_init_rng(kModelSeed);
  auto enh = std::make_shared<pipeline::EnhancementAI>(compact_ddnet());
  auto seg = std::make_shared<pipeline::SegmentationAI>();
  auto cls = std::make_shared<pipeline::ClassificationAI>();
  enh->network().set_training(false);
  seg->network().set_training(false);
  cls->network().set_training(false);
  return std::make_shared<const pipeline::ComputeCovid19Pipeline>(enh, seg,
                                                                  cls);
}

void check_volume(const Tensor& v) {
  // Malformed volumes are kept out of every workload: a non-square one
  // overflows the heap in data::remove_circular_fov_volume, so such
  // traffic waits until the pipeline rejects it at the door.
  if (v.rank() != 3) throw std::logic_error("generator: volume is not rank 3");
  if (v.dim(0) < 1 || v.dim(1) != v.dim(2)) {
    throw std::logic_error("generator: slices are not square");
  }
  if (v.dim(1) < 4 || v.dim(1) % 4 != 0) {
    throw std::logic_error("generator: slice extent not divisible by 4");
  }
  if (ccovid::count_nonfinite(v) != 0) {
    throw std::logic_error("generator: non-finite HU value");
  }
}

Tensor make_scan(index_t depth, index_t px, bool positive,
                 std::uint64_t stream_seed) {
  ccovid::Rng rng(stream_seed);
  // Lesions floored at 4 px, as ccovid_train does at reduced resolution.
  Tensor v = ccovid::data::make_volume(depth, px, positive, rng,
                                       4.0 / static_cast<double>(px))
                 .hu;
  check_volume(v);
  return v;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<ccovid::pipeline::Diagnosis> reference_diagnoses(
    const ccovid::pipeline::ComputeCovid19Pipeline& pipe,
    const std::vector<Tensor>& volumes, int threads) {
  std::vector<ccovid::pipeline::Diagnosis> out(volumes.size());
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        ccovid::ParallelPin pin(1);
        for (std::size_t i = t; i < volumes.size(); i += threads) {
          out[i] = pipe.diagnose(volumes[i], /*use_enhancement=*/true, 0.5);
        }
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  }
  for (auto& th : pool) th.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

}  // namespace perfbench
