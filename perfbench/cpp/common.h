// Shared pieces of the benchmark binary: arguments, clocks and order
// statistics, the result record, the host record, the model factory and
// the guarded input generator. Each workload lives in its own file
// (scan.cpp, followup.cpp, train.cpp) and measures the program only
// through its public API.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "nn/ddnet.h"
#include "pipeline/framework.h"

namespace perfbench {

using ccovid::index_t;
using ccovid::Tensor;

/// Fixed model seed: weights never depend on the workload seed, so the
/// seed varies only the generated inputs.
inline constexpr std::uint64_t kModelSeed = 42;

/// Operations a run completes at least, whatever --seconds says, so the
/// median latency and each throughput window rest on enough samples.
inline constexpr std::size_t kMinOps = 100;

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 9;


struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for shard sockets and worker reports, relative to
  /// the working directory.
  std::string run_dir = ".bench_build/run";
  // Shard worker role (spawned by the followup workload).
  bool worker = false;
  std::string listen;
  std::string out;
};

/// What a workload run reports. `values` holds end-to-end metrics in an
/// untraced run and per-layer metrics in a traced one.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Task-engine width the workload ran its kernels at.
  int width = 1;
  /// Shares of the host's CPU time during the timed phase that were busy
  /// (every process, this run included) and stolen by the hypervisor.
  double host_busy = 0.0;
  double host_steal = 0.0;
};

/// Jiffies of the aggregate cpu line of /proc/stat (empty if unreadable).
std::vector<unsigned long long> cpu_jiffies();
/// Fills r.host_busy / r.host_steal for the time since `before`.
void note_host_load(const std::vector<unsigned long long>& before,
                    Result& r);

double now_s();
double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// Completion rate as the median over ten consecutive windows of equal
/// operation count, from the run's start and each operation's
/// completion time: a burst of host noise moves one window, not the
/// run's figure. `per_op` scales operations to work units.
double window_rate(std::vector<double> completions, double start,
                   double per_op = 1.0);
/// Peak resident set of the calling process, MiB.
double peak_rss_mb();
int host_cpus();
/// One-line JSON host record: nproc, SIMD backend, task-engine width,
/// build type, workload, seed and the host load during the timed phase.
std::string host_record(const Args& a, const Result& r);

/// SplitMix64 mixing of two words: independent per-input RNG streams.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// The compact DDnet of ccovid_serve / ccovid_train.
ccovid::nn::DDnetConfig compact_ddnet();

/// Seeded randomly initialised eval-mode pipeline, built exactly like
/// ccovid_serve's (same architectures, same model seed).
std::shared_ptr<const ccovid::pipeline::ComputeCovid19Pipeline>
build_pipeline();

/// Phantom CT volume (depth, px, px) in HU from its own RNG stream.
/// Refuses shapes the pipeline does not accept.
Tensor make_scan(index_t depth, index_t px, bool positive,
                 std::uint64_t stream_seed);

/// Throws unless `v` is a volume every stage accepts: rank 3, square
/// slices, an in-plane extent divisible by 4 and finite HU values.
void check_volume(const Tensor& v);

/// Bitwise comparison of the fields a diagnosis reports.
bool same_bits(double a, double b);

/// Direct width-1 diagnose() (enhancement on, threshold 0.5) of every
/// volume, spread over `threads` client threads that each run kernels on
/// one lane. Used by the output checks, never inside a timed phase.
std::vector<ccovid::pipeline::Diagnosis> reference_diagnoses(
    const ccovid::pipeline::ComputeCovid19Pipeline& pipe,
    const std::vector<Tensor>& volumes, int threads);

Result run_scan(const Args& a);
Result run_followup(const Args& a);
Result run_train(const Args& a);
/// Shard worker process: serves one front door on `a.listen`, then
/// writes its report to `a.out`.
int run_worker(const Args& a);

}  // namespace perfbench
