// train_ddnet_w2: the training half of the paper (Table 3). DDP training
// of the compact DDnet at world 2 with the default overlapped bucketed
// all-reduce; one timed operation is one global step, a train_epoch over
// exactly world x batch samples. The low-dose pairs are simulated in
// set-up (Siddon -> Poisson -> FBP).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>

#include "autograd/functions.h"
#include "autograd/losses.h"
#include "common.h"
#include "core/parallel.h"
#include "core/random.h"
#include "data/dataset.h"
#include "dist/ddp.h"
#include "nn/layers.h"

namespace perfbench {
namespace {

constexpr index_t kPx = 32;
constexpr int kWorld = 2;
constexpr index_t kBatch = 2;  ///< per rank
constexpr index_t kGlobalBatch = kWorld * kBatch;
constexpr index_t kPairs = 16;
constexpr int kWarmupSteps = 2;
/// Per-tensor gradient tolerance of the DDP-vs-single-rank check,
/// relative to the reference gradient's largest magnitude: the two may
/// sum the same per-sample gradients in a different order. The loss
/// tolerance is relative too: ranks report a float loss, the trainer
/// averages it in double.
constexpr double kGradTolerance = 1e-6;
constexpr double kLossTolerance = 1e-6;

/// The loss ranks build: enhancement loss (MSE + 0.1 (1 - MS-SSIM)) per
/// sample, averaged; sample s of the step is pair (base + s) % kPairs.
/// With `timed` set, each rank's forward time is recorded.
struct StepLoss {
  const std::vector<ccovid::data::LowDosePair>* pairs = nullptr;
  index_t base = 0;
  bool timed = false;
  std::vector<double> forward_s[kWorld];

  ccovid::autograd::Var operator()(ccovid::nn::Module& model, int rank,
                                   const std::vector<index_t>& samples) {
    using namespace ccovid;
    const double t0 = timed ? now_s() : 0.0;
    auto& net = dynamic_cast<nn::DDnet&>(model);
    autograd::Var total;
    for (const index_t s : samples) {
      const auto& p = (*pairs)[static_cast<std::size_t>((base + s) % kPairs)];
      autograd::Var x(p.low.clone().reshape({1, 1, kPx, kPx}));
      autograd::Var loss = autograd::enhancement_loss(
          net.forward(x), p.full.clone().reshape({1, 1, kPx, kPx}), 0.1f, 11,
          1);
      total = total.defined() ? autograd::add(total, loss) : loss;
    }
    total = autograd::mul_scalar(
        total, 1.0f / static_cast<real_t>(samples.size()));
    if (timed) forward_s[rank].push_back(now_s() - t0);
    return total;
  }
};

struct Deployment {
  ccovid::data::EnhancementDataset data;
  std::unique_ptr<ccovid::dist::DdpTrainer> ddp;
  StepLoss loss;
  ccovid::Rng rng{0};
};

ccovid::dist::DdpTrainer::LossFn loss_fn(StepLoss& l) {
  return [&l](ccovid::nn::Module& m, int rank,
              const std::vector<index_t>& s) { return l(m, rank, s); };
}

/// Simulates the pairs, builds the replicas and runs the warm-up steps.
/// Returns the simulation time.
double set_up(Deployment& d, std::uint64_t seed) {
  using namespace ccovid;
  ccovid::Rng rng(mix(seed, 0x747261696eull));
  data::EnhancementDatasetConfig cfg;
  cfg.image_px = kPx;
  cfg.num_train = kPairs;
  cfg.num_val = 0;
  cfg.num_test = 0;
  cfg.lowdose.photons_per_ray = 2e4;  // as ccovid_train
  const double t0 = now_s();
  d.data = data::make_enhancement_dataset(cfg, rng);
  const double sim = now_s() - t0;
  d.loss.pairs = &d.data.train;

  nn::seed_init_rng(kModelSeed);
  dist::DdpConfig dcfg;
  dcfg.world_size = kWorld;
  dcfg.per_worker_batch = kBatch;
  dcfg.lr = 2e-3;  // as ccovid_train
  const nn::DDnetConfig ncfg = compact_ddnet();
  d.ddp = std::make_unique<dist::DdpTrainer>(
      [ncfg] { return std::make_shared<nn::DDnet>(ncfg); }, dcfg);
  d.rng = ccovid::Rng(mix(seed, 0x73687566ull));
  for (int s = 0; s < kWarmupSteps; ++s) {
    d.loss.base = (s * kGlobalBatch) % kPairs;
    d.ddp->train_epoch(kGlobalBatch, loss_fn(d.loss), d.rng);
  }
  return sim;
}

bool replicas_identical(ccovid::dist::DdpTrainer& ddp) {
  const auto p0 = ddp.model(0).parameters();
  for (int r = 1; r < kWorld; ++r) {
    const auto pr = ddp.model(r).parameters();
    if (pr.size() != p0.size()) return false;
    for (std::size_t i = 0; i < p0.size(); ++i) {
      const Tensor& a = p0[i].value();
      const Tensor& b = pr[i].value();
      if (a.numel() != b.numel() ||
          std::memcmp(a.data(), b.data(),
                      static_cast<std::size_t>(a.numel()) * sizeof(float))) {
        return false;
      }
    }
  }
  return true;
}

/// One more global step, compared with a single-rank computation of the
/// same global batch from the same weights: the loss and every averaged
/// gradient must agree within the stated tolerances.
bool step_matches_single_rank(Deployment& d, index_t base) {
  using namespace ccovid;
  nn::DDnet single(compact_ddnet());
  single.copy_parameters_from(d.ddp->model(0));
  d.loss.base = base;
  const dist::EpochStats st =
      d.ddp->train_epoch(kGlobalBatch, loss_fn(d.loss), d.rng);

  std::vector<index_t> all(static_cast<std::size_t>(kGlobalBatch));
  std::iota(all.begin(), all.end(), index_t{0});
  autograd::Var loss = d.loss(single, 0, all);
  loss.backward();

  const double ref_loss = loss.value().at(0);
  bool ok = std::fabs(st.mean_loss - ref_loss) <=
            kLossTolerance * std::fabs(ref_loss);
  const auto got = d.ddp->model(0).parameters();
  const auto want = single.parameters();
  double worst = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!want[i].has_grad() || !got[i].has_grad()) {
      ok = ok && want[i].has_grad() == got[i].has_grad();
      continue;
    }
    const Tensor& g = got[i].grad();
    const Tensor& w = want[i].grad();
    double scale = 0.0, diff = 0.0;
    for (index_t k = 0; k < w.numel(); ++k) {
      scale = std::max(scale, std::fabs(static_cast<double>(w.data()[k])));
      diff = std::max(diff, std::fabs(static_cast<double>(g.data()[k]) -
                                      static_cast<double>(w.data()[k])));
    }
    if (scale > 0.0) worst = std::max(worst, diff / scale);
    ok = ok && diff <= kGradTolerance * scale;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "train_ddnet_w2: DDP step differs from single rank (loss %.9g "
                 "vs %.9g, worst relative gradient error %.3g)\n",
                 st.mean_loss, ref_loss, worst);
  }
  return ok;
}

}  // namespace

Result run_train(const Args& a) {
  using namespace ccovid;
  Result res;
  // Each rank thread runs its kernels and its backward on one lane. At
  // width 2 a step was about 1.5 times slower, and every lane waiting
  // on another multiplied the host's steal into the step time
  // (perfbench/README.md, "Spread and bounds").
  res.width = 1;
  set_num_threads(res.width);

  std::unique_ptr<Deployment> d;
  std::vector<double> setups, sims;
  for (int s = 0; s < kSetups; ++s) {
    d = std::make_unique<Deployment>();
    const double t0 = now_s();
    sims.push_back(set_up(*d, a.seed));
    setups.push_back(now_s() - t0);
  }

  std::vector<double> step_s, completions;
  std::vector<std::uint64_t> bytes;
  d->loss.timed = a.trace;
  const auto cpu0 = cpu_jiffies();
  index_t step = kWarmupSteps;
  const double start = now_s();
  while (now_s() - start < a.seconds || step_s.size() < kMinOps) {
    d->loss.base = (step++ * kGlobalBatch) % kPairs;
    const double t0 = now_s();
    const dist::EpochStats st =
        d->ddp->train_epoch(kGlobalBatch, loss_fn(d->loss), d->rng);
    completions.push_back(now_s());
    step_s.push_back(completions.back() - t0);
    bytes.push_back(st.allreduce_bytes_per_rank);
    ++res.attempted;
    if (!std::isfinite(st.mean_loss)) ++res.failed;
  }
  const double rss = peak_rss_mb();
  note_host_load(cpu0, res);
  d->loss.timed = false;

  // Output checks, outside the timed phase.
  if (res.failed) res.correct = false;
  if (!replicas_identical(*d->ddp)) {
    res.correct = false;
    std::fprintf(stderr, "train_ddnet_w2: replica weights differ\n");
  }
  if (!step_matches_single_rank(*d, (step * kGlobalBatch) % kPairs) ||
      !replicas_identical(*d->ddp)) {
    res.correct = false;
  }

  auto& m = res.values;
  m["throughput_per_s"] =
      window_rate(completions, start, static_cast<double>(kGlobalBatch));
  m["latency_p50_s"] = median(step_s);
  m["setup_s"] = median(setups);
  m["peak_rss_mb"] = rss;
  if (!a.trace) return res;
  std::vector<double> forward, sync;
  for (std::size_t k = 0; k < step_s.size(); ++k) {
    double slowest = 0.0;
    for (int r = 0; r < kWorld; ++r) {
      const double f = d->loss.forward_s[r].at(k);
      forward.push_back(f);
      slowest = std::max(slowest, f);
    }
    sync.push_back(step_s[k] - slowest);
  }
  m["nn.forward_s"] = median(forward);
  m["dist.backward_sync_s"] = median(sync);
  m["dist.allreduce_bytes_per_step"] = static_cast<double>(bytes.back());
  m["data.lowdose_sim_s"] = median(sims);
  return res;
}

}  // namespace perfbench
