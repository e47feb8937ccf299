// U-Net-style denoiser — the comparator architecture §6.3 attributes to
// Jin et al. / Chen et al. ("FBP ... followed by a U-Net-like CNN for
// image enhancement"). Used by the ablation benches to compare DDnet's
// dense-block encoder against the plain conv encoder at matched depth.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "nn/layers.h"

namespace ccovid::graph {
class Graph;
class CompiledGraph;
}

namespace ccovid::nn {

struct UNetConfig {
  index_t in_channels = 1;
  index_t out_channels = 1;
  index_t base_channels = 8;
  int levels = 2;
  real_t leaky_slope = 0.01f;
  bool residual = true;
};

class UNetDenoiser : public Module {
 public:
  explicit UNetDenoiser(UNetConfig cfg = UNetConfig{});

  /// (N, C, H, W) -> (N, out, H, W); extents divisible by 2^levels.
  Var forward(const Var& x) const;

  /// Single-image convenience, no gradients. Eval mode with frozen
  /// batch statistics runs the compiled graph (bitwise identical;
  /// graph/graph.h).
  Tensor enhance(const Tensor& image) const;

  /// Captures the eval-mode forward pass as a graph IR.
  graph::Graph build_graph(index_t n, index_t h, index_t w) const;

 protected:
  void on_set_training(bool training) override;
  void on_set_batch_stats(bool on) override;
  void on_state_loaded() override;

 private:
  std::shared_ptr<graph::CompiledGraph> compiled_for(index_t h,
                                                     index_t w) const;
  void invalidate_graphs() const;

  UNetConfig cfg_;
  struct Level {
    std::shared_ptr<Conv2d> conv;
    std::shared_ptr<BatchNorm> bn;
  };
  std::shared_ptr<Conv2d> stem_;
  std::shared_ptr<BatchNorm> stem_bn_;
  std::vector<Level> encoder_;
  std::vector<Level> decoder_;
  std::shared_ptr<Conv2d> head_;

  mutable std::mutex graph_mu_;
  mutable std::unordered_map<std::uint64_t,
                             std::shared_ptr<graph::CompiledGraph>>
      graph_cache_;
  bool batch_stats_always_ = false;
};

}  // namespace ccovid::nn
