// Dataset assembly: the data-preparation rules of §2.1 plus factories
// that build the synthetic equivalents of the paper's training corpora
// (enhancement pairs and labeled classification volumes) with
// deterministic train/validation/test splits.
#pragma once

#include <vector>

#include "data/lowdose.h"
#include "data/phantom.h"

namespace ccovid::data {

struct EnhancementDataset {
  std::vector<LowDosePair> train;
  std::vector<LowDosePair> val;
  std::vector<LowDosePair> test;
};

struct EnhancementDatasetConfig {
  index_t image_px = 64;       ///< slice size (paper: 512)
  index_t num_train = 24;
  index_t num_val = 4;
  index_t num_test = 4;
  double covid_fraction = 0.5; ///< fraction of slices from positive anatomy
  LowDoseConfig lowdose;       ///< geometry auto-scaled to image_px
};

/// Renders random phantom slices and runs each through the low-dose
/// physics chain.
EnhancementDataset make_enhancement_dataset(EnhancementDatasetConfig cfg,
                                            Rng& rng);

struct VolumeSample {
  Tensor hu;         ///< (d, n, n) Hounsfield units
  Tensor lung_mask;  ///< ground-truth lung foreground
  int label;         ///< 1 = COVID-positive
};

struct ClassificationDataset {
  std::vector<VolumeSample> train;
  std::vector<VolumeSample> test;
};

struct ClassificationDatasetConfig {
  index_t depth = 16;
  index_t image_px = 32;
  index_t num_train = 24;
  index_t num_test = 16;
  double positive_fraction = 0.4;  ///< test mirrors §5.2.2's 36/95 ratio
  /// Minimum lesion radius as a fraction of the FOV; reduced-resolution
  /// experiments pass ~4.0/image_px so GGOs stay resolvable (see
  /// sample_covid_lesions).
  double min_lesion_radius_frac = 0.0;
};

ClassificationDataset make_classification_dataset(
    ClassificationDatasetConfig cfg, Rng& rng);

/// §2.1 data-prep predicate: volumes must have at least `min_slices` 2-D
/// slices "to maintain isotropy ... for better segmentation and
/// classification with 3D networks".
bool passes_slice_count_filter(const Tensor& volume_hu,
                               index_t min_slices = 128);

/// Applies remove_circular_fov_artifact to every slice of a volume.
/// Throws std::invalid_argument unless the volume is (D, H, W) with
/// H == W.
Tensor remove_circular_fov_volume(const Tensor& volume_hu);

}  // namespace ccovid::data
