#include "data/dataset.h"

#include <stdexcept>

namespace ccovid::data {

EnhancementDataset make_enhancement_dataset(EnhancementDatasetConfig cfg,
                                            Rng& rng) {
  cfg.lowdose.geometry = cfg.lowdose.geometry.scaled(cfg.image_px);
  EnhancementDataset ds;
  const index_t total = cfg.num_train + cfg.num_val + cfg.num_test;
  for (index_t i = 0; i < total; ++i) {
    const Anatomy anatomy = Anatomy::sample(rng);
    const bool covid = rng.bernoulli(cfg.covid_fraction);
    const std::vector<Lesion> lesions =
        covid ? sample_covid_lesions(rng) : std::vector<Lesion>{};
    const double z = rng.uniform(0.25, 0.75);  // mid-thorax slices
    const PhantomSlice slice =
        render_slice(cfg.image_px, anatomy, lesions, z);
    LowDosePair pair = make_lowdose_pair(slice.hu, cfg.lowdose, rng);
    if (i < cfg.num_train) {
      ds.train.push_back(std::move(pair));
    } else if (i < cfg.num_train + cfg.num_val) {
      ds.val.push_back(std::move(pair));
    } else {
      ds.test.push_back(std::move(pair));
    }
  }
  return ds;
}

ClassificationDataset make_classification_dataset(
    ClassificationDatasetConfig cfg, Rng& rng) {
  ClassificationDataset ds;
  const index_t total = cfg.num_train + cfg.num_test;
  for (index_t i = 0; i < total; ++i) {
    const bool covid = rng.bernoulli(cfg.positive_fraction);
    PhantomVolume vol = make_volume(cfg.depth, cfg.image_px, covid, rng,
                                    cfg.min_lesion_radius_frac);
    VolumeSample s{std::move(vol.hu), std::move(vol.lung_mask), vol.label};
    if (i < cfg.num_train) {
      ds.train.push_back(std::move(s));
    } else {
      ds.test.push_back(std::move(s));
    }
  }
  return ds;
}

bool passes_slice_count_filter(const Tensor& volume_hu, index_t min_slices) {
  if (volume_hu.rank() != 3) {
    throw std::invalid_argument("slice_count_filter: expected (D, H, W)");
  }
  return volume_hu.dim(0) >= min_slices;
}

Tensor remove_circular_fov_volume(const Tensor& volume_hu) {
  if (volume_hu.rank() != 3) {
    throw std::invalid_argument("remove_circular_fov: expected (D, H, W)");
  }
  const index_t d = volume_hu.dim(0), n = volume_hu.dim(1);
  // The circular field of view is defined on square slices only.
  if (volume_hu.dim(2) != n) {
    throw std::invalid_argument(
        "remove_circular_fov: expected square slices, got " +
        volume_hu.shape().str());
  }
  Tensor out(volume_hu.shape());
  for (index_t z = 0; z < d; ++z) {
    Tensor slice({n, n});
    std::copy(volume_hu.data() + z * n * n,
              volume_hu.data() + (z + 1) * n * n, slice.data());
    const Tensor cleaned = remove_circular_fov_artifact(slice);
    std::copy(cleaned.data(), cleaned.data() + n * n, out.data() + z * n * n);
  }
  return out;
}

}  // namespace ccovid::data
