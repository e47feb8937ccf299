// Synthetic data substrate: phantom anatomy and lesions, circular-FOV
// preparation, the low-dose physics chain, dataset factories and the
// §3.3.1 augmentations.
#include <gtest/gtest.h>

#include <cmath>

#include "ct/hu.h"
#include "data/augment.h"
#include "data/dataset.h"
#include "data/lowdose.h"
#include "data/phantom.h"
#include "metrics/image_quality.h"

namespace ccovid::data {
namespace {

// -------------------------------------------------------------- phantom
TEST(Phantom, HuValuesWithinCtRange) {
  Rng rng(1);
  const Anatomy anatomy = Anatomy::sample(rng);
  const PhantomSlice s = render_slice(64, anatomy, {}, 0.5);
  EXPECT_GE(s.hu.min(), -1024.0f);
  EXPECT_LE(s.hu.max(), 1023.0f);
}

TEST(Phantom, BackgroundIsAir) {
  Rng rng(2);
  const Anatomy anatomy = Anatomy::sample(rng);
  const PhantomSlice s = render_slice(64, anatomy, {}, 0.5);
  EXPECT_NEAR(s.hu.at(0, 0), -1000.0f, 1.0f);
  EXPECT_NEAR(s.hu.at(63, 63), -1000.0f, 1.0f);
}

TEST(Phantom, MidSliceHasTwoLungs) {
  Rng rng(3);
  const Anatomy anatomy = Anatomy::sample(rng);
  const PhantomSlice s = render_slice(64, anatomy, {}, 0.5);
  // Mask is binary and non-trivial.
  double area = 0.0;
  for (index_t i = 0; i < s.lung_mask.numel(); ++i) {
    const real_t v = s.lung_mask.data()[i];
    EXPECT_TRUE(v == 0.0f || v == 1.0f);
    area += v;
  }
  const double frac = area / s.lung_mask.numel();
  EXPECT_GT(frac, 0.05);
  EXPECT_LT(frac, 0.5);
  // Both sides populated.
  double left = 0.0, right = 0.0;
  for (index_t y = 0; y < 64; ++y) {
    for (index_t x = 0; x < 32; ++x) left += s.lung_mask.at(y, x);
    for (index_t x = 32; x < 64; ++x) right += s.lung_mask.at(y, x);
  }
  EXPECT_GT(left, 0.0);
  EXPECT_GT(right, 0.0);
}

TEST(Phantom, LungsTaperTowardApex) {
  Rng rng(4);
  const Anatomy anatomy = Anatomy::sample(rng);
  const PhantomSlice mid = render_slice(64, anatomy, {}, 0.5);
  const PhantomSlice apex = render_slice(64, anatomy, {}, 0.05);
  EXPECT_GT(mid.lung_mask.sum(), apex.lung_mask.sum());
}

TEST(Phantom, CovidLesionsRaiseLungDensity) {
  Rng rng(5);
  const Anatomy anatomy = Anatomy::sample(rng);
  Rng lrng(6);
  const auto lesions = sample_covid_lesions(lrng);
  ASSERT_FALSE(lesions.empty());
  // Render at a lesion's own z so it is guaranteed visible.
  const double z = lesions.front().cz;
  const PhantomSlice healthy = render_slice(64, anatomy, {}, z);
  const PhantomSlice sick = render_slice(64, anatomy, lesions, z);
  // Mean HU inside the lung mask should rise (GGO/consolidation).
  double mean_h = 0.0, mean_s = 0.0, count = 0.0;
  for (index_t i = 0; i < healthy.hu.numel(); ++i) {
    if (healthy.lung_mask.data()[i] > 0.5f) {
      mean_h += healthy.hu.data()[i];
      mean_s += sick.hu.data()[i];
      count += 1.0;
    }
  }
  ASSERT_GT(count, 0.0);
  EXPECT_GT(mean_s / count, mean_h / count);
}

TEST(Phantom, LesionsAreMostlyPeripheralAndBounded) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    for (const Lesion& l : sample_covid_lesions(rng)) {
      EXPECT_GT(l.r, 0.0);
      EXPECT_LT(l.r, 0.2);
      EXPECT_GE(l.cz, 0.0);
      EXPECT_LE(l.cz, 1.0);
      EXPECT_GT(l.delta_hu, 0.0);
    }
  }
}

TEST(Phantom, VolumeSlicesAreCoherent) {
  Rng rng(8);
  const PhantomVolume vol = make_volume(8, 32, false, rng);
  EXPECT_EQ(vol.hu.shape(), Shape({8, 32, 32}));
  EXPECT_EQ(vol.label, 0);
  // Adjacent mid-volume slices should be highly similar (same anatomy).
  Tensor a({32, 32}), b({32, 32});
  std::copy(vol.hu.data() + 3 * 1024, vol.hu.data() + 4 * 1024, a.data());
  std::copy(vol.hu.data() + 4 * 1024, vol.hu.data() + 5 * 1024, b.data());
  index_t same_sign = 0;
  for (index_t i = 0; i < 1024; ++i) {
    same_sign += ((a.data()[i] > -500.0f) == (b.data()[i] > -500.0f));
  }
  EXPECT_GT(same_sign, 900);
}

TEST(Phantom, PositiveVolumeLabeled) {
  Rng rng(9);
  const PhantomVolume vol = make_volume(4, 32, true, rng);
  EXPECT_EQ(vol.label, 1);
}

TEST(Phantom, CircularArtifactAddAndRemove) {
  Rng rng(10);
  const Anatomy anatomy = Anatomy::sample(rng);
  const PhantomSlice s = render_slice(64, anatomy, {}, 0.5);
  const Tensor with_artifact = add_circular_fov_artifact(s.hu, -2000.0);
  EXPECT_FLOAT_EQ(with_artifact.at(0, 0), -2000.0f);  // corner outside
  EXPECT_FLOAT_EQ(with_artifact.at(32, 32), s.hu.at(32, 32));  // center kept
  const Tensor cleaned = remove_circular_fov_artifact(with_artifact);
  EXPECT_FLOAT_EQ(cleaned.at(0, 0), -1000.0f);  // padding -> air (Fig. 5)
  EXPECT_FLOAT_EQ(cleaned.at(32, 32), s.hu.at(32, 32));
}

// -------------------------------------------------------------- lowdose
class LowDoseTest : public ::testing::Test {
 protected:
  LowDoseConfig small_config() const {
    LowDoseConfig cfg;
    cfg.geometry = ct::paper_geometry().scaled(32);
    return cfg;
  }
};

TEST_F(LowDoseTest, PairInUnitRangeAndShaped) {
  Rng rng(11);
  const Anatomy anatomy = Anatomy::sample(rng);
  const PhantomSlice s = render_slice(32, anatomy, {}, 0.5);
  const LowDosePair pair = make_lowdose_pair(s.hu, small_config(), rng);
  EXPECT_EQ(pair.low.shape(), Shape({32, 32}));
  EXPECT_EQ(pair.full.shape(), Shape({32, 32}));
  EXPECT_GE(pair.low.min(), 0.0f);
  EXPECT_LE(pair.low.max(), 1.0f);
  EXPECT_GE(pair.full.min(), 0.0f);
  EXPECT_LE(pair.full.max(), 1.0f);
}

TEST_F(LowDoseTest, LowDoseIsDegradedButCorrelated) {
  Rng rng(12);
  const Anatomy anatomy = Anatomy::sample(rng);
  const PhantomSlice s = render_slice(32, anatomy, {}, 0.5);
  LowDoseConfig cfg = small_config();
  cfg.photons_per_ray = 2e4;  // strong noise
  const LowDosePair pair = make_lowdose_pair(s.hu, cfg, rng);
  const double m = metrics::mse(pair.full, pair.low);
  EXPECT_GT(m, 1e-5);  // visibly degraded
  EXPECT_LT(m, 0.2);   // but still the same image
}

TEST_F(LowDoseTest, FewerPhotonsMeansWorseImage) {
  Rng rng(13);
  const Anatomy anatomy = Anatomy::sample(rng);
  const PhantomSlice s = render_slice(32, anatomy, {}, 0.5);
  LowDoseConfig high = small_config();
  high.photons_per_ray = 1e6;  // paper's b
  LowDoseConfig low = small_config();
  low.photons_per_ray = 5e3;
  Rng r1(14), r2(14);
  const LowDosePair p_high = make_lowdose_pair(s.hu, high, r1);
  const LowDosePair p_low = make_lowdose_pair(s.hu, low, r2);
  EXPECT_GT(metrics::mse(p_low.full, p_low.low),
            metrics::mse(p_high.full, p_high.low));
}

TEST_F(LowDoseTest, NoiselessFbpIsUpperBound) {
  Rng rng(15);
  const Anatomy anatomy = Anatomy::sample(rng);
  const PhantomSlice s = render_slice(32, anatomy, {}, 0.5);
  LowDoseConfig cfg = small_config();
  cfg.photons_per_ray = 1e4;
  const Tensor clean_hu = noiseless_fbp(s.hu, cfg);
  const LowDosePair noisy = make_lowdose_pair(s.hu, cfg, rng);
  const Tensor clean_norm = ct::normalize_hu(clean_hu);
  EXPECT_LE(metrics::mse(noisy.full, clean_norm),
            metrics::mse(noisy.full, noisy.low) + 1e-6);
}

// -------------------------------------------------------------- datasets
TEST(Datasets, EnhancementSplitSizes) {
  Rng rng(16);
  EnhancementDatasetConfig cfg;
  cfg.image_px = 32;
  cfg.num_train = 3;
  cfg.num_val = 2;
  cfg.num_test = 1;
  const EnhancementDataset ds = make_enhancement_dataset(cfg, rng);
  EXPECT_EQ(ds.train.size(), 3u);
  EXPECT_EQ(ds.val.size(), 2u);
  EXPECT_EQ(ds.test.size(), 1u);
}

TEST(Datasets, ClassificationLabelsMixed) {
  Rng rng(17);
  ClassificationDatasetConfig cfg;
  cfg.depth = 4;
  cfg.image_px = 16;
  cfg.num_train = 12;
  cfg.num_test = 8;
  cfg.positive_fraction = 0.5;
  const ClassificationDataset ds = make_classification_dataset(cfg, rng);
  EXPECT_EQ(ds.train.size(), 12u);
  EXPECT_EQ(ds.test.size(), 8u);
  int positives = 0;
  for (const auto& s : ds.train) positives += s.label;
  EXPECT_GT(positives, 0);
  EXPECT_LT(positives, 12);
}

TEST(Datasets, SliceCountFilter) {
  // §2.1: keep scans with at least 128 slices.
  Tensor big({128, 4, 4});
  Tensor small({100, 4, 4});
  EXPECT_TRUE(passes_slice_count_filter(big));
  EXPECT_FALSE(passes_slice_count_filter(small));
  EXPECT_TRUE(passes_slice_count_filter(small, 50));
}

TEST(Datasets, RemoveCircularFovVolumeCleansEverySlice) {
  Rng rng(18);
  PhantomVolume vol = make_volume(3, 32, false, rng);
  // Inject the artifact.
  Tensor corrupted(vol.hu.shape());
  for (index_t z = 0; z < 3; ++z) {
    Tensor slice({32, 32});
    std::copy(vol.hu.data() + z * 1024, vol.hu.data() + (z + 1) * 1024,
              slice.data());
    const Tensor bad = add_circular_fov_artifact(slice, -2000.0);
    std::copy(bad.data(), bad.data() + 1024, corrupted.data() + z * 1024);
  }
  const Tensor cleaned = remove_circular_fov_volume(corrupted);
  for (index_t z = 0; z < 3; ++z) {
    EXPECT_FLOAT_EQ(cleaned.at(z, index_t(0), index_t(0)), -1000.0f);
  }
}

TEST(Datasets, RemoveCircularFovVolumeRejectsNonSquareSlices) {
  // Copying H*H floats per slice would overrun H > W and misread H < W.
  EXPECT_THROW(remove_circular_fov_volume(Tensor::full({4, 15, 13}, 0.0f)),
               std::invalid_argument);
  EXPECT_THROW(remove_circular_fov_volume(Tensor::full({4, 12, 16}, 0.0f)),
               std::invalid_argument);
}

// ---------------------------------------------------------- augmentation
TEST(Augment, NoiseAppliedWithConfiguredProbability) {
  Rng rng(19);
  AugmentConfig cfg;
  cfg.noise_prob = 1.0;  // always
  cfg.contrast_prob = 0.0;
  cfg.intensity_magnitude = 0.0;
  const Tensor vol = Tensor::full({4, 8, 8}, 0.5f);
  const Tensor aug = augment_volume(vol, cfg, rng);
  EXPECT_GT(max_abs_diff(aug, vol), 0.01f);
}

TEST(Augment, NoAugmentationWhenDisabled) {
  Rng rng(20);
  AugmentConfig cfg;
  cfg.noise_prob = 0.0;
  cfg.contrast_prob = 0.0;
  cfg.intensity_magnitude = 0.0;
  const Tensor vol = Tensor::full({2, 4, 4}, 0.3f);
  const Tensor aug = augment_volume(vol, cfg, rng);
  EXPECT_LT(max_abs_diff(aug, vol), 1e-6f);
}

TEST(Augment, NoiseVarianceMatchesConfig) {
  Rng rng(21);
  AugmentConfig cfg;
  cfg.noise_prob = 1.0;
  cfg.contrast_prob = 0.0;
  cfg.intensity_magnitude = 0.0;
  cfg.noise_variance = 0.1;  // §3.3.1
  const Tensor vol = Tensor::zeros({16, 16, 16});
  const Tensor aug = augment_volume(vol, cfg, rng);
  double var = 0.0;
  for (index_t i = 0; i < aug.numel(); ++i) {
    var += static_cast<double>(aug.data()[i]) * aug.data()[i];
  }
  var /= aug.numel();
  EXPECT_NEAR(var, 0.1, 0.01);
}

TEST(Augment, IntensityScaleBounded) {
  Rng rng(22);
  AugmentConfig cfg;
  cfg.noise_prob = 0.0;
  cfg.contrast_prob = 0.0;
  cfg.intensity_magnitude = 0.1;  // §3.3.1
  const Tensor vol = Tensor::full({2, 4, 4}, 1.0f);
  const Tensor aug = augment_volume(vol, cfg, rng);
  EXPECT_GE(aug.min(), 0.9f - 1e-5f);
  EXPECT_LE(aug.max(), 1.1f + 1e-5f);
}

TEST(Augment, InputIsNotMutated) {
  Rng rng(23);
  AugmentConfig cfg;
  const Tensor vol = Tensor::full({2, 4, 4}, 0.5f);
  const Tensor copy = vol.clone();
  (void)augment_volume(vol, cfg, rng);
  EXPECT_TRUE(allclose(vol, copy));
}

}  // namespace
}  // namespace ccovid::data
