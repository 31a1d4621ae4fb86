// Tests for the synthetic dataset generators and paper twins.
#include "data/synthetic.hpp"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "la/vector_ops.hpp"

namespace sa::data {
namespace {

TEST(MakeRegression, ShapesMatchConfig) {
  RegressionConfig cfg;
  cfg.num_points = 50;
  cfg.num_features = 30;
  cfg.density = 0.2;
  cfg.support_size = 5;
  const RegressionProblem p = make_regression(cfg);
  EXPECT_EQ(p.dataset.num_points(), 50u);
  EXPECT_EQ(p.dataset.num_features(), 30u);
  EXPECT_EQ(p.x_star.size(), 30u);
}

TEST(MakeRegression, PlantedSupportSizeHonoured) {
  RegressionConfig cfg;
  cfg.support_size = 7;
  cfg.num_features = 40;
  const RegressionProblem p = make_regression(cfg);
  std::size_t nonzeros = 0;
  for (double v : p.x_star)
    if (v != 0.0) ++nonzeros;
  EXPECT_EQ(nonzeros, 7u);
}

TEST(MakeRegression, NoiselessTargetsEqualPlantedModel) {
  RegressionConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.num_points = 20;
  cfg.num_features = 15;
  cfg.density = 0.5;
  const RegressionProblem p = make_regression(cfg);
  std::vector<double> ax(p.dataset.num_points());
  p.dataset.a.spmv(p.x_star, ax);
  for (std::size_t i = 0; i < ax.size(); ++i)
    EXPECT_NEAR(ax[i], p.dataset.b[i], 1e-12);
}

TEST(MakeRegression, DensityApproximatelyHonoured) {
  RegressionConfig cfg;
  cfg.num_points = 400;
  cfg.num_features = 100;
  cfg.density = 0.1;
  const RegressionProblem p = make_regression(cfg);
  EXPECT_NEAR(p.dataset.density(), 0.1, 0.02);
}

TEST(MakeRegression, EveryRowHasAtLeastOneNonzero) {
  RegressionConfig cfg;
  cfg.num_points = 200;
  cfg.num_features = 500;
  cfg.density = 0.001;  // far below one expected nonzero per row
  const RegressionProblem p = make_regression(cfg);
  for (std::size_t i = 0; i < p.dataset.num_points(); ++i)
    EXPECT_GE(p.dataset.a.row_nnz(i), 1u);
}

TEST(MakeRegression, DeterministicGivenSeed) {
  RegressionConfig cfg;
  cfg.seed = 1234;
  const RegressionProblem p1 = make_regression(cfg);
  const RegressionProblem p2 = make_regression(cfg);
  EXPECT_EQ(p1.dataset.b, p2.dataset.b);
  EXPECT_EQ(p1.x_star, p2.x_star);
  EXPECT_EQ(p1.dataset.nnz(), p2.dataset.nnz());
}

TEST(MakeRegression, DifferentSeedsProduceDifferentData) {
  RegressionConfig a, b;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(make_regression(a).dataset.b, make_regression(b).dataset.b);
}

TEST(MakeRegression, RejectsOversizedSupport) {
  RegressionConfig cfg;
  cfg.num_features = 5;
  cfg.support_size = 6;
  EXPECT_THROW(make_regression(cfg), sa::PreconditionError);
}

TEST(MakeClassification, LabelsAreBinary) {
  ClassificationConfig cfg;
  cfg.num_points = 100;
  cfg.num_features = 20;
  const Dataset d = make_classification(cfg);
  EXPECT_TRUE(d.has_binary_labels());
}

TEST(MakeClassification, BothClassesPresent) {
  ClassificationConfig cfg;
  cfg.num_points = 200;
  cfg.num_features = 10;
  cfg.density = 0.5;
  const Dataset d = make_classification(cfg);
  std::set<double> labels(d.b.begin(), d.b.end());
  EXPECT_EQ(labels.size(), 2u);
}

TEST(MakeClassification, MarginEnforcedByRowScaling) {
  ClassificationConfig cfg;
  cfg.num_points = 150;
  cfg.num_features = 12;
  cfg.density = 0.6;
  cfg.margin = 0.8;
  cfg.seed = 5;
  const Dataset d = make_classification(cfg);
  // Recover the planted hyperplane deterministically: same RNG consumption
  // order as the generator is internal, so instead verify separability via
  // functional margins of the generating construction: every |A_i·w| ≥
  // margin is not directly checkable without w, but labels must be
  // realizable — check a weaker invariant: no zero rows.
  for (std::size_t i = 0; i < d.num_points(); ++i)
    EXPECT_GE(d.a.row_nnz(i), 1u);
}

TEST(MakeClassification, LabelNoiseFlipsSomeLabels) {
  ClassificationConfig clean, noisy;
  clean.num_points = noisy.num_points = 300;
  clean.num_features = noisy.num_features = 20;
  clean.seed = noisy.seed = 9;
  noisy.label_noise = 0.3;
  const Dataset a = make_classification(clean);
  const Dataset b = make_classification(noisy);
  std::size_t flips = 0;
  for (std::size_t i = 0; i < a.num_points(); ++i)
    if (a.b[i] != b.b[i]) ++flips;
  EXPECT_GT(flips, 30u);
  EXPECT_LT(flips, 150u);
}

TEST(PaperShapes, MatchPrintedTables) {
  const PaperShape url = paper_shape(PaperDataset::kUrl);
  EXPECT_EQ(url.features, 3231961u);
  EXPECT_EQ(url.points, 2396130u);
  EXPECT_FALSE(url.classification);

  const PaperShape covtype = paper_shape(PaperDataset::kCovtype);
  EXPECT_EQ(covtype.features, 54u);
  EXPECT_EQ(covtype.points, 581012u);
  EXPECT_NEAR(covtype.nnz_percent, 22.0, 1e-12);

  const PaperShape gisette = paper_shape(PaperDataset::kGisette);
  EXPECT_TRUE(gisette.classification);
  EXPECT_EQ(gisette.features, 6000u);
}

TEST(PaperTwin, ShrinkScalesDimensions) {
  const Dataset d = make_paper_twin(PaperDataset::kNews20, 100.0);
  const PaperShape s = paper_shape(PaperDataset::kNews20);
  EXPECT_NEAR(static_cast<double>(d.num_features()),
              static_cast<double>(s.features) / 100.0, 2.0);
  EXPECT_NEAR(static_cast<double>(d.num_points()),
              static_cast<double>(s.points) / 100.0, 2.0);
}

TEST(PaperTwin, MinimumDimensionFloor) {
  const Dataset d = make_paper_twin(PaperDataset::kLeu, 1e9);
  EXPECT_GE(d.num_features(), 16u);
  EXPECT_GE(d.num_points(), 16u);
}

TEST(PaperTwin, ClassificationTwinsHaveBinaryLabels) {
  for (PaperDataset which : svm_paper_datasets()) {
    const Dataset d = make_paper_twin(which, 200.0, 42,
                                      /*force_classification=*/true);
    EXPECT_TRUE(d.has_binary_labels()) << d.name;
  }
}

TEST(PaperTwin, RegressionTwinsHaveContinuousTargets) {
  const Dataset d = make_paper_twin(PaperDataset::kCovtype, 500.0);
  EXPECT_FALSE(d.has_binary_labels());
}

TEST(PaperTwin, DensityTracksTable) {
  const Dataset dense_twin = make_paper_twin(PaperDataset::kEpsilon, 100.0);
  EXPECT_GT(dense_twin.density(), 0.95);
  const Dataset sparse_twin = make_paper_twin(PaperDataset::kNews20, 50.0);
  EXPECT_LT(sparse_twin.density(), 0.05);
}

TEST(PaperTwin, RejectsShrinkBelowOne) {
  EXPECT_THROW(make_paper_twin(PaperDataset::kLeu, 0.5),
               sa::PreconditionError);
}

TEST(PaperTwin, DatasetListsCoverTables) {
  EXPECT_EQ(lasso_paper_datasets().size(), 5u);   // Table II
  EXPECT_EQ(svm_paper_datasets().size(), 6u);     // Table IV
}

}  // namespace
}  // namespace sa::data
