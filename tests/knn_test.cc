// Tests for kNN search (the sink-driven KnnSearch core) and the
// CBB-aware MINDIST bound.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/clip_builder.h"
#include "core/mindist.h"
#include "rtree/factory.h"
#include "rtree/knn.h"
#include "test_util.h"

namespace clipbb::rtree {
namespace {

using clipbb::testing::RandomPoint;
using clipbb::testing::RandomRect;
using geom::Rect;
using geom::Vec;

TEST(MinDist2, BoxCases) {
  const Rect<2> r{{0, 0}, {2, 2}};
  EXPECT_DOUBLE_EQ(core::MinDist2<2>({1.0, 1.0}, r), 0.0);   // inside
  EXPECT_DOUBLE_EQ(core::MinDist2<2>({3.0, 1.0}, r), 1.0);   // right face
  EXPECT_DOUBLE_EQ(core::MinDist2<2>({3.0, 3.0}, r), 2.0);   // corner
  EXPECT_DOUBLE_EQ(core::MinDist2<2>({-2.0, -2.0}, r), 8.0);
}

TEST(CbbMinDist2, TightensInsideClippedCorner) {
  // MBB [0,10]^2 with corner 00 clipped at (4,4): a query at the origin
  // projects into the dead region, so the true distance is to the region's
  // inner faces rather than 0.
  const Rect<2> mbb{{0, 0}, {10, 10}};
  const std::vector<core::ClipPoint<2>> clips = {{{4.0, 4.0}, 0b00, 16.0}};
  const Vec<2> q{0.0, 0.0};
  EXPECT_DOUBLE_EQ(core::MinDist2<2>(q, mbb), 0.0);
  // Nearest non-dead point: (4, 0) or (0, 4), distance^2 = 16.
  EXPECT_DOUBLE_EQ(core::CbbMinDist2<2>(q, mbb, clips), 16.0);
  // A query projecting outside the region keeps the plain bound.
  EXPECT_DOUBLE_EQ(core::CbbMinDist2<2>({5.0, -1.0}, mbb, clips), 1.0);
}

TEST(CbbMinDist2, NeverBelowPlainBound) {
  Rng rng(271);
  for (int t = 0; t < 500; ++t) {
    const auto children =
        clipbb::testing::RandomRects<2>(rng, 10, 0.2);
    const Rect<2> mbb =
        geom::BoundingRect<2>(children.begin(), children.end());
    const auto clips =
        core::BuildClips<2>(mbb, children, core::ClipConfig<2>::Sta(8, 0.0));
    const auto q = RandomPoint<2>(rng, -0.5, 1.5);
    const double plain = core::MinDist2<2>(q, mbb);
    const double cbb = core::CbbMinDist2<2>(q, mbb, clips);
    EXPECT_GE(cbb, plain);
    // Admissibility: never exceeds the true distance to any child.
    for (const auto& ch : children) {
      EXPECT_LE(cbb, core::MinDist2<2>(q, ch) + 1e-9);
    }
  }
}

TEST(CbbMinDist2, Admissible3d) {
  Rng rng(272);
  for (int t = 0; t < 300; ++t) {
    const auto children =
        clipbb::testing::RandomRects<3>(rng, 8, 0.25);
    const Rect<3> mbb =
        geom::BoundingRect<3>(children.begin(), children.end());
    const auto clips = core::BuildClips<3>(mbb, children,
                                           core::ClipConfig<3>::Sta(16, 0.0));
    const auto q = RandomPoint<3>(rng, -0.5, 1.5);
    const double cbb = core::CbbMinDist2<3>(q, mbb, clips);
    for (const auto& ch : children) {
      EXPECT_LE(cbb, core::MinDist2<3>(q, ch) + 1e-9);
    }
  }
}

class KnnTest : public ::testing::TestWithParam<Variant> {};

/// Collects KnnSearch results into a vector.
template <int D>
std::vector<KnnNeighbor<D>> Knn(const RTree<D>& tree, const Vec<D>& q,
                                int k, storage::IoStats* io = nullptr) {
  std::vector<KnnNeighbor<D>> out;
  KnnSearch<D>(tree, q, k,
               [&out](const KnnNeighbor<D>& n) { out.push_back(n); }, io);
  return out;
}

template <int D>
geom::Rect<D> Domain() {
  geom::Rect<D> r;
  for (int i = 0; i < D; ++i) {
    r.lo[i] = -0.5;
    r.hi[i] = 1.5;
  }
  return r;
}

TEST_P(KnnTest, MatchesBruteForceDistances) {
  Rng rng(273);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 2000; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.02), i});
  }
  auto tree = BuildTree<2>(GetParam(), items, Domain<2>());
  for (int t = 0; t < 40; ++t) {
    const auto q = RandomPoint<2>(rng);
    const auto got = Knn<2>(*tree, q, 10);
    ASSERT_EQ(got.size(), 10u);
    std::vector<double> brute;
    for (const auto& e : items) brute.push_back(core::MinDist2<2>(q, e.rect));
    std::sort(brute.begin(), brute.end());
    for (int i = 0; i < 10; ++i) {
      EXPECT_NEAR(got[i].dist2, brute[i], 1e-12) << "rank " << i;
      if (i) EXPECT_GE(got[i].dist2, got[i - 1].dist2);
    }
  }
}

TEST_P(KnnTest, ClippedReturnsIdenticalDistancesWithFewerAccesses) {
  Rng rng(274);
  std::vector<Entry<3>> items;
  for (int i = 0; i < 3000; ++i) {
    items.push_back(Entry<3>{RandomRect<3>(rng, 0.01), i});
  }
  auto tree = BuildTree<3>(GetParam(), items, Domain<3>());
  std::vector<Vec<3>> queries;
  for (int t = 0; t < 40; ++t) queries.push_back(RandomPoint<3>(rng));

  storage::IoStats plain_io;
  std::vector<std::vector<double>> plain_d;
  for (const auto& q : queries) {
    auto res = Knn<3>(*tree, q, 5, &plain_io);
    std::vector<double> d;
    for (const auto& r : res) d.push_back(r.dist2);
    plain_d.push_back(std::move(d));
  }
  tree->EnableClipping(core::ClipConfig<3>::Sta());
  storage::IoStats clip_io;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto res = Knn<3>(*tree, queries[i], 5, &clip_io);
    ASSERT_EQ(res.size(), plain_d[i].size());
    for (size_t j = 0; j < res.size(); ++j) {
      EXPECT_NEAR(res[j].dist2, plain_d[i][j], 1e-12);
    }
  }
  EXPECT_LE(clip_io.TotalAccesses(), plain_io.TotalAccesses());
}

TEST_P(KnnTest, EdgeCases) {
  auto tree = MakeRTree<2>(GetParam(), Domain<2>());
  EXPECT_TRUE(Knn<2>(*tree, {0.5, 0.5}, 0).empty());
  EXPECT_TRUE(Knn<2>(*tree, {0.5, 0.5}, 3).empty());  // empty tree
  tree->Insert(Rect<2>{{0.1, 0.1}, {0.2, 0.2}}, 7);
  const auto res = Knn<2>(*tree, {0.5, 0.5}, 3);
  ASSERT_EQ(res.size(), 1u);  // fewer objects than k
  EXPECT_EQ(res[0].id, 7);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, KnnTest,
                         ::testing::ValuesIn(kAllVariants),
                         [](const auto& info) {
                           switch (info.param) {
                             case Variant::kGuttman:
                               return "Guttman";
                             case Variant::kHilbert:
                               return "Hilbert";
                             case Variant::kRStar:
                               return "RStar";
                             case Variant::kRRStar:
                               return "RRStar";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace clipbb::rtree
