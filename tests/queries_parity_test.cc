// Parity tests for the unified query API, two ways:
//
//  1. Brute force: every QuerySpec kind through SpatialEngine over the
//     in-memory tree must return exactly the linear-scan answer in every
//     configuration — clipping on/off, SoA accelerator fresh/stale, and
//     per-query vs reused-scratch execution.
//
//  2. Cross-backend: the SAME specs through SpatialEngine over the
//     in-memory RTree and the disk-resident PagedRTree of the same tree
//     must produce identical results IN VISIT ORDER and identical logical
//     I/O (leaf / internal / contributing / clip accesses), for every
//     variant at D=2 and D=3 — the acceptance gate of the one-API-two-
//     engines redesign.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "rtree/factory.h"
#include "rtree/paged_rtree.h"
#include "rtree/query_api.h"
#include "test_util.h"
#include "util/rng.h"

namespace clipbb::rtree {
namespace {

template <int D>
struct Fixture {
  geom::Rect<D> domain;
  std::vector<Entry<D>> items;
  std::unique_ptr<RTree<D>> tree;

  Fixture(Variant v, int n, uint64_t seed) {
    for (int i = 0; i < D; ++i) {
      domain.lo[i] = -0.5;
      domain.hi[i] = 1.5;
    }
    Rng rng(seed);
    items.reserve(n);
    for (int i = 0; i < n; ++i) {
      items.push_back({testing::RandomRect<D>(rng, 0.15), i});
    }
    tree = BuildTree<D>(v, items, domain);
  }
};

std::vector<ObjectId> Sorted(std::vector<ObjectId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

template <int D>
void CheckAllQueryTypes(const Fixture<D>& f, uint64_t seed) {
  const SpatialEngine<D> engine(*f.tree);
  Rng rng(seed);
  TraversalScratch scratch;
  for (int trial = 0; trial < 40; ++trial) {
    const geom::Vec<D> p = testing::RandomPoint<D>(rng, -0.2, 1.2);
    const geom::Rect<D> w = testing::RandomRect<D>(rng, 0.3);

    // Brute-force answers.
    std::vector<ObjectId> bf_point, bf_within, bf_enclose, bf_range;
    for (const auto& e : f.items) {
      if (e.rect.ContainsPoint(p)) bf_point.push_back(e.id);
      if (w.Contains(e.rect)) bf_within.push_back(e.id);
      if (e.rect.Contains(w)) bf_enclose.push_back(e.id);
      if (e.rect.Intersects(w)) bf_range.push_back(e.id);
    }

    std::vector<ObjectId> got;
    CollectIds<D> sink(&got);
    EXPECT_EQ(engine.Execute(QuerySpec<D>::ContainsPoint(p), &sink),
              bf_point.size());
    EXPECT_EQ(Sorted(std::move(got)), Sorted(bf_point));

    got.clear();
    EXPECT_EQ(engine.Execute(QuerySpec<D>::ContainedIn(w), &sink),
              bf_within.size());
    EXPECT_EQ(Sorted(std::move(got)), Sorted(bf_within));

    got.clear();
    EXPECT_EQ(engine.Execute(QuerySpec<D>::Encloses(w), &sink),
              bf_enclose.size());
    EXPECT_EQ(Sorted(std::move(got)), Sorted(bf_enclose));

    got.clear();
    EXPECT_EQ(engine.Execute(QuerySpec<D>::Intersects(w), &sink),
              bf_range.size());
    EXPECT_EQ(Sorted(std::move(got)), Sorted(bf_range));

    // Same queries through a reused scratch must agree exactly.
    got.clear();
    EXPECT_EQ(engine.Execute(QuerySpec<D>::ContainsPoint(p), &sink, nullptr,
                             &scratch),
              bf_point.size());
    got.clear();
    EXPECT_EQ(engine.Execute(QuerySpec<D>::Intersects(w), &sink, nullptr,
                             &scratch),
              bf_range.size());
  }
}

TEST(QueriesParity, UnclippedAccelStale2d) {
  Fixture<2> f(Variant::kRStar, 1500, 71);
  ASSERT_FALSE(f.tree->AccelFresh());
  CheckAllQueryTypes<2>(f, 1);
}

TEST(QueriesParity, UnclippedAccelFresh2d) {
  Fixture<2> f(Variant::kRStar, 1500, 71);
  f.tree->RefreshAccel();
  ASSERT_TRUE(f.tree->AccelFresh());
  CheckAllQueryTypes<2>(f, 1);  // same seed: same queries as the stale run
}

TEST(QueriesParity, ClippedAccelFresh2d) {
  Fixture<2> f(Variant::kHilbert, 1500, 72);
  f.tree->EnableClipping(core::ClipConfig<2>::Sta());
  f.tree->RefreshAccel();
  ASSERT_TRUE(f.tree->AccelFresh());
  CheckAllQueryTypes<2>(f, 2);
}

TEST(QueriesParity, ClippedAccelStale3d) {
  Fixture<3> f(Variant::kGuttman, 1200, 73);
  f.tree->EnableClipping(core::ClipConfig<3>::Sky());
  ASSERT_FALSE(f.tree->AccelFresh());
  CheckAllQueryTypes<3>(f, 3);
}

TEST(QueriesParity, ClippedAccelFresh3d) {
  Fixture<3> f(Variant::kGuttman, 1200, 73);
  f.tree->EnableClipping(core::ClipConfig<3>::Sky());
  f.tree->RefreshAccel();
  CheckAllQueryTypes<3>(f, 3);
}

TEST(QueriesParity, FreshAndStalePathsEmitIdenticalSequences) {
  // Beyond set equality: the SoA and AoS paths must traverse in the same
  // order and emit the same result sequence and I/O counts.
  Fixture<2> f(Variant::kRStar, 2000, 74);
  f.tree->EnableClipping(core::ClipConfig<2>::Sta());
  const SpatialEngine<2> engine(*f.tree);
  Rng rng(9);
  for (int trial = 0; trial < 25; ++trial) {
    const QuerySpec<2> spec =
        QuerySpec<2>::Intersects(testing::RandomRect<2>(rng, 0.25));
    std::vector<ObjectId> stale_ids, fresh_ids;
    CollectIds<2> stale_sink(&stale_ids), fresh_sink(&fresh_ids);
    storage::IoStats stale_io, fresh_io;
    ASSERT_FALSE(f.tree->AccelFresh());
    engine.Execute(spec, &stale_sink, &stale_io);
    f.tree->RefreshAccel();
    engine.Execute(spec, &fresh_sink, &fresh_io);
    EXPECT_EQ(stale_ids, fresh_ids);
    EXPECT_EQ(stale_io.leaf_accesses, fresh_io.leaf_accesses);
    EXPECT_EQ(stale_io.internal_accesses, fresh_io.internal_accesses);
    EXPECT_EQ(stale_io.contributing_leaf_accesses,
              fresh_io.contributing_leaf_accesses);
    // Invalidate the accel again for the next round.
    f.tree->Insert(testing::RandomRect<2>(rng, 0.05), 100000 + trial);
  }
}

TEST(QueriesParity, UpdatesAfterRefreshFallBackCorrectly) {
  Fixture<2> f(Variant::kRStar, 800, 75);
  f.tree->EnableClipping(core::ClipConfig<2>::Sta());
  f.tree->RefreshAccel();
  const SpatialEngine<2> engine(*f.tree);
  std::vector<Entry<2>> ground_truth = f.items;
  Rng rng(10);
  // Interleave updates (which leave the accel stale and the clip arena
  // with a growing overlay) with brute-force parity checks.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 50; ++i) {
      const Entry<2> e{testing::RandomRect<2>(rng, 0.1),
                       5000 + round * 50 + i};
      f.tree->Insert(e.rect, e.id);
      ground_truth.push_back(e);
    }
    const geom::Rect<2> w = testing::RandomRect<2>(rng, 0.3);
    std::vector<ObjectId> brute;
    for (const auto& e : ground_truth) {
      if (e.rect.Intersects(w)) brute.push_back(e.id);
    }
    std::vector<ObjectId> got;
    CollectIds<2> sink(&got);
    ASSERT_FALSE(f.tree->AccelFresh());  // stale: scalar fallback path
    EXPECT_EQ(engine.Execute(QuerySpec<2>::Intersects(w), &sink),
              brute.size());
    EXPECT_EQ(Sorted(std::move(got)), Sorted(std::move(brute)));
  }
  // Re-flatten and confirm the fast path returns the same answer.
  const QuerySpec<2> spec =
      QuerySpec<2>::Intersects(testing::RandomRect<2>(rng, 0.3));
  std::vector<ObjectId> before, after;
  CollectIds<2> before_sink(&before), after_sink(&after);
  engine.Execute(spec, &before_sink);
  f.tree->RefreshAccel();
  engine.Execute(spec, &after_sink);
  EXPECT_EQ(before, after);
}

// ------------------------------------------------------- both backends

/// Every QuerySpec kind through SpatialEngine over the in-memory tree
/// and its paged twin: results must match element for element (identical
/// visit order, not just identical sets), logical I/O must match counter
/// for counter, and kNN ids and distances must match exactly. The
/// in-memory side runs twice: as built (insert-built variants leave the
/// SoA accelerator stale, so masks come from the AoS entries) and after
/// RefreshAccel (the SoA kernel).
template <int D>
void CheckEngineParityOnce(const Fixture<D>& f, uint64_t seed) {
  const testing::TempFileGuard file(testing::TempPagePath("parity"));
  ASSERT_TRUE(WritePagedTree<D>(*f.tree, file.path));
  PagedRTree<D> paged;
  ASSERT_TRUE(paged.Open(file.path));

  const SpatialEngine<D> memory(*f.tree);
  const SpatialEngine<D> disk(paged);
  EXPECT_EQ(memory.clipping_enabled(), disk.clipping_enabled());

  Rng rng(seed ^ 0xabcd);
  std::vector<QuerySpec<D>> specs;
  for (int t = 0; t < 12; ++t) {
    const geom::Vec<D> p = testing::RandomPoint<D>(rng, -0.2, 1.2);
    const geom::Rect<D> w = testing::RandomRect<D>(rng, 0.3);
    specs.push_back(QuerySpec<D>::Intersects(w));
    specs.push_back(QuerySpec<D>::ContainsPoint(p));
    specs.push_back(QuerySpec<D>::ContainedIn(w));
    specs.push_back(QuerySpec<D>::Encloses(testing::RandomRect<D>(rng, 0.02)));
    specs.push_back(QuerySpec<D>::Knn(p, 1 + static_cast<int>(rng.Below(10))));
  }

  uint64_t page_reads = 0;
  for (const auto& spec : specs) {
    storage::IoStats mem_io, disk_io;
    if (spec.kind == QueryKind::kKnn) {
      std::vector<KnnNeighbor<D>> mem_nn, disk_nn;
      KnnHeapSink<D> mem_sink(&mem_nn), disk_sink(&disk_nn);
      const size_t nm = memory.Execute(spec, &mem_sink, &mem_io);
      const size_t nd = disk.Execute(spec, &disk_sink, &disk_io);
      EXPECT_EQ(nm, nd);
      ASSERT_EQ(mem_nn.size(), disk_nn.size());
      for (size_t i = 0; i < mem_nn.size(); ++i) {
        EXPECT_EQ(mem_nn[i].id, disk_nn[i].id) << "neighbour " << i;
        EXPECT_EQ(mem_nn[i].dist2, disk_nn[i].dist2) << "neighbour " << i;
      }
    } else {
      std::vector<ObjectId> mem_ids, disk_ids;
      CollectIds<D> mem_sink(&mem_ids), disk_sink(&disk_ids);
      const size_t nm = memory.Execute(spec, &mem_sink, &mem_io);
      const size_t nd = disk.Execute(spec, &disk_sink, &disk_io);
      EXPECT_EQ(nm, nd) << QueryKindName(spec.kind);
      // Element-for-element: both engines traverse in the same order.
      EXPECT_EQ(mem_ids, disk_ids) << QueryKindName(spec.kind);
    }
    // Logical I/O parity, counter for counter.
    EXPECT_EQ(mem_io.leaf_accesses, disk_io.leaf_accesses)
        << QueryKindName(spec.kind);
    EXPECT_EQ(mem_io.internal_accesses, disk_io.internal_accesses)
        << QueryKindName(spec.kind);
    EXPECT_EQ(mem_io.contributing_leaf_accesses,
              disk_io.contributing_leaf_accesses)
        << QueryKindName(spec.kind);
    EXPECT_EQ(mem_io.clip_accesses, disk_io.clip_accesses)
        << QueryKindName(spec.kind);
    EXPECT_EQ(mem_io.page_reads, 0u);
    page_reads += disk_io.page_reads;
  }
  EXPECT_GT(page_reads, 0u);  // the paged engine really hit the disk

  // The whole mixed-kind batch agrees too, serial and fanned out.
  for (unsigned threads : {1u, 3u}) {
    QueryBatchOptions opts;
    opts.threads = threads;
    const QueryBatchResult mem_batch =
        memory.ExecuteBatch(std::span<const QuerySpec<D>>(specs), opts);
    const QueryBatchResult disk_batch =
        disk.ExecuteBatch(std::span<const QuerySpec<D>>(specs), opts);
    EXPECT_EQ(mem_batch.counts, disk_batch.counts);
    EXPECT_EQ(mem_batch.io.leaf_accesses, disk_batch.io.leaf_accesses);
    EXPECT_EQ(mem_batch.io.internal_accesses,
              disk_batch.io.internal_accesses);
    EXPECT_EQ(mem_batch.io.clip_accesses, disk_batch.io.clip_accesses);
  }

  paged.Close();
}

template <int D>
void CheckEngineParity(Variant v, bool clipped, uint64_t seed) {
  Fixture<D> f(v, 1000, seed);
  if (clipped) f.tree->EnableClipping(core::ClipConfig<D>::Sta());
  for (const bool refresh : {false, true}) {
    if (refresh) f.tree->RefreshAccel();
    SCOPED_TRACE(f.tree->AccelFresh() ? "accelerator fresh"
                                      : "accelerator stale");
    CheckEngineParityOnce<D>(f, seed);
  }
}

class EngineParity : public ::testing::TestWithParam<Variant> {};

TEST_P(EngineParity, AllSpecKindsClipped2d) {
  CheckEngineParity<2>(GetParam(), /*clipped=*/true, 81);
}

TEST_P(EngineParity, AllSpecKindsUnclipped2d) {
  CheckEngineParity<2>(GetParam(), /*clipped=*/false, 82);
}

TEST_P(EngineParity, AllSpecKindsClipped3d) {
  CheckEngineParity<3>(GetParam(), /*clipped=*/true, 83);
}

TEST_P(EngineParity, AllSpecKindsUnclipped3d) {
  CheckEngineParity<3>(GetParam(), /*clipped=*/false, 84);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, EngineParity,
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
