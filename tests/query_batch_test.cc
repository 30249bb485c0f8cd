// Tests for the batched traversal layer: TraversalScratch reuse, Hilbert
// scheduling, and SpatialEngine::ExecuteBatch parity with one-at-a-time
// execution.
#include <gtest/gtest.h>

#include <vector>

#include "rtree/factory.h"
#include "rtree/query_api.h"
#include "test_util.h"
#include "util/rng.h"

namespace clipbb::rtree {
namespace {

template <int D>
struct Fixture {
  geom::Rect<D> domain{};
  std::vector<Entry<D>> items;
  std::vector<geom::Rect<D>> queries;
  std::unique_ptr<RTree<D>> tree;

  Fixture(Variant v, int n, int nq, uint64_t seed) {
    for (int i = 0; i < D; ++i) {
      domain.lo[i] = 0.0;
      domain.hi[i] = 1.0;
    }
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      items.push_back({testing::RandomRect<D>(rng, 0.1), i});
    }
    for (int q = 0; q < nq; ++q) {
      queries.push_back(testing::RandomRect<D>(rng, 0.2));
    }
    tree = BuildTree<D>(v, items, domain);
  }

  std::vector<size_t> SequentialCounts(storage::IoStats* io) const {
    std::vector<size_t> counts;
    counts.reserve(queries.size());
    for (const auto& q : queries) counts.push_back(tree->RangeCount(q, io));
    return counts;
  }
};

TEST(QueryBatch, CountsMatchSequentialInInputOrder) {
  Fixture<2> f(Variant::kRStar, 2000, 200, 5);
  f.tree->RefreshAccel();
  storage::IoStats seq_io;
  const std::vector<size_t> expected = f.SequentialCounts(&seq_io);

  for (bool hilbert : {false, true}) {
    QueryBatchOptions opts;
    opts.hilbert_order = hilbert;
    opts.threads = 1;
    const QueryBatchResult r = SpatialEngine<2>(*f.tree).ExecuteBatch(
        std::span<const geom::Rect<2>>(f.queries), opts);
    EXPECT_EQ(r.counts, expected) << "hilbert=" << hilbert;
    EXPECT_EQ(r.io.leaf_accesses, seq_io.leaf_accesses);
    EXPECT_EQ(r.io.internal_accesses, seq_io.internal_accesses);
  }
}

TEST(QueryBatch, ThreadedMatchesSequential) {
  Fixture<3> f(Variant::kHilbert, 3000, 300, 6);
  f.tree->EnableClipping(core::ClipConfig<3>::Sta());
  storage::IoStats seq_io;
  const std::vector<size_t> expected = f.SequentialCounts(&seq_io);

  QueryBatchOptions opts;
  opts.threads = 4;
  const QueryBatchResult r = SpatialEngine<3>(*f.tree).ExecuteBatch(
      std::span<const geom::Rect<3>>(f.queries), opts);
  EXPECT_EQ(r.counts, expected);
  EXPECT_EQ(r.io.leaf_accesses, seq_io.leaf_accesses);
  EXPECT_EQ(r.io.internal_accesses, seq_io.internal_accesses);
  EXPECT_EQ(r.io.contributing_leaf_accesses,
            seq_io.contributing_leaf_accesses);
}

TEST(QueryBatch, MixedSpecKindsShareOneSchedule) {
  // The spec batch is not rects-only: interleave kinds and check counts
  // land in input order (the batch result contract).
  Fixture<2> f(Variant::kGuttman, 1000, 0, 7);
  Rng rng(70);
  std::vector<QuerySpec<2>> specs;
  std::vector<size_t> expected;
  const SpatialEngine<2> engine(*f.tree);
  for (int i = 0; i < 90; ++i) {
    if (i % 2 == 0) {
      specs.push_back(QuerySpec<2>::Intersects(testing::RandomRect<2>(rng, 0.2)));
    } else {
      specs.push_back(QuerySpec<2>::ContainsPoint(testing::RandomPoint<2>(rng)));
    }
    expected.push_back(engine.Execute(specs.back()));
  }
  const QueryBatchResult r =
      engine.ExecuteBatch(std::span<const QuerySpec<2>>(specs));
  EXPECT_EQ(r.counts, expected);
}

TEST(QueryBatch, ScratchReuseAcrossManyQueries) {
  Fixture<2> f(Variant::kRStar, 1500, 0, 8);
  f.tree->RefreshAccel();
  TraversalScratch scratch;
  scratch.Reserve(f.tree->Height(), f.tree->options().max_entries);
  Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    const geom::Rect<2> q = testing::RandomRect<2>(rng, 0.15);
    std::vector<ObjectId> via_scratch, via_tree;
    storage::IoStats io_scratch, io_tree;
    EXPECT_EQ(f.tree->RangeQuery(q, &via_scratch, &io_scratch, &scratch),
              f.tree->RangeQuery(q, &via_tree, &io_tree));
    EXPECT_EQ(via_scratch, via_tree);
    EXPECT_EQ(io_scratch.TotalAccesses(), io_tree.TotalAccesses());
  }
}

TEST(QueryBatch, HilbertOrderIsAPermutation) {
  Fixture<2> f(Variant::kRStar, 500, 97, 9);
  const std::vector<uint32_t> order =
      HilbertQueryOrder<2>(f.tree->bounds(), f.queries);
  ASSERT_EQ(order.size(), f.queries.size());
  std::vector<char> seen(order.size(), 0);
  for (uint32_t i : order) {
    ASSERT_LT(i, seen.size());
    EXPECT_EQ(seen[i], 0);
    seen[i] = 1;
  }
}

TEST(QueryBatch, EmptyBatchAndEmptyTree) {
  Fixture<2> f(Variant::kRStar, 0, 10, 10);
  const SpatialEngine<2> engine(*f.tree);
  const QueryBatchResult r =
      engine.ExecuteBatch(std::span<const geom::Rect<2>>(f.queries));
  ASSERT_EQ(r.counts.size(), 10u);
  for (size_t c : r.counts) EXPECT_EQ(c, 0u);

  const QueryBatchResult empty =
      engine.ExecuteBatch(std::span<const geom::Rect<2>>{});
  EXPECT_TRUE(empty.counts.empty());
}

TEST(QueryBatch, WorksWhileAccelStale) {
  Fixture<2> f(Variant::kRStar, 800, 80, 11);
  f.tree->RefreshAccel();
  Rng rng(12);
  f.tree->Insert(testing::RandomRect<2>(rng, 0.1), 99999);  // stale now
  ASSERT_FALSE(f.tree->AccelFresh());
  const std::vector<size_t> expected = f.SequentialCounts(nullptr);
  const QueryBatchResult r = SpatialEngine<2>(*f.tree).ExecuteBatch(
      std::span<const geom::Rect<2>>(f.queries));
  EXPECT_EQ(r.counts, expected);
}

}  // namespace
}  // namespace clipbb::rtree
