// The unified query API: QuerySpec construction, result-sink delivery,
// SpatialEngine::Execute / ::ExecuteBatch over both backends, the
// count-only fast path, and the move-free kNN sink contract.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "rtree/factory.h"
#include "rtree/query_api.h"
#include "test_util.h"
#include "util/rng.h"

namespace clipbb::rtree {
namespace {

using clipbb::testing::RandomPoint;
using clipbb::testing::RandomRect;

geom::Rect<2> Domain2() { return {{-0.5, -0.5}, {1.5, 1.5}}; }

/// One in-memory tree + its paged twin + engines over both.
struct BothEngines {
  std::vector<Entry<2>> items;
  std::unique_ptr<RTree<2>> tree;
  PagedRTree<2> paged;
  clipbb::testing::TempFileGuard file;
  SpatialEngine<2> memory;
  SpatialEngine<2> disk;

  BothEngines(Variant v, int n, uint64_t seed, bool clipped,
              const char* stem)
      : file(clipbb::testing::TempPagePath(std::string("api_") + stem)) {
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      items.push_back({RandomRect<2>(rng, 0.08), i});
    }
    tree = BuildTree<2>(v, items, Domain2());
    if (clipped) tree->EnableClipping(core::ClipConfig<2>::Sta());
    EXPECT_TRUE(WritePagedTree<2>(*tree, file.path));
    EXPECT_TRUE(paged.Open(file.path));
    memory = SpatialEngine<2>(*tree);
    disk = SpatialEngine<2>(paged);
  }
};

TEST(QuerySpec, FactoriesFillEveryField) {
  const geom::Rect<2> w{{0.1, 0.2}, {0.5, 0.6}};
  const geom::Vec<2> p{0.3, 0.4};

  const auto inter = QuerySpec<2>::Intersects(w);
  EXPECT_EQ(inter.kind, QueryKind::kIntersects);
  EXPECT_EQ(inter.window, w);

  const auto stab = QuerySpec<2>::ContainsPoint(p);
  EXPECT_EQ(stab.kind, QueryKind::kContainsPoint);
  // Point kinds store the degenerate rect so batch scheduling can key on
  // window.Center() for every kind.
  for (int d = 0; d < 2; ++d) {
    EXPECT_DOUBLE_EQ(stab.point[d], p[d]);
    EXPECT_DOUBLE_EQ(stab.window.Center()[d], p[d]);
  }

  const auto within = QuerySpec<2>::ContainedIn(w);
  EXPECT_EQ(within.kind, QueryKind::kContainedIn);

  const auto encl = QuerySpec<2>::Encloses(w);
  EXPECT_EQ(encl.kind, QueryKind::kEncloses);

  const auto knn = QuerySpec<2>::Knn(p, 7);
  EXPECT_EQ(knn.kind, QueryKind::kKnn);
  EXPECT_EQ(knn.k, 7);
  for (int d = 0; d < 2; ++d) {
    EXPECT_DOUBLE_EQ(knn.point[d], p[d]);
    EXPECT_DOUBLE_EQ(knn.window.Center()[d], p[d]);
  }

  EXPECT_STREQ(QueryKindName(QueryKind::kKnn), "knn");
}

TEST(ResultSinks, DeliverAgainstBruteForce) {
  BothEngines f(Variant::kRStar, 1500, 41, /*clipped=*/true, "sinks");
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Rect<2> w = RandomRect<2>(rng, 0.25);
    std::vector<ObjectId> brute;
    for (const auto& e : f.items) {
      if (e.rect.Intersects(w)) brute.push_back(e.id);
    }
    std::sort(brute.begin(), brute.end());

    // CollectIds.
    std::vector<ObjectId> ids;
    CollectIds<2> collect(&ids);
    const size_t n =
        f.memory.Execute(QuerySpec<2>::Intersects(w), &collect);
    EXPECT_EQ(n, brute.size());
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, brute);

    // CountOnly accumulates across calls.
    CountOnly<2> counter;
    f.memory.Execute(QuerySpec<2>::Intersects(w), &counter);
    f.disk.Execute(QuerySpec<2>::Intersects(w), &counter);
    EXPECT_EQ(counter.count(), 2 * brute.size());
    counter.Reset();
    EXPECT_EQ(counter.count(), 0u);

    // CallbackSink streams.
    size_t streamed = 0;
    auto cb = MakeCallbackSink<2>([&](ObjectId) { ++streamed; });
    f.disk.Execute(QuerySpec<2>::Intersects(w), &cb);
    EXPECT_EQ(streamed, brute.size());
  }
}

TEST(ResultSinks, NullSinkIsTheSharedCountOnlyFastPath) {
  // Satellite: count-only parity — no out vector on either engine, same
  // counts and identical logical I/O as the materializing run.
  BothEngines f(Variant::kHilbert, 2000, 43, /*clipped=*/true, "countonly");
  Rng rng(44);
  for (int trial = 0; trial < 15; ++trial) {
    const geom::Rect<2> w = RandomRect<2>(rng, 0.2);
    const QuerySpec<2> spec = QuerySpec<2>::Intersects(w);
    for (const SpatialEngine<2>* engine : {&f.memory, &f.disk}) {
      std::vector<ObjectId> ids;
      CollectIds<2> collect(&ids);
      storage::IoStats io_collect, io_count;
      const size_t with_sink = engine->Execute(spec, &collect, &io_collect);
      const size_t count_only =
          engine->Execute(spec, /*sink=*/nullptr, &io_count);
      EXPECT_EQ(with_sink, count_only);
      EXPECT_EQ(ids.size(), count_only);
      EXPECT_EQ(io_collect.leaf_accesses, io_count.leaf_accesses);
      EXPECT_EQ(io_collect.internal_accesses, io_count.internal_accesses);
      EXPECT_EQ(io_collect.contributing_leaf_accesses,
                io_count.contributing_leaf_accesses);
    }
  }
}

/// A sink that cannot be copied or moved: the engine must deliver through
/// the caller's pointer, never by value. Combined with the streaming
/// KnnNeighbor delivery this is the move-free regression test for the old
/// by-value paged kNN API.
class PinnedKnnSink final : public ResultSink<2> {
 public:
  PinnedKnnSink() = default;
  PinnedKnnSink(const PinnedKnnSink&) = delete;
  PinnedKnnSink& operator=(const PinnedKnnSink&) = delete;
  PinnedKnnSink(PinnedKnnSink&&) = delete;
  PinnedKnnSink& operator=(PinnedKnnSink&&) = delete;

  void OnMatch(ObjectId) override { ADD_FAILURE() << "kNN must OnNeighbor"; }
  void OnNeighbor(const KnnNeighbor<2>& n) override {
    if (!dists.empty()) EXPECT_GE(n.dist2, dists.back());  // ascending
    dists.push_back(n.dist2);
    ids.push_back(n.id);
  }

  std::vector<double> dists;
  std::vector<ObjectId> ids;
};

TEST(KnnSink, MoveFreeStreamingOnBothEngines) {
  BothEngines f(Variant::kRRStar, 1800, 45, /*clipped=*/true, "knnsink");
  Rng rng(46);
  for (int trial = 0; trial < 15; ++trial) {
    const geom::Vec<2> p = RandomPoint<2>(rng);
    const int k = 1 + static_cast<int>(rng.Below(12));
    PinnedKnnSink mem_sink, disk_sink;
    const size_t nm =
        f.memory.Execute(QuerySpec<2>::Knn(p, k), &mem_sink);
    const size_t nd = f.disk.Execute(QuerySpec<2>::Knn(p, k), &disk_sink);
    ASSERT_EQ(nm, static_cast<size_t>(k));
    ASSERT_EQ(nd, static_cast<size_t>(k));
    // The k nearest distances are a unique multiset even when ids tie.
    for (int i = 0; i < k; ++i) {
      EXPECT_DOUBLE_EQ(mem_sink.dists[i], disk_sink.dists[i]);
    }
    // Brute-force cross-check of the distances.
    std::vector<double> brute;
    for (const auto& e : f.items) {
      brute.push_back(core::MinDist2<2>(p, e.rect));
    }
    std::sort(brute.begin(), brute.end());
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(mem_sink.dists[i], brute[i], 1e-12);
    }
  }
  // KnnHeapSink fills a caller-owned vector in ascending order.
  std::vector<KnnNeighbor<2>> nn;
  KnnHeapSink<2> heap(&nn);
  f.disk.Execute(QuerySpec<2>::Knn({0.5, 0.5}, 9), &heap);
  ASSERT_EQ(nn.size(), 9u);
  for (size_t i = 1; i < nn.size(); ++i) {
    EXPECT_GE(nn[i].dist2, nn[i - 1].dist2);
  }
}

TEST(ExecuteBatch, MixedKindsMatchPerQueryExecute) {
  BothEngines f(Variant::kGuttman, 2500, 47, /*clipped=*/true, "batch");
  Rng rng(48);
  std::vector<QuerySpec<2>> specs;
  for (int i = 0; i < 120; ++i) {
    switch (i % 5) {
      case 0:
        specs.push_back(QuerySpec<2>::Intersects(RandomRect<2>(rng, 0.15)));
        break;
      case 1:
        specs.push_back(QuerySpec<2>::ContainsPoint(RandomPoint<2>(rng)));
        break;
      case 2:
        specs.push_back(QuerySpec<2>::ContainedIn(RandomRect<2>(rng, 0.3)));
        break;
      case 3:
        specs.push_back(QuerySpec<2>::Encloses(RandomRect<2>(rng, 0.01)));
        break;
      default:
        specs.push_back(
            QuerySpec<2>::Knn(RandomPoint<2>(rng),
                              1 + static_cast<int>(rng.Below(8))));
    }
  }
  // Reference: one Execute per spec, serial, on the memory engine.
  std::vector<size_t> expected;
  storage::IoStats expected_io;
  for (const auto& s : specs) {
    expected.push_back(f.memory.Execute(s, nullptr, &expected_io));
  }

  for (const SpatialEngine<2>* engine : {&f.memory, &f.disk}) {
    for (unsigned threads : {1u, 4u}) {
      for (bool hilbert : {true, false}) {
        QueryBatchOptions opts;
        opts.threads = threads;
        opts.hilbert_order = hilbert;
        const QueryBatchResult r = engine->ExecuteBatch(
            std::span<const QuerySpec<2>>(specs), opts);
        EXPECT_EQ(r.counts, expected)
            << engine->backend_name() << " t=" << threads
            << " hilbert=" << hilbert;
        EXPECT_EQ(r.io.leaf_accesses, expected_io.leaf_accesses);
        EXPECT_EQ(r.io.internal_accesses, expected_io.internal_accesses);
      }
    }
  }

  // The rect-window convenience overload matches intersects specs.
  std::vector<geom::Rect<2>> windows;
  for (int i = 0; i < 60; ++i) windows.push_back(RandomRect<2>(rng, 0.2));
  const QueryBatchResult via_rects =
      f.memory.ExecuteBatch(std::span<const geom::Rect<2>>(windows));
  const auto as_specs =
      MakeIntersectsSpecs<2>(std::span<const geom::Rect<2>>(windows));
  const QueryBatchResult via_specs =
      f.memory.ExecuteBatch(std::span<const QuerySpec<2>>(as_specs));
  EXPECT_EQ(via_rects.counts, via_specs.counts);

  // Empty batch.
  const QueryBatchResult empty =
      f.disk.ExecuteBatch(std::span<const QuerySpec<2>>{});
  EXPECT_TRUE(empty.counts.empty());
  EXPECT_EQ(empty.io.TotalAccesses(), 0u);
}

TEST(SpatialEngine, ReportsBackendMetadata) {
  BothEngines f(Variant::kHilbert, 1200, 49, /*clipped=*/true, "meta");
  EXPECT_STREQ(f.memory.backend_name(), "memory");
  EXPECT_STREQ(f.disk.backend_name(), "paged");
  EXPECT_EQ(f.memory.NumObjects(), f.disk.NumObjects());
  EXPECT_EQ(f.memory.Height(), f.disk.Height());
  EXPECT_EQ(f.memory.max_entries(), f.disk.max_entries());
  EXPECT_TRUE(f.memory.clipping_enabled());
  EXPECT_TRUE(f.disk.clipping_enabled());
  EXPECT_EQ(f.memory.bounds(), f.disk.bounds());
  EXPECT_FALSE(SpatialEngine<2>().valid());
  EXPECT_TRUE(f.memory.valid());
}

}  // namespace
}  // namespace clipbb::rtree
