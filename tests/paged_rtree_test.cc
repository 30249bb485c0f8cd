// Query parity of the disk-resident PagedRTree against the in-memory
// RTree: range, kNN, and batched traversal must return identical results
// and identical logical I/O counts, while the paged side additionally
// reports real page reads. Also checks the paper's headline trend on the
// paged engine: clipped trees read fewer leaf pages than unclipped ones.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "rtree/factory.h"
#include "rtree/knn.h"
#include "rtree/paged_rtree.h"
#include "rtree/query_api.h"
#include "test_util.h"
#include "workload/dataset.h"
#include "workload/query.h"

namespace clipbb::rtree {
namespace {

using clipbb::testing::RandomPoint;
using clipbb::testing::RandomRect;

template <int D>
geom::Rect<D> Domain() {
  geom::Rect<D> r;
  for (int i = 0; i < D; ++i) {
    r.lo[i] = -0.5;
    r.hi[i] = 1.5;
  }
  return r;
}

/// Unique temp path per test; removed by the fixture-less helper below.
std::string TempPath(const char* name) {
  return ::testing::TempDir() + "clipbb_" + name + "_" +
         std::to_string(::getpid()) + ".pages";
}

struct FileGuard {
  explicit FileGuard(std::string p) : path(std::move(p)) {}
  ~FileGuard() { std::remove(path.c_str()); }
  std::string path;
};

class PagedParity : public ::testing::TestWithParam<Variant> {};

TEST_P(PagedParity, RangeQueryMatchesInMemory) {
  Rng rng(301);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 3000; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.04), i});
  }
  auto tree = BuildTree<2>(GetParam(), items, Domain<2>());
  tree->EnableClipping(core::ClipConfig<2>::Sta());

  FileGuard file(TempPath("range"));
  ASSERT_TRUE(WritePagedTree<2>(*tree, file.path));
  PagedRTree<2> paged;
  ASSERT_TRUE(paged.Open(file.path));
  EXPECT_EQ(paged.NumObjects(), tree->NumObjects());
  EXPECT_EQ(paged.NumNodes(), tree->NumNodes());
  EXPECT_EQ(paged.Height(), tree->Height());
  EXPECT_TRUE(paged.clipping_enabled());
  EXPECT_EQ(paged.clip_index().TotalClipPoints(),
            tree->clip_index().TotalClipPoints());

  uint64_t total_page_reads = 0;
  for (int q = 0; q < 120; ++q) {
    const auto query = RandomRect<2>(rng, 0.15);
    std::vector<ObjectId> a, b;
    storage::IoStats io_a, io_b;
    tree->RangeQuery(query, &a, &io_a);
    paged.RangeQuery(query, &b, &io_b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    EXPECT_EQ(io_a.leaf_accesses, io_b.leaf_accesses);
    EXPECT_EQ(io_a.internal_accesses, io_b.internal_accesses);
    EXPECT_EQ(io_a.contributing_leaf_accesses,
              io_b.contributing_leaf_accesses);
    EXPECT_EQ(io_a.clip_accesses, io_b.clip_accesses);
    EXPECT_EQ(io_a.page_reads, 0u);  // in-memory tree reads no pages
    total_page_reads += io_b.page_reads;
  }
  EXPECT_GT(total_page_reads, 0u);  // the paged tree really hit the disk
}

TEST_P(PagedParity, KnnMatchesInMemory) {
  Rng rng(302);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 2500; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.04), i});
  }
  auto tree = BuildTree<2>(GetParam(), items, Domain<2>());
  tree->EnableClipping(core::ClipConfig<2>::Sta());

  FileGuard file(TempPath("knn"));
  ASSERT_TRUE(WritePagedTree<2>(*tree, file.path));
  PagedRTree<2> paged;
  ASSERT_TRUE(paged.Open(file.path));

  for (int q = 0; q < 40; ++q) {
    const auto p = RandomPoint<2>(rng);
    const int k = 1 + static_cast<int>(rng.Below(16));
    std::vector<KnnNeighbor<2>> mem, disk;
    KnnSearch<2>(*tree, p, k,
                 [&mem](const KnnNeighbor<2>& n) { mem.push_back(n); });
    paged.Knn(p, k,
              [&disk](const KnnNeighbor<2>& n) { disk.push_back(n); });
    ASSERT_EQ(mem.size(), disk.size());
    for (size_t i = 0; i < mem.size(); ++i) {
      // The k nearest distances are a unique multiset even when ids tie.
      EXPECT_DOUBLE_EQ(mem[i].dist2, disk[i].dist2);
    }
  }
}

TEST_P(PagedParity, BatchedTraversalMatchesInMemory) {
  Rng rng(303);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 3000; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.04), i});
  }
  auto tree = BuildTree<2>(GetParam(), items, Domain<2>());
  tree->EnableClipping(core::ClipConfig<2>::Sta());
  std::vector<geom::Rect<2>> queries;
  for (int q = 0; q < 150; ++q) queries.push_back(RandomRect<2>(rng, 0.1));

  FileGuard file(TempPath("batch"));
  ASSERT_TRUE(WritePagedTree<2>(*tree, file.path));
  PagedRTree<2> paged;
  ASSERT_TRUE(paged.Open(file.path));

  const QueryBatchResult mem = SpatialEngine<2>(*tree).ExecuteBatch(
      std::span<const geom::Rect<2>>(queries));
  const QueryBatchResult disk = SpatialEngine<2>(paged).ExecuteBatch(
      std::span<const geom::Rect<2>>(queries));
  EXPECT_EQ(mem.counts, disk.counts);
  EXPECT_EQ(mem.io.leaf_accesses, disk.io.leaf_accesses);
  EXPECT_EQ(mem.io.internal_accesses, disk.io.internal_accesses);
  EXPECT_EQ(mem.io.clip_accesses, disk.io.clip_accesses);
  EXPECT_GT(disk.io.page_reads, 0u);
}

TEST_P(PagedParity, Unclipped3dParity) {
  Rng rng(304);
  std::vector<Entry<3>> items;
  for (int i = 0; i < 2000; ++i) {
    items.push_back(Entry<3>{RandomRect<3>(rng, 0.06), i});
  }
  auto tree = BuildTree<3>(GetParam(), items, Domain<3>());

  FileGuard file(TempPath("u3d"));
  ASSERT_TRUE(WritePagedTree<3>(*tree, file.path));
  PagedRTree<3> paged;
  ASSERT_TRUE(paged.Open(file.path));
  EXPECT_FALSE(paged.clipping_enabled());
  for (int q = 0; q < 60; ++q) {
    const auto query = RandomRect<3>(rng, 0.2);
    EXPECT_EQ(paged.RangeCount(query), tree->RangeCount(query));
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, PagedParity,
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

TEST(PagedRTree, WarmPoolServesFromMemory) {
  Rng rng(305);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 2000; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.05), i});
  }
  auto tree = BuildTree<2>(Variant::kHilbert, items, Domain<2>());
  FileGuard file(TempPath("warm"));
  ASSERT_TRUE(WritePagedTree<2>(*tree, file.path));
  PagedRTree<2> paged;
  PagedRTree<2>::OpenOptions opts;
  opts.pool_pages = tree->NumNodes() + 8;  // everything fits
  ASSERT_TRUE(paged.Open(file.path, opts));

  const auto query = RandomRect<2>(rng, 0.3);
  storage::IoStats cold, warm;
  paged.RangeCount(query, &cold);
  EXPECT_GT(cold.page_reads, 0u);
  paged.RangeCount(query, &warm);
  EXPECT_EQ(warm.page_reads, 0u);  // all frames resident, zero physical I/O
  EXPECT_EQ(warm.leaf_accesses, cold.leaf_accesses);
}

TEST(PagedRTree, ClippedTreeReadsFewerLeafPages) {
  // The paper's headline trend (Figs. 11/15), measured as *real* page
  // reads on the paged engine with a cold pool: the clipped copy of the
  // same tree answers the same workload with fewer leaf-page reads.
  const workload::Dataset2 data = workload::MakePar02(30'000);
  auto tree = BuildTree<2>(Variant::kHilbert, data.items, data.domain);
  const auto workload =
      workload::MakeQueries<2>(data, /*target=*/1.0, /*count=*/200);
  const std::vector<geom::Rect<2>>& queries = workload.queries;

  FileGuard plain_file(TempPath("plain"));
  ASSERT_TRUE(WritePagedTree<2>(*tree, plain_file.path));
  tree->EnableClipping(core::ClipConfig<2>::Sta());
  FileGuard clipped_file(TempPath("clipped"));
  ASSERT_TRUE(WritePagedTree<2>(*tree, clipped_file.path));

  storage::IoStats plain_io, clipped_io;
  {
    PagedRTree<2> paged;
    ASSERT_TRUE(paged.Open(plain_file.path));  // cold 10 % pool
    for (const auto& q : queries) paged.RangeCount(q, &plain_io);
  }
  {
    PagedRTree<2> paged;
    ASSERT_TRUE(paged.Open(clipped_file.path));
    for (const auto& q : queries) paged.RangeCount(q, &clipped_io);
  }
  EXPECT_LT(clipped_io.leaf_accesses, plain_io.leaf_accesses);
  EXPECT_LT(clipped_io.page_reads, plain_io.page_reads);
}

TEST(PagedRTree, CorruptPageFlagsIoErrorInsteadOfOverflow) {
  Rng rng(308);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 3000; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.05), i});
  }
  auto tree = BuildTree<2>(Variant::kHilbert, items, Domain<2>());
  ASSERT_GT(tree->NumNodes(), 2u);
  FileGuard file(TempPath("corrupt"));
  ASSERT_TRUE(WritePagedTree<2>(*tree, file.path));

  // Corrupt a non-root node page's entry count (node 1 lives at file page
  // 2; entry_count is bytes 2..3 of its header). Open succeeds — only the
  // root is validated eagerly for an unclipped tree — but the traversal
  // must reject the page instead of scanning 0xFFFF entries off the frame.
  {
    storage::PageFile raw;
    ASSERT_TRUE(raw.Open(file.path, /*create=*/false));
    const uint16_t bogus = 0xFFFF;
    rtree::Superblock sb;
    ASSERT_TRUE(raw.ReadRaw(0, &sb, sizeof sb));
    ASSERT_TRUE(raw.WriteRaw(2ull * sb.file_page_size + 2, &bogus,
                             sizeof bogus));
  }
  PagedRTree<2> paged;
  ASSERT_TRUE(paged.Open(file.path));
  EXPECT_FALSE(paged.io_error());
  geom::Rect<2> everything = Domain<2>();
  paged.RangeCount(everything);
  EXPECT_TRUE(paged.io_error());  // truncated traversal is flagged
}

TEST(PagedRTree, RejectsTruncatedFile) {
  Rng rng(309);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 2000; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.05), i});
  }
  auto tree = BuildTree<2>(Variant::kGuttman, items, Domain<2>());
  FileGuard file(TempPath("trunc"));
  ASSERT_TRUE(WritePagedTree<2>(*tree, file.path));
  storage::PageFile probe;
  ASSERT_TRUE(probe.Open(file.path, /*create=*/false));
  const uint64_t full = probe.SizeBytes();
  probe.Close();
  ASSERT_EQ(::truncate(file.path.c_str(),
                       static_cast<off_t>(full / 2)),
            0);
  PagedRTree<2> paged;
  EXPECT_FALSE(paged.Open(file.path));  // declared sizes exceed the file
}

TEST(PagedRTree, RejectsMissingAndGarbageFiles) {
  PagedRTree<2> paged;
  EXPECT_FALSE(paged.Open(::testing::TempDir() + "clipbb_nonexistent.pages"));
  FileGuard file(TempPath("garbage"));
  {
    std::ofstream out(file.path, std::ios::binary);
    out << "this is not a paged index";
  }
  EXPECT_FALSE(paged.Open(file.path));
  // Wrong dimension: a 3d file opened as 2d.
  Rng rng(307);
  std::vector<Entry<3>> items;
  for (int i = 0; i < 300; ++i) {
    items.push_back(Entry<3>{RandomRect<3>(rng, 0.1), i});
  }
  auto tree3 = BuildTree<3>(Variant::kRStar, items, Domain<3>());
  FileGuard file3(TempPath("dim3"));
  ASSERT_TRUE(WritePagedTree<3>(*tree3, file3.path));
  EXPECT_FALSE(paged.Open(file3.path));
  PagedRTree<3> paged3;
  EXPECT_TRUE(paged3.Open(file3.path));
}

}  // namespace
}  // namespace clipbb::rtree
