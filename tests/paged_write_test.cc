// Write-path parity of the read-write PagedRTree against an in-memory
// tree built from the same operation log, for every variant and D=2/3:
// after bulk load + serialize + writable Open + a deterministic
// insert/delete
// mix, queries must return identical results in identical order with
// identical logical I/O, the memory mirror must pass full structural
// validation, and the state must survive close/reopen (read-only and
// writable) — i.e. the pages, not the mirror, are the durable truth.
// Also covers clip-run spill relocation (runs outgrowing their inline
// slot move to spill pages and shrink back), UpdateClips on a live
// paged tree, and the writer checkpointing itself once its log passes
// kWalCheckpointBytes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "rtree/factory.h"
#include "rtree/paged_rtree.h"
#include "rtree/validate.h"
#include "test_util.h"

namespace clipbb::rtree {
namespace {

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

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "clipbb_pw_" + name + "_" +
         std::to_string(::getpid()) + ".pages";
}

struct FileGuard {
  explicit FileGuard(std::string p) : path(std::move(p)) {}
  ~FileGuard() {
    std::remove(path.c_str());
    std::remove(WalPathFor(path).c_str());
  }
  std::string path;
};

/// One operation of the deterministic log.
template <int D>
struct Op {
  bool is_insert;
  geom::Rect<D> rect;
  ObjectId id;
};

/// Deterministic op log: deletes sweep existing objects, inserts add new
/// ones, interleaved 1 delete : 2 inserts.
template <int D>
std::vector<Op<D>> MakeOps(const std::vector<Entry<D>>& items, int count,
                           uint32_t seed) {
  Rng rng(seed);
  std::vector<Op<D>> ops;
  size_t del = 0;
  ObjectId next_id = static_cast<ObjectId>(items.size());
  for (int i = 0; i < count; ++i) {
    if (i % 3 == 0 && del < items.size()) {
      ops.push_back(Op<D>{false, items[del].rect, items[del].id});
      ++del;
    } else {
      ops.push_back(Op<D>{true, RandomRect<D>(rng, 0.05), next_id++});
    }
  }
  return ops;
}

/// Results + I/O of both trees on a query batch must agree exactly —
/// including emission order, which pins the visit order.
template <int D>
void ExpectQueryParity(const RTree<D>& ref, PagedRTree<D>& paged,
                       uint32_t seed, int queries) {
  Rng rng(seed);
  for (int q = 0; q < queries; ++q) {
    const auto query = RandomRect<D>(rng, 0.15);
    std::vector<ObjectId> a, b;
    storage::IoStats io_a, io_b;
    ref.RangeQuery(query, &a, &io_a);
    paged.RangeQuery(query, &b, &io_b);
    ASSERT_EQ(a, b) << "result/visit-order divergence at query " << q;
    ASSERT_EQ(io_a.leaf_accesses, io_b.leaf_accesses);
    ASSERT_EQ(io_a.internal_accesses, io_b.internal_accesses);
    ASSERT_EQ(io_a.clip_accesses, io_b.clip_accesses);
  }
}

/// Structural equality of two trees up to page numbering: identical DFS
/// visit sequence of levels, entry rects, and leaf object ids.
template <int D>
void ExpectStructuralEq(const RTree<D>& a, const RTree<D>& b) {
  std::vector<std::pair<int, std::vector<Entry<D>>>> na, nb;
  a.ForEachNode([&](storage::PageId, const Node<D>& n) {
    na.emplace_back(n.level, n.entries);
  });
  b.ForEachNode([&](storage::PageId, const Node<D>& n) {
    nb.emplace_back(n.level, n.entries);
  });
  ASSERT_EQ(na.size(), nb.size());
  for (size_t i = 0; i < na.size(); ++i) {
    ASSERT_EQ(na[i].first, nb[i].first);
    ASSERT_EQ(na[i].second.size(), nb[i].second.size());
    for (size_t e = 0; e < na[i].second.size(); ++e) {
      ASSERT_TRUE(na[i].second[e].rect == nb[i].second[e].rect);
      if (na[i].first == 0) {
        ASSERT_EQ(na[i].second[e].id, nb[i].second[e].id);
      }
    }
  }
}

class PagedWrite : public ::testing::TestWithParam<Variant> {};

template <int D>
void RunWriteParity(Variant variant, bool clipped, int n_items, int n_ops,
                    uint32_t seed) {
  Rng rng(seed);
  std::vector<Entry<D>> items;
  for (int i = 0; i < n_items; ++i) {
    items.push_back(Entry<D>{RandomRect<D>(rng, 0.04), i});
  }
  // Reference: one continuous in-memory tree over the whole op log.
  auto ref = BuildTree<D>(variant, items, Domain<D>());
  if (clipped) ref->EnableClipping(core::ClipConfig<D>::Sta());

  // Paged: same bulk state serialized, then updated through the pages.
  auto initial = BuildTree<D>(variant, items, Domain<D>());
  if (clipped) initial->EnableClipping(core::ClipConfig<D>::Sta());
  FileGuard file(TempPath("parity"));
  ASSERT_TRUE(WritePagedTree<D>(*initial, file.path));
  initial.reset();

  auto paged = std::make_unique<PagedRTree<D>>();
  typename PagedRTree<D>::OpenOptions wopts;
  wopts.mode = PagedRTree<D>::OpenMode::kReadWrite;
  wopts.commit_every = 8;
  ASSERT_TRUE(paged->Open(file.path, wopts,
                          MakeRTree<D>(variant, Domain<D>())));

  const auto ops = MakeOps<D>(items, n_ops, seed + 1);
  const size_t half = ops.size() / 2;
  auto apply = [&](const Op<D>& op) {
    if (op.is_insert) {
      ref->Insert(op.rect, op.id);
      ASSERT_TRUE(paged->Insert(op.rect, op.id));
    } else {
      ASSERT_TRUE(ref->Delete(op.rect, op.id));
      ASSERT_TRUE(paged->Delete(op.rect, op.id));
    }
  };
  for (size_t i = 0; i < half; ++i) apply(ops[i]);

  // Mid-log checkpoint + full reopen (writable, fresh mirror decoded from
  // the updated pages): the pages alone must carry the whole state.
  {
    const auto res = ValidateTree<D>(*paged->mirror());
    ASSERT_TRUE(res.ok) << res.Summary();
    ExpectQueryParity<D>(*ref, *paged, seed + 2, 40);
    paged->Close();
    paged = std::make_unique<PagedRTree<D>>();
    ASSERT_TRUE(paged->Open(file.path, wopts,
                            MakeRTree<D>(variant, Domain<D>())));
    ExpectStructuralEq<D>(*ref, *paged->mirror());
  }
  for (size_t i = half; i < ops.size(); ++i) apply(ops[i]);

  EXPECT_FALSE(paged->io_error());
  EXPECT_EQ(paged->NumObjects(), ref->NumObjects());
  EXPECT_EQ(paged->NumNodes(), ref->NumNodes());
  const auto res = ValidateTree<D>(*paged->mirror());
  ASSERT_TRUE(res.ok) << res.Summary();
  ExpectStructuralEq<D>(*ref, *paged->mirror());
  ExpectQueryParity<D>(*ref, *paged, seed + 3, 60);
  // Updates really did flow through the paged engine.
  const storage::IoStats& io = paged->update_io();
  EXPECT_GT(io.wal_appends, 0u);
  EXPECT_GT(io.wal_syncs, 0u);
  EXPECT_GT(io.page_reads + io.page_writes, 0u);

  // Read-only reopen sees the same tree (checkpoint on close flushed it).
  paged->Close();
  PagedRTree<D> reader;
  ASSERT_TRUE(reader.Open(file.path));
  ExpectQueryParity<D>(*ref, reader, seed + 4, 40);
  EXPECT_EQ(reader.NumObjects(), ref->NumObjects());
}

TEST_P(PagedWrite, Clipped2dParity) {
  RunWriteParity<2>(GetParam(), true, 2500, 420, 901);
}

TEST_P(PagedWrite, Clipped3dParity) {
  RunWriteParity<3>(GetParam(), true, 1500, 300, 902);
}

TEST_P(PagedWrite, Unclipped2dParity) {
  RunWriteParity<2>(GetParam(), false, 2000, 300, 903);
}

TEST_P(PagedWrite, SpillRelocationFollowsClipGrowth) {
  // Bulk-loaded HR trees pack nodes full, so CSTA clip runs spill; update
  // churn must keep spill pages tracking their nodes (allocate on grow,
  // release on shrink/death) and the file must stay openable throughout.
  if (GetParam() != Variant::kHilbert) GTEST_SKIP();
  Rng rng(917);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 3000; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.03), i});
  }
  auto built = BuildTree<2>(Variant::kHilbert, items, Domain<2>());
  built->EnableClipping(core::ClipConfig<2>::Sta());
  FileGuard file(TempPath("spill"));
  ASSERT_TRUE(WritePagedTree<2>(*built, file.path));

  PagedRTree<2> paged;
  PagedRTree<2>::OpenOptions wopts;
  wopts.mode = PagedRTree<2>::OpenMode::kReadWrite;
  ASSERT_TRUE(paged.Open(file.path, wopts,
                         MakeRTree<2>(Variant::kHilbert, Domain<2>())));
  ASSERT_GT(paged.superblock().num_spill_pages, 0u)
      << "full bulk-loaded clipped nodes should spill their runs";
  const uint64_t spill_before = paged.superblock().num_spill_pages;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(paged.Delete(items[i].rect, items[i].id));
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(paged.Insert(RandomRect<2>(rng, 0.03), 4000 + i));
  }
  // Deletes dissolve full nodes; their spill pages must have been freed
  // (count shrinks) and the section accounting must stay exact.
  EXPECT_LT(paged.superblock().num_spill_pages, spill_before);
  const auto res = ValidateTree<2>(*paged.mirror());
  ASSERT_TRUE(res.ok) << res.Summary();
  paged.Close();
  PagedRTree<2> reader;
  ASSERT_TRUE(reader.Open(file.path));
  EXPECT_EQ(reader.NumObjects(), 3000u - 400u + 200u);
}

TEST_P(PagedWrite, UpdateClipsEnablesClippingOnLivePagedTree) {
  Rng rng(919);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 2200; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.04), i});
  }
  auto ref = BuildTree<2>(GetParam(), items, Domain<2>());
  FileGuard file(TempPath("upclips"));
  ASSERT_TRUE(WritePagedTree<2>(*ref, file.path));

  PagedRTree<2> paged;
  PagedRTree<2>::OpenOptions wopts;
  wopts.mode = PagedRTree<2>::OpenMode::kReadWrite;
  ASSERT_TRUE(
      paged.Open(file.path, wopts, MakeRTree<2>(GetParam(), Domain<2>())));
  EXPECT_FALSE(paged.clipping_enabled());
  ASSERT_TRUE(paged.UpdateClips(core::ClipConfig<2>::Sta()));
  EXPECT_TRUE(paged.clipping_enabled());
  ref->EnableClipping(core::ClipConfig<2>::Sta());
  ExpectQueryParity<2>(*ref, paged, 920, 40);
  EXPECT_EQ(paged.clip_index().TotalClipPoints(),
            ref->clip_index().TotalClipPoints());

  // The clip table persisted: a cold read-only open prunes identically.
  paged.Close();
  PagedRTree<2> reader;
  ASSERT_TRUE(reader.Open(file.path));
  EXPECT_TRUE(reader.clipping_enabled());
  EXPECT_EQ(reader.clip_index().TotalClipPoints(),
            ref->clip_index().TotalClipPoints());
  ExpectQueryParity<2>(*ref, reader, 921, 40);
}

/// The file's page 0 as raw bytes.
std::vector<char> ReadFilePage0(const std::string& path, size_t page_size) {
  std::vector<char> page(page_size);
  std::ifstream in(path, std::ios::binary);
  in.read(page.data(), static_cast<std::streamsize>(page_size));
  EXPECT_TRUE(in.good()) << path;
  return page;
}

// The superblock describes the data pages, so it must never reach the
// file ahead of them: page 0 is written only by a checkpoint, after the
// data pages are synced. A tiny pool plus a whole-tree query after every
// op forces evictions of everything the op staged; the file's page 0 must
// stay byte-equal to the last checkpoint's image.
TEST(PagedWriteSuperblock, FilePageZeroChangesOnlyAtCheckpoints) {
  Rng rng(4242);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 1500; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.04), i});
  }
  auto initial = BuildTree<2>(Variant::kRStar, items, Domain<2>());
  initial->EnableClipping(core::ClipConfig<2>::Sta());
  FileGuard file(TempPath("page0"));
  ASSERT_TRUE(WritePagedTree<2>(*initial, file.path));

  PagedRTree<2> paged;
  PagedRTree<2>::OpenOptions wopts;
  wopts.mode = PagedRTree<2>::OpenMode::kReadWrite;
  wopts.pool_pages = 16;
  ASSERT_TRUE(paged.Open(file.path, wopts,
                         MakeRTree<2>(Variant::kRStar, Domain<2>())));
  const size_t ps = paged.superblock().file_page_size;
  std::vector<char> image = ReadFilePage0(file.path, ps);
  uint32_t gen = paged.superblock().checkpoint_gen;

  const auto ops = MakeOps<2>(items, 400, 4243);
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op<2>& op = ops[i];
    ASSERT_TRUE(op.is_insert ? paged.Insert(op.rect, op.id)
                             : paged.Delete(op.rect, op.id));
    EXPECT_EQ(paged.RangeCount(Domain<2>()), paged.NumObjects());
    EXPECT_FALSE(paged.pool().Resident(0)) << "op " << i;
    ASSERT_EQ(ReadFilePage0(file.path, ps), image)
        << "page 0 reached the file outside a checkpoint at op " << i;
    if (i % 100 == 99) {
      ASSERT_TRUE(paged.Checkpoint());
      image = ReadFilePage0(file.path, ps);
      Superblock on_file{};
      std::memcpy(&on_file, image.data(), sizeof on_file);
      EXPECT_EQ(on_file.checkpoint_gen, ++gen);
      EXPECT_EQ(on_file.lsn, paged.superblock().lsn);
      EXPECT_EQ(on_file.last_op_seq, paged.last_committed_op());
    }
  }
  EXPECT_GT(paged.pool().evictions(), 0u);  // the pool really churned
  EXPECT_FALSE(paged.io_error());
}

// The writer bounds its own log. Each UpdateClips rewrites every node
// page, so a loop of them crosses kWalCheckpointBytes within a second and
// no Checkpoint() call is made: the operation that crosses the bound must
// checkpoint (generation bump, log truncated), the .wal file must never
// hold more than the bound between operations (so never more than the
// bound plus one operation), and both a reader opened beside the live
// writer and a cold reopen must answer like the in-memory reference.
TEST(PagedWriteWal, OperationCheckpointsPastTheLogBound) {
  Rng rng(5150);
  std::vector<Entry<2>> items;
  for (int i = 0; i < 40000; ++i) {
    items.push_back(Entry<2>{RandomRect<2>(rng, 0.01), i});
  }
  auto ref = BuildTree<2>(Variant::kHilbert, items, Domain<2>());
  FileGuard file(TempPath("walbound"));
  ASSERT_TRUE(WritePagedTree<2>(*ref, file.path));

  PagedRTree<2> paged;
  PagedRTree<2>::OpenOptions wopts;
  wopts.mode = PagedRTree<2>::OpenMode::kReadWrite;
  ASSERT_TRUE(paged.Open(file.path, wopts,
                         MakeRTree<2>(Variant::kHilbert, Domain<2>())));
  constexpr uint64_t kBound = PagedRTree<2>::kWalCheckpointBytes;
  const std::string wal_path = WalPathFor(file.path);
  const uint32_t gen0 = paged.superblock().checkpoint_gen;

  core::ClipConfig<2> config = core::ClipConfig<2>::Sta();
  int ops = 0;
  uint64_t op_bytes = 0;
  for (; ops < 400 && paged.superblock().checkpoint_gen == gen0; ++ops) {
    config = ops % 2 == 0 ? core::ClipConfig<2>::Sky()
                          : core::ClipConfig<2>::Sta();
    const uint64_t logged0 = paged.wal().stats().bytes;
    ASSERT_TRUE(paged.UpdateClips(config));
    op_bytes = paged.wal().stats().bytes - logged0;
    ASSERT_LE(std::filesystem::file_size(wal_path), kBound) << "op " << ops;
    ASSERT_LE(paged.wal().size_bytes(), kBound) << "op " << ops;
  }
  // The bound, not the first operation, triggered exactly one checkpoint,
  // and it emptied the log.
  EXPECT_EQ(paged.superblock().checkpoint_gen, gen0 + 1);
  EXPECT_GT(static_cast<uint64_t>(ops) * op_bytes, kBound);
  EXPECT_LT(std::filesystem::file_size(wal_path), op_bytes);

  // A committed tail past the checkpoint, then both opens must agree.
  ref->EnableClipping(config);
  for (int i = 0; i < 50; ++i) {
    const auto rect = RandomRect<2>(rng, 0.01);
    const ObjectId id = 40000 + i;
    ASSERT_TRUE(paged.Insert(rect, id));
    ref->Insert(rect, id);
  }
  ExpectQueryParity<2>(*ref, paged, 5151, 40);
  {
    PagedRTree<2> beside;
    ASSERT_TRUE(beside.Open(file.path));
    ExpectQueryParity<2>(*ref, beside, 5152, 40);
  }
  ASSERT_TRUE(paged.Close());
  PagedRTree<2> reader;
  ASSERT_TRUE(reader.Open(file.path));
  EXPECT_EQ(reader.NumObjects(), 40050u);
  ExpectQueryParity<2>(*ref, reader, 5153, 40);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, PagedWrite,
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
