// Fig. 11: average leaf accesses of clipped R-trees relative to their
// unclipped counterparts (100 %), per query profile QR0/QR1/QR2, for all
// seven datasets and four variants, stairline (CSTA) clipping.
// Also prints the CSKY numbers used by Table I (see
// bench_table1_io_reduction for the aggregated table).
//
// With --paged each tree is additionally serialized and queried
// disk-resident through PagedRTree with a cold buffer pool of 10 % of the
// node pages (ColdPoolPages in common.h), and a fourth table reports
// *real* page reads per query — the paper's headline claim (clipping cuts
// leaf-page accesses) measured as physical I/O rather than logical access
// counts.
#include "common.h"

#include <cstdio>

#include "rtree/paged_rtree.h"
#include "rtree/query_api.h"

namespace clipbb::bench {
namespace {

constexpr int kQueriesPerProfile = 200;

bool g_paged = false;

/// Real page reads per profile for the tree's current clipping config:
/// dump to a page file, reopen cold per profile, run the workload in
/// input order (paper-faithful schedule), count physical reads.
template <int D>
std::vector<uint64_t> PagedPageReads(
    const rtree::RTree<D>& tree, const std::string& stem,
    const std::vector<workload::QueryWorkload<D>>& profiles) {
  std::vector<uint64_t> reads(profiles.size(), 0);
  const std::string path = BenchTempFile(stem + "_fig11");
  rtree::PagedRTree<D> paged;
  typename rtree::PagedRTree<D>::OpenOptions opts;
  opts.pool_pages = ColdPoolPages<D>(tree);
  if (!rtree::WritePagedTree<D>(tree, path) || !paged.Open(path, opts)) {
    std::fprintf(stderr, "fig11: cannot write/open paged index at %s\n",
                 path.c_str());
    std::remove(path.c_str());
    return reads;
  }
  const rtree::SpatialEngine<D> engine(paged);
  rtree::TraversalScratch scratch;
  scratch.Reserve(engine.Height(), engine.max_entries());
  for (size_t p = 0; p < profiles.size(); ++p) {
    paged.pool().Clear();  // cold pool per profile
    storage::IoStats io;
    for (const auto& q : profiles[p].queries) {
      engine.Execute(rtree::QuerySpec<D>::Intersects(q), /*sink=*/nullptr,
                     &io, &scratch);
    }
    reads[p] = io.page_reads;
  }
  if (paged.io_error()) {
    std::fprintf(stderr, "fig11: %s paged reads are partial (I/O error)\n",
                 stem.c_str());
  }
  paged.Close();
  std::remove(path.c_str());
  return reads;
}

template <int D>
void RunDataset(const std::string& name, Table* tables /*3 profiles*/,
                Table* paged_table) {
  const auto data = LoadDataset<D>(name);
  // Pre-generate the three calibrated workloads once per dataset.
  std::vector<workload::QueryWorkload<D>> profiles;
  for (double target : workload::kQueryTargets) {
    profiles.push_back(
        workload::MakeQueries<D>(data, target, kQueriesPerProfile));
  }
  for (rtree::Variant v : rtree::kAllVariants) {
    auto tree = Build<D>(v, data);
    std::vector<uint64_t> plain(3), sky(3), sta(3);
    std::vector<uint64_t> pplain, psky, psta;
    for (int p = 0; p < 3; ++p) {
      plain[p] = RunQueries<D>(*tree, profiles[p].queries).leaf_accesses;
    }
    if (g_paged) pplain = PagedPageReads<D>(*tree, name, profiles);
    tree->EnableClipping(core::ClipConfig<D>::Sky());
    for (int p = 0; p < 3; ++p) {
      sky[p] = RunQueries<D>(*tree, profiles[p].queries).leaf_accesses;
    }
    if (g_paged) psky = PagedPageReads<D>(*tree, name, profiles);
    tree->EnableClipping(core::ClipConfig<D>::Sta());
    for (int p = 0; p < 3; ++p) {
      sta[p] = RunQueries<D>(*tree, profiles[p].queries).leaf_accesses;
    }
    if (g_paged) psta = PagedPageReads<D>(*tree, name, profiles);
    for (int p = 0; p < 3; ++p) {
      const double rel_sky = plain[p] ? 100.0 * sky[p] / plain[p] : 100.0;
      const double rel_sta = plain[p] ? 100.0 * sta[p] / plain[p] : 100.0;
      tables[p].AddRow({name, rtree::VariantName(v),
                        Table::Fixed(static_cast<double>(plain[p]) /
                                         kQueriesPerProfile,
                                     2),
                        Table::Fixed(rel_sky, 1), Table::Fixed(rel_sta, 1)});
      if (g_paged) {
        const double prel_sky =
            pplain[p] ? 100.0 * psky[p] / pplain[p] : 100.0;
        const double prel_sta =
            pplain[p] ? 100.0 * psta[p] / pplain[p] : 100.0;
        paged_table->AddRow(
            {name, rtree::VariantName(v), workload::kQueryProfiles[p],
             Table::Fixed(static_cast<double>(pplain[p]) /
                              kQueriesPerProfile,
                          2),
             Table::Fixed(prel_sky, 1), Table::Fixed(prel_sta, 1)});
      }
    }
  }
}

void Run() {
  Table tables[3] = {
      Table({"dataset", "variant", "leafAcc/query (plain)", "CSKY %",
             "CSTA %"}),
      Table({"dataset", "variant", "leafAcc/query (plain)", "CSKY %",
             "CSTA %"}),
      Table({"dataset", "variant", "leafAcc/query (plain)", "CSKY %",
             "CSTA %"}),
  };
  Table paged_table({"dataset", "variant", "profile",
                     "pageReads/query (plain)", "CSKY %", "CSTA %"});
  for (const auto& name : DatasetNames<2>()) {
    RunDataset<2>(name, tables, &paged_table);
  }
  for (const auto& name : DatasetNames<3>()) {
    RunDataset<3>(name, tables, &paged_table);
  }
  for (int p = 0; p < 3; ++p) {
    PrintHeader(std::string("Fig 11(") + static_cast<char>('a' + p) +
                ") — avg #leafAcc w.r.t. unclipped (100%), profile " +
                workload::kQueryProfiles[p]);
    tables[p].Print();
  }
  if (g_paged) {
    PrintHeader("Fig 11 paged — real page reads/query, disk-resident, "
                "cold pool of 10% of node pages, w.r.t. unclipped (100%)");
    paged_table.Print();
  }
}

}  // namespace
}  // namespace clipbb::bench

int main(int argc, char** argv) {
  clipbb::bench::g_paged = clipbb::bench::HasFlag(argc, argv, "--paged");
  clipbb::bench::Run();
  return 0;
}
