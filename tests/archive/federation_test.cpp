// Cross-archive federation: merge-then-query must equal the union query,
// origins must keep colliding deployments apart, and the merged bytes must
// be identical at any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "archive/compactor.hpp"
#include "archive/federation.hpp"
#include "archive/query.hpp"
#include "archive/reader.hpp"
#include "archive/writer.hpp"
#include "testing/temp_dir.hpp"
#include "util/file_io.hpp"
#include "util/thread_pool.hpp"

namespace patchwork::archive {
namespace {

class FederationTest : public ::testing::Test {
 protected:
  void TearDown() override { util::set_thread_count(std::nullopt); }

  std::string path(const char* name) const { return tmp_.path(name); }

  // Both deployments label their weeks the same way and both start epoch
  // indices at 0 — exactly the collision federation must survive.
  EpochRecord record(std::uint64_t epoch, std::uint64_t start_nanos) {
    EpochRecord r;
    r.label = "week" + std::to_string(epoch);
    r.start_nanos = start_nanos;
    r.duration_nanos = 50;
    r.frames = 100 + epoch;
    r.samples = 1;
    r.flow_snippets = 3 + epoch;
    r.frame_sizes.edges = {64, 1519};
    r.frame_sizes.counts = {10 * (epoch + 1)};
    SiteEpochLoad site;
    site.site = "SITE" + std::to_string(epoch % 2);
    site.frames = 50;
    site.wire_bytes = 7000 + epoch;
    r.site_loads.push_back(site);
    TopFlowSketch::Builder sketch(4);
    sketch.insert("f" + std::to_string(epoch % 3), 100 * (epoch + 1));
    r.top_flows = std::move(sketch).build();
    return r;
  }

  // Interleaved start times: a at 0,200,400..., b at 100,300,500...
  void write_inputs(std::size_t per_archive = 4) {
    ArchiveWriter a, b;
    ASSERT_EQ(a.open(path("fed_a.pwar")), OpenError::kNone);
    ASSERT_EQ(b.open(path("fed_b.pwar")), OpenError::kNone);
    for (std::uint64_t n = 0; n < per_archive; ++n) {
      ASSERT_TRUE(a.append(record(n, n * 200)));
      ASSERT_TRUE(b.append(record(n, n * 200 + 100)));
    }
  }

  std::vector<FederationInput> inputs() const {
    return {{path("fed_a.pwar"), "alpha"}, {path("fed_b.pwar"), "beta"}};
  }

  patchwork::testing::TestTempDir tmp_;
};

TEST_F(FederationTest, MergeThenQueryEqualsUnionQuery) {
  write_inputs();
  const FederationResult result =
      merge_archives(inputs(), path("fed_out.pwar"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.archives_read, 2u);
  EXPECT_EQ(result.records_in, 8u);
  EXPECT_EQ(result.records_out, 8u);

  // Build the union by hand: stamp each side's origin, concatenate, and
  // sort with the published order — then compare full query results.
  ArchiveReader ra, rb;
  ASSERT_EQ(ra.open(path("fed_a.pwar")), OpenError::kNone);
  ASSERT_EQ(rb.open(path("fed_b.pwar")), OpenError::kNone);
  std::vector<EpochRecord> expected = ra.take_records();
  for (EpochRecord& r : expected) r.origin = "alpha";
  std::vector<EpochRecord> b_records = rb.take_records();
  for (EpochRecord& r : b_records) r.origin = "beta";
  expected.insert(expected.end(), b_records.begin(), b_records.end());
  std::stable_sort(expected.begin(), expected.end(), federated_record_less);
  const ArchiveQuery union_query(expected);

  OpenStatus status;
  const ArchiveQuery merged =
      ArchiveQuery::from_file(path("fed_out.pwar"), QueryWindow{}, &status);
  ASSERT_EQ(status.error, OpenError::kNone);
  ASSERT_EQ(merged.record_count(), union_query.record_count());
  EXPECT_TRUE(merged.records() == union_query.records());
  EXPECT_TRUE(merged.totals() == union_query.totals());
  EXPECT_TRUE(merged.top_flows(4) == union_query.top_flows(4));
  EXPECT_EQ(merged.epochs_covered(), union_query.epochs_covered());
}

TEST_F(FederationTest, OriginsKeepCollidingEpochIndicesApart) {
  write_inputs();
  ASSERT_TRUE(merge_archives(inputs(), path("fed_out.pwar")).ok());

  ArchiveReader reader;
  ASSERT_EQ(reader.open(path("fed_out.pwar")), OpenError::kNone);
  // Every (origin, span) identity is unique even though raw epoch indices
  // and labels collide across the two deployments.
  std::vector<RecordIdent> idents;
  for (const EpochRecord& r : reader.records()) {
    idents.push_back(record_ident(r));
    EXPECT_TRUE(r.origin == "alpha" || r.origin == "beta") << r.origin;
  }
  for (std::size_t i = 0; i < idents.size(); ++i) {
    for (std::size_t j = i + 1; j < idents.size(); ++j) {
      EXPECT_FALSE(idents[i] == idents[j]) << i << " vs " << j;
    }
  }
}

TEST_F(FederationTest, RefederationKeepsOriginalProvenance) {
  write_inputs();
  ASSERT_TRUE(merge_archives(inputs(), path("fed_out.pwar")).ok());
  // Merge the federated file again under a new origin: the records keep
  // their first-stamped origins instead of being re-tagged.
  ASSERT_TRUE(
      merge_archives({{path("fed_out.pwar"), "gamma"}}, path("fed_out.pwar"))
          .ok());
  ArchiveReader reader;
  ASSERT_EQ(reader.open(path("fed_out.pwar")), OpenError::kNone);
  for (const EpochRecord& r : reader.records()) {
    EXPECT_TRUE(r.origin == "alpha" || r.origin == "beta") << r.origin;
  }
}

TEST_F(FederationTest, MergedBytesAreIdenticalAcrossWorkerCounts) {
  write_inputs(6);
  std::vector<std::uint8_t> reference;
  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, std::size_t{8}}) {
    util::set_thread_count(workers);
    ASSERT_TRUE(merge_archives(inputs(), path("fed_out.pwar")).ok());
    const auto bytes =
        util::read_file_bytes(path("fed_out.pwar"), kMaxArchiveBytes);
    ASSERT_TRUE(bytes.has_value());
    if (reference.empty()) {
      reference = *bytes;
    } else {
      EXPECT_EQ(*bytes, reference) << "workers=" << workers;
    }
  }
}

TEST_F(FederationTest, InputsOfOneOriginKeepEveryRecord) {
  // Two deployments stamped with one origin (the CLI tags an input with its
  // file stem, so east/archive.pwar and west/archive.pwar both read
  // "archive") share every identity. Their records are not copies of each
  // other: the merged archive serves all of them, and GC keeps them.
  write_inputs();
  const FederationResult result = merge_archives(
      {{path("fed_a.pwar"), "archive"}, {path("fed_b.pwar"), "archive"}},
      path("fed_out.pwar"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.records_out, 8u);

  OpenStatus status;
  const ArchiveQuery merged =
      ArchiveQuery::from_file(path("fed_out.pwar"), QueryWindow{}, &status);
  EXPECT_TRUE(status.clean());
  EXPECT_EQ(merged.record_count(), 8u);
  EXPECT_EQ(merged.totals().frames, 2u * (100 + 101 + 102 + 103));

  const CompactionResult gc = gc_archive(path("fed_out.pwar"));
  ASSERT_TRUE(gc.ok());
  EXPECT_FALSE(gc.changed);
  EXPECT_EQ(gc.records_after, 8u);
}

TEST_F(FederationTest, MissingInputFailsWithItsPath) {
  write_inputs();
  const FederationResult result = merge_archives(
      {{path("fed_a.pwar"), "alpha"}, {path("missing.pwar"), "ghost"}},
      path("fed_out.pwar"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error, OpenError::kIo);
  EXPECT_EQ(result.failed_path, path("missing.pwar"));
}

}  // namespace
}  // namespace patchwork::archive
