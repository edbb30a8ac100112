// Bridge from one profiling run's report to the archive's epoch record.
//
// The report already holds the archive's sums (frame sizes, header
// occurrence, TCP control, tagging, per-site load); extraction copies them
// whole, adds the capture-loss counters and a top-flow summary, and
// leaves the full-fidelity CSVs and pcaps behind.
// Extraction is deterministic: flows enter the sketch in FlowKey order, so
// the encoded record is byte-identical for any analysis thread count.
#pragma once

#include <string>

#include "analysis/pipeline.hpp"
#include "archive/record.hpp"
#include "util/units.hpp"

namespace patchwork::analysis {

struct EpochMeta {
  std::string label;             ///< e.g. "week38".
  util::Nanos start = 0;         ///< Epoch start on the simulated clock.
  util::Nanos duration = 0;
  double offered_bps = 0.0;      ///< Testbed offered load during the epoch.
  std::string manifest_json;     ///< Manifest deterministic section,
                                 ///< embedded verbatim in the record.
};

/// Reduce `report` to an archive record whose top-flow sketch holds at
/// most 256 flows. The record's epoch indices are left unset —
/// ArchiveWriter::append stamps them.
archive::EpochRecord extract_epoch_record(const ProfileReport& report,
                                          const EpochMeta& meta);

}  // namespace patchwork::analysis
