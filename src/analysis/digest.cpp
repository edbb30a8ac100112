#include "analysis/digest.hpp"

namespace patchwork::analysis {

DigestStats& DigestStats::operator+=(const DigestStats& other) {
  frames += other.frames;
  bad_records += other.bad_records;
  truncated_frames += other.truncated_frames;
  malformed_frames += other.malformed_frames;
  return *this;
}

}  // namespace patchwork::analysis
