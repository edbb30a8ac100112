#include "obs/manifest.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

#ifndef PATCHWORK_GIT_DESCRIBE
#define PATCHWORK_GIT_DESCRIBE "unknown"
#endif

namespace patchwork::obs {

namespace {

void append_json_escaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  append_json_escaped(out, text);
  out += "\"";
  return out;
}

std::string json_double(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

const char* type_name(char type) {
  switch (type) {
    case 'c': return "counter";
    case 'g': return "gauge";
    default: return "histogram";
  }
}

/// Render the registry series of one determinism class as a JSON array.
/// Series come back from snapshot_values() in name-then-label-sorted order,
/// so the array order is stable across registration order and thread count.
std::string render_metrics(Determinism det) {
  std::string out = "[";
  bool first = true;
  for (const Registry::SeriesValue& v : registry().snapshot_values()) {
    if (v.det != det) continue;
    if (!first) out += ",";
    first = false;
    out += "\n      {\"name\": " + json_string(v.name) +
           ", \"labels\": " + json_string(v.labels) +
           ", \"type\": " + json_string(type_name(v.type));
    if (v.type == 'c') {
      out += ", \"value\": " + std::to_string(v.count);
    } else if (v.type == 'g') {
      out += ", \"value\": " + json_double(v.gauge);
    } else {
      out += ", \"count\": " + std::to_string(v.count) +
             ", \"sum\": " + std::to_string(v.sum);
    }
    out += "}";
  }
  out += first ? "]" : "\n    ]";
  return out;
}

}  // namespace

std::string manifest_deterministic_section(const ManifestInfo& info) {
  std::string out = "{\n";
  out += "    \"seed\": " + std::to_string(info.seed) + ",\n";
  out += "    \"config\": {";
  bool first = true;
  for (const auto& [key, value] : info.config) {
    if (!first) out += ",";
    first = false;
    out += "\n      " + json_string(key) + ": " + json_string(value);
  }
  out += first ? "}" : "\n    }";
  out += ",\n    \"notes\": [";
  first = true;
  for (const std::string& note : info.notes) {
    if (!first) out += ", ";
    first = false;
    out += json_string(note);
  }
  out += "],\n    \"metrics\": " + render_metrics(Determinism::kDeterministic);
  out += "\n  }";
  return out;
}

std::string render_manifest(const ManifestInfo& info) {
  std::string out = "{\n";
  out += "  \"patchwork_manifest_version\": 1,\n";
  out += "  \"git_describe\": " + json_string(build_git_describe()) + ",\n";
  out += "  \"deterministic\": " + manifest_deterministic_section(info);
  out += ",\n  \"wall_clock\": {\n";
  out += "    \"thread_count\": " + std::to_string(util::thread_count()) +
         ",\n";
  out += "    \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  out += "    \"metrics\": " + render_metrics(Determinism::kWallClock);
  out += "\n  }\n}\n";
  return out;
}

bool write_manifest(const std::string& path, const ManifestInfo& info) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << render_manifest(info);
  return static_cast<bool>(out);
}

std::string_view build_git_describe() { return PATCHWORK_GIT_DESCRIBE; }

}  // namespace patchwork::obs
