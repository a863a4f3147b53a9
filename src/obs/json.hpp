#pragma once

/// \file json.hpp
/// Minimal deterministic JSON emission for the observability artifacts
/// (`--metrics`, `--trace`, suite manifests, `perf.json`, the run ledger).
///
/// Determinism is a hard requirement: the metrics file must be
/// byte-identical for every `--threads` value, so numbers are rendered with
/// `std::to_chars` (shortest round-trip form, no locale) and the writer
/// itself never reorders anything — field order is exactly call order.
/// The writer tracks the container stack so malformed documents are a
/// CheckError at emission time, not a surprise in Perfetto.

#include <cstdint>
#include <string>
#include <vector>

namespace xres::obs {

/// \p s with JSON string escapes applied (quotes not included).
[[nodiscard]] std::string json_escape(const std::string& s);

/// Shortest round-trip decimal rendering. Non-finite values (which JSON
/// cannot represent) render as "null".
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_number(std::uint64_t v);
[[nodiscard]] std::string json_number(std::int64_t v);

/// Streaming JSON builder.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key; must be directly followed by a value or a
  /// begin_object/begin_array.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Splice a pre-rendered JSON fragment as one value (caller guarantees
  /// validity).
  JsonWriter& raw(const std::string& fragment);

  /// The finished document; throws CheckError if containers remain open.
  [[nodiscard]] const std::string& str() const;

  /// Write the finished document (plus a trailing newline) to \p path;
  /// throws CheckError on I/O failure.
  void write(const std::string& path) const;

 private:
  void before_value();

  std::string out_;
  /// One frame per open container: 'o' or 'a', plus its emitted-count.
  struct Frame {
    char kind;
    std::size_t count{0};
  };
  std::vector<Frame> stack_;
  bool key_pending_{false};
  bool complete_{false};
};

}  // namespace xres::obs
