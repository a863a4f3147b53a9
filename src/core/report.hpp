#pragma once

/// \file report.hpp
/// Markdown study reports: a structured record of one experiment run —
/// title, configuration, result tables, notes — written to disk so sweeps
/// leave an auditable artifact (the machine-generated counterpart of
/// EXPERIMENTS.md). Figure harnesses emit one via `--report <path>`.

#include <string>
#include <vector>

#include "util/table.hpp"

namespace xres {

class StudyReport {
 public:
  explicit StudyReport(std::string title);

  /// Free-text paragraph (markdown passed through).
  void add_paragraph(const std::string& text);

  /// Configuration entry; rendered as a bullet list in input order.
  void add_config(const std::string& key, const std::string& value);

  /// A captioned result table.
  void add_table(const std::string& caption, Table table);

  [[nodiscard]] const std::string& title() const { return title_; }
  [[nodiscard]] std::size_t table_count() const { return tables_.size(); }

  [[nodiscard]] std::string to_markdown() const;

  /// Write to \p path; throws CheckError on I/O failure.
  void write(const std::string& path) const;

 private:
  struct CaptionedTable {
    std::string caption;
    Table table;
  };
  std::string title_;
  std::vector<std::string> paragraphs_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<CaptionedTable> tables_;
};

}  // namespace xres
