#include "core/report.hpp"

#include "util/atomic_file.hpp"
#include "util/check.hpp"

namespace xres {

StudyReport::StudyReport(std::string title) : title_{std::move(title)} {
  XRES_CHECK(!title_.empty(), "report needs a title");
}

void StudyReport::add_paragraph(const std::string& text) { paragraphs_.push_back(text); }

void StudyReport::add_config(const std::string& key, const std::string& value) {
  XRES_CHECK(!key.empty(), "config key must be non-empty");
  config_.emplace_back(key, value);
}

void StudyReport::add_table(const std::string& caption, Table table) {
  tables_.push_back(CaptionedTable{caption, std::move(table)});
}

std::string StudyReport::to_markdown() const {
  std::string out = "# " + title_ + "\n\n";
  if (!config_.empty()) {
    out += "## Configuration\n\n";
    for (const auto& [key, value] : config_) {
      out += "* **" + key + "**: " + value + "\n";
    }
    out += '\n';
  }
  for (const std::string& paragraph : paragraphs_) {
    out += paragraph;
    out += "\n\n";
  }
  for (const CaptionedTable& entry : tables_) {
    if (!entry.caption.empty()) out += "## " + entry.caption + "\n\n";
    out += entry.table.to_markdown();
    out += '\n';
  }
  return out;
}

void StudyReport::write(const std::string& path) const {
  // Atomic (temp + rename): a crash mid-write never leaves a torn report.
  write_file_atomic(path, to_markdown());
}

}  // namespace xres
