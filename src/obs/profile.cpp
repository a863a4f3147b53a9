#include "obs/profile.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/table.hpp"

namespace xres::obs {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string fmt_eta(double seconds) {
  if (seconds >= 120.0) return fmt_double(seconds / 60.0, 1) + " min";
  return std::to_string(static_cast<long>(std::lround(seconds))) + " s";
}

}  // namespace

void PhaseProfiler::begin(const std::string& name) {
  end();
  open_index_ = phases_.size();
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].name == name) {
      open_index_ = i;
      break;
    }
  }
  if (open_index_ == phases_.size()) phases_.push_back(Phase{name, 0.0});
  open_start_ = std::chrono::steady_clock::now();
}

void PhaseProfiler::end() {
  if (open_index_ == static_cast<std::size_t>(-1)) return;
  phases_[open_index_].seconds += open_elapsed();
  open_index_ = static_cast<std::size_t>(-1);
}

double PhaseProfiler::open_elapsed() const {
  return seconds_between(open_start_, std::chrono::steady_clock::now());
}

std::vector<std::pair<std::string, double>> PhaseProfiler::phases() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(phases_.size());
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    double seconds = phases_[i].seconds;
    if (i == open_index_) seconds += open_elapsed();
    out.emplace_back(phases_[i].name, seconds);
  }
  return out;
}

double PhaseProfiler::total_seconds() const {
  double total = 0.0;
  for (const auto& [name, seconds] : phases()) total += seconds;
  return total;
}

std::string PhaseProfiler::summary() const {
  std::string out;
  for (const auto& [name, seconds] : phases()) {
    if (!out.empty()) out += " + ";
    out += name + " " + fmt_double(seconds, 2) + " s";
  }
  if (out.empty()) return "(no phases)";
  return out + " = " + fmt_double(total_seconds(), 2) + " s";
}

std::string render_progress(const std::string& unit, std::size_t done,
                            std::size_t total, double elapsed_seconds) {
  XRES_CHECK(total > 0 && done <= total, "bad progress state");
  const double fraction = static_cast<double>(done) / static_cast<double>(total);
  std::string line = unit + " " + std::to_string(done) + "/" + std::to_string(total) +
                     " (" + std::to_string(static_cast<int>(std::lround(fraction * 100.0))) +
                     "%)";
  if (done > 0 && done < total && elapsed_seconds > 0.0) {
    const double eta =
        elapsed_seconds / static_cast<double>(done) * static_cast<double>(total - done);
    line += " eta " + fmt_eta(eta);
  }
  return line;
}

ProgressMeter::ProgressMeter(std::string unit, std::FILE* out)
    : unit_{std::move(unit)},
      out_{out != nullptr ? out : stderr},
      start_{std::chrono::steady_clock::now()},
      last_draw_{} {}

void ProgressMeter::update(std::size_t done, std::size_t total) {
  const auto now = std::chrono::steady_clock::now();
  const bool final = done == total;
  if (!final && drew_ && seconds_between(last_draw_, now) < 0.1) return;
  last_draw_ = now;
  drew_ = true;

  std::string line =
      "  " + render_progress(unit_, done, total, seconds_between(start_, now));
  const std::size_t width = line.size();
  if (width < last_width_) line += std::string(last_width_ - width, ' ');
  last_width_ = width;
  std::fprintf(out_, "\r%s%s", line.c_str(), final ? "\n" : "");
  std::fflush(out_);
}

std::function<void(std::size_t, std::size_t)> ProgressMeter::callback() {
  return [this](std::size_t done, std::size_t total) { update(done, total); };
}

}  // namespace xres::obs
