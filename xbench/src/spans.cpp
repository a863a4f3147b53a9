#include <algorithm>
#include <atomic>
#include <chrono>

#include "bench.hpp"
#include "util/stats.hpp"

namespace xbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int lane_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

double Tracer::Scope::close() { return close_at(now_s()); }

double Tracer::Scope::close_at(double end) {
  if (index_ < 0) return 0.0;
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end = end;
  tracer_->open_.pop_back();
  index_ = -1;
  return span.end - span.start;
}

void Tracer::Scope::set_work(std::uint64_t work) {
  if (index_ >= 0) tracer_->spans_[static_cast<std::size_t>(index_)].work = work;
}

Tracer::Scope Tracer::scope(const char* name, std::string tag) {
  if (!enabled_) return Scope{*this, -1};
  Span span;
  span.name = name;
  span.tag = std::move(tag);
  span.parent = open_.empty() ? -1 : open_.back();
  span.lane = lane_id();
  span.start = now_s();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return Scope{*this, open_.back()};
}

void Tracer::add(const char* name, std::string tag, double start, double end, int lane,
                 std::uint64_t work) {
  if (!enabled_) return;
  spans_.push_back(Span{name, std::move(tag), start, end,
                        open_.empty() ? -1 : open_.back(), lane, work});
}

std::vector<double> Tracer::durations(const std::string& name,
                                      const std::string& tag_part) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name && s.tag.find(tag_part) != std::string::npos) {
      out.push_back(s.end - s.start);
    }
  }
  return out;
}

std::uint64_t Tracer::work(const std::string& name) const {
  std::uint64_t total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.work;
  }
  return total;
}

namespace {

std::string layer_of(const char* name) {
  const std::string n{name};
  return n.substr(0, n.find('.'));
}

std::vector<std::vector<int>> children_of(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(static_cast<int>(i));
    }
  }
  return children;
}

}  // namespace

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  const std::vector<std::vector<int>> children = children_of(spans_);
  std::map<std::string, double> self;
  std::vector<std::pair<double, double>> cover;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    cover.clear();
    for (int c : children[i]) {
      const Span& child = spans_[static_cast<std::size_t>(c)];
      const double lo = std::max(child.start, s.start);
      const double hi = std::min(child.end, s.end);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [lo, hi] : cover) {
      if (hi <= reach) continue;
      covered += hi - std::max(lo, reach);
      reach = hi;
    }
    self[layer_of(s.name)] += (s.end - s.start) - covered;
  }
  return self;
}

double Tracer::executor_idle_fraction() const {
  const std::vector<std::vector<int>> children = children_of(spans_);
  double capacity = 0.0;
  double busy = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& loop = spans_[i];
    if (std::string{loop.name} != "core.for_each") continue;
    capacity += (loop.end - loop.start) * static_cast<double>(loop.work);
    for (int c : children[i]) {
      const Span& unit = spans_[static_cast<std::size_t>(c)];
      busy += unit.end - unit.start;
    }
  }
  return capacity > 0.0 ? std::max(0.0, 1.0 - busy / capacity) : 0.0;
}

void Tracer::write_events(xres::obs::JsonWriter& w, int pid) const {
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value(layer_of(s.name));
    w.key("ph").value("X");
    w.key("ts").value((s.start - origin) * 1e6);
    w.key("dur").value((s.end - s.start) * 1e6);
    w.key("pid").value(pid);
    w.key("tid").value(s.lane);
    w.key("args").begin_object();
    w.key("id").value(static_cast<std::uint64_t>(i));
    w.key("parent").value(s.parent);
    if (!s.tag.empty()) w.key("tag").value(s.tag);
    if (s.work != 0) w.key("work").value(s.work);
    w.end_object();
    w.end_object();
  }
}

void timed_for_each(const xres::TrialExecutor& executor, Tracer& tracer,
                    std::size_t count, const char* name,
                    const std::function<std::string(std::size_t)>& tag,
                    const std::function<void(std::size_t)>& body) {
  if (!tracer.enabled()) {
    executor.for_each(count, body);
    return;
  }
  std::vector<double> starts(count);
  std::vector<double> ends(count);
  std::vector<int> lanes(count);
  Tracer::Scope loop = tracer.scope("core.for_each");
  loop.set_work(executor.threads());
  executor.for_each(count, [&](std::size_t i) {
    lanes[i] = lane_id();
    starts[i] = now_s();
    body(i);
    ends[i] = now_s();
  });
  const double loop_end = now_s();
  for (std::size_t i = 0; i < count; ++i) {
    tracer.add(name, tag ? tag(i) : std::string{}, starts[i], ends[i], lanes[i]);
  }
  loop.close_at(loop_end);
}

double quantile_or_zero(std::vector<double> samples, double q) {
  return samples.empty() ? 0.0 : xres::quantile(std::move(samples), q);
}

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  ++wrong;
  if (notes.size() < 8) notes.push_back(what);
}

}  // namespace xbench
