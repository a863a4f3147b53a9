#include "study/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "study/platform_params.hpp"
#include "util/check.hpp"

namespace xres::study {

const char* to_string(StudyGroup group) {
  switch (group) {
    case StudyGroup::kFigure: return "figure";
    case StudyGroup::kTable: return "table";
    case StudyGroup::kAblation: return "ablation";
    case StudyGroup::kExtension: return "extension";
    case StudyGroup::kAdhoc: return "adhoc";
  }
  return "?";
}

const char* ParamSpec::type_name() const {
  switch (type) {
    case Type::kInt: return "int";
    case Type::kReal: return "real";
    case Type::kString: return "string";
  }
  return "?";
}

std::optional<ParamSpec::Type> ParamSpec::type_from_name(const std::string& name) {
  if (name == "int") return Type::kInt;
  if (name == "real") return Type::kReal;
  if (name == "string") return Type::kString;
  return std::nullopt;
}

std::string format_real(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string ParamSpec::range_text() const {
  if (!min_value.has_value() && !max_value.has_value()) return "";
  std::string out = "[";
  out += min_value.has_value() ? format_real(*min_value) : "...";
  out += ", ";
  out += max_value.has_value() ? format_real(*max_value) : "...";
  out += "]";
  return out;
}

ParamSpec& ParamSchema::integer(std::string key, std::string help,
                                std::int64_t default_value) {
  ParamSpec spec;
  spec.key = std::move(key);
  spec.help = std::move(help);
  spec.type = ParamSpec::Type::kInt;
  spec.default_value = std::to_string(default_value);
  return add(std::move(spec));
}

ParamSpec& ParamSchema::real(std::string key, std::string help, double default_value) {
  ParamSpec spec;
  spec.key = std::move(key);
  spec.help = std::move(help);
  spec.type = ParamSpec::Type::kReal;
  spec.default_value = format_real(default_value);
  return add(std::move(spec));
}

ParamSpec& ParamSchema::text(std::string key, std::string help,
                             std::string default_value) {
  ParamSpec spec;
  spec.key = std::move(key);
  spec.help = std::move(help);
  spec.type = ParamSpec::Type::kString;
  spec.default_value = std::move(default_value);
  return add(std::move(spec));
}

ParamSpec& ParamSchema::add(ParamSpec spec) {
  XRES_CHECK(!spec.key.empty() && spec.key[0] != '-',
             "parameter keys are bare names, got '" + spec.key + "'");
  XRES_CHECK(spec.key.find('=') == std::string::npos &&
                 spec.key.find(' ') == std::string::npos,
             "parameter key '" + spec.key + "' must not contain '=' or spaces");
  XRES_CHECK(find(spec.key) == nullptr, "duplicate parameter key: " + spec.key);
  specs_.push_back(std::move(spec));
  return specs_.back();
}

void ParamSchema::set_default(const std::string& key, const std::string& value) {
  for (ParamSpec& p : specs_) {
    if (p.key == key) {
      validate_param_value(p, value);
      p.default_value = value;
      return;
    }
  }
  XRES_CHECK(false, "unknown parameter '" + key + "'");
}

const ParamSpec* ParamSchema::find(const std::string& key) const {
  for (const ParamSpec& p : specs_) {
    if (p.key == key) return &p;
  }
  return nullptr;
}

void ParamSchema::validate(const std::string& key, const std::string& value) const {
  const ParamSpec* spec = find(key);
  XRES_CHECK(spec != nullptr, "unknown parameter '" + key + "'");
  validate_param_value(*spec, value);
}

std::string StudyDefinition::help_summary() const {
  if (!summary.empty()) return summary;
  return name + " — " + description;
}

void validate_param_value(const ParamSpec& spec, const std::string& value) {
  if (spec.type == ParamSpec::Type::kString) return;
  XRES_CHECK(!value.empty(), "parameter '" + spec.key + "' needs a value");
  char* end = nullptr;
  double parsed = 0.0;
  if (spec.type == ParamSpec::Type::kInt) {
    parsed = static_cast<double>(std::strtoll(value.c_str(), &end, 10));
    XRES_CHECK(end != nullptr && *end == '\0',
               "parameter '" + spec.key + "' expects an integer, got '" + value + "'");
  } else {
    parsed = std::strtod(value.c_str(), &end);
    XRES_CHECK(end != nullptr && *end == '\0',
               "parameter '" + spec.key + "' expects a number, got '" + value + "'");
  }
  XRES_CHECK(!spec.min_value.has_value() || parsed >= *spec.min_value,
             "parameter '" + spec.key + "' = " + value + " is below its minimum " +
                 format_real(*spec.min_value));
  XRES_CHECK(!spec.max_value.has_value() || parsed <= *spec.max_value,
             "parameter '" + spec.key + "' = " + value + " is above its maximum " +
                 format_real(*spec.max_value));
}

ParamSet::ParamSet(const StudyDefinition& def) : ParamSet{def.params, def.name} {}

ParamSet::ParamSet(const ParamSchema& schema, std::string owner)
    : schema_{&schema}, owner_{std::move(owner)} {
  for (const ParamSpec& p : schema) values_[p.key] = p.default_value;
}

void ParamSet::set(const std::string& key, const std::string& value) {
  XRES_CHECK(schema_ != nullptr, "ParamSet not bound to a schema");
  const ParamSpec* spec = schema_->find(key);
  XRES_CHECK(spec != nullptr,
             "unknown parameter '" + key + "' for study '" + owner_ + "'");
  validate_param_value(*spec, value);
  values_[key] = value;
}

std::int64_t ParamSet::integer(const std::string& key) const {
  const std::string v = str(key);
  char* end = nullptr;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  XRES_CHECK(end != nullptr && *end == '\0' && !v.empty(),
             "parameter '" + key + "' expects an integer, got '" + v + "'");
  return parsed;
}

std::uint32_t ParamSet::u32(const std::string& key) const {
  return static_cast<std::uint32_t>(integer(key));
}

double ParamSet::real(const std::string& key) const {
  const std::string v = str(key);
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  XRES_CHECK(end != nullptr && *end == '\0' && !v.empty(),
             "parameter '" + key + "' expects a number, got '" + v + "'");
  return parsed;
}

std::string ParamSet::str(const std::string& key) const {
  const auto it = values_.find(key);
  XRES_CHECK(it != values_.end(), "undeclared parameter queried: " + key);
  return it->second;
}

StudyRegistry& StudyRegistry::instance() {
  // Leaked on purpose: study Registrations run during static init and the
  // registry must outlive every other static destructor.
  static StudyRegistry* registry = new StudyRegistry();
  return *registry;
}

void StudyRegistry::add(StudyDefinition def) {
  XRES_CHECK(!def.name.empty(), "study needs a name");
  XRES_CHECK(!def.description.empty(), "study '" + def.name + "' needs a description");
  XRES_CHECK(def.run != nullptr, "study '" + def.name + "' needs a run function");
  XRES_CHECK(find(def.name) == nullptr, "duplicate study name: " + def.name);
  // Every study answers `--platform.*` (platform_params.hpp); studies that
  // pre-declared one of the keys keep their own spec.
  add_platform_params(def.params);
  for (const ParamSpec& p : def.params) {
    validate_param_value(p, p.default_value);
  }
  studies_.push_back(std::make_unique<StudyDefinition>(std::move(def)));
}

const StudyDefinition* StudyRegistry::find(const std::string& name) const {
  for (const auto& s : studies_) {
    if (s->name == name) return s.get();
  }
  return nullptr;
}

std::vector<const StudyDefinition*> StudyRegistry::all() const {
  std::vector<const StudyDefinition*> out;
  out.reserve(studies_.size());
  for (const auto& s : studies_) out.push_back(s.get());
  std::sort(out.begin(), out.end(),
            [](const StudyDefinition* a, const StudyDefinition* b) {
              if (a->group != b->group) return a->group < b->group;
              return a->name < b->name;
            });
  return out;
}

std::vector<const StudyDefinition*> StudyRegistry::group_members(
    const std::vector<StudyGroup>& groups) const {
  std::vector<const StudyDefinition*> out;
  for (const StudyDefinition* def : all()) {
    if (std::find(groups.begin(), groups.end(), def->group) != groups.end()) {
      out.push_back(def);
    }
  }
  return out;
}

Registration::Registration(StudyDefinition def) {
  StudyRegistry::instance().add(std::move(def));
}

}  // namespace xres::study
