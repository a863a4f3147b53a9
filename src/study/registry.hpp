#pragma once

/// \file registry.hpp
/// The study registry: every paper figure, table, ablation and extension
/// experiment is registered here as data — a `StudyDefinition` with a name,
/// a group, a one-line description, a typed parameter schema and a run
/// function — instead of owning its own `main()`. One generic harness
/// (study_main.hpp) then serves every scenario: `xres run <study>`,
/// `xres list`, `xres describe` and `xres suite paper` all enumerate or
/// execute the same definitions.
///
/// Definitions are *data*, so they need not be compiled in: the spec loader
/// (spec.hpp) constructs a StudyDefinition at runtime from a TOML/JSON spec
/// file, and the sweep planner (sweep.hpp) fans one definition across a
/// parameter grid. All three producers share the same typed value API:
/// `ParamSchema` declares the parameters (key, type, help, default, range),
/// `ParamSet` holds validated bindings for one run.
///
/// Registration is link-time: each study translation unit plants a
/// `Registration` object whose constructor inserts the definition into the
/// global registry. The study TUs are compiled into the `xres_studies`
/// object library so every consumer (CLI, tests) links the full catalog.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace xres::study {

class StudyContext;

/// Which part of the paper reproduction a study belongs to. Groups order
/// the catalog (`xres list`) and select the suite members (`xres suite
/// paper` runs kFigure + kTable).
enum class StudyGroup {
  kFigure,     ///< paper Figures 1-5
  kTable,      ///< paper Tables I-II
  kAblation,   ///< sensitivity sweeps over modeling assumptions
  kExtension,  ///< experiments beyond the paper (energy, paired, ...)
  kAdhoc,      ///< parameterized exploration surfaces (xres efficiency/workload)
};

[[nodiscard]] const char* to_string(StudyGroup group);

/// One entry of a study's typed parameter schema. Parameters surface as
/// regular CLI options (`--trials 80`) on the per-study binaries, as
/// `--set trials=80` bindings on `xres run`, as `[params]` entries in a
/// spec file, and as `--axis trials=20,40,80` sweep axes.
struct ParamSpec {
  enum class Type { kInt, kReal, kString };

  std::string key;   ///< bare name, no dashes ("trials")
  std::string help;  ///< one line for --help / xres describe
  Type type{Type::kInt};
  std::string default_value;
  /// Inclusive numeric range (kInt/kReal only); unset bound = unbounded.
  std::optional<double> min_value;
  std::optional<double> max_value;

  /// Range chaining for ParamSchema's builder methods:
  ///   schema.integer("trials", "trials per bar", 200).min(1);
  ParamSpec& min(double bound) {
    min_value = bound;
    return *this;
  }
  ParamSpec& max(double bound) {
    max_value = bound;
    return *this;
  }

  /// Human-readable type name ("int", "real", "string").
  [[nodiscard]] const char* type_name() const;
  /// nullopt when \p name is not a type name — the inverse of type_name().
  [[nodiscard]] static std::optional<Type> type_from_name(const std::string& name);
  /// Render the range as "[min, max]" / "[min, ...]" / "" for describe.
  [[nodiscard]] std::string range_text() const;
};

/// Render \p v the way schema defaults and range bounds are documented
/// ("%g": "2.5", "0.001", "10").
[[nodiscard]] std::string format_real(double v);

/// A study's ordered, typed parameter declarations. The one schema object
/// serves every producer and consumer: compiled-in registrations build it
/// with the typed methods below, the spec loader parses it back from the
/// JSON `xres describe --json` emits, CLI parsers mint options from it,
/// and sweep axes validate against it.
class ParamSchema {
 public:
  ParamSchema() = default;

  /// Declare a parameter; the returned reference allows range chaining
  /// (`schema.integer("trials", "...", 200).min(1)`). Throws CheckError on
  /// a duplicate or malformed key.
  ParamSpec& integer(std::string key, std::string help, std::int64_t default_value);
  ParamSpec& real(std::string key, std::string help, double default_value);
  ParamSpec& text(std::string key, std::string help, std::string default_value);

  /// Add a fully-formed spec (the spec-loader path). Same key validation.
  ParamSpec& add(ParamSpec spec);

  /// Re-bind a declared parameter's default — how a spec file's `[params]`
  /// table turns into new schema defaults that `--set`/`--axis` can still
  /// override. Throws CheckError on an unknown key or an invalid value.
  void set_default(const std::string& key, const std::string& value);

  /// nullptr when \p key is not declared.
  [[nodiscard]] const ParamSpec* find(const std::string& key) const;

  /// Throws CheckError when \p value is not a valid binding for \p key
  /// (unknown key, type mismatch, out of range).
  void validate(const std::string& key, const std::string& value) const;

  [[nodiscard]] bool empty() const { return specs_.empty(); }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  [[nodiscard]] const std::vector<ParamSpec>& specs() const { return specs_; }
  [[nodiscard]] std::vector<ParamSpec>::const_iterator begin() const {
    return specs_.begin();
  }
  [[nodiscard]] std::vector<ParamSpec>::const_iterator end() const {
    return specs_.end();
  }

 private:
  std::vector<ParamSpec> specs_;
};

/// Which pieces of the shared harness surface a study exposes. The flags
/// reproduce exactly the option set each pre-registry driver declared, so
/// every historical invocation keeps working.
struct StudyOptionsSpec {
  bool seed{true};  ///< --seed (default below)
  std::uint64_t default_seed{20170529};
  bool threads{true};  ///< --threads (studies with a serial sweep omit it)
  bool csv{false};     ///< --csv / --csv-path
  bool chart{false};   ///< --chart ASCII bars
  bool report{false};  ///< --report markdown artifact
  enum class Obs {
    kNone,       ///< no observability flags (static tables)
    kWithTrace,  ///< --metrics / --trace / --log-level
    kNoTrace,    ///< --metrics / --log-level (concurrent-workload studies)
  } obs{Obs::kWithTrace};
  bool recovery{true};  ///< --journal/--resume/--trial-timeout/--trial-retries
};

/// One scenario — registered at link time or materialized at runtime from a
/// spec file (spec.hpp); the harness treats both identically.
struct StudyDefinition {
  std::string name;  ///< unique, the `xres run` name ("fig1_efficiency_a32")
  StudyGroup group{StudyGroup::kAblation};
  std::string description;  ///< one line for the catalog
  /// --help header; empty → "<name> — <description>".
  std::string summary;
  /// Identifies this study's write-ahead journals (recovery::JournalMeta);
  /// empty → name. Figure 1-3 keep their historical title strings.
  std::string journal_id;
  StudyOptionsSpec options;
  ParamSchema params;
  /// The experiment body. Receives parsed params + harness options +
  /// lazily-constructed obs/recovery plumbing; returns the process exit
  /// code (0, or recovery::kExitInterrupted after a drained shutdown).
  std::function<int(StudyContext&)> run;

  [[nodiscard]] const ParamSpec* find_param(const std::string& key) const {
    return params.find(key);
  }
  [[nodiscard]] std::string help_summary() const;
  [[nodiscard]] const std::string& journal_study() const {
    return journal_id.empty() ? name : journal_id;
  }
};

/// Validated key→value bindings for one run of a schema, defaulted from the
/// schema. Accessors parse on read (like CliParser) — validate() has
/// already guaranteed they succeed.
class ParamSet {
 public:
  ParamSet() = default;
  /// Schema defaults for \p def (kept alive by the registry or, for a
  /// runtime definition, by the caller for this set's lifetime).
  explicit ParamSet(const StudyDefinition& def);
  /// Schema defaults for a bare schema; \p owner names the study in error
  /// messages.
  ParamSet(const ParamSchema& schema, std::string owner);

  /// Bind \p key to \p value. Throws CheckError on unknown key, a value
  /// that does not parse as the declared type, or one outside the range.
  void set(const std::string& key, const std::string& value);

  [[nodiscard]] std::int64_t integer(const std::string& key) const;
  [[nodiscard]] std::uint32_t u32(const std::string& key) const;
  [[nodiscard]] double real(const std::string& key) const;
  [[nodiscard]] std::string str(const std::string& key) const;

  [[nodiscard]] const std::map<std::string, std::string>& values() const {
    return values_;
  }

  /// The bound schema (null for a default-constructed set).
  [[nodiscard]] const ParamSchema* schema() const { return schema_; }

 private:
  const ParamSchema* schema_{nullptr};
  std::string owner_;
  std::map<std::string, std::string> values_;
};

/// Throws CheckError when \p value is not a valid binding for \p spec.
void validate_param_value(const ParamSpec& spec, const std::string& value);

/// The global study catalog.
class StudyRegistry {
 public:
  /// The singleton; studies join it through Registration at static init.
  [[nodiscard]] static StudyRegistry& instance();

  /// Register a study. Throws CheckError on a duplicate name, an empty
  /// description, a missing run function, or an invalid schema default.
  void add(StudyDefinition def);

  /// nullptr when unknown.
  [[nodiscard]] const StudyDefinition* find(const std::string& name) const;

  /// Every study, ordered by (group, name) — the catalog/suite order.
  [[nodiscard]] std::vector<const StudyDefinition*> all() const;

  /// The (group, name)-ordered subset belonging to \p groups.
  [[nodiscard]] std::vector<const StudyDefinition*> group_members(
      const std::vector<StudyGroup>& groups) const;

  [[nodiscard]] std::size_t size() const { return studies_.size(); }

 private:
  StudyRegistry() = default;
  std::vector<std::unique_ptr<StudyDefinition>> studies_;
};

/// Plant one of these at namespace scope to register a study at link time:
///   namespace { const study::Registration registered{make_definition()}; }
struct Registration {
  explicit Registration(StudyDefinition def);
};

}  // namespace xres::study
