#ifndef LAZYREP_HARNESS_FLAGS_H_
#define LAZYREP_HARNESS_FLAGS_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"

namespace lazyrep::harness {

/// One `--name=VALUE` (or bare `--name` switch) command-line flag over an
/// options struct `T`. A front end's flag table is a vector of these;
/// parsing, `--help` and rendering a command line back (lazychk's replay
/// line) all walk the same table, so they cannot drift apart.
template <typename T>
struct Flag {
  std::string name;   // Spelling without the leading "--".
  std::string alias;  // A second accepted spelling; empty = none.
  std::string value;  // Value placeholder for --help; empty = a switch.
  std::string help;
  /// Applies `value` (empty for a switch) to `*out`.
  std::function<Status(const std::string& value, T* out)> set;
  /// The flag's canonical value in `in` ("" for a switch that is on), or
  /// nullopt when the flag does not express it (a switch that is off).
  std::function<std::optional<std::string>(const T& in)> get;
};

/// Strict number parsing for flag values: the whole text must parse (and
/// an int must be >= `min`).
Status ParseInt(const std::string& text, int min, int* out);
Status ParseUint(const std::string& text, uint64_t* out);

/// A non-negative duration: "2ms", "500us", "1s", "7ns"; a bare number
/// means milliseconds.
Status ParseFlagDuration(const std::string& text, Duration* out);

// Builders for front ends' own flags over plain members of `T`.

/// A switch that sets `field` to `on`.
template <typename T>
Flag<T> SwitchFlag(std::string name, std::string help, bool T::*field,
                   bool on = true) {
  return {std::move(name), "", "", std::move(help),
          [field, on](const std::string&, T* t) {
            t->*field = on;
            return Status::OK();
          },
          [field, on](const T& t) -> std::optional<std::string> {
            if (t.*field != on) return std::nullopt;
            return "";
          }};
}

/// `--name=N` into an int `field`, which must be >= `min`.
template <typename T>
Flag<T> IntFlag(std::string name, std::string help, int T::*field, int min) {
  return {std::move(name), "", "N", std::move(help),
          [field, min](const std::string& v, T* t) {
            return ParseInt(v, min, &(t->*field));
          },
          [field](const T& t) -> std::optional<std::string> {
            return std::to_string(t.*field);
          }};
}

/// `--name=PATH` into a string `field`.
template <typename T>
Flag<T> PathFlag(std::string name, std::string help,
                 std::string T::*field) {
  return {std::move(name), "", "PATH", std::move(help),
          [field](const std::string& v, T* t) {
            t->*field = v;
            return Status::OK();
          },
          [field](const T& t) -> std::optional<std::string> {
            return t.*field;
          }};
}

/// The shared flags that set `SystemConfig` fields, named without "--"
/// and returned in the order given. CHECK-fails on an unknown name.
std::vector<Flag<core::SystemConfig>> ConfigFlags(
    const std::vector<std::string>& names);

/// Every shared flag, in `lazyrep_cli --help` order.
std::vector<Flag<core::SystemConfig>> AllConfigFlags();

/// Re-targets config flags at the `SystemConfig` member of a front end's
/// options struct.
template <typename T>
std::vector<Flag<T>> OnMember(std::vector<Flag<core::SystemConfig>> flags,
                              core::SystemConfig T::*member) {
  std::vector<Flag<T>> out;
  for (Flag<core::SystemConfig>& f : flags) {
    out.push_back({f.name, f.alias, f.value, f.help,
                   [set = f.set, member](const std::string& v, T* t) {
                     return set(v, &(t->*member));
                   },
                   [get = f.get, member](const T& t) {
                     return get(t.*member);
                   }});
  }
  return out;
}

/// Splits "--name=value" / "--name"; false when `arg` is not a flag.
bool SplitFlag(const std::string& arg, std::string* name, std::string* value,
               bool* has_value);

/// Applies `args` (argv without the program name) to `*out`, in order.
/// An unknown flag, a missing or unexpected value, or a value the flag's
/// setter rejects is an InvalidArgument naming the argument.
template <typename T>
Status ParseFlags(const std::vector<Flag<T>>& table,
                  const std::vector<std::string>& args, T* out) {
  for (const std::string& arg : args) {
    std::string name;
    std::string value;
    bool has_value = false;
    if (!SplitFlag(arg, &name, &value, &has_value)) {
      return Status::InvalidArgument("unexpected argument '" + arg + "'");
    }
    const Flag<T>* flag = nullptr;
    for (const Flag<T>& f : table) {
      if (f.name == name || (!f.alias.empty() && f.alias == name)) flag = &f;
    }
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
    if (flag->value.empty() == has_value) {
      return Status::InvalidArgument(
          flag->value.empty() ? "--" + name + " takes no value"
                              : "--" + name + " needs a value (--" + name +
                                    "=" + flag->value + ")");
    }
    Status status = flag->set(value, out);
    if (!status.ok()) {
      return Status::InvalidArgument(arg + ": " +
                                     std::string(status.message()));
    }
  }
  return Status::OK();
}

/// The arguments that turn `defaults` into `in`: one `--name[=value]` per
/// flag whose canonical value differs, in table order. Applied over the
/// same defaults, `ParseFlags` reproduces every field the table covers.
template <typename T>
std::vector<std::string> RenderFlags(const std::vector<Flag<T>>& table,
                                     const T& in, const T& defaults) {
  std::vector<std::string> args;
  for (const Flag<T>& f : table) {
    std::optional<std::string> value = f.get(in);
    if (!value.has_value() || value == f.get(defaults)) continue;
    args.push_back("--" + f.name + (f.value.empty() ? "" : "=" + *value));
  }
  return args;
}

/// One --help entry for a flag, naming its default: the value, or
/// "(default)" for a switch that is on by default.
std::string FlagHelpLine(const std::string& name, const std::string& alias,
                         const std::string& value, const std::string& help,
                         const std::optional<std::string>& default_value);

/// The --help text of a table, with each value flag's default as
/// rendered from `defaults`.
template <typename T>
std::string FlagHelp(const std::vector<Flag<T>>& table, const T& defaults) {
  std::string out;
  for (const Flag<T>& f : table) {
    out += FlagHelpLine(f.name, f.alias, f.value, f.help, f.get(defaults));
  }
  return out + "\nA duration D takes a unit (ns, us, ms, s); a bare number "
               "means ms.\n";
}

/// Derives what a `--topology=` spec fixes: the spec's site count (it
/// wins over `num_sites`), co-location that leaves >= 1 machine, and a
/// keyspace large enough that every site owns a shard. No-op without a
/// topology. CHECK-fails on an unparsable spec (the flag validates it).
void ApplyTopology(workload::Params* params);

/// Prints a usage error to stderr and returns the usage exit status, 2.
int UsageError(const Status& status);

/// The shared start of every front end's `main`. On `--help`/`-h` prints
/// `help` and returns 0; otherwise runs `parse` over argv (without the
/// program name) and returns 2 after printing its error, or nullopt when
/// the tool should go on and run.
std::optional<int> HandleCommandLine(
    int argc, char** argv, const std::string& help,
    const std::function<Status(const std::vector<std::string>& args)>& parse);

/// lazyrep_cli's options: one run template plus output selection.
struct CliOptions {
  core::SystemConfig config;  // PaperConfig(kBackEdge) unless flags say so.
  int seeds = 1;
  std::string trace_path;   // --trace: JSONL protocol event trace.
  std::string metrics_out;  // --metrics-out: Prometheus snapshot.
  std::string trace_out;    // --trace-out: Chrome trace_event timeline.
  // Either trace output turns on `config.enable_trace`.
  bool per_site = false;
  bool histogram = false;

  CliOptions();
};

/// lazyrep_cli's table: every shared flag plus its output flags.
std::vector<Flag<CliOptions>> CliFlags();

/// Parses lazyrep_cli's arguments, derives the topology (and tracing
/// when a trace output is asked for) and validates the resulting config.
Status ParseCliArgs(const std::vector<std::string>& args, CliOptions* out);

}  // namespace lazyrep::harness

#endif  // LAZYREP_HARNESS_FLAGS_H_
