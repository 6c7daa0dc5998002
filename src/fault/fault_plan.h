#ifndef LAZYREP_FAULT_FAULT_PLAN_H_
#define LAZYREP_FAULT_FAULT_PLAN_H_

#include <cstdlib>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/types.h"

namespace lazyrep::fault {

/// One scheduled site failure: the site loses its volatile state at `at`
/// and restarts after `down_for` (WAL replay, then propagation resumes).
struct CrashEvent {
  SiteId site = kInvalidSite;
  SimTime at = 0;
  Duration down_for = Millis(100);

  bool operator==(const CrashEvent&) const = default;
};

/// Declarative description of the faults one run should experience. The
/// network knobs hold per-message probabilities applied independently on
/// every channel; crashes are scheduled events. See docs/FAULTS.md.
struct FaultPlan {
  /// P(message lost on the wire).
  double drop_prob = 0;
  /// P(message delivered twice).
  double dup_prob = 0;
  /// Extra wire delay, uniform in [0, extra_delay_max], per message.
  Duration extra_delay_max = 0;
  std::vector<CrashEvent> crashes;

  bool network_faults() const {
    return drop_prob > 0 || dup_prob > 0 || extra_delay_max > 0;
  }
  bool enabled() const { return network_faults() || !crashes.empty(); }

  /// Parses a comma-separated spec:
  ///
  ///   drop:P          message drop probability
  ///   dup:P           message duplication probability
  ///   delay:D         max extra wire delay (D like "2ms", "500us", "1s")
  ///   crash:S@T[+D]   crash site S at time T, down for D (default 100ms)
  ///
  /// e.g. "drop:0.01,dup:0.01,crash:1@500ms" — repeated crash entries
  /// schedule several failures.
  static Result<FaultPlan> Parse(const std::string& spec);

  /// The canonical spec: `Parse(ToString())` reproduces the plan exactly.
  std::string ToString() const;

  bool operator==(const FaultPlan&) const = default;
};

namespace internal {

/// Parses "500ms" / "2us" / "1.5s" / bare nanoseconds.
inline Result<Duration> ParseDuration(const std::string& text) {
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) {
    return Status::InvalidArgument("bad duration: " + text);
  }
  std::string unit(end);
  if (unit == "ms") return Millis(value);
  if (unit == "us") return Micros(value);
  if (unit == "s") return Seconds(value);
  if (unit == "ns" || unit.empty()) return static_cast<Duration>(value);
  return Status::InvalidArgument("bad duration unit: " + text);
}

/// Renders `d` in the largest unit that holds it exactly ("2ms", "150us",
/// "7ns"; "0" for zero), so `ParseDuration` reads it back unchanged.
inline std::string FormatDurationSpec(Duration d) {
  if (d == 0) return "0";
  if (d % kSecond == 0) return std::to_string(d / kSecond) + "s";
  if (d % kMillisecond == 0) return std::to_string(d / kMillisecond) + "ms";
  if (d % kMicrosecond == 0) return std::to_string(d / kMicrosecond) + "us";
  return std::to_string(d) + "ns";
}

}  // namespace internal

inline std::string FaultPlan::ToString() const {
  std::vector<std::string> entries;
  if (drop_prob > 0) entries.push_back("drop:" + FormatShortest(drop_prob));
  if (dup_prob > 0) entries.push_back("dup:" + FormatShortest(dup_prob));
  if (extra_delay_max > 0) {
    entries.push_back("delay:" +
                      internal::FormatDurationSpec(extra_delay_max));
  }
  for (const CrashEvent& crash : crashes) {
    entries.push_back("crash:" + std::to_string(crash.site) + "@" +
                      internal::FormatDurationSpec(crash.at) + "+" +
                      internal::FormatDurationSpec(crash.down_for));
  }
  return StrJoin(entries, ",");
}

inline Result<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("bad fault entry (want key:value): " +
                                     entry);
    }
    std::string key = entry.substr(0, colon);
    std::string value = entry.substr(colon + 1);
    if (key == "drop") {
      plan.drop_prob = std::atof(value.c_str());
      if (plan.drop_prob < 0 || plan.drop_prob > 1) {
        return Status::InvalidArgument("drop probability out of [0,1]: " +
                                       value);
      }
    } else if (key == "dup") {
      plan.dup_prob = std::atof(value.c_str());
      if (plan.dup_prob < 0 || plan.dup_prob > 1) {
        return Status::InvalidArgument("dup probability out of [0,1]: " +
                                       value);
      }
    } else if (key == "delay") {
      LAZYREP_ASSIGN_OR_RETURN(plan.extra_delay_max,
                               internal::ParseDuration(value));
    } else if (key == "crash") {
      size_t at_sign = value.find('@');
      if (at_sign == std::string::npos) {
        return Status::InvalidArgument("bad crash entry (want S@T[+D]): " +
                                       entry);
      }
      CrashEvent crash;
      crash.site = static_cast<SiteId>(
          std::atoi(value.substr(0, at_sign).c_str()));
      std::string when = value.substr(at_sign + 1);
      size_t plus = when.find('+');
      if (plus != std::string::npos) {
        LAZYREP_ASSIGN_OR_RETURN(
            crash.down_for,
            internal::ParseDuration(when.substr(plus + 1)));
        when = when.substr(0, plus);
      }
      LAZYREP_ASSIGN_OR_RETURN(crash.at, internal::ParseDuration(when));
      plan.crashes.push_back(crash);
    } else {
      return Status::InvalidArgument("unknown fault key: " + key);
    }
  }
  return plan;
}

}  // namespace lazyrep::fault

#endif  // LAZYREP_FAULT_FAULT_PLAN_H_
