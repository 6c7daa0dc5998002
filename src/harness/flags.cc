#include "harness/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "fault/fault_plan.h"
#include "graph/topology.h"
#include "harness/experiment.h"

namespace lazyrep::harness {

namespace {

using Config = core::SystemConfig;
using ConfigFlag = Flag<Config>;
using Rendered = std::optional<std::string>;

template <typename V>
Status ParseNumber(const std::string& text, V* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("not a number");
  }
  if constexpr (std::is_floating_point_v<V>) {
    if (!std::isfinite(*out)) return Status::InvalidArgument("not finite");
  }
  return Status::OK();
}

std::string RenderNumber(double v) { return FormatShortest(v); }
template <typename V>
std::string RenderNumber(V v) {
  return std::to_string(v);
}

// Entry builders. `field` is a generic lambda returning a reference to
// the flag's field in a (mutable or const) config.

template <typename F>
ConfigFlag Number(std::string name, std::string value, std::string help,
                  F field, double min = std::numeric_limits<double>::lowest()) {
  using V = std::remove_cvref_t<decltype(field(std::declval<Config&>()))>;
  return {std::move(name), "", std::move(value), std::move(help),
          [field, min](const std::string& text, Config* c) {
            V v{};
            LAZYREP_RETURN_IF_ERROR(ParseNumber(text, &v));
            if (static_cast<double>(v) < min) {
              return Status::InvalidArgument("must be >= " +
                                             FormatShortest(min));
            }
            field(*c) = v;
            return Status::OK();
          },
          [field](const Config& c) -> Rendered {
            return RenderNumber(field(c));
          }};
}

template <typename F>
ConfigFlag Time(std::string name, std::string help, F field) {
  return {std::move(name), "", "D", std::move(help),
          [field](const std::string& text, Config* c) {
            return ParseFlagDuration(text, &field(*c));
          },
          [field](const Config& c) -> Rendered {
            return fault::internal::FormatDurationSpec(field(c));
          }};
}

/// A named-value flag; the first spelling of each value is canonical.
template <typename E, typename F>
ConfigFlag Choice(std::string name, std::string value, std::string help,
                  F field, std::vector<std::pair<std::string, E>> choices) {
  return {std::move(name), "", value, std::move(help),
          [field, choices, value](const std::string& text, Config* c) {
            for (const auto& [spelling, e] : choices) {
              if (text == spelling) {
                field(*c) = e;
                return Status::OK();
              }
            }
            return Status::InvalidArgument("want " + value);
          },
          [field, choices](const Config& c) -> Rendered {
            for (const auto& [spelling, e] : choices) {
              if (field(c) == e) return spelling;
            }
            return std::nullopt;
          }};
}

template <typename Set, typename On>
ConfigFlag Switch(std::string name, std::string help, Set set, On on) {
  return {std::move(name), "", "", std::move(help),
          [set](const std::string&, Config* c) {
            set(*c);
            return Status::OK();
          },
          [on](const Config& c) -> Rendered {
            return on(c) ? Rendered("") : std::nullopt;
          }};
}

#define LAZYREP_FIELD(expr) [](auto& c) -> auto& { return c.expr; }

std::vector<ConfigFlag> BuildConfigFlags() {
  using core::Protocol;
  std::vector<ConfigFlag> flags = {
      Choice<Protocol>("protocol", "dagwt|dagt|backedge|psl|naive|eager",
                       "update-propagation protocol (dag_wt and dag_t are "
                       "accepted too)",
                       LAZYREP_FIELD(protocol),
                       {{"dagwt", Protocol::kDagWt},
                        {"dag_wt", Protocol::kDagWt},
                        {"dagt", Protocol::kDagT},
                        {"dag_t", Protocol::kDagT},
                        {"backedge", Protocol::kBackEdge},
                        {"psl", Protocol::kPsl},
                        {"naive", Protocol::kNaiveLazy},
                        {"eager", Protocol::kEager}}),
      Number("sites", "M", "number of sites",
             LAZYREP_FIELD(workload.num_sites)),
      Number("per-machine", "K", "sites per machine sharing a CPU",
             LAZYREP_FIELD(workload.sites_per_machine)),
      Number("items", "N", "number of items",
             LAZYREP_FIELD(workload.num_items)),
      Number("r", "P", "replication probability",
             LAZYREP_FIELD(workload.replication_prob)),
      Number("s", "P", "site probability", LAZYREP_FIELD(workload.site_prob)),
      Number("b", "P", "backedge probability",
             LAZYREP_FIELD(workload.backedge_prob)),
      Number("ops", "K", "operations per transaction",
             LAZYREP_FIELD(workload.ops_per_txn)),
      Number("threads", "K", "threads per site",
             LAZYREP_FIELD(workload.threads_per_site)),
      Number("txns", "K", "transactions per thread",
             LAZYREP_FIELD(workload.txns_per_thread), 0),
      Number("read-op", "P", "read-operation probability",
             LAZYREP_FIELD(workload.read_op_prob)),
      Number("read-txn", "P", "read-only-transaction probability",
             LAZYREP_FIELD(workload.read_txn_prob)),
      {"workload", "", "NAME",
       "generator: table1 | ycsb_a..ycsb_f | smallbank | tpcc_lite "
       "(docs/WORKLOADS.md)",
       [](const std::string& text, Config* c) -> Status {
         LAZYREP_ASSIGN_OR_RETURN(c->workload.workload,
                                  workload::ParseWorkloadKind(text));
         return Status::OK();
       },
       [](const Config& c) -> Rendered {
         return workload::WorkloadKindName(c.workload.workload);
       }},
      Number("zipf", "THETA",
             "access-skew exponent over one global hotness permutation "
             "(0 = uniform)",
             LAZYREP_FIELD(workload.zipf_theta), 0),
      {"consistency", "", "serializable|snapshot|ryw",
       "read consistency: the relaxed levels serve read-only transactions "
       "lock-free from MVCC snapshots; ryw adds read-your-writes session "
       "floors (docs/MVCC.md)",
       [](const std::string& text, Config* c) -> Status {
         LAZYREP_ASSIGN_OR_RETURN(c->consistency,
                                  storage::ParseConsistencyLevel(text));
         return Status::OK();
       },
       [](const Config& c) -> Rendered {
         return storage::ConsistencyLevelName(c.consistency);
       }},
      Number("hot-seed", "K", "seed of the hotness permutation",
             LAZYREP_FIELD(workload.hot_rank_seed)),
      Number("scan-len", "K", "YCSB-E max scan length",
             LAZYREP_FIELD(workload.ycsb_scan_len)),
      Number("remote", "P", "tpcc_lite multi-partition probability",
             LAZYREP_FIELD(workload.remote_txn_prob)),
      {"topology", "", "SPEC",
       "generated scale-out copy graph with per-item sharded placement: "
       "chain:N | tree:N,d | fan:N | rand:N,density (docs/SCALE.md). Its "
       "N wins over --sites; rand density > 0 creates cycles and needs a "
       "non-DAG protocol",
       [](const std::string& text, Config* c) -> Status {
         LAZYREP_ASSIGN_OR_RETURN(graph::TopologySpec spec,
                                  graph::ParseTopologySpec(text));
         c->workload.topology = spec.ToString();
         return Status::OK();
       },
       [](const Config& c) -> Rendered {
         if (c.workload.topology.empty()) return std::nullopt;
         return c.workload.topology;
       }},
      Number("replication-factor", "K",
             "copies per item (primary included) under --topology",
             LAZYREP_FIELD(workload.replication_factor), 1),
      Time("latency-ms", "one-way network latency",
           LAZYREP_FIELD(workload.network_latency)),
      Time("timeout-ms", "lock-wait timeout that breaks deadlocks",
           LAZYREP_FIELD(workload.deadlock_timeout)),
      Number("seed", "K", "experiment seed", LAZYREP_FIELD(seed)),
      Choice<runtime::RuntimeKind>(
          "runtime", "sim|threads",
          "sim is the deterministic discrete-event backend; threads runs "
          "each machine on an OS thread and measures wall-clock metrics",
          LAZYREP_FIELD(runtime),
          {{"sim", runtime::RuntimeKind::kSim},
           {"threads", runtime::RuntimeKind::kThreads}}),
      Number("workers", "N",
             "worker lanes per machine (threads runtime only); a site's "
             "transactions spread over its machine's lanes",
             LAZYREP_FIELD(workers_per_site)),
      Number("lock-stripes", "N", "hash stripes per site lock table",
             LAZYREP_FIELD(engine.lock_stripes)),
      Choice<storage::DeadlockPolicy>(
          "deadlock", "timeout|wait_die",
          "abort a lock waiter only on timeout, or also kill any younger "
          "requester that would wait on an older holder (wait-die)",
          LAZYREP_FIELD(engine.deadlock_policy),
          {{"timeout", storage::DeadlockPolicy::kTimeoutOnly},
           {"wait_die", storage::DeadlockPolicy::kWaitDie},
           {"wait-die", storage::DeadlockPolicy::kWaitDie}}),
      Switch("retry", "retry aborted transactions until they commit",
             [](Config& c) { c.retry = core::RetryPolicy::kRetryUntilCommit; },
             [](const Config& c) {
               return c.retry == core::RetryPolicy::kRetryUntilCommit;
             }),
      Choice<core::TreeKind>("tree", "chain|greedy",
                             "DAG(WT)/BackEdge propagation tree shape",
                             LAZYREP_FIELD(engine.tree),
                             {{"chain", core::TreeKind::kChain},
                              {"greedy", core::TreeKind::kGreedy}}),
      Choice<core::BackedgeMethod>(
          "backedges", "site-order|dfs|greedy|weighted",
          "how BackEdge picks the backedge set",
          LAZYREP_FIELD(engine.backedge_method),
          {{"site-order", core::BackedgeMethod::kSiteOrder},
           {"dfs", core::BackedgeMethod::kDfs},
           {"greedy", core::BackedgeMethod::kGreedy},
           {"weighted", core::BackedgeMethod::kWeightedGreedy}}),
      Switch("detection", "waits-for deadlock detection (instead of timeouts)",
             [](Config& c) {
               c.engine.deadlock_policy =
                   storage::DeadlockPolicy::kLocalDetection;
             },
             [](const Config& c) {
               return c.engine.deadlock_policy ==
                      storage::DeadlockPolicy::kLocalDetection;
             }),
      Switch("lww", "last-writer-wins reconciliation (naive only)",
             [](Config& c) { c.engine.naive_lww = true; },
             [](const Config& c) { return c.engine.naive_lww; }),
      Switch("wal", "maintain per-site redo WALs",
             [](Config& c) { c.enable_wal = true; },
             [](const Config& c) { return c.enable_wal; }),
      {"faults", "", "SPEC",
       "fault plan, e.g. drop:0.01,dup:0.01,delay:2ms,crash:1@500ms+100ms "
       "(docs/FAULTS.md); crash faults imply --wal",
       [](const std::string& text, Config* c) -> Status {
         LAZYREP_ASSIGN_OR_RETURN(fault::FaultPlan plan,
                                  fault::FaultPlan::Parse(text));
         // Crash recovery replays the WAL; switch it on rather than make
         // the user pair the flags by hand.
         if (!plan.crashes.empty()) c->enable_wal = true;
         c->faults = std::move(plan);
         return Status::OK();
       },
       [](const Config& c) -> Rendered {
         if (!c.faults.has_value()) return std::nullopt;
         return c.faults->ToString();
       }},
      Time("batch-window",
           "coalesce posts per channel for this long and ship them as one "
           "batch frame (0 = off; docs/PERFORMANCE.md §6)",
           LAZYREP_FIELD(batching.window)),
      Switch("group-commit",
             "one WAL sync boundary per delivered batch at the secondaries "
             "(implies --wal)",
             [](Config& c) {
               c.batching.wal_group_commit = true;
               c.enable_wal = true;  // The boundary needs a log to seal.
             },
             [](const Config& c) { return c.batching.wal_group_commit; }),
      Switch("no-check",
             "turn off the streaming oracle (no serializability check)",
             [](Config& c) { c.check_serializability = false; },
             [](const Config& c) { return !c.check_serializability; }),
      Time("warmup-ms", "exclude transactions that start before this time",
           LAZYREP_FIELD(warmup)),
  };
  for (ConfigFlag& f : flags) {
    if (f.name == "timeout-ms") f.alias = "lock-timeout";
    if (f.name == "deadlock") f.alias = "grant";
  }
  return flags;
}

#undef LAZYREP_FIELD

}  // namespace

std::vector<Flag<core::SystemConfig>> AllConfigFlags() {
  return BuildConfigFlags();
}

std::vector<Flag<core::SystemConfig>> ConfigFlags(
    const std::vector<std::string>& names) {
  std::vector<ConfigFlag> all = BuildConfigFlags();
  std::vector<ConfigFlag> out;
  for (const std::string& name : names) {
    auto it = std::find_if(all.begin(), all.end(),
                           [&](const ConfigFlag& f) { return f.name == name; });
    LAZYREP_CHECK(it != all.end()) << "no config flag --" << name;
    out.push_back(*it);
  }
  return out;
}

bool SplitFlag(const std::string& arg, std::string* name, std::string* value,
               bool* has_value) {
  if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) return false;
  size_t eq = arg.find('=');
  *has_value = eq != std::string::npos;
  *name = arg.substr(2, *has_value ? eq - 2 : std::string::npos);
  *value = *has_value ? arg.substr(eq + 1) : "";
  return true;
}

std::string FlagHelpLine(const std::string& name, const std::string& alias,
                         const std::string& value, const std::string& help,
                         const std::optional<std::string>& default_value) {
  constexpr size_t kIndent = 22;
  constexpr size_t kWidth = 78;
  std::string text = help;
  if (!alias.empty()) text += "; also --" + alias;
  if (default_value.has_value() && value.empty()) {
    text += " (default)";
  } else if (default_value.has_value() && !default_value->empty()) {
    text += " (default " + *default_value + ")";
  }
  std::string line = "  --" + name + (value.empty() ? "" : "=" + value);
  std::string out;
  if (line.size() + 1 > kIndent) {
    out += line + "\n";
    line.clear();
  }
  // Greedy word wrap of `text` into the help column.
  size_t pos = 0;
  while (pos < text.size()) {
    line.resize(kIndent, ' ');
    size_t end = std::min(text.size(), pos + (kWidth - kIndent));
    if (end < text.size()) {
      size_t space = text.rfind(' ', end);
      if (space != std::string::npos && space > pos) end = space;
    }
    out += line + text.substr(pos, end - pos) + "\n";
    line.clear();
    pos = end;
    while (pos < text.size() && text[pos] == ' ') ++pos;
  }
  return out;
}

void ApplyTopology(workload::Params* params) {
  if (params->topology.empty()) return;
  Result<graph::TopologySpec> spec = graph::ParseTopologySpec(params->topology);
  LAZYREP_CHECK(spec.ok()) << spec.status().ToString();
  params->topology = spec->ToString();
  // The spec's site count is authoritative; sites keep the default
  // co-location granularity unless that would leave zero machines.
  params->num_sites = spec->num_sites;
  if (params->sites_per_machine > spec->num_sites) {
    params->sites_per_machine = 1;
  }
  if (params->num_items < spec->num_sites) {
    // The sharded placement needs every site to own >= 1 item; scale the
    // paper's default keyspace with the topology.
    params->num_items = 4 * spec->num_sites;
  }
}

Status ParseInt(const std::string& text, int min, int* out) {
  int v = 0;
  LAZYREP_RETURN_IF_ERROR(ParseNumber(text, &v));
  if (v < min) {
    return Status::InvalidArgument("must be >= " + std::to_string(min));
  }
  *out = v;
  return Status::OK();
}

Status ParseUint(const std::string& text, uint64_t* out) {
  return ParseNumber(text, out);
}

Status ParseFlagDuration(const std::string& text, Duration* out) {
  const size_t unit_at = text.find_first_of("nums");
  const std::string unit =
      unit_at == std::string::npos ? "ms" : text.substr(unit_at);
  const double scale = unit == "s"    ? Seconds(1)
                       : unit == "ms" ? Millis(1)
                       : unit == "us" ? Micros(1)
                       : unit == "ns" ? 1
                                      : 0;
  double value = 0;
  if (scale == 0 || !ParseNumber(text.substr(0, unit_at), &value).ok()) {
    return Status::InvalidArgument("want a duration like 2ms, 500us, 1s");
  }
  // Range-check before the cast: an out-of-range conversion is undefined.
  if (value < 0 || value * scale >= 9e18) {
    return Status::InvalidArgument("must be in [0, 9e9s)");
  }
  *out = static_cast<Duration>(value * scale);
  return Status::OK();
}

int UsageError(const Status& status) {
  std::fprintf(stderr, "error: %s (see --help)\n",
               std::string(status.message()).c_str());
  return 2;
}

std::optional<int> HandleCommandLine(
    int argc, char** argv, const std::string& help,
    const std::function<Status(const std::vector<std::string>& args)>& parse) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", help.c_str());
      return 0;
    }
  }
  Status status = parse(args);
  if (!status.ok()) return UsageError(status);
  return std::nullopt;
}

CliOptions::CliOptions() : config(PaperConfig(core::Protocol::kBackEdge)) {}

std::vector<Flag<CliOptions>> CliFlags() {
  std::vector<Flag<CliOptions>> flags =
      OnMember(AllConfigFlags(), &CliOptions::config);
  flags.push_back(IntFlag("seeds", "average over N seeds",
                          &CliOptions::seeds, 1));
  flags.push_back(PathFlag("trace",
                           "write a JSONL protocol event trace (single run)",
                           &CliOptions::trace_path));
  flags.push_back(PathFlag("metrics-out",
                           "write a Prometheus text metrics snapshot taken "
                           "at quiescence (single run)",
                           &CliOptions::metrics_out));
  flags.push_back(PathFlag("trace-out",
                           "write a Chrome trace_event JSON timeline "
                           "(Perfetto / chrome://tracing; single run)",
                           &CliOptions::trace_out));
  flags.push_back(SwitchFlag("per-site",
                             "print the per-site breakdown (single run)",
                             &CliOptions::per_site));
  flags.push_back(SwitchFlag("hist",
                             "print the response-time histogram (single run)",
                             &CliOptions::histogram));
  return flags;
}

Status ParseCliArgs(const std::vector<std::string>& args, CliOptions* out) {
  LAZYREP_RETURN_IF_ERROR(ParseFlags(CliFlags(), args, out));
  ApplyTopology(&out->config.workload);
  if (!out->trace_path.empty() || !out->trace_out.empty()) {
    out->config.enable_trace = true;
  }
  return core::Validate(out->config);
}

}  // namespace lazyrep::harness
