// lazybench: the end-to-end benchmark program for the lazyrep library.
//
//   lazybench --workload=NAME [--seed=S] [--seconds=T] [--trace=0|1]
//             [--out=DIR]
//   lazybench --list                  declared metrics, one per line
//   lazybench --smoke [--smoke-naive] every workload at 1/20 scale
//
// One invocation runs one workload in its own process: a discarded
// warm-up rep, then 30 measured reps (T sets their size) whose medians,
// host-clock values scaled to a reference host speed, are the end-to-end
// metrics and the whole-system per-layer ones, then — with --trace=1 —
// one traced rep whose counts, spans and replays are the other per-layer
// metrics. Every rep must pass the program's own verdicts. The last line
// of standard output is the result as one JSON object.
//
// Exit codes: 0 ok, 2 bad invocation or refused build/host, 3 a verdict
// failed, 4 the per-layer ledger is incomplete.

#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/system.h"
#include "layers.h"
#include "obs/chrome_trace.h"
#include "obs/prometheus.h"
#include "workloads.h"

namespace lazybench {
namespace {

namespace core = lazyrep::core;

constexpr size_t kMeasuredReps = 30;
/// A rep of a T-second run is T / kFullSeconds of the workload's size.
constexpr double kFullSeconds = 10;
constexpr double kSmokeScale = 1.0 / 20;

constexpr int kExitUsage = 2;
constexpr int kExitVerdict = 3;
constexpr int kExitLedger = 4;

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  bool list = false;
  bool smoke = false;
  bool smoke_naive = false;
};

[[noreturn]] void Fail(int code, const std::string& message) {
  std::fprintf(stderr, "lazybench: %s\n", message.c_str());
  std::exit(code);
}

bool Flag(const char* arg, const char* name, std::string* value) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string v;
    char* end = nullptr;
    if (Flag(arg, "--workload", &v)) {
      o.workload = v;
    } else if (Flag(arg, "--seed", &v)) {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Fail(kExitUsage, "bad --seed: " + v);
    } else if (Flag(arg, "--seconds", &v)) {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0)) {
        Fail(kExitUsage, "bad --seconds: " + v);
      }
    } else if (Flag(arg, "--trace", &v)) {
      if (v != "0" && v != "1") Fail(kExitUsage, "--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (Flag(arg, "--out", &v)) {
      o.out = v;
    } else if (std::strcmp(arg, "--list") == 0) {
      o.list = true;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      o.smoke = true;
    } else if (std::strcmp(arg, "--smoke-naive") == 0) {
      o.smoke_naive = true;
    } else {
      Fail(kExitUsage,
           std::string("unknown argument '") + arg +
               "' (--workload=NAME --seed=S --seconds=T --trace=0|1 "
               "--out=DIR | --list | --smoke [--smoke-naive])");
    }
  }
  if (o.smoke_naive && !o.smoke) {
    Fail(kExitUsage, "--smoke-naive is a smoke-only override");
  }
  return o;
}

// ---- measurements ----------------------------------------------------------

double Median(std::vector<double> x) {
  std::sort(x.begin(), x.end());
  const size_t n = x.size();
  return n % 2 == 1 ? x[n / 2] : (x[n / 2 - 1] + x[n / 2]) / 2;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

// Volatile so the compiler can neither fold the kernel's identical walks
// into one nor drop them.
volatile uint32_t g_kernel_start = 0;
volatile uint32_t g_kernel_sink = 0;

/// The unit of the scaled metrics: they are reported at the host speed at
/// which HostKernelSeconds() takes this long (about its time on a quiet
/// 4-vCPU Sapphire Rapids KVM guest). On another host this changes the
/// unit only, the same for both sides of a comparison.
constexpr double kQuietKernelSeconds = 0.035;

constexpr size_t kKernelSlots = size_t{1} << 20;  // 4 MiB of uint32_t.

struct FreeDeleter {
  void operator()(uint32_t* p) const { std::free(p); }
};
using KernelCycle = std::unique_ptr<uint32_t[], FreeDeleter>;

/// A random cycle through every slot, in memory aligned to and, where the
/// OS allows, backed by 2-MiB pages. On 4-KiB pages the cycle's cache-set
/// layout depends on which physical pages the process got: the walk's
/// median time then ranged from 11 to 20 ms between processes started one
/// after another, against 9.4 to 10.4 ms on 2-MiB pages.
KernelCycle MakeKernelCycle() {
  constexpr size_t kBytes = kKernelSlots * sizeof(uint32_t);
  constexpr size_t kHugePage = size_t{2} << 20;
  KernelCycle next(
      static_cast<uint32_t*>(std::aligned_alloc(kHugePage, kBytes)));
  if (next == nullptr) Fail(kExitUsage, "cannot allocate the host kernel");
  // Advice, before the first touch; if refused, 4-KiB pages it is.
  ::madvise(next.get(), kBytes, MADV_HUGEPAGE);
  // Sattolo's shuffle: one cycle through every slot.
  for (size_t i = 0; i < kKernelSlots; ++i) next[i] = static_cast<uint32_t>(i);
  lazyrep::Rng rng(7);
  for (size_t i = kKernelSlots - 1; i > 0; --i) {
    std::swap(next[i], next[rng.Below(i)]);
  }
  return next;
}

/// 400 000 dependent loads along the cycle.
uint32_t KernelWalk(const uint32_t* next) {
  uint32_t at = g_kernel_start;
  for (int i = 0; i < 400000; ++i) at = next[at];
  return at;
}

/// Seconds of a fixed kernel: four identical walks, timed after a fifth.
/// The untimed one loads into L2 and L3 exactly the lines the timed ones
/// read, so what the previous rep left in the caches does not matter; the
/// kernel uses no library code and allocates nothing per call, so a
/// change to the program cannot change its time, while the host's speed
/// at the moment (clock, cache and memory contention from other guests)
/// can. Of the kernels tried (512 KiB, 1 MiB, 16 MiB and 64 MiB chases,
/// fresh-page faults, pure ALU, std::map work, four threads at once) a
/// 4-MiB chase tracked the program's CPU-bound metrics best. One walk
/// varies by about 20% from one rep to the next; four average that down.
double HostKernelSeconds() {
  static const KernelCycle next = MakeKernelCycle();
  g_kernel_sink = KernelWalk(next.get());
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 4; ++i) g_kernel_sink = KernelWalk(next.get());
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

// ---- guards ----------------------------------------------------------------

void RefuseNonRelease() {
#ifndef NDEBUG
  Fail(kExitUsage, "refusing a build with assertions on (NDEBUG unset)");
#endif
  if (std::string(LAZYBENCH_BUILD_TYPE) != "Release") {
    Fail(kExitUsage, std::string("refusing to run a '") +
                         LAZYBENCH_BUILD_TYPE +
                         "' build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
}

/// Executor threads plus the thread that calls Run must fit the host's
/// CPUs, or the run measures the OS scheduler instead of the program.
void RefuseOversubscription(const core::SystemConfig& config) {
  if (config.runtime != lazyrep::runtime::RuntimeKind::kThreads) return;
  const lazyrep::workload::Params& p = config.workload;
  const int machines =
      (p.num_sites + p.sites_per_machine - 1) / p.sites_per_machine;
  const int threads = machines * config.workers_per_site + 1;
  if (threads > Nproc()) {
    Fail(kExitUsage, "workload needs " + std::to_string(threads) +
                         " threads (executors + caller) but nproc is " +
                         std::to_string(Nproc()));
  }
}

// ---- reps ------------------------------------------------------------------

/// Empty when every verdict of the rep passed, else why not.
std::string VerdictFailure(const core::SystemConfig& config,
                           const core::RunMetrics& m) {
  if (m.timed_out) return "timed out before propagation drained";
  if (!m.checked) return "history was not checked";
  if (!m.serializable) return m.verdict;
  if (!m.reads_consistent) return "reads inconsistent: " + m.verdict;
  const bool snapshot_level =
      config.consistency != lazyrep::storage::ConsistencyLevel::kSerializable;
  if (snapshot_level && !m.snapshots_consistent) {
    return "snapshots inconsistent: " + m.verdict;
  }
  if (!m.converged) return "replicas did not converge";
  if (CommittedTxns(m) != ClientTxns(config)) {
    return "committed " + std::to_string(CommittedTxns(m)) + " of " +
           std::to_string(ClientTxns(config)) + " client transactions";
  }
  return "";
}

/// Measured rep `index` draws its transactions (and faults) from sub-seed
/// `index` of the run seed. The simulated metrics of the sim workload are
/// a function of the seed alone, so their median over reps then covers
/// `kMeasuredReps` input streams instead of repeating one.
core::SystemConfig RepConfig(core::SystemConfig config, uint64_t seed,
                             size_t index) {
  config.seed = seed * 1000 + index;
  return config;
}

/// One rep: create, run, verify. A failed verdict ends the process.
/// With `keep`, the system outlives the rep for per-layer collection.
RepMeasure RunRep(const core::SystemConfig& config, const std::string& label,
                  std::unique_ptr<core::System>* keep = nullptr) {
  RepMeasure rep;
  Clock::time_point t0 = Clock::now();
  lazyrep::Result<std::unique_ptr<core::System>> created =
      core::System::Create(config);
  rep.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!created.ok()) Fail(kExitUsage, created.status().ToString());
  std::unique_ptr<core::System> system = std::move(*created);
  // As RunSeeds does: re-arm the runtime clock so that set-up is not
  // billed to the run.
  system->runtime().Reset();
  const double cpu0 = ProcessCpuSeconds();
  Clock::time_point t1 = Clock::now();
  rep.metrics = system->Run();
  rep.run_s = std::chrono::duration<double>(Clock::now() - t1).count();
  rep.cpu_s = ProcessCpuSeconds() - cpu0;
  std::string why = VerdictFailure(config, rep.metrics);
  if (!why.empty()) Fail(kExitVerdict, label + ": verdict failed: " + why);
  if (keep != nullptr) *keep = std::move(system);
  return rep;
}

// ---- output ----------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& xs) {
  std::string out;
  for (size_t i = 0; i < xs.size(); ++i) out += (i ? ", " : "") + Num(xs[i]);
  return out;
}

/// The values of `from` that `defs` declares.
MetricValues Pick(const std::vector<MetricDef>& defs,
                  const MetricValues& from) {
  MetricValues out;
  for (const MetricDef& d : defs) {
    auto it = from.find(d.name);
    if (it != from.end()) out.insert(*it);
  }
  return out;
}

/// Every declared metric present and finite, none extra.
void CheckComplete(const std::vector<MetricDef>& defs,
                   const MetricValues& values, const std::string& what) {
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    if (it == values.end() || !std::isfinite(it->second) ||
        std::strlen(d.unit) == 0) {
      Fail(kExitLedger,
           what + ": metric " + d.name + " missing or not finite");
    }
  }
  if (values.size() != defs.size()) {
    Fail(kExitLedger, what + ": undeclared metrics emitted");
  }
}

std::string MetricsJson(const std::vector<MetricDef>& defs,
                        const MetricValues& values) {
  std::string out = "{";
  for (const MetricDef& d : defs) {
    if (out.size() > 1) out += ", ";
    out.append("\"").append(d.name).append("\": {\"value\": ");
    out.append(Num(values.at(d.name))).append(", \"unit\": \"");
    out.append(d.unit).append("\"}");
  }
  return out + "}";
}

std::string ValuesJson(const MetricValues& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + Num(value);
  }
  return out + "}";
}

std::string ProvenanceJson(const Options& o) {
  return std::string("{\"commit\": \"") + LAZYBENCH_GIT_COMMIT +
         "\", \"build_type\": \"" + LAZYBENCH_BUILD_TYPE +
         "\", \"nproc\": " + std::to_string(Nproc()) +
         ", \"workload\": \"" + o.workload +
         "\", \"seed\": " + std::to_string(o.seed) +
         ", \"seconds\": " + Num(o.seconds) +
         ", \"trace\": " + (o.trace ? "1" : "0") + "}";
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f.good()) Fail(kExitUsage, "cannot write " + path);
}

// ---- the stages ------------------------------------------------------------

/// A traced rep and the per-layer metrics read from it.
struct Traced {
  std::unique_ptr<core::System> system;
  RepMeasure rep;
  MetricValues layers;
  MetricValues extras;
  LedgerCheck ledger;
};

/// Runs `config` once with tracing on and collects its per-layer metrics
/// against the untraced median CPU; `untraced` holds the per-layer
/// metrics the untraced reps measured. A threads workload whose ledger is
/// missing a layer ends the process.
Traced RunTraced(const Workload& workload, core::SystemConfig config,
                 const MetricValues& untraced, double untraced_cpu_us_per_txn,
                 const std::string& label) {
  config.enable_trace = true;
  Traced t;
  t.rep = RunRep(config, label, &t.system);
  t.layers = CollectLayers(workload, *t.system, t.rep,
                           untraced_cpu_us_per_txn, &t.ledger, &t.extras);
  t.layers.insert(untraced.begin(), untraced.end());
  CheckComplete(LayerMetrics(), t.layers, label);
  if (workload.threads && !t.ledger.missing.empty()) {
    std::string names;
    for (const std::string& n : t.ledger.missing) names += " " + n;
    Fail(kExitLedger, label + ": ledger incomplete, no work measured for:" +
                          names);
  }
  return t;
}

int RunWorkload(const Options& o) {
  const Workload* workload = FindWorkload(o.workload);
  if (workload == nullptr) {
    std::string names;
    for (const Workload& w : Workloads()) names += " " + w.name;
    Fail(kExitUsage, "unknown --workload '" + o.workload + "' (one of:" +
                         names + ")");
  }
  const core::SystemConfig config =
      MakeConfig(*workload, o.seed, o.seconds / kFullSeconds);
  RefuseOversubscription(config);
  std::printf("# lazybench %s\n", ProvenanceJson(o).c_str());
  std::fflush(stdout);
  if (!o.out.empty()) ::mkdir(o.out.c_str(), 0755);

  // Stage 1: the first rep after idle runs slow; discard it. Its memory
  // high-water mark is peak_rss_mb: that of one rep in a fresh process.
  RunRep(RepConfig(config, o.seed, 0), "warm-up");
  const double peak_rss_mb = PeakRssMb();

  // Stage 2: measured reps, tracing off. The host's speed changes by 20%
  // and more from one second to the next and drifts by up to 2x over
  // minutes, so the host kernel runs right before each rep and scales
  // that rep's host-clock values.
  std::vector<MetricValues> reps;    // As measured.
  std::vector<MetricValues> scaled;  // At the reference host speed.
  std::vector<double> kernel_s;
  int64_t attempted = 0, committed = 0;
  while (reps.size() < kMeasuredReps) {
    kernel_s.push_back(HostKernelSeconds());
    RepMeasure rep = RunRep(RepConfig(config, o.seed, reps.size()),
                            "rep " + std::to_string(reps.size() + 1));
    attempted += ClientTxns(config);
    committed += CommittedTxns(rep.metrics);
    reps.push_back(UntracedValuesOf(rep));
    scaled.push_back(reps.back());
    ScaleToReferenceSpeed(kernel_s.back() / kQuietKernelSeconds, *workload,
                          &scaled.back());
    std::printf("# rep %zu %s\n", reps.size(),
                ValuesJson(reps.back()).c_str());
    std::fflush(stdout);
  }
  const double slowdown = Median(kernel_s) / kQuietKernelSeconds;
  std::printf("# host slowdown %s (kernel median %s s)\n",
              Num(slowdown).c_str(), Num(Median(kernel_s)).c_str());
  MetricValues measured, untraced;  // Medians over the reps.
  std::string per_rep = "{";
  for (const auto& [name, unused] : reps.front()) {
    std::vector<double> xs, ys;
    for (size_t i = 0; i < reps.size(); ++i) {
      xs.push_back(reps[i].at(name));
      ys.push_back(scaled[i].at(name));
    }
    measured[name] = Median(xs);
    untraced[name] = Median(ys);
    if (per_rep.size() > 1) per_rep += ", ";
    per_rep += "\"" + name + "\": [" + NumList(xs) + "]";
  }
  per_rep += "}";
  untraced["peak_rss_mb"] = peak_rss_mb;
  const MetricValues e2e = Pick(EndToEndMetrics(), untraced);
  CheckComplete(EndToEndMetrics(), e2e, "end-to-end");

  // Stage 3: one traced rep for the per-layer metrics.
  Traced traced;
  if (o.trace) {
    // The ledger splits the measured CPU (the replays are measured too).
    traced = RunTraced(*workload, RepConfig(config, o.seed, 0),
                       Pick(LayerMetrics(), untraced),
                       measured.at("cpu_us_per_txn"), "traced rep");
    attempted += ClientTxns(config);
    committed += CommittedTxns(traced.rep.metrics);
    if (!o.out.empty()) {
      std::ofstream trace_out(o.out + "/trace.json");
      lazyrep::obs::WriteChromeTrace(*traced.system->trace(), trace_out);
      std::ofstream prom_out(o.out + "/metrics.prom");
      lazyrep::obs::WritePrometheus(traced.system->obs_registry(), prom_out);
    }
    for (const auto& [name, value] : traced.layers) {
      std::printf("# layer %s %s\n", name.c_str(), Num(value).c_str());
    }
    for (const auto& [name, value] : traced.extras) {
      std::printf("# extra %s %s\n", name.c_str(), Num(value).c_str());
    }
    if (traced.ledger.negative_unattributed) {
      std::printf("# FLAG ledger.unattributed_ns_per_txn < 0: the isolated "
                  "replays overstate in-situ cost (see README.md)\n");
    }
  }

  const std::string result =
      std::string("{\"correct\": true, \"attempted\": ") +
      std::to_string(attempted) +
      ", \"failed\": " + std::to_string(attempted - committed) +
      ", \"metrics\": " +
      (o.trace ? MetricsJson(LayerMetrics(), traced.layers)
               : MetricsJson(EndToEndMetrics(), e2e)) +
      "}";
  if (!o.out.empty()) {
    WriteFile(o.out + "/result.json",
              "{\"provenance\": " + ProvenanceJson(o) +
                  ",\n \"host_slowdown\": " + Num(slowdown) +
                  ",\n \"host_kernel_s\": [" + NumList(kernel_s) + "]" +
                  ",\n \"reps_measured\": " + per_rep +
                  ",\n \"untraced\": " + ValuesJson(untraced) +
                  ",\n \"per_layer\": " + ValuesJson(traced.layers) +
                  ",\n \"extras\": " + ValuesJson(traced.extras) +
                  ",\n \"ledger_negative_unattributed\": " +
                  (traced.ledger.negative_unattributed ? "true" : "false") +
                  ",\n \"result\": " + result + "}\n");
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

/// Every workload at 1/20 scale, one untraced and one traced rep: the
/// verdicts pass and every declared metric is emitted with its unit.
/// `--smoke-naive` instead runs table1_dagwt under NaiveLazy, the
/// non-serializable negative control, which must fail its verdict.
int RunSmoke(const Options& o) {
  for (const Workload& w : Workloads()) {
    if (o.smoke_naive && w.name != "table1_dagwt") continue;
    core::SystemConfig config = MakeConfig(w, o.seed, kSmokeScale);
    if (o.smoke_naive) {
      // On the b = 0 placement every copy edge points to a later site and
      // the backlogged appliers happen to apply in causal order, so
      // NaiveLazy ran serializable in every real-cost run tried; Table
      // 1's b = 0.2 placement adds backedges, and its anomalies show at
      // once.
      config.protocol = core::Protocol::kNaiveLazy;
      config.placement.reset();
      config.workload.backedge_prob = 0.2;
    }
    RefuseOversubscription(config);
    RepMeasure rep = RunRep(config, w.name);
    MetricValues values = UntracedValuesOf(rep);
    values["peak_rss_mb"] = PeakRssMb();
    CheckComplete(EndToEndMetrics(), Pick(EndToEndMetrics(), values),
                  w.name + " end-to-end");
    RunTraced(w, config, Pick(LayerMetrics(), values),
              values.at("cpu_us_per_txn"), w.name + " traced");
    std::printf("smoke %s ok (%lld txns)\n", w.name.c_str(),
                static_cast<long long>(CommittedTxns(rep.metrics)));
  }
  return 0;
}

}  // namespace
}  // namespace lazybench

int main(int argc, char** argv) {
  using namespace lazybench;
  Options options = ParseOptions(argc, argv);
  if (options.list) {
    for (const MetricDef& d : EndToEndMetrics()) {
      std::printf("end_to_end %s %s\n", d.name, d.unit);
    }
    for (const MetricDef& d : LayerMetrics()) {
      std::printf("per_layer %s %s\n", d.name, d.unit);
    }
    for (const Workload& w : Workloads()) {
      std::printf("workload %s\n", w.name.c_str());
    }
    return 0;
  }
  RefuseNonRelease();
  if (options.smoke) return RunSmoke(options);
  if (options.workload.empty()) {
    std::fprintf(stderr, "lazybench: --workload=NAME is required\n");
    return kExitUsage;
  }
  return RunWorkload(options);
}
