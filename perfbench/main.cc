// FluidMem end-to-end benchmark.
//
//   perfbench --workload {pmbench|storm|tenants} --seed N --seconds S
//             --trace {0|1} [--spans PATH]
//
// Untraced (--trace 0): repeats the workload's full run (stack
// construction, input generation, warm-up, measured phase, read-back
// sweep) until S seconds of wall time have passed, at least three times.
// Virtual-time metrics come from the measured phase and must repeat
// exactly from run to run; host metrics are medians over the runs.
// `tenants` additionally bisects the load multiplier for its SLO knee.
//
// Traced (--trace 1): half the time untraced, half with every layer call
// wrapped in a span and a TimingStore at every store boundary. Prints the
// per-layer metrics; fails if tracing moved any virtual number.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// The exit code is nonzero on any read-back mismatch, failed access,
// unequal storm work or difference between runs of one seed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stacks.h"
#include "tracer.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinRuns = 3;

struct Metric {
  std::string name;
  std::string unit;
};

const std::vector<Metric>& EndToEndMetrics() {
  static const std::vector<Metric> m = {
      {"access_mean_us", "us"},     {"access_p50_us", "us"},
      {"access_p99_us", "us"},      {"access_p999_us", "us"},
      {"vthroughput_per_ms", "1/ms"}, {"host_ns_per_access", "ns"},
      {"peak_rss_mb", "MB"},        {"setup_s", "s"},
  };
  return m;
}

constexpr std::array<Layer, 5> kStoreLayers = {
    Layer::kResilient, Layer::kReplicated, Layer::kIntegrity, Layer::kRamcloud,
    Layer::kLocal};
constexpr std::array<Call, 5> kStoreVerbs = {Call::kGet, Call::kMultiGet,
                                             Call::kPut, Call::kMultiPut,
                                             Call::kMaint};

const std::vector<Metric>& PerLayerMetrics() {
  static const std::vector<Metric> m = [] {
    std::vector<Metric> v = {
        {"mem.host_ns", "ns"},
        {"vm.host_self_ns", "ns"},
        {"fluidmem.host_self_ns", "ns"},
        {"fluidmem.faults_per_access", "ratio"},
        {"fluidmem.fault_p50_us", "us"},
        {"fluidmem.fault_p99_us", "us"},
    };
    for (const char* s :
         {"kernel_delivery", "queue_wait", "dispatch", "lock_wait", "classify",
          "remote_read", "eviction", "writeback", "install", "wake"})
      v.push_back({std::string("fluidmem.stage.") + s + "_us", "us"});
    for (const char* s : {"victim_queue", "evict", "coalesce_wait",
                          "store_write", "prefetch_read", "prefetch_install"}) {
      v.push_back({std::string("fluidmem.pipe.") + s + "_us", "us"});
      v.push_back({std::string("fluidmem.pipe.") + s + "_count", "count"});
    }
    for (const char* s :
         {"steal_frac", "evictions_per_fault", "flush_pages_per_batch"})
      v.push_back({std::string("fluidmem.") + s, "ratio"});
    v.push_back({"fluidmem.engine.batched_read_frac", "ratio"});
    for (const char* s : {"coalesced_reads", "work_steals", "io_window_waits",
                          "deferred_evictions"})
      v.push_back({std::string("fluidmem.engine.") + s, "count"});
    v.push_back({"fluidmem.engine.lock_wait_us", "us"});
    v.push_back({"fluidmem.engine.shard_skew", "ratio"});
    v.push_back({"fluidmem.prefetch.pages_per_fault", "ratio"});
    v.push_back({"fluidmem.prefetch.hit_frac", "ratio"});
    v.push_back({"fluidmem.prefetch.wasted", "count"});
    v.push_back({"fluidmem.prefetch.gated_skips", "count"});
    v.push_back({"fluidmem.tracker.bytes_per_page", "B"});
    for (const Layer b : kStoreLayers) {
      const std::string prefix = "kvstore." + std::string(LayerName(b)) + ".";
      for (const Call c : kStoreVerbs) {
        v.push_back({prefix + std::string(CallName(c)) + ".calls", "count"});
        v.push_back({prefix + std::string(CallName(c)) + ".vlat_us", "us"});
      }
      v.push_back({prefix + "host_self_ns", "ns"});
    }
    v.push_back({"kvstore.multiput.objects_per_batch", "ratio"});
    v.push_back({"kvstore.pages_written_per_write", "ratio"});
    for (const char* s : {"retries", "hedged_reads", "scrub_pages", "repairs"})
      v.push_back({std::string("kvstore.") + s, "count"});
    for (const char* s : {"gen_s", "warmup_s", "oracle_s"})
      v.push_back({std::string("bench.") + s, "s"});
    v.push_back({"obs.trace_overhead_frac", "ratio"});
    v.push_back({"obs.stage_reconcile_err", "ratio"});
    return v;
  }();
  return m;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Elapsed(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool SameVirtual(const RunResult& a, const RunResult& b) {
  return a.fingerprint == b.fingerprint && a.accesses == b.accesses &&
         a.failed == b.failed && a.mean_us == b.mean_us &&
         a.p50_us == b.p50_us && a.p99_us == b.p99_us &&
         a.p999_us == b.p999_us &&
         a.vthroughput_per_ms == b.vthroughput_per_ms &&
         a.layer == b.layer;
}

struct Outcome {
  bool correct = true;
  std::string why;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Fail(const std::string& what) {
    if (correct) why = what;
    correct = false;
  }
  void Count(const RunResult& r) {
    attempted += r.accesses;
    failed += r.failed;
    if (!r.ok) Fail(r.failure);
  }
};

// Per-layer host figures summed over traced runs.
struct HostLayers {
  double accesses = 0;
  std::array<double, kLayerCount> self_ns{};
  std::array<double, kLayerCount> total_ns{};

  void Add(const Tracer& t, double n) {
    accesses += n;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      self_ns[l] += static_cast<double>(t.layer(Layer(l)).self_ns);
      total_ns[l] += static_cast<double>(t.layer(Layer(l)).total_ns);
    }
  }
  double SelfPerAccess(Layer l) const {
    return accesses > 0 ? self_ns[std::size_t(l)] / accesses : 0;
  }
  double TotalPerAccess(Layer l) const {
    return accesses > 0 ? total_ns[std::size_t(l)] / accesses : 0;
  }
};

// Store-boundary call counts and virtual latencies of one traced run.
void AddStoreLayers(const Tracer& t, std::map<std::string, double>& out) {
  const auto written = [&](Layer b) {
    const LayerAgg& a = t.layer(b);
    return static_cast<double>(a.calls[std::size_t(Call::kPut)].calls +
                               a.calls[std::size_t(Call::kMultiPut)].objects);
  };
  Layer top = Layer::kCount, bottom = Layer::kCount;
  for (const Layer b : kStoreLayers) {
    const LayerAgg& a = t.layer(b);
    const std::string prefix = "kvstore." + std::string(LayerName(b)) + ".";
    std::uint64_t calls = 0;
    for (const Call c : kStoreVerbs) {
      const CallAgg& ca = a.calls[std::size_t(c)];
      calls += ca.calls;
      out[prefix + std::string(CallName(c)) + ".calls"] =
          static_cast<double>(ca.calls);
      out[prefix + std::string(CallName(c)) + ".vlat_us"] =
          ca.calls ? ca.vlat_ns / static_cast<double>(ca.calls) / 1000.0 : 0;
    }
    if (calls == 0) continue;
    if (top == Layer::kCount) top = b;
    bottom = b;
  }
  if (top == Layer::kCount) return;
  const CallAgg& mp = t.layer(top).calls[std::size_t(Call::kMultiPut)];
  out["kvstore.multiput.objects_per_batch"] =
      mp.calls ? static_cast<double>(mp.objects) / static_cast<double>(mp.calls)
               : 0;
  const double user = written(top);
  out["kvstore.pages_written_per_write"] =
      user > 0 ? written(bottom) / user : 0;
}

// Highest total offered rate (accesses per virtual ms) at which every
// steady tenant meets its p99 SLO and the backlog does not grow, found by
// bisecting the load multiplier to within 2%.
struct Knee {
  double per_ms = 0;
  double lo = 0, hi = 0;
  int runs = 0;
};

Knee FindKnee(std::uint64_t seed, const RunResult& standard, Outcome& out) {
  Knee k;
  std::map<double, RunResult> runs;
  runs.emplace(1.0, standard);
  const auto within = [&](double m) {
    auto it = runs.find(m);
    if (it == runs.end()) {
      it = runs.emplace(m, RunOnce(Workload::kTenants, seed, m, nullptr)).first;
      out.Count(it->second);
      ++k.runs;
      const RunResult& r = it->second;
      std::printf("    load %.4fx: offered %.3f/ms, worst steady p99/SLO %.3f, "
                  "lag %.1f us at midpoint, %.1f us at end -> %s\n",
                  m, r.offered_per_ms, r.steady_p99_over_slo, r.lag_mid_us,
                  r.lag_end_us, r.within_slo ? "within SLO" : "over");
    }
    return it->second.within_slo;
  };
  double lo = 1.0, hi = 2.0;
  if (within(lo)) {
    while (within(hi) && hi < 64) {
      lo = hi;
      hi *= 2;
    }
  } else {
    hi = lo;
    lo = 0.5;
    while (!within(lo) && lo > 1.0 / 64) {
      hi = lo;
      lo /= 2;
    }
  }
  while (hi / lo > 1.02 && out.correct) {
    const double mid = std::sqrt(lo * hi);
    (within(mid) ? lo : hi) = mid;
  }
  k.lo = lo;
  k.hi = hi;
  if (runs.at(lo).within_slo) k.per_ms = runs.at(lo).offered_per_ms;
  return k;
}

void PrintRow(const std::string& name, double value, const std::string& unit) {
  std::printf("  %-42s %18.6f  %s\n", name.c_str(), value, unit.c_str());
}

void PrintJson(const Outcome& out, const std::vector<Metric>& defs,
               const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name.c_str(), v,
                defs[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload {pmbench|storm|tenants} "
               "--seed N --seconds S --trace {0|1} [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_path;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, &end, 10);
      if (end == val || *end != '\0') return Usage();
    } else if (flag == "--seconds") {
      seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') return Usage();
    } else if (flag == "--trace") {
      trace = std::atoi(val);
    } else if (flag == "--spans") {
      spans_path = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || seconds <= 0 || seconds > 600 ||
      (trace != 0 && trace != 1))
    return Usage();
  Workload w;
  if (workload_name == "pmbench")
    w = Workload::kPmbench;
  else if (workload_name == "storm")
    w = Workload::kStorm;
  else if (workload_name == "tenants")
    w = Workload::kTenants;
  else
    return Usage();

  const auto start = Clock::now();
  Outcome out;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload_name.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace);

  // Untraced runs: every run of one seed must reproduce the first exactly.
  const double plain_budget = trace == 1 ? seconds / 2 : seconds;
  std::vector<RunResult> plain;
  do {
    plain.push_back(RunOnce(w, seed, 1.0, nullptr));
    out.Count(plain.back());
    if (!SameVirtual(plain.back(), plain.front()))
      out.Fail("two untraced runs of one seed differ");
  } while (out.correct &&
           (plain.size() < kMinRuns || Elapsed(start) < plain_budget));
  const RunResult& v = plain.front();
  std::vector<double> host_ns, setup_s, measure_s;
  for (const RunResult& r : plain) {
    host_ns.push_back(r.accesses ? r.measure_s * 1e9 / double(r.accesses) : 0);
    setup_s.push_back(r.setup_s);
    measure_s.push_back(r.measure_s);
  }

  std::map<std::string, double> values;
  const std::vector<Metric>* defs = nullptr;
  if (trace == 0) {
    defs = &EndToEndMetrics();
    values["access_mean_us"] = v.mean_us;
    values["access_p50_us"] = v.p50_us;
    values["access_p99_us"] = v.p99_us;
    values["access_p999_us"] = v.p999_us;
    values["vthroughput_per_ms"] = v.vthroughput_per_ms;
    values["host_ns_per_access"] = Median(host_ns);
    values["peak_rss_mb"] = PeakRssMb();
    values["setup_s"] = Median(setup_s);
  } else {
    defs = &PerLayerMetrics();
    std::unique_ptr<Tracer> tracer;
    HostLayers host;
    std::vector<RunResult> traced;
    std::vector<double> gen_s, warmup_s, oracle_s, traced_measure_s;
    do {
      tracer = std::make_unique<Tracer>();
      traced.push_back(RunOnce(w, seed, 1.0, tracer.get()));
      const RunResult& r = traced.back();
      out.Count(r);
      // Tracing only observes: every virtual number must match the
      // untraced runs bit for bit.
      RunResult untraced_view = r;
      untraced_view.layer = v.layer;
      if (!SameVirtual(untraced_view, v))
        out.Fail("tracing changed the simulation");
      if (r.layer != traced.front().layer)
        out.Fail("two traced runs of one seed differ");
      host.Add(*tracer, static_cast<double>(r.accesses));
      gen_s.push_back(r.gen_s);
      warmup_s.push_back(r.warmup_s);
      oracle_s.push_back(r.oracle_s);
      traced_measure_s.push_back(r.measure_s);
    } while (out.correct && Elapsed(start) < seconds);
    values = traced.front().layer;
    AddStoreLayers(*tracer, values);
    values["mem.host_ns"] = host.TotalPerAccess(Layer::kMem);
    values["vm.host_self_ns"] = host.SelfPerAccess(Layer::kVm);
    values["fluidmem.host_self_ns"] = host.SelfPerAccess(Layer::kFluidmem);
    for (const Layer b : kStoreLayers)
      values["kvstore." + std::string(LayerName(b)) + ".host_self_ns"] =
          host.SelfPerAccess(b);
    values["bench.gen_s"] = Median(gen_s);
    values["bench.warmup_s"] = Median(warmup_s);
    values["bench.oracle_s"] = Median(oracle_s);
    const double base = Median(measure_s);
    values["obs.trace_overhead_frac"] =
        base > 0 ? Median(traced_measure_s) / base - 1.0 : 0;
    // A misspelt metric must not pass as an absent layer.
    for (const auto& [name, value] : values) {
      const bool known = std::any_of(
          defs->begin(), defs->end(),
          [&name](const Metric& m) { return m.name == name; });
      if (!known) out.Fail("unlisted per-layer metric " + name);
    }
    if (!spans_path.empty() && !tracer->WriteTsv(spans_path))
      out.Fail("could not write " + spans_path);
    std::printf("traced runs: %zu, spans in the last: %zu%s%s\n",
                traced.size(), tracer->span_count(),
                spans_path.empty() ? "" : ", written to ",
                spans_path.c_str());
  }

  Knee knee;
  if (trace == 0 && w == Workload::kTenants) {
    std::printf("SLO knee search (load multiplier x standard rates):\n");
    knee = FindKnee(seed, v, out);
  }
  std::printf("untraced runs: %zu; measured phase: %llu accesses in %.3f "
              "virtual ms, %.3f host s (median)\n",
              plain.size(), static_cast<unsigned long long>(v.accesses),
              v.span_ms, Median(measure_s));
  std::printf("host ns per access over the untraced runs: min %.1f, median "
              "%.1f, max %.1f\n",
              *std::min_element(host_ns.begin(), host_ns.end()),
              Median(host_ns),
              *std::max_element(host_ns.begin(), host_ns.end()));
  std::printf("  %-42s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : *defs) {
    const double value = values.count(m.name) ? values[m.name] : 0.0;
    if (!std::isfinite(value)) out.Fail("non-finite metric " + m.name);
    PrintRow(m.name, value, m.unit);
  }
  if (trace == 0) {
    // Reported beside the bounded metrics: zero by design, or defined for
    // one workload only.
    PrintRow("accesses", static_cast<double>(v.accesses), "count");
    PrintRow("failed_frac",
             out.attempted ? double(out.failed) / double(out.attempted) : 0,
             "ratio");
    if (w == Workload::kTenants) {
      PrintRow("slo_knee_per_ms", knee.per_ms, "1/ms");
      std::printf("    knee: load multiplier in [%.4f, %.4f] after %d "
                  "extra runs; offered %.3f/ms at 1.0x; generator lateness "
                  "0 by construction (arrivals are virtual time)\n",
                  knee.lo, knee.hi, knee.runs, v.offered_per_ms);
    }
  }
  if (!out.correct) std::printf("FAILED: %s\n", out.why.c_str());
  PrintJson(out, *defs, values);
  return out.correct ? 0 : 1;
}
